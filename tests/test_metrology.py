import math

import numpy as np
import pytest

from conftest import random_params, random_pure_state
from spinsense.errors import DomainError, SingularInformationError
from spinsense.metrology import (SensCov, _qfi_from_frame, avg_qfi, avg_variance,
                                 classical_fi, cov_matrix, crb, fi_from_model, gaussian_fi,
                                 qfi_rotation_matrix, qfi_single_mixed, qfi_single_pure,
                                 reparametrize, singular_diagnosis, sld)
from spinsense.states import (BlochPoint, SpinState, basis_state, balanced_state,
                              cat_state, coherent_state, king_state, noon_state)
from spinsense.su2 import (HalfInt, RotationParams, cartesian_frame, generator_frame,
                           make_operators, rotation_unitary, so3_matrix)


class TestCovMatrix:
    def test_coherent(self):
        c = cov_matrix(coherent_state(HalfInt(4), BlochPoint(0, 0)))
        assert np.max(np.abs(c.c - np.diag([1.0, 1.0, 0.0]))) < 1e-12
        assert c.is_singular()

    def test_noon_j2(self):
        c = cov_matrix(noon_state(HalfInt(4)))
        assert np.max(np.abs(c.c - np.diag([1.0, 1.0, 4.0]))) < 1e-12
        assert abs(c.det() - 4.0) < 1e-10
        assert abs(c.trace_inverse() - 9.0 / 4.0) < 1e-12

    def test_king3(self):
        c = cov_matrix(king_state(HalfInt(6)))
        assert np.max(np.abs(c.c - 4.0 * np.eye(3))) < 1e-10

    def test_trace_rule(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            j = HalfInt(int(rng.integers(1, 9)))
            st = random_pure_state(j, rng)
            c = cov_matrix(st)
            spin = st.mean_spin()
            expect = j.j * (j.j + 1.0) - float(spin @ spin)
            assert abs(c.trace - expect) < 1e-10

    def test_rotation_transformation(self):
        # C(R psi) = M C(psi) M^T with M = so3_matrix(p)
        rng = np.random.default_rng(31)
        for _ in range(30):
            j = HalfInt(int(rng.integers(1, 9)))
            st = random_pure_state(j, rng)
            p = random_params(rng)
            m = so3_matrix(p)
            c_rot = cov_matrix(st.rotate(p)).c
            assert np.max(np.abs(c_rot - m @ cov_matrix(st).c @ m.T)) < 1e-10

    def test_singular_iff_eigenstate(self):
        rng = np.random.default_rng(32)
        j = HalfInt(6)
        for _ in range(10):
            m_val = [3, 2, 1, 0][int(rng.integers(0, 4))]
            st = basis_state(j, m_val).rotate(random_params(rng))
            assert cov_matrix(st).is_singular()
        for _ in range(10):
            st = random_pure_state(j, rng)
            assert not cov_matrix(st).is_singular()

    def test_singular_by_relative_gap(self):
        # the rank rule of every information matrix: a relative gap of 5e-10
        # is full rank however small the covariance
        assert not SensCov(c=np.diag([5e-12, 1e-2, 1e-2])).is_singular()
        assert SensCov(c=np.diag([5e-13, 1e-2, 1e-2])).is_singular()


class TestQfiSingle:
    def test_noon_jz(self):
        j = HalfInt(4)
        st = noon_state(j)
        assert abs(qfi_single_pure(st, make_operators(j).jz) - 16.0) < 1e-12

    def test_eigenstate_zero(self):
        j = HalfInt(6)
        st = basis_state(j, 1)
        assert abs(qfi_single_pure(st, make_operators(j).jz)) < 1e-13

    def test_identity_generator(self):
        j = HalfInt(4)
        rng = np.random.default_rng(33)
        st = random_pure_state(j, rng)
        assert abs(qfi_single_pure(st, np.eye(j.dim))) < 1e-12

    def test_mixed_reduces_to_pure(self):
        j = HalfInt(4)
        st = noon_state(j)
        q = qfi_single_mixed(st.density_matrix(), make_operators(j).jz)
        assert abs(q - 16.0) < 1e-10

    def test_maximally_mixed_zero(self):
        j = HalfInt(4)
        rho = np.eye(j.dim) / j.dim
        assert abs(qfi_single_mixed(rho, make_operators(j).jx)) < 1e-12

    def test_diagonal_mixture_zero(self):
        j = HalfInt(4)
        up = basis_state(j, 2).density_matrix()
        dn = basis_state(j, -2).density_matrix()
        assert abs(qfi_single_mixed(0.5 * up + 0.5 * dn, make_operators(j).jz)) < 1e-12

    def test_invalid_density_matrix(self):
        with pytest.raises(DomainError):
            qfi_single_mixed(np.eye(3), np.eye(3))      # trace 3

    def test_convexity(self):
        # Q(p1 rho1 + p2 rho2) <= p1 Q(rho1) + p2 Q(rho2), random qubits
        rng = np.random.default_rng(34)
        g = make_operators(HalfInt(1)).jz
        for _ in range(10):
            def rand_qubit():
                r = rng.uniform(-1, 1, 3)
                r *= rng.uniform(0, 0.99) / np.linalg.norm(r)
                sx = np.array([[0, 1], [1, 0]])
                sy = np.array([[0, -1j], [1j, 0]])
                sz = np.diag([1.0, -1.0])
                return 0.5 * (np.eye(2) + r[0] * sx + r[1] * sy + r[2] * sz)
            r1, r2 = rand_qubit(), rand_qubit()
            w = rng.uniform(0.1, 0.9)
            lhs = qfi_single_mixed(w * r1 + (1 - w) * r2, g)
            rhs = w * qfi_single_mixed(r1, g) + (1 - w) * qfi_single_mixed(r2, g)
            assert lhs <= rhs + 1e-10

    def test_additivity(self):
        # Q(rho1 x rho2) with Jz x 1 + 1 x Jz equals the sum of parts
        rng = np.random.default_rng(35)
        jz = make_operators(HalfInt(1)).jz
        g = np.kron(jz, np.eye(2)) + np.kron(np.eye(2), jz)
        for _ in range(10):
            def rand_qubit():
                r = rng.uniform(-1, 1, 3)
                r *= rng.uniform(0, 0.95) / np.linalg.norm(r)
                sx = np.array([[0, 1], [1, 0]])
                sy = np.array([[0, -1j], [1j, 0]])
                sz = np.diag([1.0, -1.0])
                return 0.5 * (np.eye(2) + r[0] * sx + r[1] * sy + r[2] * sz)
            r1, r2 = rand_qubit(), rand_qubit()
            total = qfi_single_mixed(np.kron(r1, r2), g)
            parts = qfi_single_mixed(r1, jz) + qfi_single_mixed(r2, jz)
            assert abs(total - parts) < 1e-9


class TestSld:
    def test_pure_state_variance(self):
        j = HalfInt(4)
        rng = np.random.default_rng(36)
        st = random_pure_state(j, rng)
        g = make_operators(j).jz
        rho = st.density_matrix()
        drho = -1j * (g @ rho - rho @ g)
        l = sld(rho, drho).l
        assert abs(np.trace(rho @ l @ l).real - qfi_single_pure(st, g)) < 1e-9

    def test_zero_derivative(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        l = sld(rho, np.zeros((3, 3))).l
        assert np.max(np.abs(l)) < 1e-15

    def test_traceful_drho_rejected(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(DomainError):
            sld(rho, np.eye(2, dtype=complex))

    def test_full_rank_residual(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = h + h.conj().T
        drho = -1j * (h @ rho - rho @ h)   # Hermitian traceless derivative
        l = sld(rho, drho).l
        resid = 0.5 * (rho @ l + l @ rho) - drho
        assert np.max(np.abs(resid)) < 1e-10


class TestQfiRotationMatrix:
    def test_fd_oracle(self):
        # matches 4 Re<di psi|dj psi> + 4 <di psi|psi><dj psi|psi> by central
        # differences of the rotated state
        rng = np.random.default_rng(38)
        for _ in range(20):
            j = HalfInt(int(rng.integers(2, 9)))
            st = random_pure_state(j, rng)
            p = random_params(rng, theta_range=(0.3, 2.8), cap_range=(0.3, 2.8))
            got = qfi_rotation_matrix(st, p).q
            assert np.max(np.abs(got - _fd_qfi(st, p))) < 1e-6

    def test_coherent_rank_two(self):
        rng = np.random.default_rng(39)
        st = coherent_state(HalfInt(6), BlochPoint(0.7, 0.4))
        for _ in range(5):
            fi = qfi_rotation_matrix(st, random_params(rng, theta_range=(0.4, 2.8),
                                                       cap_range=(0.4, 2.8)))
            assert fi.rank == 2

    def test_king_closed_form(self):
        st = king_state(HalfInt(6))
        p = RotationParams(1.1, 0.9, 2.0)
        fi = qfi_rotation_matrix(st, p)
        g = generator_frame(p).matrix()
        assert np.max(np.abs(fi.q - 16.0 * g.T @ g)) < 1e-10
        t2 = 4.0 * math.sin(p.theta / 2.0) ** 2
        expect = np.diag([16.0, 16.0 * t2, 16.0 * t2 * math.sin(p.cap_theta) ** 2])
        assert np.max(np.abs(fi.q - expect)) < 1e-10

    def test_determinant_identity(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            j = HalfInt(int(rng.integers(2, 7)))
            st = random_pure_state(j, rng)
            p = random_params(rng)
            fi = qfi_rotation_matrix(st, p)
            det_c = cov_matrix(st).det()
            expect = 64.0 * det_c * 16.0 * math.sin(p.theta / 2) ** 4 \
                * math.sin(p.cap_theta) ** 2
            assert abs(fi.det() - expect) < 1e-8 * max(1.0, abs(expect))

    def test_saturation_condition(self):
        # Im <psi|L_i L_j|psi> vanishes for zero-mean-spin probes, not for
        # coherent probes
        p = RotationParams(0.9, 1.2, 0.8)
        for probe, expect_zero in ((king_state(HalfInt(6)), True),
                                   (noon_state(HalfInt(6)), True),
                                   (coherent_state(HalfInt(6), BlochPoint(0.5, 1.0)),
                                    False)):
            worst = _worst_im_sld_product(probe, p)
            if expect_zero:
                assert worst < 1e-9
            else:
                assert worst > 1e-3


def _fd_qfi(state, p, h=1e-5):
    j = state.j
    ops = make_operators(j)

    def psi(raw):
        t, ct, cp = raw
        st_ = math.sin(ct)
        w = t * np.array([st_ * math.cos(cp), st_ * math.sin(cp), math.cos(ct)])
        vals, vecs = np.linalg.eigh(ops.along(w))
        u = (vecs * np.exp(-1j * vals)) @ vecs.conj().T
        return u @ state.amps

    raw0 = p.as_array()
    base = psi(raw0)
    derivs = []
    for i in range(3):
        up, dn = raw0.copy(), raw0.copy()
        up[i] += h
        dn[i] -= h
        derivs.append((psi(up) - psi(dn)) / (2 * h))
    q = np.zeros((3, 3))
    for i in range(3):
        for k in range(3):
            q[i, k] = 4 * np.real(np.vdot(derivs[i], derivs[k])) \
                + 4 * np.real(np.vdot(derivs[i], base) * np.vdot(derivs[k], base))
    return q


def _worst_im_sld_product(state, p):
    j = state.j
    ops = make_operators(j)
    rotated = state.rotate(p)
    rho = rotated.density_matrix()
    frame = generator_frame(p)
    gens = [ops.along(frame.g_theta), ops.along(frame.g_cap_theta),
            ops.along(frame.g_cap_phi)]
    slds = []
    for g in gens:
        drho = -1j * (g @ rho - rho @ g)
        slds.append(sld(rho, drho).l)
    worst = 0.0
    psi = rotated.amps
    for i in range(3):
        for k in range(i + 1, 3):
            val = np.vdot(psi, slds[i] @ (slds[k] @ psi))
            worst = max(worst, abs(val.imag))
    return worst


class TestReparametrize:
    def test_identity(self):
        st = king_state(HalfInt(6))
        fi = qfi_rotation_matrix(st, RotationParams(0.9, 1.0, 1.1))
        out = reparametrize(fi, np.eye(3), fi.param_labels)
        assert np.max(np.abs(out.q - fi.q)) < 1e-14

    def test_permutation(self):
        st = king_state(HalfInt(6))
        fi = qfi_rotation_matrix(st, RotationParams(0.9, 1.0, 1.1))
        perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        out = reparametrize(fi, perm, ("a", "b", "c"))
        assert np.max(np.abs(out.q - perm.T @ fi.q @ perm)) < 1e-14

    def test_cartesian_change(self):
        st = king_state(HalfInt(6))
        p = RotationParams(0.3, 1.0, 1.1)
        fi = qfi_rotation_matrix(st, p)
        # d(theta, cap_theta, cap_phi)/d(omega) from the two charts' generator vectors
        jac = np.linalg.solve(generator_frame(p).matrix(), cartesian_frame(p.omega))
        out = reparametrize(fi, jac, ("wx", "wy", "wz"))
        assert out.rank == 3
        assert abs(out.det() - fi.det() * np.linalg.det(jac) ** 2) < 1e-8
        # the Cartesian determinant stays finite and approaches 16^3 as
        # theta -> 0 (the spherical chart's determinant vanishes there)
        gaps = []
        for theta in (0.3, 0.1, 0.01):
            pt = RotationParams(theta, 1.0, 1.1)
            g_sph, g_cart = generator_frame(pt).matrix(), cartesian_frame(pt.omega)
            fit = reparametrize(qfi_rotation_matrix(st, pt), np.linalg.solve(g_sph, g_cart),
                                ("x", "y", "z"))
            direct = _qfi_from_frame(st, pt, g_cart, ("x", "y", "z"))
            assert np.max(np.abs(fit.q - direct.q)) < 1e-9, theta
            gaps.append(abs(fit.det() - 16.0 ** 3))
        assert gaps[2] < gaps[1]
        assert gaps[2] < 0.5

    def test_dimension_mismatch(self):
        st = king_state(HalfInt(6))
        fi = qfi_rotation_matrix(st, RotationParams(0.9, 1.0, 1.1))
        with pytest.raises(DomainError):
            reparametrize(fi, np.eye(2), ("a", "b"))


class TestAverages:
    def test_avg_qfi_coherent(self):
        j = HalfInt(4)
        st = coherent_state(j, BlochPoint(0.8, 0.1))
        assert abs(avg_qfi(st) - 4.0 * j.j / 3.0) < 1e-10

    def test_avg_qfi_king(self):
        assert abs(avg_qfi(king_state(HalfInt(6))) - 16.0) < 1e-10

    def test_avg_qfi_basis20(self):
        assert abs(avg_qfi(basis_state(HalfInt(4), 0)) - 8.0) < 1e-10

    @pytest.mark.parametrize("twice_j", [4, 8, 16])
    def test_avg_variance_noon(self, twice_j):
        jj = twice_j / 2.0
        got = avg_variance(noon_state(HalfInt(twice_j)))
        expect = math.atan(math.sqrt(2 * jj - 1)) / (2 * jj * math.sqrt(2 * jj - 1))
        assert abs(got - expect) < 1e-6

    def test_avg_variance_noon_j1_divergent(self):
        # J = 1 equal superposition of extremes is a rotated eigenstate; its
        # axis average diverges even though the generic-J closed form is finite
        assert avg_variance(noon_state(HalfInt(2))) == math.inf

    def test_avg_variance_basis_divergent(self):
        rng = np.random.default_rng(41)
        st = basis_state(HalfInt(6), 2).rotate(random_params(rng))
        assert avg_variance(st) == math.inf

    def test_avg_variance_king3(self):
        assert abs(avg_variance(king_state(HalfInt(6))) - 1.0 / 16.0) < 1e-6

    def test_avg_variance_matches_quadrature(self):
        # the closed form against a direct average: quad over the polar
        # angle of a 128-point azimuth mean of 1/(4 n^T C n)
        from scipy.integrate import quad

        rng = np.random.default_rng(42)
        phis = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
        for _ in range(30):
            st = random_pure_state(HalfInt(int(rng.integers(2, 21))), rng)
            c = cov_matrix(st).c

            def ring(t):
                n = np.vstack([math.sin(t) * np.cos(phis), math.sin(t) * np.sin(phis),
                               np.full_like(phis, math.cos(t))])
                return float(np.mean(1.0 / (4.0 * np.einsum("ik,ij,jk->k", n, c, n))))

            integral, _ = quad(lambda t: ring(t) * math.sin(t), 0.0, math.pi,
                               epsabs=0.0, epsrel=1e-12, limit=200)
            assert abs(avg_variance(st) - 0.5 * integral) <= 1e-10 * 0.5 * integral

    @pytest.mark.parametrize("twice_j", [4, 7, 10, 12])
    def test_avg_variance_king_closed_form(self, twice_j):
        # isotropic covariance J(J+1)/3: the average is 3 / (4 J (J+1))
        jj = twice_j / 2.0
        got = avg_variance(king_state(HalfInt(twice_j)))
        assert abs(got - 3.0 / (4.0 * jj * (jj + 1.0))) <= 1e-12 * got


class TestClassicalFi:
    def test_bernoulli(self):
        theta = 0.3

        def model(params):
            t = params[0]
            return np.array([t, 1.0 - t])

        fi = fi_from_model(model, np.array([theta]))
        expect = 1.0 / (theta * (1.0 - theta))
        assert abs(fi.q[0, 0] - expect) < 1e-6

    def test_constant_model(self):
        fi = fi_from_model(lambda params: np.array([0.4, 0.6]), np.array([0.2, 1.0]))
        assert np.max(np.abs(fi.q)) < 1e-12

    def test_negative_probability_rejected(self):
        with pytest.raises(DomainError):
            classical_fi(np.array([-0.1, 1.1]), np.zeros((1, 2)))

    def test_regularity(self):
        # derivative columns of a valid model sum to zero
        st = king_state(HalfInt(6))
        from spinsense.estimation import born_derivatives, optimal_pvm
        p = RotationParams(0.9, 1.1, 0.3)
        ref = SpinState(st.j, rotation_unitary(st.j, p) @ st.amps)
        probs, dp = born_derivatives(optimal_pvm(ref), st, RotationParams(1.0, 1.0, 0.4))
        assert np.max(np.abs(dp.sum(axis=1))) < 1e-10


class TestGaussianFi:
    def test_location_model(self):
        fi = gaussian_fi(np.array([[1.0]]), np.array([[4.0]]))
        assert abs(fi.q[0, 0] - 0.25) < 1e-14

    def test_scale_model(self):
        # unknown variance theta: F = 1/(2 theta^2)
        theta = 1.7
        fi = gaussian_fi(np.array([[0.0]]), np.array([[theta]]),
                         dsigma=np.array([[[1.0]]]))
        assert abs(fi.q[0, 0] - 1.0 / (2.0 * theta * theta)) < 1e-14

    def test_two_parameter_vs_monte_carlo(self):
        mu, var = 0.7, 1.3
        fi = gaussian_fi(np.array([[1.0], [0.0]]), np.array([[var]]),
                         dsigma=np.array([[[0.0]], [[1.0]]]))
        expect = np.diag([1.0 / var, 1.0 / (2.0 * var * var)])
        assert np.max(np.abs(fi.q - expect)) < 1e-12
        rng = np.random.default_rng(42)
        x = rng.normal(mu, math.sqrt(var), size=4_000_000)
        s_mu = (x - mu) / var
        s_var = -0.5 / var + (x - mu) ** 2 / (2.0 * var * var)
        scores = np.vstack([s_mu, s_var])
        fi_mc = scores @ scores.T / x.size
        assert np.max(np.abs(fi_mc - fi.q) / np.abs(np.diag(fi.q)).max()) < 0.01

    def test_non_pd_rejected(self):
        with pytest.raises(DomainError):
            gaussian_fi(np.array([[1.0, 0.0]]), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestSingularDiagnosis:
    def test_full_rank(self):
        fi = qfi_rotation_matrix(king_state(HalfInt(6)), RotationParams(0.9, 1.0, 2.0))
        rep = singular_diagnosis(fi)
        assert rep.classification == "full_rank"
        assert rep.null_basis.shape[1] == 0
        assert np.max(np.abs(rep.pseudo_inverse - np.linalg.inv(fi.q))) < 1e-12

    def test_coherent_probe_state_deficiency(self):
        st = coherent_state(HalfInt(6), BlochPoint(0.7, 0.4))
        p = RotationParams(1.0, 1.2, 0.5)
        fi = qfi_rotation_matrix(st, p)
        rep = singular_diagnosis(fi, cov=cov_matrix(st).c)
        assert fi.rank == 2
        assert rep.classification == "state_deficiency"
        # the null direction maps back to the probe's symmetry axis
        gt = so3_matrix(p).T @ generator_frame(p).matrix()
        axis = st.mean_spin()
        v = np.linalg.solve(gt, axis / np.linalg.norm(axis))
        v /= np.linalg.norm(v)
        assert np.max(np.abs(fi.q @ v)) < 1e-10

    def test_theta_zero_coordinate_singularity(self):
        st = king_state(HalfInt(6))
        p = RotationParams(1e-6, 0.9, 2.0)
        fi = qfi_rotation_matrix(st, p)
        assert fi.rank == 1
        rep = singular_diagnosis(fi, cov=cov_matrix(st).c)
        assert rep.classification == "coordinate_singularity"
        # without the probe's covariance the deficit cannot be placed
        assert singular_diagnosis(fi).classification == "undetermined"
        # rank recovers at a slightly larger angle
        assert qfi_rotation_matrix(st, RotationParams(1e-3, 0.9, 2.0)).rank == 3


class TestCrb:
    def test_king_spot_value(self):
        fi = qfi_rotation_matrix(king_state(HalfInt(6)),
                                 RotationParams(math.pi / 2, math.pi / 3, 1.0))
        bound = crb(fi, 1)
        assert abs(bound.trace - 13.0 / 96.0) < 1e-12

    def test_shot_scaling(self):
        fi = qfi_rotation_matrix(king_state(HalfInt(6)), RotationParams(0.9, 1.0, 2.0))
        b1 = crb(fi, 100)
        b2 = crb(fi, 200)
        assert np.max(np.abs(b1.bound - 2.0 * b2.bound)) < 1e-15

    def test_singular_raises(self):
        st = coherent_state(HalfInt(6), BlochPoint(0.7, 0.4))
        fi = qfi_rotation_matrix(st, RotationParams(1.0, 1.2, 0.5))
        with pytest.raises(SingularInformationError):
            crb(fi, 1)

    def test_trace_inverse_bound_random_states(self):
        rng = np.random.default_rng(43)
        j = HalfInt(6)
        floor = 9.0 / (j.j * (j.j + 1.0))
        for _ in range(200):
            c = cov_matrix(random_pure_state(j, rng))
            assert c.trace_inverse() >= floor - 1e-10

    def test_trace_inverse_equality_only_for_king(self):
        j = HalfInt(6)
        assert abs(cov_matrix(king_state(j)).trace_inverse() - 0.75) < 1e-8
        rng = np.random.default_rng(44)
        for _ in range(50):
            c = cov_matrix(random_pure_state(j, rng))
            if abs(c.trace_inverse() - 0.75) < 1e-8:
                dev = np.max(np.abs(c.c - 4.0 * np.eye(3)))
                assert dev < 1e-6


class TestCatFamilySweep:
    def test_monotone_det_and_trace_inverse(self):
        # moving the cat parameter off the equator degrades the covariance:
        # det decreases and Tr C^-1 increases monotonically
        j = HalfInt(4)
        polars = np.linspace(math.pi / 2, 0.25, 50)
        dets, trinvs = [], []
        for pol in polars:
            c = cov_matrix(cat_state(j, math.tan(pol / 2.0)))
            dets.append(c.det())
            trinvs.append(c.trace_inverse())
        assert np.all(np.diff(dets) < 1e-12)
        assert np.all(np.diff(trinvs) > -1e-12)
