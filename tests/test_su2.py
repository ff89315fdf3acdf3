import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from conftest import random_params
from spinsense.errors import DomainError, KingSearchError, NumericalToleranceError
from spinsense.states import BlochPoint, SpinState, coherent_state, king_state, noon_state
from spinsense.su2 import (TWO_PI, GeneratorFrame, HalfInt, RotationParams,
                           angular_momentum_moments, compose,
                           generator_frame, make_operators, numerical_generator,
                           omega_rotate, omega_so3, omega_spherical, rotation_unitary,
                           so3_matrix, so3_omega)


class TestHalfInt:
    def test_basic(self):
        j = HalfInt(3)
        assert j.j == 1.5
        assert j.dim == 4
        assert str(j) == "3/2"
        assert list(j.m_values()) == [1.5, 0.5, -0.5, -1.5]

    def test_from_j(self):
        assert HalfInt.from_j(2).twice_j == 4
        assert HalfInt.from_j(2.5).twice_j == 5
        with pytest.raises(DomainError):
            HalfInt.from_j(0.3)
        with pytest.raises(DomainError):
            HalfInt(-1)

    @pytest.mark.parametrize("twice_j", [True, 4.0, "4"])
    def test_rejects_non_integers(self, twice_j):
        with pytest.raises(DomainError):
            HalfInt(twice_j)


class TestOperators:
    def test_spin_half_is_half_pauli(self):
        ops = make_operators(HalfInt(1))
        assert np.allclose(ops.jz, np.diag([0.5, -0.5]))
        assert np.allclose(ops.jx, np.array([[0, 0.5], [0.5, 0]]))
        assert np.allclose(ops.jy, np.array([[0, -0.5j], [0.5j, 0]]))

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 7, 12])
    def test_casimir(self, twice_j):
        j = HalfInt(twice_j)
        ops = make_operators(j)
        assert np.allclose(ops.jsq, j.j * (j.j + 1) * np.eye(j.dim), atol=1e-12)

    @pytest.mark.parametrize("twice_j", [1, 2, 4, 8])
    def test_commutators(self, twice_j):
        ops = make_operators(HalfInt(twice_j))
        trio = ops.vector()
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            comm = trio[a] @ trio[b] - trio[b] @ trio[a]
            assert np.max(np.abs(comm - 1j * trio[c])) < 1e-13

    def test_ladder(self):
        ops = make_operators(HalfInt(2))
        assert np.allclose(ops.jplus, ops.jx + 1j * ops.jy)
        assert np.allclose(ops.jminus, ops.jplus.conj().T)


def _dense_moments(j, psi):
    """Mean and covariance from the dense J_x, J_y, J_z."""
    jpsi = [op @ psi for op in make_operators(j).vector()]
    mean = np.array([np.vdot(psi, v).real for v in jpsi])
    second = np.array([[np.vdot(a, b).real for b in jpsi] for a in jpsi])
    return mean, second - np.outer(mean, mean)


def _moment_states():
    for twice_j in range(4, 61):
        try:
            yield king_state(HalfInt(twice_j))
        except KingSearchError:
            pass
    for twice_j in range(1, 121, 7):
        yield noon_state(HalfInt(twice_j))
        for polar, azimuth in ((0.0, 0.0), (0.3, 1.1), (1.5, 4.0), (math.pi, 0.0)):
            yield coherent_state(HalfInt(twice_j), BlochPoint(polar, azimuth))
    rng = np.random.default_rng(120)
    for twice_j in range(0, 121, 5):
        yield SpinState.from_amplitudes(HalfInt(twice_j), rng.standard_normal(twice_j + 1)
                                        + 1j * rng.standard_normal(twice_j + 1))


def test_moments_from_ladder_match_dense_operators():
    # the O(dim) route through J+ and J_z against the dense operators
    for state in _moment_states():
        mean, cov = angular_momentum_moments(state.j, state.amps)
        want_mean, want_cov = _dense_moments(state.j, state.amps)
        scale = 1e-12 * max(1.0, state.j.j * (state.j.j + 1.0))
        assert np.max(np.abs(mean - want_mean)) <= scale, state.j
        assert np.max(np.abs(cov - want_cov)) <= scale, state.j


class TestRotationParams:
    def test_ranges(self):
        with pytest.raises(DomainError):
            RotationParams(-0.1, 0.5, 0.5)
        with pytest.raises(DomainError):
            RotationParams(0.1, 3.5, 0.5)
        p = RotationParams(0.1, 0.5, 7.0)
        assert 0 <= p.cap_phi < 2 * math.pi

    def test_two_pi_accepted(self):
        RotationParams(2 * math.pi, 1.0, 1.0)

    def test_axis_unit(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_params(rng)
            assert abs(np.linalg.norm(p.axis) - 1) < 1e-14

    def test_omega_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_params(rng)
            q = RotationParams.from_omega(p.omega)
            assert np.allclose(q.as_array(), p.as_array(), atol=1e-12)

    def test_from_so3_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = random_params(rng, theta_range=(0.05, 3.0))
            q = RotationParams.from_so3(so3_matrix(p))
            assert np.max(np.abs(so3_matrix(q) - so3_matrix(p))) < 1e-12

    @pytest.mark.parametrize("theta", [1e-7, 1e-9, math.pi - 1e-6, math.pi - 1e-9,
                                       math.pi - 1e-12])
    def test_from_so3_keeps_omega_near_zero_and_pi(self, theta):
        # the angle from acos of the trace, or the axis from the
        # antisymmetric part alone, lose digits here: 1e-9 came back as the
        # identity and pi - 1e-12 2e-4 off
        w = theta * np.array([0.36, -0.48, 0.80])
        assert np.max(np.abs(RotationParams.from_so3(omega_so3(w)).omega - w)) < 1e-14


class TestRotationUnitary:
    def test_identity_at_zero(self):
        j = HalfInt(4)
        r = rotation_unitary(j, RotationParams(0.0, 0.7, 1.2))
        assert np.allclose(r, np.eye(j.dim), atol=1e-14)

    @pytest.mark.parametrize("twice_j", [1, 2, 5])
    def test_two_pi_sign(self, twice_j):
        j = HalfInt(twice_j)
        r = rotation_unitary(j, RotationParams(2 * math.pi, 1.1, 0.3))
        assert np.allclose(r, (-1.0) ** twice_j * np.eye(j.dim), atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            j = HalfInt(int(rng.integers(1, 9)))
            r = rotation_unitary(j, random_params(rng))
            assert np.max(np.abs(r @ r.conj().T - np.eye(j.dim))) < 1e-12

    def test_conjugation_identity(self):
        # R^dag J_i R = sum_j M_ij J_j over random parameter triples, J <= 6
        rng = np.random.default_rng(4)
        for _ in range(50):
            j = HalfInt(int(rng.integers(1, 13)))
            p = random_params(rng)
            ops = make_operators(j)
            r = rotation_unitary(j, p)
            m = so3_matrix(p)
            for i in range(3):
                lhs = r.conj().T @ ops.vector()[i] @ r
                rhs = sum(m[i, k] * ops.vector()[k] for k in range(3))
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_matches_expm_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            j = HalfInt(int(rng.integers(1, 9)))
            p = random_params(rng)
            ops = make_operators(j)
            oracle = expm(-1j * p.theta * ops.along(p.axis))
            assert np.max(np.abs(rotation_unitary(j, p) - oracle)) < 1e-10


class TestSo3Matrix:
    def test_identity(self):
        assert np.allclose(so3_matrix(RotationParams(0, 1.0, 2.0)), np.eye(3))

    def test_quarter_turn_about_z(self):
        # pinned by the conjugation identity: M maps x to y
        m = so3_matrix(RotationParams(math.pi / 2, 0.0, 0.0))
        expect = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.max(np.abs(m - expect)) < 1e-14

    def test_orthogonal_det_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = so3_matrix(random_params(rng))
            assert np.max(np.abs(m @ m.T - np.eye(3))) < 1e-13
            assert abs(np.linalg.det(m) - 1.0) < 1e-13

    def test_inverse_rotation(self):
        p = RotationParams(0.9, 1.3, 2.2)
        back = RotationParams(0.9, math.pi - 1.3, (2.2 + math.pi) % (2 * math.pi))
        assert np.allclose(so3_matrix(p) @ so3_matrix(back), np.eye(3), atol=1e-13)


class TestGeneratorFrame:
    def test_g_theta_is_axis(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_params(rng)
            assert np.allclose(generator_frame(p).g_theta, p.axis, atol=1e-14)

    def test_stack_rows_are_single_calls(self):
        rng = np.random.default_rng(11)
        params = [random_params(rng) for _ in range(20)]
        stack = generator_frame(np.array([p.as_array() for p in params])).matrix()
        assert stack.shape == (20, 3, 3)
        for p, m in zip(params, stack):
            assert np.array_equal(generator_frame(p).matrix(), m)

    def test_zero_angle_limit(self):
        f = generator_frame(RotationParams(0.0, 1.0, 2.0))
        assert np.allclose(f.g_cap_theta, 0.0)
        assert np.allclose(f.g_cap_phi, 0.0)

    def test_norms_orthogonality_det(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = random_params(rng, theta_range=(0.0, 2 * math.pi),
                              cap_range=(0.0, math.pi))
            f = generator_frame(p)
            s = 2.0 * abs(math.sin(p.theta / 2.0))
            assert abs(np.linalg.norm(f.g_theta) - 1.0) < 1e-10
            assert abs(np.linalg.norm(f.g_cap_theta) - s) < 1e-10
            assert abs(np.linalg.norm(f.g_cap_phi) - s * math.sin(p.cap_theta)) < 1e-10
            assert abs(f.g_theta @ f.g_cap_theta) < 1e-10
            assert abs(f.g_theta @ f.g_cap_phi) < 1e-10
            assert abs(f.g_cap_theta @ f.g_cap_phi) < 1e-10
            det = np.linalg.det(f.matrix())
            expect = 4.0 * math.sin(p.theta / 2.0) ** 2 * math.sin(p.cap_theta)
            assert abs(abs(det) - expect) < 1e-10

    def test_matches_numerical_generator(self):
        # up to 2J = 60, where the two routes of the oracle share no eigh
        rng = np.random.default_rng(9)
        for twice_j in [*rng.integers(1, 7, size=6), 20, 60]:
            j = HalfInt(int(twice_j))
            p = random_params(rng, theta_range=(0.1, 2.9), cap_range=(0.2, 2.9))
            ops = make_operators(j)
            f = generator_frame(p)
            for k, g in enumerate((f.g_theta, f.g_cap_theta, f.g_cap_phi)):
                num = numerical_generator(j, p, k)
                assert np.max(np.abs(num - ops.along(g))) < 1e-8


class TestNumericalGenerator:
    def test_theta_generator_is_axis_projection(self):
        j = HalfInt(3)
        p = RotationParams(1.2, 0.8, 2.0)
        g = numerical_generator(j, p, "theta")
        assert np.max(np.abs(g - make_operators(j).along(p.axis))) < 1e-9

    def test_zero_angle_cap_theta(self):
        j = HalfInt(2)
        g = numerical_generator(j, RotationParams(0.0, 0.9, 0.4), 1)
        assert np.max(np.abs(g)) < 1e-9

    def test_projection_onto_operator_basis(self):
        # least-squares projection of G_k onto (jx, jy, jz) recovers g_k
        j = HalfInt(1)
        rng = np.random.default_rng(10)
        p = random_params(rng, theta_range=(0.3, 2.7), cap_range=(0.3, 2.7))
        ops = make_operators(j)
        basis = np.column_stack([op.ravel() for op in ops.vector()])
        f = generator_frame(p)
        for k, g in enumerate((f.g_theta, f.g_cap_theta, f.g_cap_phi)):
            num = numerical_generator(j, p, k)
            coeffs, *_ = np.linalg.lstsq(basis, num.ravel(), rcond=None)
            assert np.max(np.abs(coeffs.real - g)) < 1e-8
            assert np.max(np.abs(coeffs.imag)) < 1e-8

    def test_bad_index(self):
        with pytest.raises(DomainError):
            numerical_generator(HalfInt(2), RotationParams(1, 1, 1), 5)

    def test_tolerance_error_when_forced(self):
        j = HalfInt(2)
        p = RotationParams(1.0, 1.0, 1.0)
        with pytest.raises(NumericalToleranceError):
            numerical_generator(j, p, 2, fd_step=0.3, tol=1e-12)


def test_compose_matches_matrix_product():
    p1 = RotationParams(0.7, 1.1, 2.2)
    p2 = RotationParams(1.3, 0.4, 5.1)
    pc = compose(p1, p2)
    assert np.allclose(so3_matrix(pc), so3_matrix(p2) @ so3_matrix(p1), atol=1e-12)


class TestStacks:
    def test_omega_so3_of_a_stack(self):
        rng = np.random.default_rng(3)
        w = np.vstack([rng.normal(size=(6, 3)), np.zeros(3)])
        m = omega_so3(w.reshape(7, 1, 3))
        assert m.shape == (7, 1, 3, 3)
        for k in range(7):
            want = expm(np.cross(w[k], np.eye(3)).T)      # columns w x e_i
            assert np.max(np.abs(m[k, 0] - want)) < 1e-13

    @staticmethod
    def _per_matrix_omega(r):
        """omega of one rotation matrix by the per-matrix from_so3 that
        so3_omega replaced, kept here as the reference."""
        w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        cos2 = np.trace(r) - 1.0
        theta = math.atan2(np.linalg.norm(w), cos2)
        if theta == 0.0:
            return np.zeros(3)
        if cos2 >= 0.0:
            n = w
        else:
            sym = (r + r.T - cos2 * np.eye(3)) / 2.0
            n = sym[:, np.argmax(np.diag(sym))]
            n = n if n @ w >= 0.0 else -n
        n = n / np.linalg.norm(n)
        return RotationParams(theta, math.acos(min(1.0, max(-1.0, n[2]))),
                              math.atan2(n[1], n[0]) % TWO_PI).omega

    @staticmethod
    def _max_omega_err(a, b):
        """max |a - b| over rows (..., 3), where a row of b at theta = pi
        matches either of +-b: both are one rotation."""
        err = np.abs(a - b).max(axis=-1)
        at_pi = np.abs(np.linalg.norm(b, axis=-1) - math.pi) < 1e-15
        return np.where(at_pi, np.minimum(err, np.abs(a + b).max(axis=-1)), err).max()

    @pytest.mark.parametrize("shape", [(1007,), (19, 53)])
    def test_so3_omega_of_a_stack(self, shape):
        # the angles of test_from_so3_keeps_omega_near_zero_and_pi, 0 and pi,
        # then 1000 random rotations
        rng = np.random.default_rng(6)
        angles = [0.0, 1e-7, 1e-9, math.pi - 1e-6, math.pi - 1e-9, math.pi - 1e-12, math.pi]
        axes = rng.normal(size=(1000, 3))
        w = np.vstack([np.outer(angles, [0.36, -0.48, 0.80]),
                       axes / np.linalg.norm(axes, axis=1, keepdims=True)
                       * rng.uniform(0.0, math.pi, (1000, 1))])
        rot = omega_so3(w).reshape(*shape, 3, 3)
        out = so3_omega(rot)
        assert out.shape == (*shape, 3)
        reference = np.array([self._per_matrix_omega(r) for r in rot.reshape(-1, 3, 3)])
        assert self._max_omega_err(out.reshape(-1, 3), reference) < 1e-14
        assert self._max_omega_err(out.reshape(-1, 3), w) < 1e-14
        # the wrappers
        params = RotationParams.from_so3(rot.reshape(-1, 3, 3)[100])
        assert np.array_equal(params.as_array(), omega_spherical(out.reshape(-1, 3)[100]))

    def test_omega_rotate_pairs_states_with_vectors(self):
        rng = np.random.default_rng(4)
        j = HalfInt(5)
        w = rng.normal(size=(4, 3))
        amps = rng.normal(size=(4, j.dim)) + 1j * rng.normal(size=(4, j.dim))
        out = omega_rotate(j, w, amps)
        one = omega_rotate(j, w, amps[0])
        for k in range(4):
            u = rotation_unitary(j, RotationParams.from_omega(w[k]))
            assert np.max(np.abs(out[k] - u @ amps[k])) < 1e-12
            assert np.max(np.abs(one[k] - u @ amps[0])) < 1e-12


FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _eigh_rotation(j, w):
    """exp(-i J.w) by eigendecomposition of the Hermitian J.w."""
    vals, vecs = np.linalg.eigh(make_operators(j).along(w))
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


@FIXED
@given(twice_j=st.integers(1, 120), seed=st.integers(0, 2 ** 32 - 1),
       axis=st.sampled_from(["generic", "zero", "+z", "-z"]),
       shape=st.sampled_from(["one", "one state, stacked vectors", "stacked"]))
def test_omega_rotate_matches_eigh_oracle(twice_j, seed, axis, shape):
    # |omega| <= 2 pi; on the z axis and at omega = 0 the azimuth is undefined
    rng = np.random.default_rng(seed)
    j = HalfInt(twice_j)
    w = rng.normal(size=(3, 3))
    w *= rng.uniform(0.0, 2.0 * math.pi, size=(3, 1)) / np.linalg.norm(w, axis=1, keepdims=True)
    if axis == "zero":
        w[:] = 0.0
    elif axis != "generic":
        w[:, :2] = 0.0
        w[:, 2] = np.abs(w[:, 2]) * (1.0 if axis == "+z" else -1.0)
    amps = rng.normal(size=(3, j.dim)) + 1j * rng.normal(size=(3, j.dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    if shape == "one":
        want = [_eigh_rotation(j, w[0]) @ amps[0]]
        got = [omega_rotate(j, w[0], amps[0])]
    elif shape == "stacked":
        want = [_eigh_rotation(j, w[k]) @ amps[k] for k in range(3)]
        got = omega_rotate(j, w, amps)
    else:
        want = [_eigh_rotation(j, w[k]) @ amps[0] for k in range(3)]
        got = omega_rotate(j, w, amps[0])
    assert np.max(np.abs(np.asarray(got) - np.asarray(want))) < 1e-13
    r = rotation_unitary(j, RotationParams.from_omega(w[0]))
    assert np.max(np.abs(r @ r.conj().T - np.eye(j.dim))) < 1e-13
