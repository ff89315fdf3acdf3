import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_params
from spinsense.errors import DegenerateInputError, DomainError, KingSearchError
from spinsense.states import (BlochPoint, SpinState, _king_support, balanced_state,
                              basis_state, cat_state, coherent_state, king_state,
                              noon_state)
from spinsense.su2 import HalfInt, angular_momentum_moments, make_operators


def cov_of(state):
    return angular_momentum_moments(state.j, state.amps)[1]


def _least_trace_inverse(j, n_starts=8):
    """Least Tr C^-1 over the states of spin J, by BFGS from random states
    (inf when every covariance met is singular)."""
    from scipy.optimize import minimize

    def objective(x):
        amps = x[:j.dim] + 1j * x[j.dim:]
        eigs = np.linalg.eigvalsh(cov_of(SpinState(j, amps / np.linalg.norm(amps))))
        return np.sum(1.0 / eigs) if eigs[0] > 1e-12 else 1e12

    best = min(minimize(objective, np.random.default_rng(seed).standard_normal(2 * j.dim),
                        method="BFGS").fun for seed in range(n_starts))
    return math.inf if best >= 1e12 else best


class TestBlochPoint:
    def test_ranges(self):
        with pytest.raises(DomainError):
            BlochPoint(-0.2, 0.0)
        with pytest.raises(DomainError):
            BlochPoint(3.5, 0.0)
        p = BlochPoint(1.0, -1.7)
        assert 0 <= p.azimuth < 2 * math.pi

    @pytest.mark.parametrize("polar, azimuth", [("abc", 0.0), (1.0, "abc"), (None, 0.0),
                                                (1.0, [0.5])])
    def test_non_numbers_raise_domain_error(self, polar, azimuth):
        with pytest.raises(DomainError):
            BlochPoint(polar, azimuth)

    def test_unit_vector_round_trip(self):
        p = BlochPoint(0.7, 2.1)
        q = BlochPoint.from_vector(p.unit_vector)
        assert abs(p.polar - q.polar) < 1e-12
        assert abs(p.azimuth - q.azimuth) < 1e-12

    def test_antipode(self):
        p = BlochPoint(0.7, 2.1)
        assert np.allclose(p.antipode().unit_vector, -p.unit_vector, atol=1e-15)


class TestSpinState:
    def test_norm_enforced(self):
        with pytest.raises(DomainError):
            SpinState(HalfInt(2), np.array([1.0, 1.0, 0.0]))

    def test_from_amplitudes_normalizes(self):
        st = SpinState.from_amplitudes(HalfInt(2), [2.0, 0.0, 2.0j])
        assert abs(np.linalg.norm(st.amps) - 1.0) < 1e-15

    def test_amps_read_only(self):
        st = basis_state(HalfInt(2), 1)
        with pytest.raises(ValueError):
            st.amps[0] = 5.0


class TestBasisState:
    def test_j2_m2(self):
        st = basis_state(HalfInt(4), 2)
        assert np.allclose(st.amps, [1, 0, 0, 0, 0])

    def test_jz_eigenstate(self):
        j = HalfInt(4)
        st = basis_state(j, 0)
        ops = make_operators(j)
        assert np.max(np.abs(ops.jz @ st.amps)) < 1e-15

    def test_parity_mismatch(self):
        with pytest.raises(DomainError):
            basis_state(HalfInt(3), 1)      # J = 3/2 needs half-odd m

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            basis_state(HalfInt(4), 3)


class TestCoherentState:
    def test_north_pole(self):
        j = HalfInt(5)
        st = coherent_state(j, BlochPoint(0.0, 0.3))
        assert np.allclose(st.amps, basis_state(j, 2.5).amps, atol=1e-15)

    def test_south_pole(self):
        j = HalfInt(5)
        st = coherent_state(j, BlochPoint(math.pi, 0.3))
        assert np.max(np.abs(st.amps[:-1])) < 1e-12
        assert abs(abs(st.amps[-1]) - 1.0) < 1e-12

    def test_eigenstate_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            j = HalfInt(int(rng.integers(1, 11)))
            pt = BlochPoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            st = coherent_state(j, pt)
            ops = make_operators(j)
            resid = ops.along(pt.unit_vector) @ st.amps - j.j * st.amps
            assert np.max(np.abs(resid)) < 1e-10

    def test_covariance_closed_form(self):
        j = HalfInt(4)
        c = cov_of(coherent_state(j, BlochPoint(0.0, 0.0)))
        assert np.max(np.abs(c - np.diag([1.0, 1.0, 0.0]))) < 1e-12


class TestNoonState:
    def test_amplitudes(self):
        st = noon_state(HalfInt(4))
        s = 1 / math.sqrt(2)
        assert np.allclose(st.amps, [s, 0, 0, 0, -s])

    def test_zero_mean_spin(self):
        st = noon_state(HalfInt(6))
        assert np.max(np.abs(st.mean_spin())) < 1e-14

    @pytest.mark.parametrize("twice_j", [3, 4, 6, 9, 16])
    def test_var_jz_is_j_squared(self, twice_j):
        j = HalfInt(twice_j)
        c = cov_of(noon_state(j))
        assert abs(c[2, 2] - j.j ** 2) < 1e-12

    def test_j1_degenerates_to_eigenstate(self):
        # (|1 1> - |1 -1>)/sqrt2 annihilates J_x: a rotated |1 0>, with a
        # singular covariance rather than the generic equatorial-ring form
        j = HalfInt(2)
        st = noon_state(j)
        ops = make_operators(j)
        assert np.max(np.abs(ops.jx @ st.amps)) < 1e-15
        assert np.max(np.abs(cov_of(st) - np.diag([0.0, 1.0, 1.0]))) < 1e-14


class TestCatState:
    def test_normalized(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            z = complex(rng.normal(), rng.normal())
            st = cat_state(HalfInt(4), z)
            assert abs(np.linalg.norm(st.amps) - 1.0) < 1e-12

    def test_equatorial_matches_noon_spectrum(self):
        # |z| = 1 gives a rigidly rotated equal superposition of extreme
        # projections: covariance eigenvalues match the NOON values
        j = HalfInt(4)
        eig_cat = np.linalg.eigvalsh(cov_of(cat_state(j, 1.0)))
        eig_noon = np.linalg.eigvalsh(cov_of(noon_state(j)))
        assert np.max(np.abs(eig_cat - eig_noon)) < 1e-12

    def test_small_z_concentrates_on_m_jminus1(self):
        j = HalfInt(4)
        st = cat_state(j, 1e-8)
        probs = np.abs(st.amps) ** 2
        assert probs[1] > 1.0 - 1e-12     # index 1 is m = J - 1

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateInputError):
            cat_state(HalfInt(4), 0.0)

    def test_parity_support(self):
        st = cat_state(HalfInt(6), 0.8 + 0.3j)
        for i, a in enumerate(st.amps):
            if i % 2 == 0:            # J - m even: amplitude must vanish
                assert abs(a) < 1e-14


class TestBalancedState:
    def test_amplitudes(self):
        st = balanced_state(HalfInt(6), 2)
        s = 1 / math.sqrt(2)
        assert abs(st.amps[1] - s) < 1e-15
        assert abs(st.amps[5] - s) < 1e-15

    def test_m_domain(self):
        with pytest.raises(DomainError):
            balanced_state(HalfInt(4), 0.5)
        with pytest.raises(DomainError):
            balanced_state(HalfInt(4), 0.4)

    @pytest.mark.parametrize("twice_j,m", [(6, 2), (6, 3), (8, 2), (9, 1.5),
                                           (9, 2.5), (14, 3), (20, 2)])
    def test_covariance_closed_form_m_above_one(self, twice_j, m):
        j = HalfInt(twice_j)
        c = cov_of(balanced_state(j, m))
        jj = j.j * (j.j + 1.0)
        expect = np.diag([(jj - m * m) / 2.0, (jj - m * m) / 2.0, m * m])
        assert np.max(np.abs(c - expect)) < 1e-10

    def test_m_equal_one_splits_equatorial_variances(self):
        # the two support levels are bridged by J_+^2, so the transverse
        # covariance is not axially symmetric and the m>1 closed form fails
        c = cov_of(balanced_state(HalfInt(4), 1))
        assert np.max(np.abs(np.diag(c) - np.array([4.0, 1.0, 1.0]))) < 1e-12

    def test_trace_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            tj = int(rng.integers(3, 16))
            j = HalfInt(tj)
            admissible = [k / 2.0 for k in range(2, tj + 1) if (tj - k) % 2 == 0]
            m = admissible[int(rng.integers(0, len(admissible)))]
            c = cov_of(balanced_state(j, m))
            assert abs(np.trace(c) - j.j * (j.j + 1.0)) < 1e-10

    def test_j2_m2_is_noon(self):
        c = cov_of(balanced_state(HalfInt(4), 2))
        assert np.max(np.abs(c - np.diag([1.0, 1.0, 4.0]))) < 1e-12


class TestKingState:
    def test_j3_is_balanced(self):
        j = HalfInt(6)
        st = king_state(j)
        assert np.max(np.abs(st.amps - balanced_state(j, 2).amps)) < 1e-14
        assert np.max(np.abs(cov_of(st) - 4.0 * np.eye(3))) < 1e-12

    def test_j2_optimizer_output(self):
        j = HalfInt(4)
        st = king_state(j)
        assert np.max(np.abs(cov_of(st) - 2.0 * np.eye(3))) < 1e-8
        assert np.max(np.abs(st.mean_spin())) < 1e-8

    def test_optimality_conditions(self):
        # Tr(rho J) = 0 and Tr(rho {J_i, J_j}) = (2/3) J(J+1) delta_ij
        for tj in (4, 6):
            j = HalfInt(tj)
            st = king_state(j)
            ops = make_operators(j)
            rho = st.density_matrix()
            for op in ops.vector():
                assert abs(np.trace(rho @ op).real) < 1e-8
            jj = j.j * (j.j + 1.0)
            for a in range(3):
                for b in range(3):
                    oa, ob = ops.vector()[a], ops.vector()[b]
                    anti = np.trace(rho @ (oa @ ob + ob @ oa)).real
                    expect = (2.0 / 3.0) * jj * (1.0 if a == b else 0.0)
                    assert abs(anti - expect) < 1e-8

    def test_spin_half_not_found(self):
        # a spin-1/2 covariance is always singular
        with pytest.raises(KingSearchError) as err:
            king_state(HalfInt(1))
        assert err.value.best_trace_inverse == math.inf

    def test_deterministic(self):
        a = king_state(HalfInt(4))
        b = king_state(HalfInt(4))
        assert np.array_equal(a.amps, b.amps)

    @pytest.mark.parametrize("twice_j", [4, 6] + list(range(7, 61)))
    def test_closed_form_isotropic(self, twice_j):
        j = HalfInt(twice_j)
        st = king_state(j)
        assert np.max(np.abs(st.mean_spin())) < 1e-12
        assert np.max(np.abs(cov_of(st) - j.j * (j.j + 1.0) / 3.0 * np.eye(3))) < 1e-12

    @pytest.mark.parametrize("twice_j", [4] + list(range(7, 61)))
    def test_support_on_one_residue_class(self, twice_j):
        # 2J = 6 is the balanced state, whose levels m = +-2 differ by 4
        levels = np.flatnonzero(king_state(HalfInt(twice_j)).amps)
        assert 2 <= levels.size <= 3
        assert len(set(levels % 3)) == 1

    def test_j2_is_tetrahedral(self):
        amps = king_state(HalfInt(4)).amps
        levels = np.flatnonzero(amps)
        assert levels.size == 2
        assert np.allclose(sorted(np.abs(amps[levels]) ** 2), [1.0 / 3.0, 2.0 / 3.0],
                           rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 5])
    def test_no_king_raises(self, twice_j):
        j = HalfInt(twice_j)
        with pytest.raises(KingSearchError) as err:
            king_state(j)
        got = err.value.best_trace_inverse
        assert got > 9.0 / (j.j * (j.j + 1.0))
        want = _least_trace_inverse(j)
        assert got == want or abs(got - want) < 1e-6

    @pytest.mark.parametrize("twice_j", range(0, 31))
    def test_support_found_when_any_exists(self, twice_j):
        # against every pair and triple of levels of each residue class, in
        # exact integer arithmetic on 2m: the three equations
        # sum w = 1, sum w m = 0, sum w m^2 = J(J+1)/3
        s = twice_j * (twice_j + 2)
        exists = twice_j == 0
        for r in range(3):
            ms = range(twice_j - 2 * r, -twice_j - 1, -6)
            exists |= any(s + 3 * a * b == 0 for a, b in itertools.combinations(ms, 2))
            for trio in itertools.combinations(ms, 3):
                nums = [s + 3 * trio[k - 1] * trio[k - 2] for k in range(3)]
                dens = [(trio[k] - trio[k - 1]) * (trio[k] - trio[k - 2]) for k in range(3)]
                exists |= all(nu * de >= 0 for nu, de in zip(nums, dens))
        assert (_king_support(twice_j) is not None) == exists

    def test_closed_form_loads_no_optimizer(self):
        # neither a King state nor the error where none exists needs one
        code = ("import sys; from spinsense import HalfInt, king_state\n"
                "from spinsense.errors import KingSearchError\n"
                "king_state(HalfInt(7))\n"
                "try:\n    king_state(HalfInt(5))\nexcept KingSearchError:\n    pass\n"
                "print('scipy.optimize' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def test_all_constructors_unit_norm():
    j = HalfInt(5)
    candidates = [
        basis_state(j, 0.5),
        coherent_state(j, BlochPoint(1.1, 0.4)),
        noon_state(j),
        cat_state(j, 0.5 + 0.2j),
        balanced_state(j, 1.5),
    ]
    for st in candidates:
        assert abs(np.linalg.norm(st.amps) - 1.0) < 1e-12
