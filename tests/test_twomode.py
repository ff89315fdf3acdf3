import math

import numpy as np
import pytest
from scipy.stats import poisson

from spinsense.errors import DomainError, TruncationError
from spinsense.majorana import constellation
from spinsense.su2 import HalfInt, make_operators
from spinsense.twomode import (coherent_plus_squeezed, decompose, default_n_max,
                               hypergeometric_check, schwinger_operators,
                               spin_moments, squeezed_n_max, two_mode_coherent)


class TestSchwingerOperators:
    @pytest.mark.parametrize("twice_j", [1, 2, 4, 7])
    def test_match_canonical(self, twice_j):
        got = schwinger_operators(HalfInt(twice_j))
        want = make_operators(HalfInt(twice_j))
        for a, b in ((got.jx, want.jx), (got.jy, want.jy), (got.jz, want.jz),
                     (got.jplus, want.jplus), (got.jsq, want.jsq)):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_commutators_n4(self):
        ops = schwinger_operators(HalfInt(4))
        comm = ops.jx @ ops.jy - ops.jy @ ops.jx
        assert np.max(np.abs(comm - 1j * ops.jz)) < 1e-12

    def test_spin_half(self):
        ops = schwinger_operators(HalfInt(1))
        assert np.allclose(ops.jz, np.diag([0.5, -0.5]))


class TestTwoModeCoherent:
    def test_single_mode_reduction(self):
        st = two_mode_coherent(1.2, 0.0, 25)
        # vacuum in mode b
        assert np.max(np.abs(st.amps[:, 1:])) < 1e-16
        probs = np.abs(st.amps[:, 0]) ** 2
        expect = poisson.pmf(np.arange(26), 1.2 ** 2)
        assert np.max(np.abs(probs - expect)) < 1e-12

    def test_covariance_isotropic(self):
        st = two_mode_coherent(2.0, 1.0, 40)
        _, cov = spin_moments(st)
        assert np.max(np.abs(cov - 1.25 * np.eye(3))) < 1e-6

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            two_mode_coherent(4.0, 3.0, 8)

    def test_subspace_weights_poisson(self):
        st = two_mode_coherent(2.0, 1.0, 40)
        weights = decompose(st).weights_by_n()
        total = 5.0
        for n in range(12):
            assert abs(weights.get(n, 0.0) - poisson.pmf(n, total)) < 1e-12

    def test_subspace_stars_coincide(self):
        alpha, beta = 2.0, 1.0 * np.exp(0.4j)
        st = two_mode_coherent(alpha, beta, 40)
        comp = decompose(st).component(HalfInt(4))
        con = constellation(comp.state)
        assert len(con.stars) == 1
        star = con.stars[0]
        assert star.multiplicity == 4
        assert abs(star.point.polar - 2.0 * math.atan(abs(beta / alpha))) < 1e-10
        # literal stereographic convention mirrors the azimuth by pi
        expect_az = (np.angle(beta / alpha) + math.pi) % (2 * math.pi)
        assert abs(star.point.azimuth - expect_az) < 1e-10

    def test_vacuum_decomposition(self):
        st = two_mode_coherent(0.0, 0.0, 4)
        dec = decompose(st)
        assert len(dec.components) == 1
        assert dec.components[0].j.twice_j == 0
        assert abs(dec.components[0].weight - 1.0) < 1e-15


def _decompose_by_loop(state, weight_floor=1e-15):
    """Reference: each block gathered element by element, with its count of
    amplitudes beyond the mode cutoffs."""
    grid = state.amps
    na_max, nb_max = grid.shape[0] - 1, grid.shape[1] - 1
    out = []
    for n in range(na_max + nb_max + 1):
        amps = np.zeros(n + 1, dtype=complex)
        n_cut = 0
        for idx in range(n + 1):          # idx = J - m = n_b
            if n - idx <= na_max and idx <= nb_max:
                amps[idx] = grid[n - idx, idx]
            else:
                n_cut += 1
        weight = float(np.sum(np.abs(amps) ** 2))
        if weight > weight_floor:
            out.append((n, weight, amps / math.sqrt(weight), n_cut))
    return out


class TestDecompose:
    @pytest.mark.parametrize("state", [
        two_mode_coherent(2.0, 1.0, default_n_max(5.0)),
        coherent_plus_squeezed(math.sqrt(3.2), math.atanh(0.8), default_n_max(3.2),
                               n_max_b=squeezed_n_max(math.atanh(0.8))),
        coherent_plus_squeezed(1.3, 0.6, 30, n_max_b=40)])
    def test_matches_element_loop(self, state):
        got = decompose(state).components
        want = _decompose_by_loop(state)
        assert len(got) == len(want)
        for comp, (n, weight, amps, n_cut) in zip(got, want):
            assert comp.j.twice_j == n
            assert comp.weight == weight
            assert np.array_equal(comp.state.amps, amps)
            assert comp.n_cut == n_cut

    def test_cut_count_of_readme_state(self):
        # README tour: coherent+squeezed --alpha-re 1.789 --xi-re 1.0986
        st = coherent_plus_squeezed(1.789, 1.0986, default_n_max(1.789 ** 2),
                                    n_max_b=squeezed_n_max(1.0986))
        assert st.amps.shape == (43, 123)
        comps = decompose(st).components
        assert max(c.j.twice_j for c in comps) > 122
        for comp in comps:
            n = comp.j.twice_j
            assert comp.n_cut == max(0, n - 42) + max(0, n - 122)


class TestCoherentPlusSqueezed:
    def test_zero_squeezing_reduction(self):
        a = coherent_plus_squeezed(1.5, 0.0, 30)
        b = two_mode_coherent(1.5, 0.0, 30)
        assert np.max(np.abs(a.amps - b.amps)) < 1e-12

    def test_even_support(self):
        st = coherent_plus_squeezed(1.0, 0.8, 30, n_max_b=60)
        assert np.max(np.abs(st.amps[:, 1::2])) < 1e-16

    def test_great_circle_per_subspace(self):
        lam = 0.8
        alpha = math.sqrt(4.0 * lam)
        xi = math.atanh(lam)
        st = coherent_plus_squeezed(alpha, xi, default_n_max(alpha ** 2),
                                    n_max_b=squeezed_n_max(xi))
        dec = decompose(st)
        for n in (4, 9, 14, 19):
            comp = dec.component(HalfInt(n))
            pts = constellation(comp.state).expanded()
            moment = pts.T @ pts
            w, v = np.linalg.eigh(moment)
            normal = v[:, 0]
            assert np.max(np.abs(pts @ normal)) <= 1e-6
            assert len(pts) == n

    def test_asymptotic_covariance(self):
        # large excitation numbers per mode: variances approach
        # (4 Ja Jb, Jb/2, 2 Jb^2) along (x, y, z)
        alpha2 = 30.0
        xi = math.asinh(math.sqrt(30.0))
        st = coherent_plus_squeezed(math.sqrt(alpha2), xi, default_n_max(alpha2),
                                    n_max_b=squeezed_n_max(xi))
        _, cov = spin_moments(st)
        ja = jb = 15.0
        targets = np.array([4.0 * ja * jb, jb / 2.0, 2.0 * jb * jb])
        rel = np.abs(np.diag(cov) - targets) / targets
        assert np.max(rel) < 0.10
        assert np.max(np.abs(cov - np.diag(np.diag(cov)))) < 1e-9

    def test_block_covariance_consistency(self):
        # full-grid covariance equals the weight-averaged block covariances
        # plus the between-block spread of the block means
        st = coherent_plus_squeezed(1.3, 0.6, 30, n_max_b=40)
        mean_full, cov_full = spin_moments(st)
        from spinsense.su2 import angular_momentum_moments
        acc_cov = np.zeros((3, 3))
        acc_mean = np.zeros(3)
        acc_outer = np.zeros((3, 3))
        for comp in decompose(st, weight_floor=0.0).components:
            m, c = angular_momentum_moments(comp.j, comp.state.amps)
            acc_cov += comp.weight * c
            acc_mean += comp.weight * m
            acc_outer += comp.weight * np.outer(m, m)
        expect = acc_cov + acc_outer - np.outer(acc_mean, acc_mean)
        assert np.max(np.abs(cov_full - expect)) < 1e-9
        assert np.max(np.abs(mean_full - acc_mean)) < 1e-9

    def test_truncation_monotonicity(self):
        base = coherent_plus_squeezed(1.3, 0.6, 25, n_max_b=36)
        finer = coherent_plus_squeezed(1.3, 0.6, 35, n_max_b=48)
        _, c1 = spin_moments(base)
        _, c2 = spin_moments(finer)
        assert np.max(np.abs(c1 - c2)) <= max(base.neglected, 1e-9) * 100

    def test_invalid_squeezing(self):
        with pytest.raises(DomainError):
            coherent_plus_squeezed(1.0, float("inf"), 20)


class TestHypergeometricCheck:
    def test_j1_exact(self):
        assert hypergeometric_check(HalfInt(2), 1.2, 0.5) < 1e-12

    def test_j2_figure_ratio(self):
        lam = 0.8
        assert hypergeometric_check(HalfInt(4), math.sqrt(4 * lam), lam) < 1e-8

    @pytest.mark.parametrize("twice_j", [3, 5, 9, 14, 20])
    def test_residuals_across_j(self, twice_j):
        lam = 0.8
        assert hypergeometric_check(HalfInt(twice_j), math.sqrt(4 * lam), lam) < 1e-8

    def test_roots_on_one_meridian(self):
        # real positive alpha^2/lam puts every star on the purely imaginary
        # axis of the stereographic plane, i.e. z-tilde real of one sign
        from spinsense.majorana import majorana_poly, roots_with_multiplicity
        lam = 0.8
        alpha = math.sqrt(4.0 * lam)
        xi = math.atanh(lam)
        st = coherent_plus_squeezed(alpha, xi, default_n_max(alpha ** 2),
                                    n_max_b=squeezed_n_max(xi))
        for n in range(2, 21):
            comp = decompose(st).component(HalfInt(n))
            roots, n_inf = roots_with_multiplicity(majorana_poly(comp.state).coeffs)
            assert n_inf == 0
            for r, mult in roots:
                if abs(r) > 1e-9:
                    assert abs(r.real) < 1e-7 * abs(r)
                    zt_paper = 2.0 * alpha ** 2 * r ** 2 / lam
                    assert zt_paper.real < 0.0
                    assert abs(zt_paper.imag) < 1e-6 * abs(zt_paper)
