import math

import numpy as np
import pytest

from conftest import random_params, random_pure_state
from spinsense.errors import DomainError, RootFindingError
from spinsense.majorana import (Constellation, constellation, husimi,
                                husimi_grid, majorana_poly,
                                roots_with_multiplicity)
from spinsense.states import BlochPoint, SpinState, basis_state, coherent_state, noon_state
from spinsense.su2 import HalfInt, so3_matrix

MIRROR = np.diag([-1.0, -1.0, 1.0])


def match_point_sets(a, b, tol):
    """Greedy nearest-neighbour matching of two equal-size point sets."""
    b = list(map(np.asarray, b))
    worst = 0.0
    for pa in a:
        dists = [np.linalg.norm(pa - pb) for pb in b]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        b.pop(k)
    return worst <= tol


class TestMajoranaPoly:
    def test_basis_state_monomial(self):
        j = HalfInt(6)
        for m in (-3, 0, 2):
            poly = majorana_poly(basis_state(j, m))
            nonzero = np.nonzero(np.abs(poly.coeffs) > 1e-14)[0]
            assert list(nonzero) == [j.twice_j // 2 + m]

    def test_noon_poly(self):
        j = HalfInt(8)
        poly = majorana_poly(noon_state(j))
        c = poly.coeffs * math.sqrt(2.0)
        expect = np.zeros(9, dtype=complex)
        expect[8] = 1.0
        expect[0] = -1.0
        assert np.max(np.abs(c - expect)) < 1e-14

    def test_north_coherent_poly(self):
        j = HalfInt(4)
        poly = majorana_poly(coherent_state(j, BlochPoint(0.0, 0.0)))
        assert np.max(np.abs(poly.coeffs[:-1])) < 1e-14
        assert abs(poly.coeffs[-1]) > 0.9


class TestRootFinder:
    def test_simple_roots(self):
        # (z - 1)(z - 2j)(z + 0.5)
        c = np.polynomial.polynomial.polyfromroots([1.0, 2.0j, -0.5])
        roots, n_inf = roots_with_multiplicity(c)
        assert n_inf == 0
        got = sorted((r for r, m in roots), key=lambda z: (z.real, z.imag))
        want = sorted([1.0, 2.0j, -0.5], key=lambda z: (z.real, z.imag))
        assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-10

    def test_high_multiplicity(self):
        c = np.polynomial.polynomial.polyfromroots([0.3 + 0.4j] * 12)
        roots, n_inf = roots_with_multiplicity(c)
        assert n_inf == 0
        assert len(roots) == 1
        root, mult = roots[0]
        assert mult == 12
        assert abs(root - (0.3 + 0.4j)) < 1e-8

    def test_mixed_multiplicities(self):
        c = np.polynomial.polynomial.polyfromroots([1.0] * 3 + [-1.0] * 2 + [2.0j])
        roots, _ = roots_with_multiplicity(c)
        table = {complex(round(r.real, 6), round(r.imag, 6)): m for r, m in roots}
        assert table[complex(1.0, 0.0)] == 3
        assert table[complex(-1.0, 0.0)] == 2
        assert table[complex(0.0, 2.0)] == 1

    def test_zero_and_infinity(self):
        # z^2 (z - 1) with capacity 6: one finite root, two at 0, three at inf
        c = np.zeros(7, dtype=complex)
        c[2] = -1.0
        c[3] = 1.0
        roots, n_inf = roots_with_multiplicity(c)
        assert n_inf == 3
        table = {complex(round(r.real, 9), round(r.imag, 9)): m for r, m in roots}
        assert table[0j] == 2
        assert table[(1 + 0j)] == 1

    def test_residual_quality(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            deg = int(rng.integers(2, 16))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            roots, n_inf = roots_with_multiplicity(c)
            scale = np.max(np.abs(c))
            for r, m in roots:
                val = abs(np.polynomial.polynomial.polyval(r, c))
                bound = np.polynomial.polynomial.polyval(abs(r), np.abs(c))
                assert val <= 1e-9 * scale * max(1.0, bound / scale)

    def test_matches_numpy_roots_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            deg = int(rng.integers(2, 12))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            roots, _ = roots_with_multiplicity(c)
            mine = []
            for r, m in roots:
                mine.extend([r] * m)
            oracle = np.roots(c[::-1])
            assert match_point_sets(
                [np.array([z.real, z.imag]) for z in mine],
                [np.array([z.real, z.imag]) for z in oracle], 1e-7)


class TestConstellation:
    def test_noon_equatorial_roots_of_unity(self):
        j = HalfInt(8)
        con = constellation(noon_state(j))
        assert con.total_multiplicity == 8
        azimuths = sorted(s.point.azimuth for s in con.stars)
        expect = [2 * math.pi * k / 8 for k in range(8)]
        assert np.max(np.abs(np.array(azimuths) - expect)) < 1e-10
        for s in con.stars:
            assert abs(s.point.polar - math.pi / 2) < 1e-10

    @pytest.mark.parametrize("m", [-2, -1, 0, 1, 2])
    def test_basis_states_polar(self, m):
        j = HalfInt(4)
        con = constellation(basis_state(j, m))
        at_north = sum(s.multiplicity for s in con.stars if s.point.polar < 1e-9)
        at_south = sum(s.multiplicity for s in con.stars
                       if s.point.polar > math.pi - 1e-9)
        assert at_north == 2 + m
        assert at_south == 2 - m
        assert con.total_multiplicity == 4

    def test_coherent_collapses_to_mirror_point(self):
        # literal polynomial + stereographic map convention: the 2J-fold star
        # sits at (polar, azimuth + pi) relative to the state's Bloch point
        j = HalfInt(10)
        pt = BlochPoint(0.8, 1.1)
        con = constellation(coherent_state(j, pt))
        assert len(con.stars) == 1
        star = con.stars[0]
        assert star.multiplicity == 10
        assert abs(star.point.polar - 0.8) < 1e-8
        assert abs(star.point.azimuth - ((1.1 + math.pi) % (2 * math.pi))) < 1e-8

    def test_overflowing_root_solve_is_typed(self):
        # a leading amplitude of 1e-320 overflows np.roots' companion matrix
        rng = np.random.default_rng(1)
        amps = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        amps[0] = 1e-320
        with pytest.raises(RootFindingError, match="overflowed"):
            constellation(SpinState.from_amplitudes(HalfInt(10), amps))

    def test_rotational_covariance(self):
        # constellation(R psi) = (M R_p M) constellation(psi), M = diag(-1,-1,1)
        rng = np.random.default_rng(22)
        for _ in range(30):
            j = HalfInt(int(rng.integers(2, 9)))
            st = random_pure_state(j, rng)
            p = random_params(rng)
            rotated = st.rotate(p)
            image = so3_matrix(p)
            rule = MIRROR @ image @ MIRROR
            a = constellation(rotated).expanded()
            b = constellation(st).expanded() @ rule.T
            assert match_point_sets(a, b, 1e-8)

    def test_total_multiplicity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            j = HalfInt(int(rng.integers(1, 13)))
            con = constellation(random_pure_state(j, rng))
            assert con.total_multiplicity == j.twice_j


class TestHusimi:
    def test_self_overlap(self):
        j = HalfInt(6)
        pt = BlochPoint(0.9, 2.2)
        assert abs(husimi(coherent_state(j, pt), pt) - 1.0) < 1e-13

    def test_two_coherent_closed_form(self):
        # |<n1|n2>|^2 = cos^{4J}(gamma/2)
        rng = np.random.default_rng(24)
        for _ in range(10):
            j = HalfInt(int(rng.integers(1, 9)))
            p1 = BlochPoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            p2 = BlochPoint(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            got = husimi(coherent_state(j, p1), p2)
            cos_gamma = float(p1.unit_vector @ p2.unit_vector)
            expect = ((1.0 + cos_gamma) / 2.0) ** j.twice_j
            assert abs(got - expect) < 1e-12

    def test_vanishes_at_equator_mirror_of_stars(self):
        # under the literal constellation convention the Husimi function has
        # its exact zeros at (pi - polar, azimuth) for every star
        rng = np.random.default_rng(25)
        for _ in range(10):
            j = HalfInt(int(rng.integers(2, 7)))
            st = random_pure_state(j, rng)
            for s in constellation(st).stars:
                q = husimi(st, BlochPoint(math.pi - s.point.polar, s.point.azimuth))
                assert q < 1e-18

    def test_resolution_of_identity(self):
        # (2J+1)/(4 pi) integral of husimi over the sphere equals 1
        j = HalfInt(5)
        rng = np.random.default_rng(26)
        st = random_pure_state(j, rng)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        phis = np.linspace(0.0, 2 * math.pi, 128, endpoint=False)
        total = 0.0
        for x, w in zip(nodes, weights):
            polar = math.acos(x)
            row = np.mean([husimi(st, BlochPoint(polar, ph)) for ph in phis])
            total += w * row * 2 * math.pi
        total *= (j.twice_j + 1) / (4 * math.pi)
        assert abs(total - 1.0) < 1e-6


class TestHusimiGrid:
    def test_shapes_and_bounds(self):
        j = HalfInt(4)
        st = noon_state(j)
        grid = husimi_grid(st, 16, 20)
        assert grid.q.shape == (16, 20)
        assert grid.q.max() <= 1.0 + 1e-12
        assert grid.q.min() >= 0.0
        assert np.allclose(grid.scaled_q, (4 * grid.q / math.pi) ** 0.75)

    def test_peak_at_bloch_point(self):
        j = HalfInt(6)
        pt = BlochPoint(math.pi / 2, math.pi)
        st = coherent_state(j, pt)
        grid = husimi_grid(st, 33, 32)
        a, b = np.unravel_index(np.argmax(grid.q), grid.q.shape)
        assert abs(grid.polar[a] - pt.polar) < 0.1
        assert abs(grid.azimuth[b] - pt.azimuth) < 0.2

    def test_demo_state_level_sets(self, demo_j2_state):
        grid = husimi_grid(demo_j2_state, 80, 160)
        for level in (0.1, 0.3, 0.5):
            assert grid.q.min() < level < grid.q.max()

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            husimi_grid(noon_state(HalfInt(4)), 1, 10)
