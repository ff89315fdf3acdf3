"""Property and sweep tests of the constellation search and the Husimi grid.

Property tests run on a fixed set of examples (``derandomize=True``, no
example database), so every run checks the same inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_params, random_pure_state
from spinsense.errors import RootFindingError
from spinsense.majorana import constellation, husimi, husimi_grid, roots_with_multiplicity
from spinsense.states import BlochPoint, SpinState, coherent_state, king_state, noon_state
from spinsense.su2 import HalfInt, omega_rotate, omega_so3, so3_matrix
from spinsense.twomode import coherent_plus_squeezed, decompose, default_n_max, squeezed_n_max

MIRROR = np.diag([-1.0, -1.0, 1.0])
FIXED = settings(derandomize=True, database=None, deadline=None, max_examples=40)
seeds = st.integers(0, 2 ** 32 - 1)


def nearest_match(a, b):
    """Largest distance in a greedy nearest-neighbour matching of two
    equal-size point sets (rows)."""
    b = list(b)
    worst = 0.0
    for pa in a:
        dists = [np.linalg.norm(pa - pb) for pb in b]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        b.pop(k)
    return worst


@FIXED
@given(twice_j=st.integers(1, 60), seed=seeds)
def test_rotational_covariance(twice_j, seed):
    # constellation(R psi) = (M R_p M) constellation(psi), M = diag(-1,-1,1)
    rng = np.random.default_rng(seed)
    state = random_pure_state(HalfInt(twice_j), rng)
    p = random_params(rng)
    rule = MIRROR @ so3_matrix(p) @ MIRROR
    a = constellation(state.rotate(p)).expanded()
    b = constellation(state).expanded() @ rule.T
    assert len(a) == len(b) == twice_j
    assert nearest_match(a, b) <= 1e-7


@FIXED
@given(degree=st.integers(1, 30), seed=seeds)
def test_agrees_with_numpy_roots_when_separated(degree, seed):
    # distinct cells of a 0.75-spaced grid over [-3, 3]^2, jittered by at
    # most 0.2 per coordinate: roots at least 0.35 apart
    rng = np.random.default_rng(seed)
    cells = rng.choice(81, size=degree, replace=False)
    jitter = rng.uniform(-0.2, 0.2, (2, degree))
    want = (0.75 * (cells % 9) - 3.0 + jitter[0]) + 1j * (0.75 * (cells // 9) - 3.0 + jitter[1])
    c = np.polynomial.polynomial.polyfromroots(want)
    pairs, n_inf = roots_with_multiplicity(c)
    assert n_inf == 0
    assert all(m == 1 for _, m in pairs)
    got = np.array([r for r, _ in pairs])
    oracle = np.roots(c[::-1])
    as_points = lambda z: np.column_stack([z.real, z.imag])
    assert len(got) == len(oracle) == len(want)
    assert nearest_match(as_points(got), as_points(oracle)) <= 1e-8
    assert nearest_match(as_points(got), as_points(want)) <= 1e-8



@settings(FIXED, max_examples=80)
@given(k=st.integers(2, 6), seed=seeds)
def test_multiple_root_among_simple_ones(k, seed):
    # a k-fold root w with six simple roots 0.45 from it: the Newton step on
    # p^(k-1) in the rotated frame places w to 2e-11, where the cluster mean
    # alone is off by up to 4e-10
    rng = np.random.default_rng(seed)
    w = 0.8 * rng.uniform() * np.exp(2j * math.pi * rng.uniform())
    others = w + 0.45 * np.exp(2j * math.pi * (np.arange(6) + rng.uniform(-0.3, 0.3, 6)) / 6)
    pairs, n_inf = roots_with_multiplicity(
        np.polynomial.polynomial.polyfromroots(np.concatenate([np.full(k, w), others])))
    assert n_inf == 0
    assert sorted(m for _, m in pairs) == [1] * 6 + [k]
    assert abs([r for r, m in pairs if m == k][0] - w) <= 2e-11
    simple = np.array([r for r, m in pairs if m == 1])
    assert np.max(np.min(np.abs(simple[:, None] - others[None]), axis=1)) <= 1e-8


@FIXED
@given(twice_j=st.integers(1, 60), seed=seeds)
def test_husimi_vanishes_at_pair_of_simple_stars(twice_j, seed):
    # the Husimi function has its exact zeros at (pi - polar, azimuth)
    state = random_pure_state(HalfInt(twice_j), np.random.default_rng(seed))
    for star in constellation(state).stars:
        assert star.multiplicity == 1
        q = husimi(state, BlochPoint(math.pi - star.point.polar, star.point.azimuth))
        assert q <= 1e-20


@FIXED
@given(twice_j=st.integers(0, 40), seed=seeds, n_polar=st.integers(2, 9),
       n_azimuth=st.integers(2, 9))
def test_husimi_grid_matches_pointwise(twice_j, seed, n_polar, n_azimuth):
    state = random_pure_state(HalfInt(twice_j), np.random.default_rng(seed))
    grid = husimi_grid(state, n_polar, n_azimuth)
    want = np.array([[husimi(state, BlochPoint(p, a)) for a in grid.azimuth]
                     for p in grid.polar])
    assert np.max(np.abs(grid.q - want)) <= 1e-14


@pytest.mark.parametrize("polar", [0.0, 1e-9, 0.3, 1.5, 3.0, math.pi - 1e-9, math.pi])
def test_coherent_sweep_one_star_at_mirror_point(polar):
    # every 2J <= 120: one star of multiplicity 2J at (polar, azimuth + pi);
    # at pi - 1e-9 the leading Majorana coefficient is about (5e-10)^(2J),
    # and a companion matrix of the polynomial overflows at 2J = 34 .. 41
    for twice_j in range(1, 121):
        for azimuth in (0.7, 4.1):
            con = constellation(coherent_state(HalfInt(twice_j), BlochPoint(polar, azimuth)))
            assert len(con.stars) == 1, (twice_j, azimuth)
            assert con.stars[0].multiplicity == twice_j
            want = BlochPoint(polar, azimuth + math.pi).unit_vector
            assert np.linalg.norm(con.stars[0].point.unit_vector - want) <= 1e-9


def test_coherent_constellation_needs_no_root_solve(monkeypatch):
    def no_root_solve(p):
        raise AssertionError("np.roots called on a coherent state")

    monkeypatch.setattr(np, "roots", no_root_solve)
    con = constellation(coherent_state(HalfInt(60), BlochPoint(1.1, 0.4)))
    assert [s.multiplicity for s in con.stars] == [60]


@pytest.mark.parametrize("twice_j", [10, 30])
def test_perturbed_coherent_state_vanish_threshold(twice_j):
    # a kick of 1e-12 stays below the 1e-10 vanish tolerance of the frame
    # test; one of 1e-8 splits the 2J-fold star into 2J simple ones
    coherent = coherent_state(HalfInt(twice_j), BlochPoint(1.1, 0.4)).amps
    rng = np.random.default_rng(5)
    kick = rng.standard_normal(twice_j + 1) + 1j * rng.standard_normal(twice_j + 1)
    kick /= np.linalg.norm(kick)
    for size, mults in ((1e-12, [twice_j]), (1e-8, [1] * twice_j)):
        state = SpinState.from_amplitudes(HalfInt(twice_j), coherent + size * kick)
        assert [s.multiplicity for s in constellation(state).stars] == mults


@pytest.mark.parametrize("twice_j", range(2, 31))
def test_rotated_basis_states_two_multiple_stars(twice_j):
    # |J, J - k> has a (2J - k)-fold star at the north pole and a k-fold one
    # at the south pole; rotated by M = omega_so3(w), its stars move by
    # MIRROR M MIRROR.  The root path must group both rings of roots.
    for k in range(twice_j + 1):
        w = np.random.default_rng([twice_j, k]).standard_normal(3)
        amps = omega_rotate(HalfInt(twice_j), w, np.eye(twice_j + 1)[k])
        north = MIRROR @ omega_so3(w) @ MIRROR @ np.array([0.0, 0.0, 1.0])
        want = [(m, u) for m, u in ((twice_j - k, north), (k, -north)) if m]
        con = constellation(SpinState(HalfInt(twice_j), amps))
        assert len(con.stars) == len(want), k
        for m, u in want:
            assert any(s.multiplicity == m and np.linalg.norm(s.point.unit_vector - u) <= 1e-9
                       for s in con.stars), (k, m)


def test_random_states_have_no_spurious_polar_stars():
    for twice_j in range(10, 121, 10):
        for seed in range(3):
            state = random_pure_state(HalfInt(twice_j), np.random.default_rng([seed, twice_j]))
            con = constellation(state)
            assert con.total_multiplicity == twice_j
            assert all(s.multiplicity == 1 for s in con.stars)
            assert all(1e-6 < s.point.polar < math.pi - 1e-6 for s in con.stars)


def test_noon_120_equatorial_roots_of_unity():
    con = constellation(noon_state(HalfInt(120)))
    assert len(con.stars) == 120 and all(s.multiplicity == 1 for s in con.stars)
    azimuths = np.sort([s.point.azimuth for s in con.stars])
    assert np.max(np.abs(azimuths - 2 * math.pi * np.arange(120) / 120)) <= 1e-10
    assert max(abs(s.point.polar - math.pi / 2) for s in con.stars) <= 1e-10


@pytest.mark.parametrize("twice_j", [3, 60, 120, 121, 300])
def test_noon_stars_exactly_on_the_equator(twice_j):
    # the NOON polynomial is c_0 + c_2J z^2J: one root of a degree-1
    # polynomial in w = z^2J, taken to the 2J-th root, puts every star at
    # |z| = 1 and the azimuths 2 pi / 2J apart to rounding
    con = constellation(noon_state(HalfInt(twice_j)))
    assert len(con.stars) == twice_j and all(s.multiplicity == 1 for s in con.stars)
    polar = np.array([s.point.polar for s in con.stars])
    assert np.max(np.abs(polar - math.pi / 2)) <= 1e-15
    azimuths = np.sort([s.point.azimuth % (2 * math.pi) for s in con.stars])
    gaps = np.diff(np.append(azimuths, azimuths[0] + 2 * math.pi))
    assert np.max(np.abs(gaps - 2 * math.pi / twice_j)) <= 4e-15


def _solved_degrees(monkeypatch, state):
    degrees = []
    real_roots = np.roots

    def spy(p):
        degrees.append(len(p) - 1)
        return real_roots(p)

    monkeypatch.setattr(np, "roots", spy)
    constellation(state)
    return degrees


def test_root_solve_in_the_state_z_symmetry(monkeypatch):
    # amplitudes on one residue class of m mod g are solved in w = z^g
    alpha, xi = math.sqrt(3.2), math.atanh(0.8)
    squeezed = decompose(coherent_plus_squeezed(alpha, xi, default_n_max(alpha ** 2),
                                                n_max_b=squeezed_n_max(xi)))
    cases = [(noon_state(HalfInt(120)), 1), (king_state(HalfInt(57)), 19),
             (squeezed.component(HalfInt(16)).state, 8),
             (random_pure_state(HalfInt(30), np.random.default_rng(30)), 30)]
    for state, degree in cases:
        assert _solved_degrees(monkeypatch, state) == [degree], state.j


@pytest.mark.parametrize("twice_j", [12, 30, 57, 60])
def test_king_constellation_has_its_stride_symmetry(twice_j):
    # a King state's levels differ by multiples of its stride g in m, so a
    # turn by 2 pi / g about z maps its constellation onto itself
    state = king_state(HalfInt(twice_j))
    g = int(np.gcd.reduce(np.diff(np.flatnonzero(state.amps))))
    turn = 2 * math.pi / g
    rz = np.array([[math.cos(turn), -math.sin(turn), 0.0],
                   [math.sin(turn), math.cos(turn), 0.0], [0.0, 0.0, 1.0]])
    points = constellation(state).expanded()
    for u in points @ rz.T:
        assert np.min(np.linalg.norm(points - u, axis=1)) <= 1e-13


@pytest.mark.xfail(strict=True, raises=RootFindingError,
                   reason="the 38-fold ring is wide enough to take in the simple root")
@pytest.mark.parametrize("k", [1, 38])
def test_rotated_basis_state_39_multiple_and_simple_star(k):
    # |J, J - k> at 2J = 39 has a (39 - k)-fold and a k-fold star; no
    # linkage scale separates the 38-fold ring from the simple root
    w = np.random.default_rng([39, k, 7]).standard_normal(3)
    amps = omega_rotate(HalfInt(39), w, np.eye(40)[k])
    con = constellation(SpinState(HalfInt(39), amps))
    assert sorted(s.multiplicity for s in con.stars) == [1, 38]
