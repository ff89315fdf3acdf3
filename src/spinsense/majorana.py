"""Majorana polynomial, stellar constellations, and the Husimi function.

The polynomial of a state is sum_m sqrt(C(2J, J+m)) psi_m z^{J+m}; its roots,
sent through the inverse stereographic map z = tan(polar/2) e^{i azimuth},
are the 2J stars (a degree deficiency d < 2J contributes 2J - d stars at the
south pole).  Taken literally, this machinery places the constellation of a
coherent state at the mirror image (polar, azimuth + pi) of its Bloch point,
and a rotation of the state by M moves stars by diag(-1,-1,1) M diag(-1,-1,1);
the rotational-covariance test pins this convention.

Stars are found by rotate-to-pole deflation.  Amplitudes that are exactly
zero at either end of the basis are exact stars at a pole.  A state with
other stars is first tested as an eigenstate of J.u, u = <J> / |<J>|: a
k-fold star at the mirror image (-u_x, -u_y, u_z) of u, k = J + |<J>|, and
a (2J - k)-fold star at its antipode (none when k = 2J, a coherent state).
A rotated |J, m> state is exactly this; the frame test (below) runs on both
candidates at once, and only when Var(J.u) is below 1e-9 (2J)^2, which
every state that passes meets.  Otherwise ``np.roots`` finds every other root
once (a companion matrix that overflows raises ``RootFindingError``); when
the amplitudes lie on one residue class of m mod g > 1 (NOON, King states),
it solves the degree-2J/g polynomial in w = z^g, each w giving g roots z,
and all below still runs on the roots z and the original state.  A
multiple root comes out as a ring; rings are grouped by single linkage on
the sphere, at chordal scales falling from the whole sphere to 5e-7.  A
group's centre is its mean in a stereographic chart, well conditioned even
when its roots are not (Zeng, Math. Comp. 74, 2005).  The state is rotated to carry the centre to the north pole, where a
k-fold star makes the trailing k amplitudes vanish, and two Newton steps on
p^(k-1) there, delta = -c_{k-1} / (k c_k), correct the centre.  The k roots
are one k-fold star when, in the frame of the corrected centre, the trailing
k amplitudes are below 1e-10 of the norm and the next is above 1e-6 (the
frame must see the star, not only a region where every amplitude is small).
A root is a simple star when it stands alone at some scale and rounding
moves it (eps sum_k |c_k| |z|^k / |p'(z)|) by less than 1e-3 of its
distance to the nearest other root.  Simple roots are not accepted before
the linkage: members of a ring can pass that isolation test too, and taking
them first leaves the rest of the ring to fail the frame test (rotated
|J, m> states then read single stars or raise).  A root that no group
accounts for raises ``RootFindingError``.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import DomainError, RootFindingError
from .states import BlochPoint, SpinState, coherent_state
from .su2 import HalfInt, _rx, angular_momentum_moments

_VANISH_TOL = 1e-10        # rotated-frame amplitude of a unit state treated as zero
_SEEN_TOL = 1e-6           # the amplitude after a k-fold star's vanishing tail must reach this
_ISOLATION = 1e-3          # simple star: rounding radius / distance to the nearest other root
_EIGEN_GATE = 1e-9         # Var(J.u) above this (2J)^2 skips the eigenstate test, which no such state passes
_LINKAGE_SCALES = 2.0 * 4.0 ** -np.arange(12)   # chordal scales, whole sphere down to 5e-7


@dataclass(frozen=True)
class MajoranaPoly:
    """Coefficients c[k] of z^k for k = 0 .. 2J."""

    j: "object"
    coeffs: np.ndarray

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coeffs)


@dataclass(frozen=True)
class Star:
    point: BlochPoint
    multiplicity: int


@dataclass(frozen=True)
class Constellation:
    """Multiset of 2J stars on the unit sphere."""

    stars: tuple

    @property
    def total_multiplicity(self) -> int:
        return sum(s.multiplicity for s in self.stars)

    def expanded(self):
        """Unit vectors with multiplicity expanded, shape (2J, 3)."""
        rows = []
        for s in self.stars:
            rows.extend([s.point.unit_vector] * s.multiplicity)
        return np.array(rows)


@lru_cache(maxsize=None)
def _sqrt_binomials(n: int) -> np.ndarray:
    """sqrt(C(n, k)) for k = 0 .. n (symmetric in k)."""
    row = np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    row.setflags(write=False)
    return row


def majorana_poly(state: SpinState) -> MajoranaPoly:
    """Binomially weighted amplitudes as polynomial coefficients."""
    # coefficient of z^k belongs to m = k - J, stored at index 2J - k
    return MajoranaPoly(j=state.j, coeffs=_sqrt_binomials(state.j.twice_j) * state.amps[::-1])


def _sphere(x, south=False) -> np.ndarray:
    """Unit vectors of stereographic coordinates: z = x in the north chart,
    or z = 1/x in the south chart (x = 0 is then the south pole)."""
    x = np.asarray(x, dtype=complex)
    a2 = np.abs(x) ** 2
    sign = -1.0 if south else 1.0
    with np.errstate(invalid="ignore"):       # a non-finite x gives nan rows
        return np.stack([2.0 * x.real, sign * 2.0 * x.imag, sign * (1.0 - a2)], axis=-1) / (1.0 + a2)[..., None]


def _angles(u):
    """Polar angle and azimuth of unit vectors, accurate at the poles."""
    return np.arctan2(np.hypot(u[..., 0], u[..., 1]), u[..., 2]), np.arctan2(u[..., 1], u[..., 0])


def _chart_mean(u) -> np.ndarray:
    """Mean of points in the stereographic chart of their hemisphere, as a
    unit vector (nan when a point sits at that chart's far pole)."""
    south = u[:, 2].sum() < 0.0
    sign = -1.0 if south else 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (u[:, 0] + sign * 1j * u[:, 1]) / (1.0 + sign * u[:, 2])
    return _sphere(np.mean(x), south)


def _rotate_to_pole(amps, n, u):
    """R_y(-theta) R_z(-phi) amps = R_z(pi/2) R_x(-theta) R_z(-phi - pi/2) amps
    for each row of ``u``, with (theta, phi - pi) the angles of u: the
    rotation that carries the star u to the north pole, O(dim^2) per row.
    Returns the rotated rows and (theta, phi)."""
    theta, azimuth = _angles(u)
    phi = azimuth + math.pi
    m = (n - 2.0 * np.arange(n + 1)) / 2.0
    x = _rx(n, np.exp(1j * theta[:, None] * m), amps * np.exp(1j * (phi[:, None] + math.pi / 2.0) * m))
    return x * np.exp(-0.5j * math.pi * m), theta, phi


def _pole_newton(chi, n, k, theta, phi):
    """One Newton step on p^(k-1) at the pole of each rotated frame, mapped
    back to the original frame as unit vectors."""
    rows = np.arange(len(k))
    row = _sqrt_binomials(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = -(row[k - 1] * chi[rows, n - k + 1]) / (k * row[k] * chi[rows, n - k])
    v = _sphere(delta)
    # undo the rotation: star map R_z(phi) R_y(-theta)
    ct, st = np.cos(theta), np.sin(theta)
    x, z = v[:, 0] * ct - v[:, 2] * st, v[:, 0] * st + v[:, 2] * ct
    cp, sp = np.cos(phi), np.sin(phi)
    return np.stack([x * cp - v[:, 1] * sp, x * sp + v[:, 1] * cp, z], axis=-1)


def _linkage_tree(dist):
    """Minimum spanning tree of points with distance matrix ``dist`` (Prim):
    each point's parent (the first point is its own) and edge length."""
    parent = np.zeros(len(dist), dtype=int)
    length = np.zeros(len(dist))
    best = dist[0].copy()
    out = np.zeros(len(dist), dtype=bool)
    out[0] = True
    for _ in range(len(dist) - 1):
        v = int(np.argmin(np.where(out, np.inf, best)))
        out[v] = True
        length[v] = best[v]
        closer = ~out & (dist[v] < best)
        best[closer] = dist[v, closer]
        parent[closer] = v
    return parent, length


def _linkage_labels(parent, length, h) -> np.ndarray:
    """Single-linkage component labels at chordal scale h: the tree cut at
    edges longer than h, each point labelled by its component's root."""
    ptr = np.where(length <= h, parent, np.arange(len(parent)))
    for _ in range(max(1, math.ceil(math.log2(len(parent))))):
        ptr = ptr[ptr]
    return ptr


def _root_points(c, roots):
    """Roots as unit vectors, and the radius eps * sum_k |c_k| |x|^k / |p'(x)|
    within which rounding leaves each root, in chordal units; each root is
    taken in the stereographic chart of its hemisphere (z, or 1/z with the
    reversed coefficients), so |x| <= 1 and one table of powers serves both."""
    south = np.abs(roots) > 1.0
    x = np.where(south, 1.0 / np.where(south, roots, 1.0), roots)
    coeffs = np.where(south[:, None], c[::-1], c)
    powers = np.vander(x, len(c), increasing=True)
    dp = np.einsum("ij,ij->i", powers[:, :-1], np.arange(1, len(c)) * coeffs[:, 1:])
    bound = np.einsum("ij,ij->i", np.abs(powers), np.abs(coeffs))
    with np.errstate(divide="ignore"):
        radius = np.finfo(float).eps * bound / np.abs(dp)
    points = np.where(south[:, None], _sphere(x, south=True), _sphere(x))
    return points, radius * 2.0 / (1.0 + np.abs(x) ** 2)


def _frame_test(amps, n, centre, k):
    """Rotate-to-pole test of candidate stars, batched: each candidate
    centre (rows of unit vectors) corrected, and whether it is a star of
    multiplicity k: in the frame of the corrected centre the trailing k
    amplitudes vanish and the next one does not."""
    with np.errstate(invalid="ignore", over="ignore"):     # nan centres fail the test
        for _ in range(2):
            chi, theta, phi = _rotate_to_pole(amps, n, centre)
            centre = _pole_newton(chi, n, k, theta, phi)
        tail = np.arange(n + 1) > n - k[:, None]
        vanish = np.all((np.abs(chi) <= _VANISH_TOL) | ~tail, axis=1)
        seen = np.abs(chi[np.arange(len(k)), n - k]) >= _SEEN_TOL
    return centre, vanish & seen


def _roots(c):
    """Roots of sum_k c_k z^k (c[0], c[-1] != 0) by ``np.roots``, in w = z^g
    when the nonzero c_k sit on multiples of g = gcd(k) > 1, each w giving g
    roots.  A companion matrix that overflows, when the leading coefficient
    is tiny against the others, raises RootFindingError."""
    g = int(np.gcd.reduce(np.flatnonzero(c)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            roots = np.roots(c[::g][::-1])
            if np.isfinite(roots).all():
                if g == 1:
                    return roots
                turns = np.angle(roots)[:, None] + 2.0 * math.pi * np.arange(g)
                return (np.abs(roots)[:, None] ** (1.0 / g) * np.exp(1j * turns / g)).ravel()
        except np.linalg.LinAlgError:
            pass
    raise RootFindingError("the root solve overflowed: the leading Majorana coefficient "
                           f"{abs(c[-1]):.3g} is too small against the others")


def _stars(amps):
    """Stars of the unit amplitude vector ``amps`` (basis m = +J ... -J):
    unit vectors, shape (s, 3), and multiplicities (s,)."""
    n = len(amps) - 1
    nonzero = np.flatnonzero(amps)
    n_south, n_north = nonzero[0], n - nonzero[-1]
    c = (_sqrt_binomials(n) * amps[::-1])[n_north:n + 1 - n_south]
    roots = np.empty(0, dtype=complex)
    if len(c) > 1:
        mean, cov = angular_momentum_moments(HalfInt(n), amps)
        size = np.linalg.norm(mean)
        if size > 0.0 and mean @ cov @ mean <= _EIGEN_GATE * (n * size) ** 2:
            # J.u psi = |<J>| psi: k = J + |<J>| stars at the mirror image of u, the rest opposite
            k = int(round(0.5 * n + size))
            mirror = mean / size * [-1.0, -1.0, 1.0]
            both = 1 if k == n else 2          # a coherent state has no antipodal star
            mults = np.array([k, n - k][:both])
            centre, ok = _frame_test(amps, n, np.array([mirror, -mirror][:both]), mults)
            if ok.all():
                return centre, mults
        roots = _roots(c)
    raw, radius = _root_points(c, roots)
    pole = np.repeat([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]], [n_south, n_north], axis=0)
    points = np.concatenate([raw, pole])
    if not len(points):
        return np.empty((0, 3)), np.empty(0, dtype=int)
    dist = np.linalg.norm(points[:, None] - points[None], axis=-1)
    parent, length = _linkage_tree(dist)
    np.fill_diagonal(dist, np.inf)
    simple = np.zeros(len(points), dtype=bool)
    simple[:len(raw)] = radius <= _ISOLATION * dist[:len(raw)].min(axis=1)

    found, mults = [], []
    left = np.ones(len(points), dtype=bool)
    failed = set()
    for h in _LINKAGE_SCALES:
        idx = np.flatnonzero(left)
        labels = _linkage_labels(parent, length, h)[idx]
        order = np.argsort(labels, kind="stable")
        test = []
        for g in np.split(idx[order], np.flatnonzero(np.diff(labels[order])) + 1):
            if len(g) == 1 and simple[g[0]] or g[0] >= len(raw) and np.all(points[g] == points[g[0]]):
                found.append(points[g[:1]])
                mults.append([len(g)])
                left[g] = False
            elif tuple(g) not in failed:
                test.append(g)
        if test:
            centre, ok = _frame_test(amps, n, np.array([_chart_mean(points[g]) for g in test]),
                                     np.array([len(g) for g in test]))
            for g, good, point in zip(test, ok, centre):
                if good:
                    found.append(point[None])
                    mults.append([len(g)])
                    left[g] = False
                else:
                    failed.add(tuple(g))
        if not left.any():
            return np.concatenate(found), np.concatenate(mults).astype(int)
    raise RootFindingError(f"{left.sum()} of {n} roots fit no simple or multiple star")


def roots_with_multiplicity(coeffs: np.ndarray):
    """All finite roots of the polynomial with multiplicities, plus the
    number of roots at infinity (degree deficiency).

    Returns (list[(root, multiplicity)], n_at_infinity).
    """
    c = np.asarray(coeffs, dtype=complex)
    n = len(c) - 1
    amps = c[::-1] / _sqrt_binomials(n)
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise DomainError("polynomial has no nonzero coefficients")
    points, mults = _stars(amps / norm)
    pairs, n_inf = [], 0
    for (x, y, z), mult in zip(points, mults.tolist()):
        if x == 0.0 == y and z < 0.0:
            n_inf += mult
        else:       # inverse stereographic map, in the chart of the point's hemisphere
            pairs.append((complex(x, y) / (1.0 + z) if z >= 0.0 else (1.0 - z) / complex(x, -y), mult))
    return pairs, n_inf


def constellation(state: SpinState) -> Constellation:
    """Stars of the state: polynomial roots through the stereographic map.

    Raises RootFindingError when a root fits neither a simple star nor a
    multiple one (see the module docstring).
    """
    points, mults = _stars(state.amps)
    polar, azimuth = _angles(points)
    stars = [Star(BlochPoint(p, a), int(m)) for p, a, m in zip(polar, azimuth, mults)]
    stars.sort(key=lambda s: (s.point.polar, s.point.azimuth))
    return Constellation(stars=tuple(stars))


def husimi(state: SpinState, point: BlochPoint) -> float:
    """Overlap probability |<n|psi>|^2 with the coherent state along point."""
    probe = coherent_state(state.j, point)
    return float(abs(np.vdot(probe.amps, state.amps)) ** 2)


@dataclass(frozen=True)
class HusimiGrid:
    """Regular (polar x azimuth) sampling of the Husimi function."""

    polar: np.ndarray
    azimuth: np.ndarray
    q: np.ndarray
    scaled_q: np.ndarray


def husimi_grid(state: SpinState, n_polar: int, n_azimuth: int) -> HusimiGrid:
    """Sample the Husimi function on a regular grid.

    The overlap with the coherent state along (t, f) is
    sum_i sqrt(C(2J, i)) cos(t/2)^(2J-i) sin(t/2)^i e^{-i i f} psi_i, so the
    grid is one product |A @ (psi[:, None] * E)|^2 of a polar factor A and
    azimuthal phases E.  scaled_q carries the display scaling (4 q / pi)^(3/4).
    """
    if n_polar < 2 or n_azimuth < 2:
        raise DomainError("grid needs at least 2 points per direction")
    polar = np.linspace(0.0, math.pi, n_polar)
    azimuth = np.linspace(0.0, 2.0 * math.pi, n_azimuth, endpoint=False)
    n = state.j.twice_j
    i = np.arange(n + 1)
    a = (_sqrt_binomials(n) * np.cos(polar / 2.0)[:, None] ** (n - i)
         * np.sin(polar / 2.0)[:, None] ** i)
    e = np.exp(-1j * np.outer(i, azimuth))
    q = np.abs(a @ (state.amps[:, None] * e)) ** 2
    scaled = (4.0 * q / math.pi) ** 0.75
    return HusimiGrid(polar=polar, azimuth=azimuth, q=q, scaled_q=scaled)
