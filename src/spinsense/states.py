"""Constructors for the probe-state families used in rotation sensing."""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DegenerateInputError, DomainError, KingSearchError
from .su2 import TWO_PI, HalfInt, angular_momentum_moments, omega_rotate

_NORM_TOL = 1e-9
# Least Tr C^-1 over all states for the 2J without a King state.  By AM-HM,
# Tr C^-1 >= 9/(J(J+1)) with equality only for a King state, so each value
# above that bound certifies that none exists.  A spin-1/2 covariance is
# always singular.  At J = 1 a state is u + i v in the Cartesian basis, with
# u orthogonal to v; the covariance eigenvalues are 1 - s, s and (2s - 1)^2
# with s = |u|^2, and the sum of their inverses is least, 9, at
# s = (3 + sqrt 3)/6.  The values for 2J = 3 and 5 are numerical minima;
# the first agrees with 28/9 to rounding.
_LEAST_TRACE_INVERSE = {1: math.inf, 2: 9.0, 3: 28.0 / 9.0, 5: 1.0523354048}


@dataclass(frozen=True)
class BlochPoint:
    """Direction on the unit sphere: polar in [0, pi], azimuth stored mod 2*pi."""

    polar: float
    azimuth: float

    def __post_init__(self):
        try:
            pol, az = float(self.polar), float(self.azimuth)
        except (TypeError, ValueError):
            raise DomainError(f"polar and azimuth must be numbers, got {self.polar!r} "
                              f"and {self.azimuth!r}") from None
        if not (-1e-12 <= pol <= math.pi + 1e-12):
            raise DomainError(f"polar angle must lie in [0, pi], got {pol}")
        if not math.isfinite(az):
            raise DomainError(f"azimuth must be finite, got {az}")
        object.__setattr__(self, "polar", min(max(pol, 0.0), math.pi))
        object.__setattr__(self, "azimuth", az % TWO_PI)

    @property
    def unit_vector(self) -> np.ndarray:
        sp = math.sin(self.polar)
        return np.array([sp * math.cos(self.azimuth),
                         sp * math.sin(self.azimuth),
                         math.cos(self.polar)])

    @classmethod
    def from_vector(cls, v) -> "BlochPoint":
        v = np.asarray(v, dtype=float)
        r = np.linalg.norm(v)
        if r < 1e-300:
            raise DomainError("cannot infer a direction from the zero vector")
        return cls(math.acos(min(1.0, max(-1.0, v[2] / r))),
                   math.atan2(v[1], v[0]) % TWO_PI)

    def antipode(self) -> "BlochPoint":
        return BlochPoint(math.pi - self.polar, self.azimuth + math.pi)


@dataclass(frozen=True)
class SpinState:
    """Normalized amplitude vector over |J m> with m = +J ... -J."""

    j: HalfInt
    amps: np.ndarray

    def __post_init__(self):
        a = np.array(self.amps, dtype=complex)
        if a.shape != (self.j.dim,):
            raise DomainError(
                f"amplitude vector must have length {self.j.dim}, got shape {a.shape}")
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) > _NORM_TOL:
            raise DomainError(f"state must be normalized, |norm - 1| = {abs(norm - 1.0):.2e}")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @classmethod
    def from_amplitudes(cls, j: HalfInt, amps) -> "SpinState":
        """Normalize an arbitrary non-zero amplitude vector (phase untouched).

        Vectors already normalized to float precision pass through bit for
        bit, so serialized states survive a read/write cycle unchanged.
        """
        a = np.asarray(amps, dtype=complex)
        norm = np.linalg.norm(a)
        if norm < 1e-12:
            raise DegenerateInputError("amplitude vector is numerically zero")
        if abs(norm - 1.0) > 1e-12:
            a = a / norm
        return cls(j, a)

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amps, self.amps.conj())

    def mean_spin(self) -> np.ndarray:
        mean, _ = angular_momentum_moments(self.j, self.amps)
        return mean

    def overlap(self, other: "SpinState") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def rotate(self, params) -> "SpinState":
        return SpinState(self.j, omega_rotate(self.j, params.omega, self.amps))


def _canonical_phase(amps: np.ndarray) -> np.ndarray:
    """Multiply by a global phase so the first non-negligible amplitude is
    real and positive; makes serialized states reproducible."""
    idx = np.argmax(np.abs(amps) > 1e-12)
    pivot = amps[idx]
    if abs(pivot) < 1e-12:
        return amps
    return amps * (abs(pivot) / pivot)


def _canonical(j: HalfInt, amps: np.ndarray) -> SpinState:
    a = np.asarray(amps, dtype=complex)
    a = a / np.linalg.norm(a)
    return SpinState(j, _canonical_phase(a))


def _m_index(j: HalfInt, m: float) -> int:
    try:
        twice_m = 2.0 * float(m)
        rounded = round(twice_m)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"m must be a finite number, got {m!r}") from None
    if abs(twice_m - rounded) > 1e-9 or (j.twice_j - rounded) % 2 != 0:
        raise DomainError(f"m = {m} does not match the parity of J = {j}")
    if abs(rounded) > j.twice_j:
        raise DomainError(f"m = {m} outside [-J, J] for J = {j}")
    return (j.twice_j - rounded) // 2


def basis_state(j: HalfInt, m) -> SpinState:
    """|J m>, an eigenstate of jz with eigenvalue m."""
    amps = np.zeros(j.dim, dtype=complex)
    amps[_m_index(j, m)] = 1.0
    return SpinState(j, amps)


def coherent_state(j: HalfInt, point: BlochPoint) -> SpinState:
    """Spin coherent state: +J eigenstate of J.n for the given direction.

    Amplitudes psi_m = sqrt(C(2J, J+m)) cos(t/2)^(J+m) sin(t/2)^(J-m)
    e^{i (J-m) phi}, which is the stereographic form with
    z = tan(t/2) e^{i phi} written to stay stable at the south pole.
    """
    half = point.polar / 2.0
    c, s = math.cos(half), math.sin(half)
    n = j.twice_j
    amps = np.empty(j.dim, dtype=complex)
    for i in range(j.dim):
        # i = J - m, so J + m = n - i
        amps[i] = (math.sqrt(math.comb(n, i)) * (c ** (n - i)) * (s ** i)
                   * np.exp(1j * i * point.azimuth))
    return _canonical(j, amps)


def noon_state(j: HalfInt) -> SpinState:
    """(|J J> - |J -J>)/sqrt(2).

    For 2J >= 3 the covariance is diag(J/2, J/2, J^2) and the axis-averaged
    variance is atan(sqrt(2J-1)) / (2J sqrt(2J-1)).  Neither closed form
    applies for 2J <= 2, where J_+^{2J} bridges the two extremes and the
    state is an eigenstate of J_x: at J = 1/2 it is a coherent state, at
    J = 1 it is |1 0> along x, with covariance diag(0, 1, 1).  Its
    covariance is singular there and avg_variance returns inf.
    """
    if j.twice_j == 0:
        raise DomainError("J = 0 carries no NOON state")
    amps = np.zeros(j.dim, dtype=complex)
    amps[0] = 1.0 / math.sqrt(2.0)
    amps[-1] = -1.0 / math.sqrt(2.0)
    return SpinState(j, amps)


def cat_state(j: HalfInt, z: complex) -> SpinState:
    """Normalized difference of coherent states at z and -z.

    z is the stereographic coordinate tan(polar/2) e^{i azimuth}; -z is the
    mirror point (same polar, azimuth + pi).  The normalization is computed
    numerically from the constructed vector.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError("z must be finite; the |z| -> inf limit is a basis state")
    polar = 2.0 * math.atan(abs(z))
    azimuth = math.atan2(z.imag, z.real)
    plus = coherent_state(j, BlochPoint(polar, azimuth))
    minus = coherent_state(j, BlochPoint(polar, azimuth + math.pi))
    diff = plus.amps - minus.amps
    norm = np.linalg.norm(diff)
    if norm < 1e-12:
        raise DegenerateInputError(
            f"coherent branches coincide at z = {z}; cat state undefined")
    return _canonical(j, diff)


def balanced_state(j: HalfInt, m) -> SpinState:
    """(|J m> + |J -m>)/sqrt(2) with m > 1/2: equatorial stars plus polar stars."""
    i_hi = _m_index(j, m)
    if float(m) <= 0.5:
        raise DomainError(f"balanced state requires m > 1/2, got m = {m}")
    i_lo = _m_index(j, -float(m))
    amps = np.zeros(j.dim, dtype=complex)
    amps[i_hi] = 1.0 / math.sqrt(2.0)
    amps[i_lo] += 1.0 / math.sqrt(2.0)
    return SpinState(j, amps)


def _king_support(twice_j: int):
    """Levels i = J - m and weights w = |c_m|^2 of a King state on 2 or 3
    levels of one residue class of m mod 3, or None if there is none.

    Such levels differ by multiples of 3 in m, so every cross moment
    vanishes and isotropy is sum w = 1, sum w m = 0, sum w m^2 = J(J+1)/3.
    Per class the candidates are its extreme levels, alone and then with
    each interior level from the top; all triples are solved at once in
    Lagrange form, exactly in integers (levels as 2m).  These candidates
    find a solution whenever any 2- or 3-level support does (for 2J >= 11,
    in every class).
    """
    if twice_j == 0:
        return np.zeros(1, dtype=int), np.ones(1)
    s = twice_j * (twice_j + 2)          # 12 J(J+1)/3: sum w (2m)^2 = s/3
    for r in range(3):
        levels = np.arange(r, twice_j + 1, 3)
        if levels.size < 2:
            continue
        twice_m = twice_j - 2 * levels
        hi, lo = twice_m[0], twice_m[-1]
        if s + 3 * hi * lo == 0:
            return levels[[0, -1]], np.array([-lo, hi]) / (hi - lo)
        tri = np.stack(np.broadcast_arrays(hi, lo, twice_m[1:-1]), axis=1)
        b, c = np.roll(tri, -1, axis=1), np.roll(tri, -2, axis=1)
        w = (s + 3 * b * c) / (3 * (tri - b) * (tri - c))
        feasible = np.flatnonzero(np.all(w >= 0.0, axis=1))
        if feasible.size:
            k = feasible[0]
            return levels[[0, -1, k + 1]], w[k]
    return None


def king_state(j: HalfInt) -> SpinState:
    """State with vanishing mean spin and isotropic angular momentum
    covariance C = (J(J+1)/3) * identity.

    When m* = sqrt(J(J+1)/3) is an admissible half-integer (m* > 1 with the
    right parity) the balanced superposition (|J m*> + |J -m*>)/sqrt(2) is
    returned directly.  Otherwise the state is built in closed form on 2 or
    3 levels of one residue class of m mod 3 (see ``_king_support``).  No
    such support exists only for 2J in {1, 2, 3, 5}, where KingSearchError
    carries the least Tr C^-1 over all states (``_LEAST_TRACE_INVERSE``).
    """
    target = j.j * (j.j + 1.0) / 3.0
    m_star = math.sqrt(target)
    twice_m = round(2.0 * m_star)
    if (abs(2.0 * m_star - twice_m) < 1e-9 and twice_m > 2
            and (j.twice_j - twice_m) % 2 == 0 and twice_m <= j.twice_j):
        return balanced_state(j, twice_m / 2.0)
    support = _king_support(j.twice_j)
    if support is None:
        best = _LEAST_TRACE_INVERSE[j.twice_j]
        raise KingSearchError(
            f"no King state exists for J = {j}: the least Tr C^-1 is {best:.10g}, "
            f"above the bound 9/(J(J+1)) = {9.0 / (j.j * (j.j + 1.0)):.6f} that "
            "only a King state reaches", best_trace_inverse=best)
    levels, weights = support
    amps = np.zeros(j.dim)
    amps[levels] = np.sqrt(weights)
    return _canonical(j, amps)
