"""Angular momentum algebra, rotation operators, and rotation-parameter generators.

Conventions used throughout the package (hbar = 1):

* basis order is m = +J, +J-1, ..., -J, so index 0 corresponds to m = +J;
* a rotation is parametrized by the angle ``theta`` turned (right-hand rule)
  about the axis ``n = (sin T cos F, sin T sin F, cos T)`` with polar angle
  ``cap_theta`` (T) and azimuth ``cap_phi`` (F);
* the unitary is ``R = exp(-i theta J.n)`` and the matching vector rotation
  satisfies ``R^dag J_i R = sum_j M_ij J_j`` with ``M = so3_matrix(params)``.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import DomainError, NumericalToleranceError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class HalfInt:
    """Integer or half-odd angular momentum, stored as 2J to stay exact."""

    twice_j: int

    def __post_init__(self):
        if not isinstance(self.twice_j, (int, np.integer)):
            raise DomainError(f"twice_j must be an integer, got {self.twice_j!r}")
        if self.twice_j < 0:
            raise DomainError(f"twice_j must be non-negative, got {self.twice_j}")
        object.__setattr__(self, "twice_j", int(self.twice_j))

    @classmethod
    def from_j(cls, j):
        """Build from a numeric J, requiring it to be a multiple of 1/2."""
        twice = 2.0 * float(j)
        rounded = round(twice)
        if abs(twice - rounded) > 1e-12:
            raise DomainError(f"J must be integer or half-odd, got {j}")
        return cls(int(rounded))

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    def m_values(self) -> np.ndarray:
        """All projections m in basis order +J ... -J."""
        return (self.twice_j - 2 * np.arange(self.dim)) / 2.0

    def __str__(self):
        if self.twice_j % 2 == 0:
            return str(self.twice_j // 2)
        return f"{self.twice_j}/2"


@dataclass(frozen=True)
class OperatorSet:
    """Dense matrices jx, jy, jz, jplus, jminus, jsq for one J block."""

    j: HalfInt
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jplus: np.ndarray
    jminus: np.ndarray
    jsq: np.ndarray

    def vector(self):
        """The three Cartesian components as a tuple."""
        return (self.jx, self.jy, self.jz)

    def along(self, direction) -> np.ndarray:
        """J . v for a real 3-vector v (not necessarily unit)."""
        v = np.asarray(direction, dtype=float)
        return v[0] * self.jx + v[1] * self.jy + v[2] * self.jz


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def _make_operators_cached(twice_j: int) -> OperatorSet:
    j = HalfInt(twice_j)
    dim = j.dim
    m = j.m_values()
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((dim, dim), dtype=complex)
    # <J m+1 | J+ | J m> = sqrt(J(J+1) - m(m+1)); column index i has m = J - i
    jj1 = j.j * (j.j + 1.0)
    for i in range(1, dim):
        mm = m[i]
        jplus[i - 1, i] = math.sqrt(jj1 - mm * (mm + 1.0))
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    jsq = jj1 * np.eye(dim, dtype=complex)
    return OperatorSet(
        j=j,
        jx=_readonly(jx),
        jy=_readonly(jy),
        jz=_readonly(jz),
        jplus=_readonly(jplus),
        jminus=_readonly(jminus),
        jsq=_readonly(jsq),
    )


def make_operators(j: HalfInt) -> OperatorSet:
    """Angular momentum matrices in the (2J+1)-dimensional block."""
    return _make_operators_cached(j.twice_j)


@dataclass(frozen=True)
class RotationParams:
    """Axis-angle triple (theta, cap_theta, cap_phi) in radians.

    theta may be anywhere in [0, 2*pi]; callers that need the principal
    range [0, pi) are responsible for it.  cap_phi is stored mod 2*pi.
    """

    theta: float
    cap_theta: float
    cap_phi: float

    def __post_init__(self):
        t, ct, cp = float(self.theta), float(self.cap_theta), float(self.cap_phi)
        if not (0.0 <= t <= TWO_PI + 1e-12):
            raise DomainError(f"theta must lie in [0, 2*pi], got {t}")
        if not (-1e-12 <= ct <= math.pi + 1e-12):
            raise DomainError(f"cap_theta must lie in [0, pi], got {ct}")
        if not math.isfinite(cp):
            raise DomainError(f"cap_phi must be finite, got {cp}")
        object.__setattr__(self, "theta", min(max(t, 0.0), TWO_PI))
        object.__setattr__(self, "cap_theta", min(max(ct, 0.0), math.pi))
        object.__setattr__(self, "cap_phi", cp % TWO_PI)

    @property
    def axis(self) -> np.ndarray:
        st, ct = math.sin(self.cap_theta), math.cos(self.cap_theta)
        return np.array([st * math.cos(self.cap_phi), st * math.sin(self.cap_phi), ct])

    @property
    def omega(self) -> np.ndarray:
        """Cartesian rotation vector omega = theta * axis."""
        return self.theta * self.axis

    def as_array(self) -> np.ndarray:
        return np.array([self.theta, self.cap_theta, self.cap_phi])

    @classmethod
    def from_omega(cls, omega) -> "RotationParams":
        """Parameters of the rotation vector omega; |omega| is reduced mod
        2*pi (a full turn changes the state by a global phase only)."""
        w = np.asarray(omega, dtype=float)
        theta = float(np.linalg.norm(w))
        if theta < 1e-300:
            return cls(0.0, 0.0, 0.0)
        n = w / theta
        theta = theta % TWO_PI
        return cls(theta, math.acos(min(1.0, max(-1.0, n[2]))), math.atan2(n[1], n[0]) % TWO_PI)

    @classmethod
    def from_so3(cls, matrix) -> "RotationParams":
        """Axis-angle parameters of a proper rotation matrix (our sign convention)."""
        r = np.asarray(matrix, dtype=float)
        tr = np.trace(r)
        theta = math.acos(min(1.0, max(-1.0, (tr - 1.0) / 2.0)))
        # antisymmetric part carries 2 sin(theta) * n under the convention
        # fixed by so3_matrix
        w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
        s = np.linalg.norm(w)
        if s > 1e-12:
            n = w / s
        else:
            if theta < 1e-8:
                return cls(0.0, 0.0, 0.0)
            # theta = pi: axis from the symmetric part
            sym = (r + np.eye(3)) / 2.0
            k = int(np.argmax(np.diag(sym)))
            n = sym[:, k] / math.sqrt(max(sym[k, k], 1e-300))
            n /= np.linalg.norm(n)
        return cls(theta, math.acos(min(1.0, max(-1.0, n[2]))), math.atan2(n[1], n[0]) % TWO_PI)


@dataclass(frozen=True)
class GeneratorFrame:
    """Closed-form vectors g_theta, g_cap_theta, g_cap_phi with G_k = J . g_k."""

    g_theta: np.ndarray
    g_cap_theta: np.ndarray
    g_cap_phi: np.ndarray

    def matrix(self) -> np.ndarray:
        """3x3 matrix whose columns are (g_theta, g_cap_theta, g_cap_phi)."""
        return np.column_stack([self.g_theta, self.g_cap_theta, self.g_cap_phi])


def so3_matrix(p: RotationParams) -> np.ndarray:
    """Rodrigues rotation matrix M with R^dag J_i R = sum_j M_ij J_j.

    M_ij = delta_ij cos(t) + (1 - cos(t)) n_i n_j - eps_ijk n_k sin(t);
    acting on column vectors this is the active right-hand rotation,
    e.g. M(pi/2, z) maps x -> y.
    """
    n = p.axis
    c, s = math.cos(p.theta), math.sin(p.theta)
    nx = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return c * np.eye(3) + (1.0 - c) * np.outer(n, n) + s * nx


def rotation_unitary(j: HalfInt, p: RotationParams) -> np.ndarray:
    """exp(-i theta J.n) via eigendecomposition of the Hermitian J.n."""
    return _axis_angle_unitary(j, p.theta, p.axis)


def _axis_angle_unitary(j: HalfInt, theta: float, axis) -> np.ndarray:
    ops = make_operators(j)
    h = ops.along(axis)
    vals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * theta * vals)
    return (vecs * phases) @ vecs.conj().T


def generator_frame(p: RotationParams) -> GeneratorFrame:
    """Closed-form generator vectors for the (theta, cap_theta, cap_phi) triple."""
    t2 = p.theta / 2.0
    st2, ct2 = math.sin(t2), math.cos(t2)
    n = p.axis
    ct, st = math.cos(p.cap_theta), math.sin(p.cap_theta)
    cp, sp = math.cos(p.cap_phi), math.sin(p.cap_phi)
    dn_dT = np.array([ct * cp, ct * sp, -st])
    dn_dF = np.array([-st * sp, st * cp, 0.0])
    g_T = 2.0 * st2 * (ct2 * dn_dT - st2 * np.cross(dn_dT, n))
    g_F = 2.0 * st2 * (ct2 * dn_dF - st2 * np.cross(dn_dF, n))
    return GeneratorFrame(g_theta=n, g_cap_theta=g_T, g_cap_phi=g_F)


_PARAM_INDEX = {"theta": 0, "cap_theta": 1, "cap_phi": 2}


def _omega_of(raw: np.ndarray) -> np.ndarray:
    t, ct, cp = raw
    st = math.sin(ct)
    return t * np.array([st * math.cos(cp), st * math.sin(cp), math.cos(ct)])


def omega_rotate(j: HalfInt, omega, amps) -> np.ndarray:
    """exp(-i J.omega) amps for a rotation vector omega, or for each vector of
    a stack of shape (..., 3) (result (..., dim)), by batched Hermitian
    eigendecomposition; no unitary is formed."""
    h = np.tensordot(np.asarray(omega, dtype=float), np.stack(make_operators(j).vector()),
                     axes=(-1, 0))
    vals, vecs = np.linalg.eigh(h)
    coef = np.exp(-1j * vals) * (np.conj(amps) @ vecs).conj()     # e^{-i vals} V^dag amps
    return np.einsum("...ik,...k->...i", vecs, coef)


def _unitary_raw(j: HalfInt, raw: np.ndarray) -> np.ndarray:
    """exp(-i J.omega(raw)) without range validation (finite differences may
    step slightly outside the declared parameter ranges)."""
    ops = make_operators(j)
    w = _omega_of(raw)
    h = ops.along(w)
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def numerical_generator(j: HalfInt, p: RotationParams, k, fd_step: float = 1e-5,
                        quad_order: int = 64, tol: float = 1e-7) -> np.ndarray:
    """Generator G_k = (i d_k R) R^dag computed two independent ways.

    (a) central finite differences of the rotation unitary in parameter k;
    (b) Gauss-Legendre quadrature of
        G_k = (int_0^1 da  e^{-i a J.w} J e^{+i a J.w}) . d_k w,  w = theta n.

    The two routes must agree to ``tol`` in max-norm (relative to the scale
    of J), otherwise a NumericalToleranceError is raised.  The quadrature
    value is returned.
    """
    if isinstance(k, str):
        k = _PARAM_INDEX[k]
    if k not in (0, 1, 2):
        raise DomainError(f"parameter index must be 0, 1 or 2, got {k}")
    raw = p.as_array()

    # route (a): i (dR/dk) R^dag by central differences
    up = raw.copy()
    dn = raw.copy()
    up[k] += fd_step
    dn[k] -= fd_step
    dr = (_unitary_raw(j, up) - _unitary_raw(j, dn)) / (2.0 * fd_step)
    g_fd = 1j * dr @ _unitary_raw(j, raw).conj().T

    # route (b): quadrature of the conjugated-J integral
    ops = make_operators(j)
    w = _omega_of(raw)
    h = ops.along(w)
    vals, vecs = np.linalg.eigh(h)
    jrot = [vecs.conj().T @ ji @ vecs for ji in ops.vector()]
    nodes, weights = np.polynomial.legendre.leggauss(quad_order)
    alphas = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    n = p.axis
    ct, st = math.cos(p.cap_theta), math.sin(p.cap_theta)
    cp, sp = math.cos(p.cap_phi), math.sin(p.cap_phi)
    dw_exact = np.column_stack([
        n,
        p.theta * np.array([ct * cp, ct * sp, -st]),
        p.theta * np.array([-st * sp, st * cp, 0.0]),
    ])
    integral = [np.zeros_like(jrot[0]) for _ in range(3)]
    for a, wt in zip(alphas, weights):
        ph = np.exp(-1j * a * vals)
        for i in range(3):
            integral[i] += wt * ((ph[:, None] * jrot[i]) * ph.conj()[None, :])
    integral = [vecs @ m @ vecs.conj().T for m in integral]
    g_quad = sum(dw_exact[i, k] * integral[i] for i in range(3))

    scale = max(1.0, j.j)
    err = np.max(np.abs(g_quad - g_fd)) / scale
    if err > tol:
        raise NumericalToleranceError(
            f"finite-difference and quadrature generators disagree: {err:.3e} > {tol:.1e}")
    return g_quad


def angular_momentum_moments(j: HalfInt, amps: np.ndarray):
    """Mean vector <J_i> and covariance Cov(J_i, J_j) of a normalized amplitude
    vector in the canonical basis order.  Returns (mean, cov) as real arrays."""
    ops = make_operators(j)
    psi = np.asarray(amps, dtype=complex)
    jpsi = [op @ psi for op in ops.vector()]
    mean = np.array([np.vdot(psi, v).real for v in jpsi])
    cov = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            sym = 0.5 * (np.vdot(jpsi[a], jpsi[b]) + np.vdot(jpsi[b], jpsi[a])).real
            cov[a, b] = cov[b, a] = sym - mean[a] * mean[b]
    return mean, cov


def compose(first: RotationParams, second: RotationParams) -> RotationParams:
    """Parameters of the rotation 'first then second' (second applied after)."""
    return RotationParams.from_so3(so3_matrix(second) @ so3_matrix(first))
