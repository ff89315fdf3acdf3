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
_LEVI_CIVITA = np.zeros((3, 3, 3))
_LEVI_CIVITA[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_LEVI_CIVITA[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = -1.0
_QUAD_ORDER = 64      # Gauss-Legendre nodes of numerical_generator's quadrature route


@dataclass(frozen=True)
class HalfInt:
    """Integer or half-odd angular momentum, stored as 2J to stay exact."""

    twice_j: int

    def __post_init__(self):
        if isinstance(self.twice_j, bool) or not isinstance(self.twice_j, (int, np.integer)):
            raise DomainError(f"twice_j must be an integer, got {self.twice_j!r}")
        if self.twice_j < 0:
            raise DomainError(f"twice_j must be non-negative, got {self.twice_j}")
        object.__setattr__(self, "twice_j", int(self.twice_j))

    @classmethod
    def from_j(cls, j):
        """Build from a numeric J, requiring it to be a multiple of 1/2."""
        try:
            twice = 2.0 * float(j)
            rounded = round(twice)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"J must be a finite number, got {j!r}") from None
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
        """Parameters of the rotation vector omega (see omega_spherical)."""
        return cls(*omega_spherical(omega))

    @classmethod
    def from_so3(cls, matrix) -> "RotationParams":
        """Parameters, theta in [0, pi], of a rotation matrix: from_omega of so3_omega."""
        return cls.from_omega(so3_omega(matrix))


@dataclass(frozen=True)
class GeneratorFrame:
    """Closed-form vectors g_theta, g_cap_theta, g_cap_phi with G_k = J . g_k;
    each of shape (3,), or (..., 3) for a stack of parameters."""

    g_theta: np.ndarray
    g_cap_theta: np.ndarray
    g_cap_phi: np.ndarray

    def matrix(self) -> np.ndarray:
        """Matrix whose columns are (g_theta, g_cap_theta, g_cap_phi): 3x3, or
        (..., 3, 3) for a stack."""
        return np.stack([self.g_theta, self.g_cap_theta, self.g_cap_phi], axis=-1)


def so3_matrix(p: RotationParams) -> np.ndarray:
    """Rodrigues rotation matrix M with R^dag J_i R = sum_j M_ij J_j.

    M_ij = delta_ij cos(t) + (1 - cos(t)) n_i n_j - eps_ijk n_k sin(t);
    acting on column vectors this is the active right-hand rotation,
    e.g. M(pi/2, z) maps x -> y.
    """
    return omega_so3(p.omega)


def rotation_unitary(j: HalfInt, p: RotationParams) -> np.ndarray:
    """exp(-i theta J.n): omega_rotate applied to the identity."""
    return omega_rotate(j, p.omega, np.eye(j.dim)).T


def _cross(a, b):
    """a x b over the last axis, component by component."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def generator_frame(p) -> GeneratorFrame:
    """Closed-form generator vectors for the (theta, cap_theta, cap_phi)
    triple ``p``, a RotationParams, or for each row of a stack of shape
    (..., 3) of such triples."""
    theta, cap_theta, cap_phi = np.moveaxis(
        np.asarray(p.as_array() if isinstance(p, RotationParams) else p, dtype=float), -1, 0)
    t2 = theta / 2.0
    st2, ct2 = np.sin(t2)[..., None], np.cos(t2)[..., None]
    ct, st = np.cos(cap_theta), np.sin(cap_theta)
    cp, sp = np.cos(cap_phi), np.sin(cap_phi)
    n = np.stack([st * cp, st * sp, ct], axis=-1)
    dn_dT = np.stack([ct * cp, ct * sp, -st], axis=-1)
    dn_dF = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)
    g_T = 2.0 * st2 * (ct2 * dn_dT - st2 * _cross(dn_dT, n))
    g_F = 2.0 * st2 * (ct2 * dn_dF - st2 * _cross(dn_dF, n))
    return GeneratorFrame(g_theta=n, g_cap_theta=g_T, g_cap_phi=g_F)


def cartesian_frame(omega) -> np.ndarray:
    """Generator vectors of the Cartesian chart R = exp(-i J.omega), the columns of
    I + a [omega]x + b [omega]x^2, [omega]x v = omega x v, with a = (1 - cos t)/t^2 and
    b = (t - sin t)/t^3 at t = |omega|, or their t = 0 values 1/2 and 1/6 below t = 1e-4."""
    t = float(np.linalg.norm(omega))
    a, b = (0.5, 1 / 6) if t < 1e-4 else ((1 - math.cos(t)) / t**2, (t - math.sin(t)) / t**3)
    wx = -_LEVI_CIVITA @ np.asarray(omega, dtype=float)
    return np.eye(3) + a * wx + b * wx @ wx


_PARAM_INDEX = {"theta": 0, "cap_theta": 1, "cap_phi": 2}


def _omega_of(raw: np.ndarray) -> np.ndarray:
    t, ct, cp = raw
    st = math.sin(ct)
    return t * np.array([st * math.cos(cp), st * math.sin(cp), math.cos(ct)])


@lru_cache(maxsize=None)
def _jx_eigenbasis(twice_j: int):
    """m values in basis order, and real eigenvectors of J_x whose column i
    has the eigenvalue m[i] exactly."""
    m = HalfInt(twice_j).m_values()
    off = np.sqrt(twice_j / 2.0 * (twice_j / 2.0 + 1.0) - m[1:] * (m[1:] + 1.0)) / 2.0
    _, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return _readonly(m), _readonly(vecs[:, ::-1].copy())


def _rx(twice_j: int, phase, amps) -> np.ndarray:
    """V diag(phase) V^T amps, with V the cached real J_x eigenbasis, for
    states in the rows of ``amps``: two products.  With phase = e^{-i beta m}
    this is exp(-i beta J_x) amps.  J_y = e^{-i pi/2 J_z} J_x e^{i pi/2 J_z},
    so a y rotation is an x rotation between z quarter turns, which fold into
    the z phases on either side."""
    vecs = _jx_eigenbasis(twice_j)[1]
    return ((amps @ vecs) * phase) @ vecs.T


def omega_rotate(j: HalfInt, omega, amps) -> np.ndarray:
    """exp(-i J.omega) amps for a rotation vector omega, or for each vector of
    a stack of shape (..., 3) (result (..., dim)); no unitary is formed.
    ``amps`` is one state, or a stack of shape (..., dim) whose states rotate
    by their own vectors.  With t, T and F the norm, polar angle and azimuth
    of omega, the rotation is R_z(F) R_y(T) R_z(t) R_y(-T) R_z(-F)."""
    w = np.asarray(omega, dtype=float)[..., None, :]
    x, y, z = w[..., 0], w[..., 1], w[..., 2]
    rho = np.hypot(x, y)
    angles = np.stack([np.arctan2(y, x) + math.pi / 2.0, np.hypot(rho, z), np.arctan2(rho, z)])
    # R_z(F + pi/2), R_z(t) and R_x(T) as phases in their eigenbases
    rz, spin, tilt = np.exp(-1j * angles * _jx_eigenbasis(j.twice_j)[0])
    psi = _rx(j.twice_j, tilt.conj(), amps * rz.conj()) * spin
    return _rx(j.twice_j, tilt, psi) * rz


def omega_so3(omega) -> np.ndarray:
    """so3_matrix of the rotation vector omega = t n, or of each vector of a
    stack of shape (..., 3) (result (..., 3, 3)), by Rodrigues' formula."""
    w = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(w, axis=-1)[..., None]
    n = w / np.where(theta > 0.0, theta, 1.0)
    c, s = np.cos(theta)[..., None], np.sin(theta)[..., None]
    nx = -np.einsum("ijk,...k->...ij", _LEVI_CIVITA, n)     # nx v = n x v
    return c * np.eye(3) + (1.0 - c) * n[..., :, None] * n[..., None, :] + s * nx


def so3_omega(rot) -> np.ndarray:
    """Rotation vector omega = theta n, theta in [0, pi], of an SO(3) matrix, or
    of each of a stack (..., 3, 3) (result (..., 3)): the inverse of omega_so3.
    theta is the atan2 of |w| = 2 sin(theta), w from the antisymmetric part, and
    tr - 1 = 2 cos(theta), accurate at any angle; where cos(theta) < 0 the axis
    comes from the symmetric part (1 - cos(theta)) n n^T, signed by w."""
    r = np.asarray(rot, dtype=float)
    w = np.einsum("ijk,...kj->...i", _LEVI_CIVITA, r)      # w_i = r_kj - r_jk
    cos2 = np.trace(r, axis1=-2, axis2=-1)[..., None] - 1.0
    theta = np.arctan2(np.linalg.norm(w, axis=-1, keepdims=True), cos2)
    sym = (r + np.swapaxes(r, -1, -2) - cos2[..., None] * np.eye(3)) / 2.0
    col = np.argmax(np.diagonal(sym, axis1=-2, axis2=-1), axis=-1)[..., None, None]
    col = np.take_along_axis(sym, col, axis=-1)[..., 0]
    n = np.where(cos2 >= 0.0, w, np.where((col * w).sum(axis=-1, keepdims=True) >= 0.0, col, -col))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(theta == 0.0, 0.0, n * (theta / np.linalg.norm(n, axis=-1, keepdims=True)))


def omega_spherical(omega) -> np.ndarray:
    """(theta, cap_theta, cap_phi) of the rotation vector omega, or of each
    vector of a stack of shape (..., 3) (result (..., 3)).  theta is |omega|
    reduced mod 2*pi (a full turn changes the state by a global phase only),
    cap_phi lies in [0, 2*pi), and the zero vector gets (0, 0, 0)."""
    w = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(w, axis=-1, keepdims=True)
    zero = theta < 1e-300
    n = w / np.where(zero, 1.0, theta)
    angles = [theta % TWO_PI, np.arccos(np.clip(n[..., 2:], -1.0, 1.0)),
              np.arctan2(n[..., 1:2], n[..., :1]) % TWO_PI]
    return np.where(zero, 0.0, np.concatenate(angles, axis=-1))


def numerical_generator(j: HalfInt, p: RotationParams, k, fd_step: float = 1e-5,
                        tol: float = 1e-7) -> np.ndarray:
    """Generator G_k = (i d_k R) R^dag computed two independent ways.

    (a) central finite differences of the rotation unitary in parameter k;
    (b) 64-node Gauss-Legendre quadrature of
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
    r_up, r_dn, r = np.swapaxes(omega_rotate(
        j, np.stack([_omega_of(up), _omega_of(dn), _omega_of(raw)])[:, None], np.eye(j.dim)), 1, 2)
    g_fd = 1j * (r_up - r_dn) / (2.0 * fd_step) @ r.conj().T

    # route (b): quadrature of the conjugated-J integral
    ops = make_operators(j)
    w = _omega_of(raw)
    h = ops.along(w)
    vals, vecs = np.linalg.eigh(h)
    jrot = [vecs.conj().T @ ji @ vecs for ji in ops.vector()]
    nodes, weights = np.polynomial.legendre.leggauss(_QUAD_ORDER)
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


@lru_cache(maxsize=None)
def _ladder_weights(twice_j: int):
    """m, m^2, a = <m+1|J+|m> and (2m + 1) a for m = m[1:], and <m+2|J+^2|m>."""
    m, i = HalfInt(twice_j).m_values(), np.arange(1, twice_j + 1)
    a = np.sqrt(i * (twice_j + 1.0 - i))
    return tuple(_readonly(w) for w in (m, m * m, a, (2.0 * m[1:] + 1.0) * a, a[:-1] * a[1:]))


def angular_momentum_moments(j: HalfInt, amps: np.ndarray):
    """Mean <J_i> and covariance Cov(J_i, J_j) of a unit amplitude vector, in
    O(dim) from <J+> = <J_x> + i<J_y>, <J+^2> = <J_x^2> - <J_y^2> + i<{J_x,J_y}>,
    <{J+,J_z}> = <{J_x,J_z}> + i<{J_y,J_z}> and J(J+1) = <J_x^2 + J_y^2 + J_z^2>."""
    psi = np.asarray(amps, dtype=complex)
    m, m2, a, az, a2 = _ladder_weights(j.twice_j)
    jp, jzp, jp2 = (np.vdot(psi[:-k], w * psi[k:]) for k, w in ((1, a), (1, az), (2, a2)))
    p = np.abs(psi) ** 2
    jz, jz2 = p @ m, p @ m2
    perp = j.j * (j.j + 1.0) * p.sum() - jz2
    mean = np.array([jp.real, jp.imag, jz])
    return mean, 0.5 * np.array([[perp + jp2.real, jp2.imag, jzp.real],
                                 [jp2.imag, perp - jp2.real, jzp.imag],
                                 [jzp.real, jzp.imag, 2.0 * jz2]]) - mean[:, None] * mean


def _moments(psi: np.ndarray, jpsi) -> tuple:
    """Mean <J_i> and covariance of the state ``psi`` from its images
    jpsi[i] = J_i psi, arrays of psi's shape."""
    mean = np.array([np.vdot(psi, v).real for v in jpsi])
    cov = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            sym = 0.5 * (np.vdot(jpsi[a], jpsi[b]) + np.vdot(jpsi[b], jpsi[a])).real
            cov[a, b] = cov[b, a] = sym - mean[a] * mean[b]
    return mean, cov


def compose(first: RotationParams, second: RotationParams) -> RotationParams:
    """Parameters of the rotation 'first then second' (second applied after), by from_so3."""
    return RotationParams.from_so3(so3_matrix(second) @ so3_matrix(first))
