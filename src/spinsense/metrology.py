"""Classical and quantum Fisher information for spin rotations.

The rotation QFI matrix is Q = 4 Gt^T C(psi) Gt where C is the angular
momentum covariance of the *unrotated* probe, G has columns
(g_theta, g_cap_theta, g_cap_phi), and Gt = M^T G with M = so3_matrix(p).
(The covariance of the rotated state is M C M^T, so pulling the rotation
into the generator columns requires the transpose; the finite-difference
pure-state QFI oracle pins this convention.)
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError, SingularInformationError
from .su2 import (RotationParams, angular_momentum_moments, generator_frame,
                  so3_matrix)
from .states import SpinState

_RANK_RTOL = 1e-10      # eigenvalue <= rtol * max eigenvalue counts as null
_SUPPORT_TOL = 1e-12    # eigenvalue-pair cutoff in SLD-type denominators
_PROB_FLOOR = 1e-12     # outcomes at or below this probability carry no information
_FD_STEP = 1e-5         # central-difference step of fi_from_model


@dataclass(frozen=True)
class SensCov:
    """3x3 angular momentum covariance matrix of a probe state."""

    c: np.ndarray

    @property
    def trace(self) -> float:
        return float(np.trace(self.c))

    def regular_eigenvalues(self):
        """Ascending eigenvalues, or None when C is singular: rank below 3 by
        _rank_split, the rule of every information matrix."""
        _, eigs, _, null = _rank_split(self.c)
        return None if null.any() else eigs

    def det(self) -> float:
        return float(np.linalg.det(self.c))

    def trace_inverse(self) -> float:
        """Tr C^-1, +inf when C is singular at the rank tolerance."""
        lam = self.regular_eigenvalues()
        return math.inf if lam is None else float(np.sum(1.0 / lam))

    def is_singular(self) -> bool:
        return self.regular_eigenvalues() is None


@dataclass(frozen=True)
class QfiMatrix:
    """Fisher information matrix with rank and null-space metadata."""

    q: np.ndarray
    rank: int
    null_basis: np.ndarray          # shape (D, n_null), orthonormal columns
    param_labels: tuple

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def det(self) -> float:
        return float(np.linalg.det(self.q))

    def cond(self) -> float:
        eigs = np.linalg.eigvalsh(self.q)
        if eigs[0] <= 0.0:
            return math.inf
        return float(eigs[-1] / eigs[0])

    def trace_inverse(self):
        if self.rank < self.dim:
            return None
        return float(np.trace(np.linalg.inv(self.q)))


@dataclass(frozen=True)
class SldOperator:
    """Symmetric logarithmic derivative for one parameter."""

    l: np.ndarray


def _rank_split(q: np.ndarray):
    """The symmetrized information matrices q (..., D, D), their ascending
    eigenvalues and eigenvectors, and which eigenvalues count as null: at or
    below _RANK_RTOL times the largest, floored at 0."""
    q = 0.5 * (q + np.swapaxes(q, -1, -2))
    eigs, vecs = np.linalg.eigh(q)
    return q, eigs, vecs, eigs <= _RANK_RTOL * np.maximum(eigs[..., -1:], 0.0)


def _finish_fi_matrix(q: np.ndarray, labels) -> QfiMatrix:
    q, _, vecs, null = _rank_split(q)
    return QfiMatrix(q=q, rank=q.shape[0] - int(null.sum()), null_basis=vecs[:, null],
                     param_labels=tuple(labels))


def cov_matrix(state: SpinState) -> SensCov:
    """Covariance Cov(J_i, J_j) = <{J_i,J_j}>/2 - <J_i><J_j>."""
    _, cov = angular_momentum_moments(state.j, state.amps)
    return SensCov(c=cov)


def qfi_single_pure(state: SpinState, generator: np.ndarray) -> float:
    """QFI of a pure state under exp(-i theta G): 4 Var(G)."""
    g = np.asarray(generator, dtype=complex)
    psi = state.amps
    gpsi = g @ psi
    mean = np.vdot(psi, gpsi).real
    return float(4.0 * (np.vdot(gpsi, gpsi).real - mean * mean))


def _check_density_matrix(rho: np.ndarray):
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DomainError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise DomainError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise DomainError("density matrix must have unit trace")
    eigs = np.linalg.eigvalsh(rho)
    if eigs[0] < -1e-9:
        raise DomainError(f"density matrix must be PSD, min eigenvalue {eigs[0]:.2e}")
    return rho


def qfi_single_mixed(rho: np.ndarray, generator: np.ndarray) -> float:
    """QFI of a mixed state under the unitary family exp(-i theta G):
    Tr(rho L^2), with L the SLD of d rho / d theta = -i [G, rho]."""
    rho = _check_density_matrix(rho)
    gr = np.asarray(generator, dtype=complex) @ rho
    # -i (G rho - (G rho)^dag): Hermitian by construction, where rho is so only to 1e-9
    l = sld(rho, -1j * (gr - gr.conj().T)).l
    return float(np.trace(rho @ l @ l).real)


def sld(rho: np.ndarray, drho: np.ndarray) -> SldOperator:
    """Solve d rho = (rho L + L rho)/2 on the support of rho."""
    rho = np.asarray(rho, dtype=complex)
    drho = np.asarray(drho, dtype=complex)
    if np.max(np.abs(drho - drho.conj().T)) > 1e-9:
        raise DomainError("drho must be Hermitian")
    if abs(np.trace(drho)) > 1e-9:
        raise DomainError("drho must be traceless (derivative of a unit trace)")
    p, v = np.linalg.eigh(rho)
    denom = p[:, None] + p[None, :]
    l = np.divide(2.0 * (v.conj().T @ drho @ v), denom, out=np.zeros(denom.shape, dtype=complex),
                  where=denom > _SUPPORT_TOL)
    return SldOperator(l=v @ l @ v.conj().T)


PARAM_LABELS_SPHERICAL = ("theta", "cap_theta", "cap_phi")


def qfi_rotation_matrix(state: SpinState, p: RotationParams) -> QfiMatrix:
    """3x3 rotation QFI matrix Q = 4 (M^T G)^T C(psi) (M^T G)."""
    return _qfi_from_frame(state, p, generator_frame(p).matrix(), PARAM_LABELS_SPHERICAL)


def _qfi_from_frame(state: SpinState, p: RotationParams, g: np.ndarray, labels) -> QfiMatrix:
    """qfi_rotation_matrix in the chart ``labels`` with generator vectors g[:, k]."""
    gt = so3_matrix(p).T @ g
    return _finish_fi_matrix(4.0 * gt.T @ cov_matrix(state).c @ gt, labels)


def reparametrize(fi: QfiMatrix, jacobian: np.ndarray, new_labels) -> QfiMatrix:
    """Congruence transform F -> J^T F J for a parameter change with
    Jacobian J_ij = d old_i / d new_j."""
    jac = np.asarray(jacobian, dtype=float)
    d = fi.dim
    if jac.shape != (d, d):
        raise DomainError(f"Jacobian must be {d}x{d}, got {jac.shape}")
    if len(tuple(new_labels)) != d:
        raise DomainError("need one label per new parameter")
    return _finish_fi_matrix(jac.T @ fi.q @ jac, new_labels)


def avg_qfi(state: SpinState) -> float:
    """Angle-averaged known-axis QFI: (4/3) Tr C."""
    return float(4.0 / 3.0 * cov_matrix(state).trace)


def avg_variance(state: SpinState) -> float:
    """Average of 1/Q over rotation axes, Q = 4 Var(J.n).

    With l_i the covariance eigenvalues, the average of 1/(4 n^T C n) over
    the unit sphere is R_F(1/l_1, 1/l_2, 1/l_3) / (4 sqrt(l_1 l_2 l_3)), with
    R_F Carlson's symmetric elliptic integral (DLMF 19.16).  Returns math.inf
    when the covariance matrix is singular (the probe is an eigenstate of
    some J.n), where the average diverges.
    """
    lam = cov_matrix(state).regular_eigenvalues()
    if lam is None:
        return math.inf
    from scipy.special import elliprf

    return float(elliprf(*(1.0 / lam)) / (4.0 * math.sqrt(np.prod(lam))))


def classical_fi(probs: np.ndarray, dprobs: np.ndarray) -> QfiMatrix:
    """Classical Fisher information matrix of a finite outcome model.

    probs: outcome probabilities, shape (n,), non-negative, summing to 1.
    dprobs: parameter derivatives, shape (D, n).
    Outcomes with probability <= 1e-12 are excluded.
    """
    p = np.asarray(probs, dtype=float)
    dp = np.atleast_2d(np.asarray(dprobs, dtype=float))
    if np.any(p < -1e-9):
        raise DomainError(f"negative outcome probability: {p.min():.3e}")
    if abs(p.sum() - 1.0) > 1e-9:
        raise DomainError(f"probabilities sum to {p.sum()!r}, not 1")
    if dp.shape[1] != len(p):
        raise DomainError("dprobs must have one column per outcome")
    d = dp.shape[0]
    keep = p > _PROB_FLOOR
    f = np.zeros((d, d))
    for i in range(d):
        for k in range(i, d):
            val = float(np.sum(dp[i, keep] * dp[k, keep] / p[keep]))
            f[i, k] = f[k, i] = val
    return _finish_fi_matrix(f, [f"p{i}" for i in range(d)])


def fi_from_model(model, params: np.ndarray) -> QfiMatrix:
    """classical_fi with derivatives from step-1e-5 central differences of
    ``model``, a callable mapping a parameter vector to outcome probabilities."""
    params = np.asarray(params, dtype=float)
    p0 = np.asarray(model(params), dtype=float)
    d = len(params)
    dp = np.zeros((d, len(p0)))
    for i in range(d):
        up, dn = params.copy(), params.copy()
        up[i] += _FD_STEP
        dn[i] -= _FD_STEP
        dp[i] = (np.asarray(model(up)) - np.asarray(model(dn))) / (2.0 * _FD_STEP)
    return classical_fi(p0, dp)


def gaussian_fi(dmu: np.ndarray, sigma: np.ndarray, dsigma=None) -> QfiMatrix:
    """Fisher information of a Gaussian model, with parameters labelled
    p0, p1, ...: F_ij = dmu_i^T S^-1 dmu_j + Tr(S^-1 dS_i S^-1 dS_j)/2.

    dmu: shape (D, n) mean derivatives; sigma: (n, n) SPD covariance;
    dsigma: optional (D, n, n) covariance derivatives.
    """
    s = np.atleast_2d(np.asarray(sigma, dtype=float))
    if np.max(np.abs(s - s.T)) > 1e-10:
        raise DomainError("covariance must be symmetric")
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise DomainError("covariance must be positive definite") from None
    s_inv = np.linalg.inv(s)
    dmu = np.atleast_2d(np.asarray(dmu, dtype=float))
    d = dmu.shape[0]
    if dsigma is None:
        dsigma = np.zeros((d, s.shape[0], s.shape[0]))
    dsigma = np.asarray(dsigma, dtype=float)
    f = np.zeros((d, d))
    for i in range(d):
        for k in range(i, d):
            val = float(dmu[i] @ s_inv @ dmu[k])
            val += 0.5 * float(np.trace(s_inv @ dsigma[i] @ s_inv @ dsigma[k]))
            f[i, k] = f[k, i] = val
    return _finish_fi_matrix(f, [f"p{i}" for i in range(d)])


@dataclass(frozen=True)
class SingularityReport:
    """Diagnosis of a (possibly) singular information matrix."""

    rank: int
    null_basis: np.ndarray
    pseudo_inverse: np.ndarray
    estimable_bound_trace: float
    classification: str            # "full_rank" | "coordinate_singularity"
    #                              | "state_and_coordinate" | "state_deficiency"
    #                              | "undetermined"


def singular_diagnosis(fi: QfiMatrix, cov=None) -> SingularityReport:
    """Rank, inestimable directions, and pseudoinverse bound for ``fi``.

    ``cov``: optional 3x3 angular momentum covariance C of the probe whose
    rotation QFI ``fi`` is, in any chart.  There Q = 4 (M^T G)^T C (M^T G) with
    M a rotation and G the chart's generator vectors, and the Cartesian G is
    invertible below a full turn, so rank C is the best rank any chart reaches.
    A singular Q is a coordinate singularity when rank C = 3, a state
    deficiency when rank Q = rank C, and both ("state_and_coordinate") when
    rank Q < rank C < 3; both ranks are counted by _rank_split.  Without
    ``cov`` a singular matrix is "undetermined".
    """
    _, eigs, vecs, null = _rank_split(fi.q)
    inv_eigs = np.where(null, 0.0, 1.0 / np.where(null, 1.0, eigs))
    pinv = (vecs * inv_eigs) @ vecs.T
    if fi.rank == fi.dim:
        classification = "full_rank"
    elif cov is None:
        classification = "undetermined"
    else:
        cov_rank = 3 - int(_rank_split(cov)[3].sum())
        classification = ("coordinate_singularity" if cov_rank == 3 else
                          "state_and_coordinate" if fi.rank < cov_rank else "state_deficiency")
    return SingularityReport(
        rank=fi.rank,
        null_basis=fi.null_basis,
        pseudo_inverse=pinv,
        estimable_bound_trace=float(np.trace(pinv)),
        classification=classification,
    )


@dataclass(frozen=True)
class CrbBound:
    """Cramer-Rao covariance lower bound (1/N) F^-1."""

    bound: np.ndarray
    trace: float
    n_shots: int
    cond: float


def crb(fi: QfiMatrix, n_shots: int = 1) -> CrbBound:
    """(1/N) inverse of the information matrix; raises on singular input."""
    if n_shots < 1:
        raise DomainError("n_shots must be a positive integer")
    if fi.rank < fi.dim:
        raise SingularInformationError(
            "information matrix is singular; run singular_diagnosis to find "
            "the estimable parameter combinations", matrix=fi.q)
    bound = np.linalg.inv(fi.q) / n_shots
    return CrbBound(bound=bound, trace=float(np.trace(bound)),
                    n_shots=n_shots, cond=float(np.linalg.cond(fi.q)))
