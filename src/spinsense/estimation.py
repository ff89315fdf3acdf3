"""Measurement models, shot simulation, maximum-likelihood estimation, and
Monte Carlo studies of Cramer-Rao saturation.

The "optimal_pvm" experiment measures with projector sets built at two
reference points offset from the supplied reference by a small calibration
rotation (default 0.1 rad about two fixed skew axes), splitting the shot
budget evenly.  A single projector set cannot distinguish a deviation from
its mirror image (the side-outcome probabilities are even in the deviation
to leading order), while the pair keeps the per-shot Fisher information
within about a percent of the quantum limit and suppresses the mirror peak
by hundreds of nats at realistic shot counts.
"""

from dataclasses import dataclass, field
import math

import numpy as np
from scipy.optimize import minimize

from .errors import (DegenerateInputError, DomainError, NonIdentifiableError,
                     UnreliableRunError)
from .metrology import QfiMatrix, classical_fi, crb, qfi_rotation_matrix
from .states import SpinState, coherent_state
from .su2 import (TWO_PI, HalfInt, RotationParams, compose, generator_frame,
                  make_operators, omega_rotate, rotation_unitary, so3_matrix)

_PSD_TOL = 1e-10
_COMPLETENESS_TOL = 1e-9
_ORTHO_TOL = 1e-10
_MIN_RESOLUTION = 0.35   # rad; a CRB sigma above this flags non-identifiability
_ROOT_TOL = 1e-12        # eigenvalues of a POVM element below this carry no weight
_NEWTON_TOL = 1e-10      # rad; a Newton step below this has converged
_NEWTON_MAX_ITER = 50
_MAX_HALVINGS = 40

# calibration geometry for the two-reference optimal-PVM experiment
_DEFAULT_OFFSET_ANGLE = 0.1
_OFFSET_AXES = (
    np.array([0.36, -0.48, 0.80]),
    np.array([-0.80, 0.36, 0.48]),
)
_DEFAULT_TRIAD = np.eye(3)


class BornKernel:
    """Born probabilities of stacked POVMs and their rotation derivatives.

    Each element is factored once as E_x = F_x F_x^dag from its
    eigendecomposition, and the columns of every F_x stack into one
    dim x K matrix F with the owning outcome of each column.  With
    a = F^dag psi, b_k = F^dag J_k psi and c_kl = F^dag S_kl psi, where
    S_kl = (J_k J_l + J_l J_k)/2, each summed over the columns of outcome x:

        p_x = |a|^2,
        dp_x/d delta_k = 2 Im conj(a) b_k,
        d2p_x/d delta_k d delta_l = 2 Re conj(b_k) b_l - 2 Re conj(a) c_kl,

    the derivatives taken in the local chart psi(delta) = exp(-i J.delta) psi
    at delta = 0.  Outcomes of all models are concatenated in model order;
    ``splits`` cuts the flat outcome axis back into models.
    """

    def __init__(self, element_lists):
        elements = [e for elems in element_lists for e in elems]
        cols, owner = [], []
        for x, e in enumerate(elements):
            vals, vecs = np.linalg.eigh(e)
            keep = vals > _ROOT_TOL
            cols.append(vecs[:, keep] * np.sqrt(vals[keep]))
            owner += [x] * int(keep.sum())
        dim = elements[0].shape[0]
        self.j = HalfInt(dim - 1)
        self.splits = np.cumsum([len(elems) for elems in element_lists])[:-1]
        self._seg = (np.arange(len(elements))[:, None] == np.array(owner)).astype(float)
        jv = np.stack(make_operators(self.j).vector())
        jj = jv[:, None] @ jv[None, :]
        sym = 0.5 * (jj + jj.transpose(1, 0, 2, 3))
        ops = np.concatenate([np.eye(dim)[None], jv, sym.reshape(9, dim, dim)])
        self._fh_ops = np.hstack(cols).conj().T @ ops       # F^dag O for O in 1, J, S

    def probabilities(self, psi) -> np.ndarray:
        """Outcome probabilities for psi of shape (dim,), or (dim, m) for m states."""
        a = self._fh_ops[0] @ psi
        return self._seg @ (a.real ** 2 + a.imag ** 2)

    def loglik(self, counts, psi):
        """sum_x counts_x log p_x over the stacked outcomes, per state in psi."""
        return counts @ np.log(np.maximum(self.probabilities(psi), 1e-300))

    def derivatives(self, psi, second: bool = False):
        """p, dp (3 x n) and, if ``second``, d2p (3 x 3 x n) in the local chart."""
        w = (self._fh_ops if second else self._fh_ops[:4]) @ psi
        a, b = w[0], w[1:4]
        p = self._seg @ (a.real ** 2 + a.imag ** 2)
        dp = 2.0 * (a.conj() * b).imag @ self._seg.T
        if not second:
            return p, dp
        d2 = (b.conj()[:, None] * b[None]).real - (a.conj() * w[4:]).real.reshape(3, 3, -1)
        return p, dp, 2.0 * d2 @ self._seg.T


@dataclass(frozen=True)
class MeasurementModel:
    """Finite POVM with named outcomes."""

    elements: tuple
    labels: tuple
    kernel: BornKernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        dim = elems[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for e in elems:
            if e.shape != (dim, dim):
                raise DomainError("all POVM elements must share one dimension")
            if np.max(np.abs(e - e.conj().T)) > 1e-9:
                raise DomainError("POVM elements must be Hermitian")
            if np.linalg.eigvalsh(e)[0] < -_PSD_TOL:
                raise DomainError("POVM elements must be positive semidefinite")
            total += e
        if np.max(np.abs(total - np.eye(dim))) > _COMPLETENESS_TOL:
            raise DomainError("POVM elements must resolve the identity")
        for e in elems:
            e.setflags(write=False)
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(elems):
            raise DomainError("need one label per POVM element")
        object.__setattr__(self, "kernel", BornKernel([elems]))

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def probabilities(self, state: SpinState) -> np.ndarray:
        return self.kernel.probabilities(state.amps)


@dataclass(frozen=True)
class ShotRecord:
    """Multinomial outcome counts from one measurement stage."""

    counts: np.ndarray
    n_shots: int
    seed: object
    labels: tuple

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64)
        if np.any(c < 0):
            raise DomainError("counts must be non-negative")
        if int(c.sum()) != int(self.n_shots):
            raise DomainError("counts must sum to n_shots")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "n_shots", int(self.n_shots))
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class EstimationReport:
    """Monte Carlo summary: estimator moments against the quantum bound."""

    estimate: RotationParams
    empirical_cov: np.ndarray
    crb_bound: np.ndarray
    n_shots: int
    n_trials: int
    n_failed: int
    mse: np.ndarray
    bias_sq: np.ndarray
    variance: np.ndarray
    snr: np.ndarray
    trace_ratio: float
    bound_consistent: bool
    seed: object
    param_labels: tuple = ("theta", "cap_theta", "cap_phi")


def optimal_pvm(estimate_state: SpinState, triad=None) -> MeasurementModel:
    """Projectors onto |psi> and the (orthonormalized) states (J.v_k)|psi>,
    completed to a resolution of the identity.

    For probes with vanishing mean spin and isotropic second moments the four
    states are orthogonal as built; otherwise Gram-Schmidt runs, and a
    linearly dependent family raises DegenerateInputError.
    """
    triad = _DEFAULT_TRIAD if triad is None else np.asarray(triad, dtype=float)
    if triad.shape != (3, 3) or np.max(np.abs(triad.T @ triad - np.eye(3))) > 1e-9:
        raise DomainError("triad must be three orthonormal 3-vectors (columns)")
    ops = make_operators(estimate_state.j)
    psi = estimate_state.amps
    raw = [psi]
    for k in range(3):
        v = ops.along(triad[:, k]) @ psi
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise DegenerateInputError("(J.v_k)|psi> vanishes; probe is degenerate")
        raw.append(v / norm)
    overlaps = max(abs(np.vdot(raw[a], raw[b]))
                   for a in range(4) for b in range(a + 1, 4))
    states = [raw[0]]
    if overlaps <= _ORTHO_TOL:
        states.extend(raw[1:])
    else:
        for v in raw[1:]:
            w = v.copy()
            for s in states:
                w = w - s * np.vdot(s, w)
            norm = np.linalg.norm(w)
            if norm < 1e-8:
                raise DegenerateInputError(
                    "(J.v_k)|psi> family is linearly dependent; cannot build "
                    "four orthonormal projectors")
            states.append(w / norm)
    elements = [np.outer(s, s.conj()) for s in states]
    elements.append(np.eye(estimate_state.j.dim, dtype=complex) - sum(elements))
    labels = ("psi", "v1", "v2", "v3", "rest")
    return MeasurementModel(elements=tuple(elements), labels=labels)


def husimi_design(j: HalfInt, directions) -> list:
    """One two-outcome model {|n><n|, 1 - |n><n|} per sampling direction.

    Any number of pairwise distinct directions is accepted here; the
    estimation entry points require at least four to avoid the rigid-rotation
    ambiguities of sparse designs.
    """
    pts = list(directions)
    if not pts:
        raise DomainError("need at least one direction")
    vecs = [p.unit_vector for p in pts]
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            if np.linalg.norm(vecs[a] - vecs[b]) < 1e-9:
                raise DomainError(f"directions {a} and {b} coincide")
    models = []
    for p in pts:
        probe = coherent_state(j, p)
        proj = np.outer(probe.amps, probe.amps.conj())
        models.append(MeasurementModel(
            elements=(proj, np.eye(j.dim, dtype=complex) - proj),
            labels=("hit", "miss")))
    return models


def simulate_shots(model: MeasurementModel, true_state: SpinState,
                   n_shots: int, seed) -> ShotRecord:
    """Multinomial draw from the Born probabilities; deterministic in seed."""
    if n_shots < 1:
        raise DomainError("n_shots must be positive")
    p = model.probabilities(true_state)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(int(n_shots), p)
    return ShotRecord(counts=counts, n_shots=int(n_shots), seed=seed,
                      labels=model.labels)


class RotationExperiment:
    """A fixed probe measured by one or more POVM stages after an unknown
    rotation; stages split the shot budget by their weights."""

    def __init__(self, probe: SpinState, stages, weights=None):
        self.probe = probe
        self.stages = list(stages)
        if weights is None:
            weights = [1.0 / len(self.stages)] * len(self.stages)
        w = np.asarray(weights, dtype=float)
        if len(w) != len(self.stages) or abs(w.sum() - 1.0) > 1e-9 or np.any(w <= 0):
            raise DomainError("stage weights must be positive and sum to 1")
        self.weights = w
        self._j = probe.j
        self.kernel = BornKernel([m.elements for m in self.stages])

    def rotated_amps(self, params: RotationParams) -> np.ndarray:
        return rotation_unitary(self._j, params) @ self.probe.amps

    def stage_probabilities(self, params: RotationParams) -> list:
        p = self.kernel.probabilities(self.rotated_amps(params))
        return [q / q.sum() for q in np.split(p, self.kernel.splits)]

    def sample(self, true_params: RotationParams, n_shots: int, seed) -> list:
        true_state = SpinState(self._j, self.rotated_amps(true_params))
        shots = _split_budget(n_shots, self.weights)
        records = []
        for s, (model, n_s) in enumerate(zip(self.stages, shots)):
            records.append(simulate_shots(model, true_state, n_s, (seed, s)))
        return records

    def loglik(self, counts_list, params: RotationParams) -> float:
        total = 0.0
        for counts, probs in zip(counts_list, self.stage_probabilities(params)):
            c = np.asarray(counts, dtype=float)
            total += float(np.sum(c * np.log(np.maximum(probs, 1e-300))))
        return total

    def fisher_information(self, params: RotationParams) -> QfiMatrix:
        """Per-shot classical FI of the stage mixture at ``params``, using
        exact Born-rule derivatives dp_x/dk = 2 Im <psi|Pi_x (J.g_k)|psi>."""
        p, dp = self.kernel.derivatives(self.rotated_amps(params))
        dp = generator_frame(params).matrix().T @ dp
        splits = self.kernel.splits
        f = sum(weight * classical_fi(q / q.sum(), d).q for weight, q, d in
                zip(self.weights, np.split(p, splits), np.split(dp, splits, axis=1)))
        return _as_qfi(f)


def _as_qfi(f: np.ndarray) -> QfiMatrix:
    from .metrology import _finish_fi_matrix
    return _finish_fi_matrix(f, ("theta", "cap_theta", "cap_phi"))


def _split_budget(n_shots: int, weights) -> list:
    shots = [int(math.floor(n_shots * w)) for w in weights]
    shots[0] += n_shots - sum(shots)
    return shots


def optimal_pvm_experiment(probe: SpinState, reference: RotationParams,
                           offset_angle: float = _DEFAULT_OFFSET_ANGLE,
                           triad=None) -> RotationExperiment:
    """Two optimal-PVM stages at references offset from ``reference`` by
    ``offset_angle`` about two fixed skew axes (see module docstring)."""
    stages = []
    for axis in _OFFSET_AXES:
        u = axis / np.linalg.norm(axis)
        ref = compose(reference, RotationParams.from_omega(offset_angle * u))
        est_state = SpinState(probe.j, rotation_unitary(probe.j, ref) @ probe.amps)
        stages.append(optimal_pvm(est_state, triad=triad))
    return RotationExperiment(probe, stages)


def husimi_experiment(probe: SpinState, directions) -> RotationExperiment:
    """Independent binary Husimi samplers, one per direction, equal budgets."""
    pts = list(directions)
    if len(pts) < 4:
        raise NonIdentifiableError(
            f"orientation from {len(pts)} Husimi directions is ambiguous "
            "under rigid rotations; use at least 4 generic directions")
    stages = husimi_design(probe.j, pts)
    return RotationExperiment(probe, stages)


_GRID_SHAPE = (16, 8, 16)
_TABLE_CHUNK = 1024      # grid points rotated at once; bounds the table's scratch memory


def _parameter_grid(shape=_GRID_SHAPE):
    n_t, n_T, n_F = shape
    thetas = (np.arange(n_t) + 0.5) * math.pi / n_t
    caps = (np.arange(n_T) + 0.5) * math.pi / n_T
    phis = (np.arange(n_F) + 0.5) * TWO_PI / n_F
    grid = [RotationParams(t, T, F) for t in thetas for T in caps for F in phis]
    return grid


def grid_probability_table(experiment: RotationExperiment, shape=_GRID_SHAPE):
    """Stage probabilities at every grid point, reusable across trials."""
    grid = _parameter_grid(shape)
    omegas = np.array([p.omega for p in grid])
    kernel, probe = experiment.kernel, experiment.probe
    p = np.hstack([kernel.probabilities(omega_rotate(probe.j, w, probe.amps).T)
                   for w in np.split(omegas, range(_TABLE_CHUNK, len(grid), _TABLE_CHUNK))])
    return grid, [(q / q.sum(axis=0)).T for q in np.split(p, kernel.splits)]


def ml_estimate(records, experiment: RotationExperiment, grid_shape=_GRID_SHAPE,
                n_refine: int = 8, grid_cache=None, check_identifiable: bool = True,
                anchor: RotationParams = None,
                anchor_radius: float = 0.35) -> RotationParams:
    """Maximum-likelihood rotation parameters for recorded counts.

    The likelihood is first scored on a table of candidates; the best cells,
    plus a few widely spread backups, start local refinements, and the best
    refined optimum wins.

    Probes with a nontrivial rotational stabilizer (NOON, balanced, Kings)
    make the *global* likelihood exactly periodic under the stabilizer, so
    the rotation is only identifiable modulo that group.  Passing ``anchor``
    (the protocol's prior estimate) restricts the search to deviations within
    ``anchor_radius`` of it, which is the asymptotic local-estimation setting
    and selects the physical copy.  The candidates are then the rotations
    exp(-i J.w) U(anchor) on a cubic lattice of w, and each start is refined
    by Newton's method in a moving local chart psi <- exp(-i J.delta) psi,
    with the exact observed Hessian (a Fisher-scoring step where that Hessian
    is not negative definite) and step halving until the log-likelihood does
    not drop; a start converges once its Newton step is below 1e-10 rad.  A
    start that does not converge is refined by Nelder-Mead instead.

    Without an anchor, a coarse global grid over (theta, cap_theta, cap_phi)
    seeds Nelder-Mead refinements in the Cartesian chart omega = theta*n,
    which stays smooth through theta = 0, and restarts around the incumbent
    optimum escape adjacent-basin traps of rugged likelihoods.

    A flat likelihood or a singular information matrix at the optimum raises
    NonIdentifiableError.
    """
    counts_list = [np.asarray(getattr(r, "counts", r), dtype=float) for r in records]
    if len(counts_list) != len(experiment.stages):
        raise DomainError("need one record per measurement stage")
    kernel = experiment.kernel
    counts = np.concatenate(counts_list)

    if anchor is not None:
        def to_params(w):
            return compose(anchor, RotationParams.from_omega(w))
        axes = np.arange(-3, 4) * (anchor_radius / 3.0)
        cand = np.stack(np.meshgrid(axes, axes, axes, indexing="ij"), axis=-1).reshape(-1, 3)
        cand = cand[np.linalg.norm(cand, axis=1) <= anchor_radius + 1e-12]
        psi_ref = experiment.rotated_amps(anchor)
        scores = kernel.loglik(counts, omega_rotate(kernel.j, cand, psi_ref).T)
        n_refine = min(n_refine, 4)       # the local problem is well seeded
    else:
        def to_params(w):
            return RotationParams.from_omega(w)
        if grid_cache is None:
            grid_cache = grid_probability_table(experiment, grid_shape)
        grid, per_stage = grid_cache
        scores = np.zeros(len(grid))
        for c, table in zip(counts_list, per_stage):
            scores += np.log(np.maximum(table, 1e-300)) @ c
        cand = [p.omega for p in grid]
    if float(scores.max() - scores.min()) < 1e-12:
        raise NonIdentifiableError("likelihood is flat across the parameter grid")

    order = np.argsort(scores)[::-1]
    starts = []
    for idx in order:                      # densely around the best cells
        w = cand[idx]
        if all(np.linalg.norm(w - s) > 0.1 for s in starts):
            starts.append(w)
        if len(starts) >= n_refine:
            break
    n_wide = len(starts)
    for idx in order:                      # widely spread backup starts
        w = cand[idx]
        if all(np.linalg.norm(w - s) > 0.35 for s in starts):
            starts.append(w)
        if len(starts) >= n_wide + 4:
            break

    def negloglik(w):
        return -experiment.loglik(counts_list, to_params(w))

    def refine(w0):
        res = minimize(negloglik, w0, method="Nelder-Mead",
                       options={"xatol": 1e-7, "fatol": 1e-7, "maxiter": 600})
        return float(res.fun), res.x

    if anchor is not None:
        shots = np.concatenate([np.full(len(c), c.sum()) for c in counts_list])
        best_val = np.inf
        for w0 in starts:
            rot = so3_matrix(RotationParams.from_omega(w0)) @ so3_matrix(anchor)
            psi = omega_rotate(kernel.j, w0, psi_ref)
            fit = _newton_fit(kernel, counts, shots, psi, rot)
            if fit is None:
                val, w = refine(w0)
                fit = val, to_params(w)
            if fit[0] < best_val:
                best_val, estimate = fit
    else:
        best_val, best_w = min(map(refine, starts), key=lambda r: r[0])
        for step in (0.12, 0.25):
            for k in range(3):
                for sign in (-1.0, 1.0):
                    w0 = best_w.copy()
                    w0[k] += sign * step
                    val, w = refine(w0)
                    if val < best_val - 1e-9:
                        best_val, best_w = val, w
        estimate = to_params(best_w)

    if check_identifiable:
        fi = experiment.fisher_information(estimate)
        if fi.rank < 3:
            raise NonIdentifiableError(
                "information matrix at the optimum is rank "
                f"{fi.rank}; parameters are not jointly identifiable",
                null_directions=fi.null_basis)
        # a technically full-rank matrix can still leave a parameter with
        # macroscopic uncertainty (coordinate singularity at theta ~ 0: the
        # axis information does not grow with the shot count)
        total_shots = float(sum(c.sum() for c in counts_list))
        bound = np.linalg.pinv(fi.q) / max(total_shots, 1.0)
        sigmas = np.sqrt(np.clip(np.diag(bound), 0.0, None))
        if np.any(sigmas > _MIN_RESOLUTION):
            _, vecs = np.linalg.eigh(fi.q)
            raise NonIdentifiableError(
                "parameters "
                + ", ".join(l for l, s in zip(("theta", "cap_theta", "cap_phi"),
                                              sigmas) if s > _MIN_RESOLUTION)
                + f" are unresolved at the data's information level "
                f"(bound sigma {sigmas.max():.2f} rad)",
                null_directions=vecs[:, :1])
    return estimate


def _newton_fit(kernel: BornKernel, counts, shots, psi, rot):
    """Newton ascent of sum_x counts_x log p_x in the moving local chart
    psi <- exp(-i J.delta) psi, from the rotated probe ``psi`` whose rotation
    has SO(3) matrix ``rot``.  ``shots`` holds each outcome's stage total, for
    the expected information of a Fisher-scoring step.  Returns
    (-loglik, parameters) once the step is below _NEWTON_TOL, else None."""
    value = kernel.loglik(counts, psi)
    for _ in range(_NEWTON_MAX_ITER):
        p, dp, d2p = kernel.derivatives(psi, second=True)
        p = np.maximum(p, 1e-300)
        ratio = counts / p
        grad = dp @ ratio
        hess = d2p @ ratio - (dp * (ratio / p)) @ dp.T
        try:
            np.linalg.cholesky(-hess)
            curvature = -hess
        except np.linalg.LinAlgError:       # not negative definite
            curvature = (dp * (shots / p)) @ dp.T
        try:
            step = np.linalg.solve(curvature, grad)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        if np.linalg.norm(step) < _NEWTON_TOL:
            return -value, RotationParams.from_so3(rot)
        for _ in range(_MAX_HALVINGS):
            trial = omega_rotate(kernel.j, step, psi)
            trial_value = kernel.loglik(counts, trial)
            if trial_value >= value - 1e-12 * abs(value):   # rounding of the sum
                break
            step = step / 2.0
        else:
            return None
        psi, value = trial, trial_value
        rot = so3_matrix(RotationParams.from_omega(step)) @ rot
    return None


def estimator_stats(estimates, true_params: RotationParams):
    """Per-parameter MSE = variance + bias^2 decomposition and SNR.

    Sample moments use the population convention (ddof = 0) so the
    decomposition identity is exact.  Azimuthal residuals are wrapped into
    (-pi, pi].
    """
    arr = _estimates_array(estimates)
    if arr.shape[0] < 2:
        raise DomainError("need at least 2 estimates")
    truth = true_params.as_array()
    deltas = _wrap_deltas(arr - truth[None, :])
    mean_delta = deltas.mean(axis=0)
    variance = deltas.var(axis=0)
    bias_sq = mean_delta ** 2
    mse = (deltas ** 2).mean(axis=0)
    mean_est = truth + mean_delta
    with np.errstate(divide="ignore"):
        snr = np.where(variance > 0, mean_est ** 2 / variance, np.inf)
    return {
        "mse": mse,
        "bias_sq": bias_sq,
        "variance": variance,
        "snr": snr,
        "mean_estimate": mean_est,
    }


def _estimates_array(estimates) -> np.ndarray:
    rows = []
    for e in estimates:
        rows.append(e.as_array() if isinstance(e, RotationParams) else np.asarray(e, dtype=float))
    return np.vstack(rows)


def _wrap_deltas(deltas: np.ndarray) -> np.ndarray:
    out = deltas.copy()
    out[:, 2] = (out[:, 2] + math.pi) % TWO_PI - math.pi
    return out


def monte_carlo_qcrb(probe: SpinState, true_params: RotationParams, scheme: str,
                     n_shots: int, n_trials: int, seed: int,
                     directions=None, offset_angle: float = _DEFAULT_OFFSET_ANGLE,
                     reference: RotationParams = None, triad=None,
                     grid_shape=_GRID_SHAPE) -> EstimationReport:
    """Repeated simulate-and-estimate rounds against the quantum bound.

    The QFI at ``true_params`` must be invertible (otherwise
    SingularInformationError propagates from the bound computation).  Trials
    draw independent multinomial data with per-trial seeds (seed, trial) and
    are estimator-failure tolerant up to 5%.
    """
    if n_trials < 2:
        raise DomainError("need at least 2 trials")
    qfi = qfi_rotation_matrix(probe, true_params)
    bound = crb(qfi, n_shots)

    anchor = None
    if scheme == "optimal_pvm":
        ref = true_params if reference is None else reference
        experiment = optimal_pvm_experiment(probe, ref, offset_angle=offset_angle,
                                            triad=triad)
        anchor = ref        # the protocol's prior estimate fixes the
        #                     stabilizer copy; see ml_estimate
    elif scheme == "husimi":
        if directions is None:
            raise DomainError("husimi scheme needs sampling directions")
        experiment = husimi_experiment(probe, directions)
        if grid_shape == _GRID_SHAPE:
            # sparse binary designs have rugged likelihoods; the stage tables
            # are cheap, so seed the search from a finer grid
            grid_shape = (24, 16, 24)
    else:
        raise DomainError(f"unknown scheme {scheme!r}")

    cache = None if anchor is not None else grid_probability_table(experiment, grid_shape)
    estimates = []
    n_failed = 0
    for trial in range(n_trials):
        records = experiment.sample(true_params, n_shots, (seed, trial))
        try:
            estimates.append(ml_estimate(records, experiment, grid_cache=cache,
                                         anchor=anchor))
        except NonIdentifiableError:
            n_failed += 1
    if n_failed > 0.05 * n_trials:
        raise UnreliableRunError(
            f"{n_failed}/{n_trials} trials failed to produce an estimate",
            failed_fraction=n_failed / n_trials)

    arr = _estimates_array(estimates)
    truth = true_params.as_array()
    deltas = _wrap_deltas(arr - truth[None, :])
    emp_cov = np.cov(deltas.T, ddof=0) if len(deltas) > 1 else np.zeros((3, 3))
    stats = estimator_stats(estimates, true_params)
    mean = truth + deltas.mean(axis=0)
    mean_params = RotationParams(min(max(mean[0], 0.0), TWO_PI),
                                 min(max(mean[1], 0.0), math.pi),
                                 mean[2] % TWO_PI)
    trace_ratio = float(np.trace(emp_cov) / np.trace(bound.bound))
    gap = emp_cov - bound.bound
    min_eig = float(np.linalg.eigvalsh(gap)[0])
    scale = float(np.linalg.norm(emp_cov, 2))
    stat_tol = 3.0 * math.sqrt(2.0 / max(len(deltas) - 1, 1)) * scale
    return EstimationReport(
        estimate=mean_params,
        empirical_cov=emp_cov,
        crb_bound=bound.bound,
        n_shots=int(n_shots),
        n_trials=int(n_trials),
        n_failed=int(n_failed),
        mse=stats["mse"],
        bias_sq=stats["bias_sq"],
        variance=stats["variance"],
        snr=stats["snr"],
        trace_ratio=trace_ratio,
        bound_consistent=bool(min_eig >= -stat_tol),
        seed=seed,
    )


def born_probability_model(model: MeasurementModel, probe: SpinState):
    """Callable params -> outcome probabilities of ``model`` on the rotated probe."""

    def prob_fn(params) -> np.ndarray:
        if not isinstance(params, RotationParams):
            params = RotationParams(*np.asarray(params, dtype=float))
        p = model.kernel.probabilities(rotation_unitary(probe.j, params) @ probe.amps)
        return p / p.sum()

    return prob_fn


def born_derivatives(model: MeasurementModel, probe: SpinState,
                     params: RotationParams):
    """Exact probabilities and parameter derivatives of the Born model:
    dp_x/dk = 2 Im <psi|Pi_x (J.g_k)|psi>, with G_k = J.g_k."""
    p, dp = model.kernel.derivatives(rotation_unitary(probe.j, params) @ probe.amps)
    return p, generator_frame(params).matrix().T @ dp
