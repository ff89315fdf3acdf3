"""Measurement models, shot simulation, maximum-likelihood estimation, and
Monte Carlo studies of Cramer-Rao saturation.

The "optimal_pvm" experiment measures with projector sets built at two
reference points offset from the supplied reference by a small calibration
rotation (by default min(0.1, 1/(2J)) rad, about two fixed skew axes),
splitting the shot budget evenly.  A single projector set cannot distinguish
a deviation from its mirror image (the side-outcome probabilities are even
in the deviation to leading order), while the pair keeps the per-shot Fisher
information within about five percent of the quantum limit and suppresses
the mirror peak by hundreds of nats at realistic shot counts.  The offset
shrinks with J because a measurement built at the offset reference stays
near optimal at the true rotation only while the offset is small against
1/J: a fixed 0.1 rad loses a factor 2 at 2J = 40.
"""

from dataclasses import dataclass
from functools import cached_property
import logging
import math

import numpy as np

from .errors import (DegenerateInputError, DomainError, NonIdentifiableError,
                     UnreliableRunError)
from .metrology import (_PROB_FLOOR, PARAM_LABELS_SPHERICAL, QfiMatrix, _finish_fi_matrix,
                        _rank_split, crb, qfi_rotation_matrix)
from .states import SpinState, coherent_state
from .su2 import (TWO_PI, HalfInt, RotationParams, _readonly, generator_frame, make_operators,
                  omega_rotate, omega_so3, omega_spherical, rotation_unitary, so3_omega)

_PSD_TOL = 1e-10
_COMPLETENESS_TOL = 1e-9
_MIN_RESOLUTION = 0.35   # rad; a CRB sigma above this flags non-identifiability
_ROOT_TOL = 1e-12        # eigenvalues of a POVM element below this carry no weight
_NEWTON_TOL = 1e-10      # rad; a Newton step below this has converged
_NEWTON_MAX_ITER = 50
_MAX_HALVINGS = 40

_log = logging.getLogger("spinsense")

# calibration geometry for the two-reference optimal-PVM experiment
_DEFAULT_OFFSET_ANGLE = 0.1
_OFFSET_AXES = np.array([[0.36, -0.48, 0.80], [-0.80, 0.36, 0.48]])     # unit vectors


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use.  Nothing in the
    package calls it; bench/spans.py wraps it by name."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


class BornKernel:
    """Born probabilities of stacked measurement models and their rotation derivatives.

    Each model holds its elements but the last as factors, E_x = F_x F_x^dag
    (see MeasurementModel), whose columns stack into one dim x K matrix F.
    With a = F^dag psi, b_k = F^dag J_k psi and c_kl = F^dag S_kl psi, where
    S_kl = (J_k J_l + J_l J_k)/2, each summed over the columns of outcome x:

        p_x = |a|^2,
        dp_x/d delta_k = 2 Im conj(a) b_k,
        d2p_x/d delta_k d delta_l = 2 Re conj(b_k) b_l - 2 Re conj(a) c_kl,

    the derivatives taken in the local chart psi(delta) = exp(-i J.delta) psi
    at delta = 0.  A model's last outcome is the complement of the others:
    p_last = 1 - sum p_x, clipped at 0 against rounding, and minus their
    sums for its derivatives.  So K is 8 for the optimal-PVM pair and 4 for
    four Husimi directions at every J, whose "rest" and "miss" elements have
    rank dim - 4 and dim - 1.  O F, for O in 1, J_k and S_kl, comes from the
    cached dense J in O(dim^2 K), and nothing is decomposed.  Outcomes of
    all models are concatenated in model order; ``splits`` cuts the flat
    outcome axis back into models.  A state is a vector of shape (dim,), or
    a stack of shape (..., dim) of states whose results share the stack's
    leading axes.
    """

    def __init__(self, models):
        lasts = np.cumsum([len(m.labels) for m in models]) - 1
        self.splits = lasts[:-1] + 1
        unit = np.eye(lasts[-1] + 1)
        self._offset = unit[lasts].sum(axis=0)
        # each factor column's outcome, less its model's complement outcome
        self._seg_t = np.vstack([unit[first + m.owners] - unit[last]
                                 for m, first, last in zip(models, np.r_[0, self.splits], lasts)])
        f = np.hstack([m.factors for m in models])
        self.j = HalfInt(len(f) - 1)
        jv = np.stack(make_operators(self.j).vector())
        jf = jv @ f
        jjf = jv[:, None] @ jf[None]            # J_k J_l F
        sym = 0.5 * (jjf + jjf.transpose(1, 0, 2, 3))
        # (F^dag O)^T = conj(O F): a state row times it gives F^dag O psi
        self._ops_f = np.concatenate([f[None], jf, sym.reshape(9, *f.shape)]).conj()

    def probabilities(self, psi) -> np.ndarray:
        """Outcome probabilities, shape (..., n) for psi of shape (..., dim)."""
        a = psi @ self._ops_f[0]
        return np.maximum((a.real ** 2 + a.imag ** 2) @ self._seg_t + self._offset, 0.0)

    def loglik(self, counts, psi):
        """sum_x counts_x log p_x over the stacked outcomes, per state in psi;
        ``counts`` is one count vector or one per state."""
        return (np.log(np.maximum(self.probabilities(psi), 1e-300)) * counts).sum(axis=-1)

    def derivatives(self, psi, second: bool = False):
        """p (..., n), dp (3, ..., n) and, if ``second``, d2p (3, 3, ..., n)
        in the local chart."""
        w = psi @ (self._ops_f if second else self._ops_f[:4])
        a, b = w[0], w[1:4]
        p = np.maximum((a.real ** 2 + a.imag ** 2) @ self._seg_t + self._offset, 0.0)
        dp = 2.0 * (a.conj() * b).imag @ self._seg_t
        if not second:
            return p, dp
        d2 = (b.conj()[:, None] * b[None]).real - (a.conj() * w[4:]).real.reshape(3, 3, *a.shape)
        return p, dp, 2.0 * d2 @ self._seg_t


class MeasurementModel:
    """Finite POVM with named outcomes, held as factors: E_x = F_x F_x^dag for
    each outcome x but the last, F_x the columns c of the read-only
    ``factors`` (dim, K) with ``owners[c]`` = x, and the last is
    1 - sum_x E_x.  Dense elements are checked, and factored by the eigh of
    their positivity test; ``from_kets`` checks kets on their Gram matrix
    alone.  ``elements`` is formed from the factors on first read."""

    def __init__(self, elements, labels):
        self.labels = tuple(labels)
        elems = [np.asarray(e, dtype=complex) for e in elements]
        if not elems:
            raise DomainError("need at least one POVM element")
        dim = len(elems[0]) if elems[0].ndim == 2 else -1
        if any(e.shape != (dim, dim) for e in elems):
            raise DomainError("POVM elements must be square matrices of one dimension")
        stack = np.array(elems)
        if not np.isfinite(stack).all():
            raise DomainError("POVM elements must be finite")
        if np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))) > 1e-9:
            raise DomainError("POVM elements must be Hermitian")
        vals, vecs = np.linalg.eigh(stack)
        if vals[:, 0].min() < -_PSD_TOL:
            raise DomainError("POVM elements must be positive semidefinite")
        if np.max(np.abs(stack.sum(axis=0) - np.eye(dim))) > _COMPLETENESS_TOL:
            raise DomainError("POVM elements must resolve the identity")
        if len(self.labels) != len(elems):
            raise DomainError("need one label per POVM element")
        keep = vals[:-1] > _ROOT_TOL        # the last element is the others' complement
        self.factors = _readonly(vecs[:-1].transpose(1, 0, 2)[:, keep] * np.sqrt(vals[:-1][keep]))
        self.owners = np.nonzero(keep)[0]

    @classmethod
    def from_kets(cls, kets, labels) -> "MeasurementModel":
        """{|k><k| for each column k of ``kets`` (dim, K), 1 - sum_k |k><k|}:
        Hermitian and complete by construction, and positive semidefinite
        when the kets' Gram matrix has no eigenvalue above 1 (to 1e-10)."""
        model = cls.__new__(cls)
        model.labels = tuple(labels)
        kets = _readonly(np.array(kets, dtype=complex))
        if kets.ndim != 2:
            raise DomainError("kets must be the columns of a (dim, K) array")
        gram = kets.conj().T @ kets
        if not (np.isfinite(gram).all() and np.all(np.linalg.eigvalsh(gram) <= 1.0 + _PSD_TOL)):
            raise DomainError("the kets' projectors must sum to at most the identity")
        if len(model.labels) != kets.shape[1] + 1:
            raise DomainError("need one label per ket and one for the complement")
        model.factors = kets
        model.owners = np.arange(kets.shape[1])
        return model

    @cached_property
    def elements(self) -> tuple:
        """The dense elements, read-only: each F_x F_x^dag, then the complement."""
        f = [self.factors[:, self.owners == x] for x in range(len(self.labels) - 1)]
        elems = [fx @ fx.conj().T for fx in f]
        elems.append(np.eye(len(self.factors), dtype=complex) - sum(elems))
        return tuple(_readonly(e) for e in elems)

    @cached_property
    def kernel(self) -> BornKernel:
        """The model's own Born kernel, built on first use: an experiment
        builds one kernel for all its stages, so its models need none."""
        return BornKernel([self])

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


def optimal_pvm(estimate_state: SpinState) -> MeasurementModel:
    """Projectors onto |psi> and the states J_k|psi> for k = x, y, z,
    orthonormalized by one modified Gram-Schmidt pass, completed to a
    resolution of the identity; a linearly dependent family raises
    DegenerateInputError.
    """
    psi = estimate_state.amps
    states = [psi]
    for op in make_operators(estimate_state.j).vector():
        v = op @ psi
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise DegenerateInputError("J_k|psi> vanishes; probe is degenerate")
        w = v / norm
        for s in states:
            w = w - s * np.vdot(s, w)
        norm = np.linalg.norm(w)
        if norm < 1e-8:
            raise DegenerateInputError(
                "J_k|psi> family is linearly dependent; cannot build "
                "four orthonormal projectors")
        states.append(w / norm)
    return MeasurementModel.from_kets(np.column_stack(states), ("psi", "v1", "v2", "v3", "rest"))


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
    return [MeasurementModel.from_kets(coherent_state(j, p).amps[:, None], ("hit", "miss"))
            for p in pts]


def simulate_shots(model: MeasurementModel, true_state: SpinState,
                   n_shots: int, seed) -> ShotRecord:
    """Multinomial draw from the Born probabilities; deterministic in seed."""
    n_shots = _integral(n_shots, "n_shots")
    if n_shots < 1:
        raise DomainError("n_shots must be positive")
    p = model.probabilities(true_state)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_shots, p)
    return ShotRecord(counts=counts, n_shots=n_shots, seed=seed,
                      labels=model.labels)


class RotationExperiment:
    """A fixed probe measured by one or more POVM stages after an unknown
    rotation; stages split the shot budget evenly."""

    def __init__(self, probe: SpinState, stages):
        self.probe = probe
        self.stages = list(stages)
        self.weights = np.full(len(self.stages), 1.0 / len(self.stages))
        self._j = probe.j
        self.kernel = BornKernel(self.stages)
        # each outcome's stage share of the shots
        self._shares = np.repeat(self.weights, [len(m.labels) for m in self.stages])

    def rotated_amps(self, params: RotationParams) -> np.ndarray:
        return rotation_unitary(self._j, params) @ self.probe.amps

    def stage_probabilities(self, params: RotationParams) -> list:
        p = self.kernel.probabilities(self.rotated_amps(params))
        return [q / q.sum() for q in np.split(p, self.kernel.splits)]

    def sample(self, true_params: RotationParams, n_shots: int, seed) -> list:
        """One ShotRecord per stage; stage s draws with seed (seed, s)."""
        counts = np.split(self.sample_counts(true_params, n_shots, [seed])[0], self.kernel.splits)
        return [ShotRecord(counts=c, n_shots=n_s, seed=(seed, s), labels=model.labels)
                for s, (model, n_s, c) in enumerate(
                    zip(self.stages, _split_budget(n_shots, self.weights), counts))]

    def sample_counts(self, true_params: RotationParams, n_shots: int, seeds) -> np.ndarray:
        """The stages' counts, concatenated, one row per seed of ``seeds``:
        each stage draws as simulate_shots does with seed (seed, s), from
        the experiment kernel's probabilities, computed once for all rows."""
        shots = _split_budget(_integral(n_shots, "n_shots"), self.weights)
        if min(shots) < 1:
            raise DomainError("n_shots must be positive")
        probs = self.stage_probabilities(true_params)
        return np.array([np.concatenate([np.random.default_rng((seed, s)).multinomial(n_s, p)
                                         for s, (n_s, p) in enumerate(zip(shots, probs))])
                         for seed in seeds], dtype=np.int64)

    def loglik(self, counts_list, params: RotationParams) -> float:
        total = 0.0
        for counts, probs in zip(counts_list, self.stage_probabilities(params)):
            c = np.asarray(counts, dtype=float)
            total += float(np.sum(c * np.log(np.maximum(probs, 1e-300))))
        return total

    def fisher_information(self, params: RotationParams) -> QfiMatrix:
        """Per-shot classical FI of the stage mixture at ``params``, using
        exact Born-rule derivatives dp_x/dk = 2 Im <psi|Pi_x (J.g_k)|psi>."""
        p, dp = self.kernel.derivatives(omega_rotate(self._j, params.omega, self.probe.amps))
        return _finish_fi_matrix(self._fisher_stack(p, dp, params)[1], PARAM_LABELS_SPHERICAL)

    def _fisher_stack(self, p, dp, params):
        """Per-shot classical FI of the stage mixture from the kernel's
        probabilities p (..., n) and local-chart derivatives dp (3, ..., n)
        at ``params``, a RotationParams or a stack (..., 3) of triples: the
        matrices (..., 3, 3) in the local chart and in (theta, cap_theta,
        cap_phi), g^T F g with g the generator frame."""
        fi = np.einsum("k...x,l...x,...x->...kl", dp, dp, self._information_weights(p))
        g = generator_frame(params).matrix()
        return fi, np.swapaxes(g, -1, -2) @ fi @ g

    def _information_weights(self, p) -> np.ndarray:
        """Each outcome's stage share of the shots over its probability, for
        kernel probabilities ``p`` (..., n); as in classical_fi, an outcome of
        probability at or below _PROB_FLOOR carries no information and gets 0."""
        keep = p > _PROB_FLOOR
        return np.where(keep, self._shares / np.where(keep, p, 1.0), 0.0)


def _integral(value, name) -> int:
    """``value`` as an int: an integer, or an integral float such as 1e4, as
    serialize._integer reads a config; a fraction or a bool raises DomainError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _split_budget(n_shots: int, weights) -> list:
    shots = [int(math.floor(n_shots * w)) for w in weights]
    shots[0] += n_shots - sum(shots)
    return shots


def optimal_pvm_experiment(probe: SpinState, reference: RotationParams,
                           offset_angle: float = None) -> RotationExperiment:
    """Two optimal-PVM stages at the references R(offset_angle u) R(reference),
    u each of two fixed skew axes and ``offset_angle`` by default
    min(0.1, 1/(2J)) (see module docstring), composed as one SO(3) stack."""
    if offset_angle is None:
        offset_angle = min(_DEFAULT_OFFSET_ANGLE, 1.0 / max(probe.j.twice_j, 1))
    refs = so3_omega(omega_so3(offset_angle * _OFFSET_AXES) @ omega_so3(reference.omega))
    return RotationExperiment(probe, [optimal_pvm(SpinState(probe.j, amps))
                                      for amps in omega_rotate(probe.j, refs, probe.amps)])


def husimi_experiment(probe: SpinState, directions) -> RotationExperiment:
    """Independent binary Husimi samplers, one per direction, equal budgets."""
    pts = list(directions)
    if len(pts) < 4:
        raise NonIdentifiableError(
            f"orientation from {len(pts)} Husimi directions is ambiguous "
            "under rigid rotations; use at least 4 generic directions")
    stages = husimi_design(probe.j, pts)
    return RotationExperiment(probe, stages)


_ANCHOR_RADIUS = 0.35
_TABLE_CHUNK = 1024      # candidates rotated at once; bounds the table's scratch memory
_PEAK_BLOCK = 256        # best-ranked cells tested for a peak at once
# a trial whose Cox-Snell bias b has sqrt(b^T I b) above this is rejected
_MAX_BIAS = 0.5
# entries of psi @ _ops_f, shape (13, rows, K), in one fit stack of at most
# twelve rows per trial; bounds a study's trials per stack
_STACK_CHUNK = 1 << 16
# restarts at 0.12 and 0.25 rad along +-x, +-y and +-z of the incumbent
_RESTARTS = np.array([sign * step * axis for step in (0.12, 0.25) for axis in np.eye(3)
                      for sign in (-1.0, 1.0)])


def grid_probability_table(experiment: RotationExperiment, anchor: RotationParams = None):
    """Candidate rotation vectors w, shape (n, 3); each stage's outcome
    probabilities at them, shape (n, outcomes); and the grid that holds
    them, for the peak test of ml_estimate (see _neighbour_grid).  They
    depend only on the experiment, so one table serves every trial of a
    study.

    The candidates are the points of a cubic lattice of w in a ball around
    w = 0, applied to a base state as exp(-i J.w) psi_base.  Without an
    anchor psi_base is the probe, and the lattice steps by pi/12 out to
    13 pi/12 (9171 cells), one step past theta = pi, so that a peak there
    has neighbours on both sides.  With one psi_base is U(anchor) probe
    (see ml_estimate), and the lattice steps by 0.35/3 out to 0.35 rad.
    """
    if anchor is None:
        step, n_steps, psi = math.pi / 12.0, 13, experiment.probe.amps
    else:
        step, n_steps, psi = _ANCHOR_RADIUS / 3.0, 3, experiment.rotated_amps(anchor)
    shape = (2 * n_steps + 1,) * 3
    ijk = np.indices(shape).reshape(3, -1)
    w = (np.arange(-n_steps, n_steps + 1) * step)[ijk.T]
    inside = np.linalg.norm(w, axis=1) <= n_steps * step + 1e-12
    w, ijk = w[inside], ijk[:, inside]
    kernel = experiment.kernel
    p = np.vstack([kernel.probabilities(omega_rotate(kernel.j, chunk, psi))
                   for chunk in np.split(w, range(_TABLE_CHUNK, len(w), _TABLE_CHUNK))])
    return w, np.split(p, kernel.splits, axis=1), _neighbour_grid(ijk, shape)


def _neighbour_grid(ijk, shape):
    """The grid of candidates at the points ``ijk`` (3, n) of a ``shape``
    grid: the grid padded by one cell on every side as a flat index array,
    holding the candidate at each point and -1 where there is none; each
    candidate's position in it; and the flat offsets of a cell's 26
    neighbours."""
    cube = np.full(shape, -1)
    cube[tuple(ijk)] = np.arange(ijk.shape[1])
    cube = np.pad(cube, 1, constant_values=-1)
    offsets = (np.ravel_multi_index(np.indices((3, 3, 3)).reshape(3, -1), cube.shape)
               - np.ravel_multi_index((1, 1, 1), cube.shape))
    return cube.ravel(), np.ravel_multi_index(ijk + 1, cube.shape), offsets[offsets != 0]


def ml_estimate(records, experiment: RotationExperiment, grid_cache=None,
                anchor: RotationParams = None) -> RotationParams:
    """Maximum-likelihood rotation parameters for recorded counts.

    The likelihood is first scored on a table of candidates, as
    sum_s log(table_s) @ counts_s; ``grid_cache`` is that table, with its
    grid, from grid_probability_table, built here when not given, so a
    study builds it once for all its trials.  The starts are the table's
    peaks, cells that score at least as high as their 26 grid neighbours:
    best first, more than 0.1 rad apart, and at most four with an anchor or
    eight without.  Without an anchor, four of the best cells join them as
    backups, each more than 0.35 rad from every earlier start.  All starts
    are refined together as one stack, and the best refined optimum wins.
    Each start w0 is refined by Newton's method in a moving local chart
    psi <- exp(-i J.delta) psi, from psi = exp(-i J.w0) psi_base, with the
    exact observed Hessian (a Fisher-scoring step where that Hessian is not
    negative definite), each step a closed-form 3x3 solve, and step halving
    until the log-likelihood does not drop; a start converges once its
    Newton step is below 1e-10 rad, and the best converged start wins.

    Probes with a nontrivial rotational stabilizer (NOON, balanced, Kings)
    make the *global* likelihood exactly periodic under the stabilizer, so
    the rotation is only identifiable modulo that group.  Passing ``anchor``
    (the protocol's prior estimate) restricts the search to deviations within
    0.35 rad of it, which is the asymptotic local-estimation setting and
    selects the physical copy.  The candidates are then the rotations
    exp(-i J.w) U(anchor) on a cubic lattice of w, and psi_base is
    U(anchor) probe; a J = 3 King trial's table has one peak, so one start.

    Without an anchor, the candidates are the same kind of lattice, coarser
    and reaching one step past theta = pi, of the rotation vector
    omega = theta*n, which stays smooth through theta = 0, and psi_base is
    the probe.  A second stack of twelve restarts, at 0.12 and 0.25 rad
    along +-x, +-y and +-z of the first stack's optimum, escapes
    adjacent-basin traps of rugged likelihoods; a restart wins only by more
    than 1e-9 nats.

    A flat likelihood, a singular information matrix or a bound sigma above
    0.35 rad at the optimum, or else an optimum from no converged start (a
    start's last iterate), raises NonIdentifiableError.

    The result is the plain maximum-likelihood estimate, with its O(1/N)
    bias, built from the optimum's rotation vector; monte_carlo_qcrb fits
    many trials through the same code at once, one stack of (trial, start)
    rows per chunk of trials, so that each trial gets the estimate it gets
    here alone, and then subtracts each trial's bias.
    """
    counts_list = [np.asarray(getattr(r, "counts", r), dtype=float) for r in records]
    if len(counts_list) != len(experiment.stages):
        raise DomainError("need one record per measurement stage")
    if grid_cache is None:
        grid_cache = grid_probability_table(experiment, anchor=anchor)
    omega, errors, _, _ = _fit_trials(experiment, np.concatenate(counts_list)[None], grid_cache,
                                      anchor)
    if errors:
        raise errors[0]
    return RotationParams.from_omega(omega[0])


def _fit_trials(experiment: RotationExperiment, counts, grid_cache, anchor):
    """ml_estimate of each trial in the rows of ``counts`` (n, outcomes),
    the stages' counts concatenated.  Every trial's starts go through one
    _newton_fit stack of (trial, start) rows, and without an anchor every
    trial's restarts through a second; the checks at the optima are one
    batched pass (_check_optima).  Returns each trial's optimum as a
    rotation vector (n, 3), nan for a rejected trial; {trial: the
    NonIdentifiableError that rejects it} for the rejected trials alone, so
    that a failing trial fails alone; and, from _check_optima, each trial's
    Cox-Snell bias (n, 3) and its size (n,), nan for a flat trial.  A
    trial's optimum is its best converged row, else its best row, which
    _check_optima checks and, if it passes, rejects as not converged."""
    kernel = experiment.kernel
    cand, per_stage, grid = grid_cache
    # every trial's score of every cell
    scores = counts @ np.log(np.maximum(np.hstack(per_stage), 1e-300)).T
    if anchor is not None:
        base_psi, base_rot = experiment.rotated_amps(anchor), omega_so3(anchor.omega)
        n_peaks, n_backups = 4, 0         # the local problem is well seeded
    else:
        base_psi, base_rot = experiment.probe.amps, np.eye(3)
        n_peaks, n_backups = 8, 4
    omega, bias = np.full((len(counts), 3), np.nan), np.full((len(counts), 3), np.nan)
    size = np.full(len(counts), np.nan)
    flat = scores.max(axis=1) - scores.min(axis=1) < 1e-12
    errors = {int(t): NonIdentifiableError("likelihood is flat across the parameter grid")
              for t in np.flatnonzero(flat)}
    live = np.flatnonzero(~flat)
    if not live.size:
        return omega, errors, bias, size
    starts = _select_starts(scores[live], cand, grid, n_peaks, n_backups)
    found = ~np.isnan(starts[..., 0])

    # each outcome's stage total, for the expected information of a
    # Fisher-scoring step
    shots = np.hstack([np.broadcast_to(c.sum(axis=1, keepdims=True), c.shape)
                       for c in np.split(counts, kernel.splits, axis=1)])

    def refine(w0, n_rows):
        """-loglik, SO(3) matrix and convergence of each live trial's best
        row, its n_rows[i] starts consecutive rows of the stack w0."""
        rows = np.repeat(live, n_rows)
        vals, rots, conv = _newton_fit(kernel, counts[rows], shots[rows], w0, base_psi, base_rot)
        # each trial's converged rows by value, then the rest, the first on a tie
        best = np.lexsort((vals, ~conv, rows))[np.cumsum(n_rows) - n_rows]
        return vals[best], rots[best], conv[best]

    val, rot, conv = refine(starts[found], found.sum(axis=1))
    if anchor is None:      # base_rot is the identity: the chart point is omega
        w0 = (so3_omega(rot)[:, None] + _RESTARTS).reshape(-1, 3)
        again, rot_again, conv_again = refine(w0, np.full(len(live), len(_RESTARTS)))
        better = np.where(conv == conv_again, again < val - 1e-9, conv_again)
        rot = np.where(better[:, None, None], rot_again, rot)
        conv |= conv_again
    omega[live] = so3_omega(rot)

    rejected, bias[live], size[live] = _check_optima(experiment, omega[live], counts[live])
    for i in np.flatnonzero(~conv):
        rejected.setdefault(int(i), NonIdentifiableError(
            f"no Newton start converged in {_NEWTON_MAX_ITER} iterations"))
    for i, err in rejected.items():
        errors[int(live[i])] = err
        omega[live[i]] = np.nan
    return omega, errors, bias, size


def _check_optima(experiment: RotationExperiment, omega, counts):
    """One batched pass at the optima ``omega`` (n, 3), rotation vectors, of
    the trials in the rows of ``counts``, from one derivative stack.  Returns:

    - {row: NonIdentifiableError} for the rows that a singular information
      matrix at the optimum, or a bound sigma above 0.35 rad, rejects;
    - each row's Cox-Snell bias b (n, 3) in the local chart at the optimum;
    - sqrt(b^T I b) (n,), the bias in units of the bound.

    With l the log-likelihood of the trial's shots, I its expected
    information, kappa_{rt,u} = E[l_rt l_u] and kappa_{rtu} = E[l_rtu], the
    bias is b^s = I^{sr} I^{tu} (kappa_{rt,u} + kappa_{rtu} / 2) (Cox & Snell, JRSS B
    30, 248, 1968).  The Bartlett identity kappa_{rtu} = -kappa_{rt,u} - kappa_{ru,t} -
    kappa_{tu,r} - kappa_{r,t,u} turns the bracket into (D_rtu - D_rut - D_tur) / 2, whose
    first two terms cancel against the symmetric I^{tu}, so b^s = -I^{sr} I^{tu} D_tur / 2,
    with D_rtu = sum_x N_x d2p_x,rt dp_x,u / p_x: p, dp and d2p suffice.  N_x is the
    outcome's stage share of the trial's shots; outcomes at or below _PROB_FLOOR are
    dropped, as in fisher_information."""
    kernel = experiment.kernel
    p, dp, d2p = kernel.derivatives(omega_rotate(kernel.j, omega, experiment.probe.amps),
                                    second=True)
    # per shot, in the local chart and in (theta, cap_theta, cap_phi)
    fi, fi_sph = experiment._fisher_stack(p, dp, omega_spherical(omega))
    fi_sph, _, vecs, null = _rank_split(fi_sph)
    # a technically full-rank matrix can still leave a parameter with
    # macroscopic uncertainty (coordinate singularity at theta ~ 0: the
    # axis information does not grow with the shot count)
    total_shots = np.maximum(counts.sum(axis=1), 1.0)
    sigmas = np.sqrt(np.clip(np.diagonal(np.linalg.pinv(fi_sph), axis1=1, axis2=2)
                             / total_shots[:, None], 0.0, None))
    d = np.einsum("rtmx,umx,mx->mrtu", d2p, dp, experiment._information_weights(p))
    fi_inv = np.linalg.pinv(fi)
    bias = -0.5 * np.einsum("msr,mtu,mtur->ms", fi_inv, fi_inv, d) / total_shots[:, None]
    size = np.sqrt(np.maximum(total_shots * np.einsum("mk,mkl,ml->m", bias, fi, bias), 0.0))
    unresolved = sigmas > _MIN_RESOLUTION
    errors = {}
    for i in np.flatnonzero(null.any(axis=1) | unresolved.any(axis=1)):
        if null[i].any():
            errors[int(i)] = NonIdentifiableError(
                f"information matrix at the optimum is rank {3 - int(null[i].sum())}; "
                "parameters are not jointly identifiable",
                null_directions=vecs[i][:, null[i]])
        else:
            errors[int(i)] = NonIdentifiableError(
                "parameters "
                + ", ".join(l for l, u in zip(PARAM_LABELS_SPHERICAL, unresolved[i]) if u)
                + " are unresolved at the data's information level "
                f"(bound sigma {sigmas[i].max():.2f} rad)",
                null_directions=vecs[i][:, :1])
    return errors, bias, size


def _select_starts(scores, cand, grid, n_peaks, n_backups):
    """Newton starts for each trial of the rows of ``scores`` (n, cells), as
    an (n, n_peaks + n_backups, 3) stack of rows of cand, padded with nan.

    A trial's starts are first its table's peaks, cells at least as high
    as each of their 26 grid neighbours: best first, each more than 0.1 rad
    from the earlier ones, at most n_peaks.  Up to n_backups of its best
    cells follow, each more than 0.35 rad from every earlier start.  Cells
    go _PEAK_BLOCK at a time, best first, through both greedy picks for
    every trial at once, one pass per pick: the best block by argpartition,
    and a further block only for the trials still short of starts, which
    are then ranked in full."""
    cube, position, offsets = grid
    n, n_cells = scores.shape
    padded = np.hstack([scores, np.full((n, 1), -np.inf)])     # index -1: no neighbour
    block = min(_PEAK_BLOCK, n_cells)
    best = np.argpartition(scores, n_cells - block, axis=1)[:, n_cells - block:]
    best = np.take_along_axis(
        best, np.argsort(np.take_along_axis(scores, best, axis=1), axis=1)[:, ::-1], axis=1)
    starts = np.full((n, n_peaks + n_backups, 3), np.nan)
    n_have = np.zeros(n, dtype=int)
    for spacing, n_new, peaks_only in ((0.1, n_peaks, True), (0.35, n_backups, False)):
        trials, ranked, cap = np.arange(n), best, n_have + n_new
        for lo in range(0, n_cells if n_new else 0, block):
            if lo == block:
                ranked = np.argsort(scores[trials], axis=1)[:, ::-1]
            cells = ranked[:, lo:lo + block]
            free = np.ones(cells.shape, dtype=bool)
            if peaks_only:
                neighbours = cube[position[cells][..., None] + offsets]
                free = (padded[trials[:, None], cells][..., None]
                        >= padded[trials[:, None, None], neighbours]).all(axis=-1)
            points, slot, end = cand[cells], n_have[trials], cap[trials]
            d = points[:, :, None] - starts[trials, None, :n_have.max()]
            free &= ~(np.einsum("tbsk,tbsk->tbs", d, d) <= spacing ** 2).any(axis=-1)  # nan: none
            free[slot >= end] = False
            while free.any():
                has = free.any(axis=1)
                pick = points[np.arange(len(trials)), free.argmax(axis=1)]
                starts[trials[has], slot[has]] = pick[has]
                slot += has
                d = points - pick[:, None]
                free &= np.einsum("tbk,tbk->tb", d, d) > spacing ** 2
                free[slot >= end] = False
            n_have[trials] = slot
            trials, ranked = trials[slot < end], ranked[slot < end]
            if not trials.size:
                break
    return starts


# flat indices (P, Q, R, S) into a 3x3 matrix m whose m[P] m[Q] - m[R] m[S]
# is the cofactor of entry (i, j): at (i + 1, j + 1), (i + 2, j + 2),
# (i + 1, j + 2) and (i + 2, j + 1), mod 3
_COFACTOR_INDEX = np.array([[3 * ((i + a) % 3) + (j + b) % 3 for i in range(3) for j in range(3)]
                            for a, b in ((1, 1), (2, 2), (1, 2), (2, 1))])


def _newton_steps(curvature, grad, information):
    """Newton steps (m, 3) that solve c . step = grad for a stack of
    observed informations ``curvature`` (m, 3, 3), -hess, and gradients
    (m, 3), by the adjugate over the determinant.  c is -hess where that is
    positive definite by Sylvester's leading minors, else the expected
    information ``information(rows)`` of those rows, built for them alone;
    a non-finite -hess is kept, so that its step is non-finite.  Returns
    the steps and the singular rows (c of determinant 0), whose steps are
    not finite."""
    def cofactors(m):       # flattened; for a symmetric m, its adjugate
        f = m.reshape(-1, 9)
        p, q, r, s = _COFACTOR_INDEX
        cof = f[:, p] * f[:, q] - f[:, r] * f[:, s]
        return cof, (f[:, :3] * cof[:, :3]).sum(axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        cof, det = cofactors(curvature)
        concave = (curvature[:, 0, 0] > 0.0) & (cof[:, 8] > 0.0) & (det > 0.0)
        scored = ~concave & np.isfinite(det)
        if scored.any():
            cof[scored], det[scored] = cofactors(information(scored))
        step = np.einsum("mkl,ml->mk", cof.reshape(-1, 3, 3), grad) / det[:, None]
    return step, det == 0.0


def _newton_fit(kernel: BornKernel, counts, shots, w0, base_psi, base_rot):
    """Newton ascent of sum_x counts_x log p_x from each start of the stack
    w0 (m, 3), in the moving local chart psi <- exp(-i J.delta) psi, from
    psi = exp(-i J.w0) base_psi, whose rotation has SO(3) matrix
    so3(w0) base_rot.  ``counts`` (m, outcomes) holds each row's own counts,
    so rows of one stack may belong to different trials; ``shots``, each
    outcome's stage total for the expected information of a Fisher-scoring
    step, broadcasts against it.  Rows iterate together but independently:
    each halves its own step and stops once its step is below _NEWTON_TOL.

    Steps come from _newton_steps, and each iteration rotates the SO(3)
    matrices of the rows that moved once, by their accepted steps.

    Returns -loglik (m,) and the SO(3) matrices (m, 3, 3) at each row's
    last accepted iterate, and whether the row converged (m,); a row that
    stops for another reason logs why at debug level."""
    shots = np.broadcast_to(shots, counts.shape)
    psi = omega_rotate(kernel.j, w0, base_psi)
    rot = omega_so3(w0) @ base_rot
    value = kernel.loglik(counts, psi)
    neg_ll, rots, converged = -value, rot.copy(), np.zeros(len(w0), dtype=bool)
    why = {}
    live = np.arange(len(w0))                   # the starts still iterating
    for _ in range(_NEWTON_MAX_ITER):
        p, dp, d2p = kernel.derivatives(psi, second=True)
        p = np.maximum(p, 1e-300)
        ratio = counts / p
        grad = np.einsum("kmx,mx->mk", dp, ratio)
        curvature = (np.einsum("kmx,lmx,mx->mkl", dp, dp, ratio / p)
                     - np.einsum("klmx,mx->mkl", d2p, ratio))
        step, singular = _newton_steps(curvature, grad, lambda rows: np.einsum(
            "kmx,lmx,mx->mkl", dp[:, rows], dp[:, rows], shots[rows] / p[rows]))
        moving = np.isfinite(step).all(axis=1)
        if not moving.all():
            for i in live[singular]:
                why[i] = "singular curvature"
            for i in live[~moving]:
                why.setdefault(i, "non-finite step")
        done = moving & (np.einsum("mk,mk->m", step, step) < _NEWTON_TOL ** 2)
        converged[live[done]] = True
        moving &= ~done
        pending = np.flatnonzero(moving)        # halve each step until no drop
        for _ in range(_MAX_HALVINGS):
            if not pending.size:
                break
            trial = omega_rotate(kernel.j, step[pending], psi[pending])
            trial_value = kernel.loglik(counts[pending], trial)
            ok = trial_value >= value[pending] - 1e-12 * np.abs(value[pending])  # rounding
            took = pending[ok]
            psi[took], value[took] = trial[ok], trial_value[ok]
            pending = pending[~ok]
            step[pending] /= 2.0
        if pending.size:
            for i in live[pending]:
                why[i] = f"log-likelihood still drops after {_MAX_HALVINGS} step halvings"
            moving[pending] = False
        rot[moving] = omega_so3(step[moving]) @ rot[moving]
        if not moving.all():
            neg_ll[live[~moving]], rots[live[~moving]] = -value[~moving], rot[~moving]
            live, psi, value, rot = live[moving], psi[moving], value[moving], rot[moving]
            counts, shots = counts[moving], shots[moving]
            if not live.size:
                break
    neg_ll[live], rots[live] = -value, rot
    for i in live:
        why[i] = f"no convergence in {_NEWTON_MAX_ITER} iterations"
    for i in sorted(why):
        _log.debug("Newton refinement from w0 = %s did not converge: %s", w0[i], why[i])
    return neg_ll, rots, converged


def estimator_stats(estimates, true_params: RotationParams):
    """Per-parameter MSE = variance + bias^2 decomposition and SNR.

    Sample moments use the population convention (ddof = 0) so the
    decomposition identity is exact.  Each estimate is taken in whichever of
    its two equivalent forms (theta, cap_theta, cap_phi) and (2 pi - theta,
    pi - cap_theta, cap_phi + pi) lies nearer the truth, and azimuthal
    residuals are wrapped into (-pi, pi].
    """
    deltas = _residuals(np.vstack([e.as_array() if isinstance(e, RotationParams) else e
                                   for e in estimates]).astype(float), true_params)
    if deltas.shape[0] < 2:
        raise DomainError("need at least 2 estimates")
    return _residual_moments(deltas, true_params.as_array())


def _residual_moments(deltas: np.ndarray, truth: np.ndarray) -> dict:
    """estimator_stats of the residuals ``deltas`` (n, 3) from ``truth``."""
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


def _residuals(arr: np.ndarray, true_params: RotationParams) -> np.ndarray:
    """Estimates ``arr`` (n, 3), (theta, cap_theta, cap_phi) triples, minus
    the truth, with cap_phi wrapped into (-pi, pi].

    (theta, cap_theta, cap_phi) and (2 pi - theta, pi - cap_theta,
    cap_phi + pi) are the same rotation; each estimate is taken in whichever
    form lies nearer the truth, so that near theta = pi the residuals do not
    depend on the form a fit returns."""
    twin = np.column_stack([TWO_PI - arr[:, 0], math.pi - arr[:, 1], arr[:, 2] + math.pi])
    d = np.stack([arr, twin]) - true_params.as_array()
    d[..., 2] = (d[..., 2] + math.pi) % TWO_PI - math.pi
    nearer = np.sum(d[1] ** 2, axis=1) < np.sum(d[0] ** 2, axis=1)
    return np.where(nearer[:, None], d[1], d[0])


def monte_carlo_qcrb(probe: SpinState, true_params: RotationParams, scheme: str,
                     n_shots: int, n_trials: int, seed: int,
                     directions=None,
                     offset_angle: float = None) -> EstimationReport:
    """Repeated simulate-and-estimate rounds against the quantum bound.

    The QFI at ``true_params`` must be invertible (otherwise
    SingularInformationError propagates from the bound computation).  Trials
    draw independent multinomial data with per-trial seeds (seed, trial), all
    drawn first, and are estimator-failure tolerant up to 5%.  The candidate
    table that ml_estimate builds is built once for all trials: for
    "optimal_pvm" the lattice anchored at ``true_params``, and for "husimi"
    the global lattice.  The trials are then fitted in chunks, each chunk
    one stack of (trial, start) rows that gives every trial the estimate
    ml_estimate gives it alone; a trial that ml_estimate rejects counts in
    n_failed by itself.  The fits stay an (n, 3) stack of rotation vectors
    from the Newton stack to the report, with no RotationParams per trial.
    ``offset_angle`` defaults to min(0.1, 1/(2J)).

    The study's estimator is bias-corrected maximum likelihood: each
    trial's MLE less its Cox-Snell bias b, of order 1/N, computed in the
    local chart at the MLE (see _check_optima) and subtracted for a whole
    chunk as so3_omega(omega_so3(-b) @ omega_so3(w)).  The plain MLE is
    biased by about 0.03 sigma in cap_theta at 10^4 shots on a J = 3 King,
    which a study of tens of thousands of trials resolves.  A trial whose bias is
    not small against the bound, sqrt(b^T I b) above 0.5 with I the
    trial's expected information, is dropped and counted in n_failed,
    although ml_estimate accepts its fit.  Which trials drop depends on
    where their estimates land, so the drop trims the sample: on a J = 3
    King about 2% of trials at 500 shots, which a study that succeeds
    reports in a logged warning.  At 300 shots about 8% drop, more than the
    5% a study tolerates, so such a study raises UnreliableRunError, whose
    message counts the dropped trials.
    """
    n_shots, n_trials = _integral(n_shots, "n_shots"), _integral(n_trials, "n_trials")
    if n_trials < 2:
        raise DomainError("need at least 2 trials")
    qfi = qfi_rotation_matrix(probe, true_params)
    bound = crb(qfi, n_shots)

    anchor = None
    if scheme == "optimal_pvm":
        experiment = optimal_pvm_experiment(probe, true_params, offset_angle=offset_angle)
        anchor = true_params    # the protocol's prior estimate fixes the
        #                         stabilizer copy; see ml_estimate
    elif scheme == "husimi":
        if directions is None:
            raise DomainError("husimi scheme needs sampling directions")
        experiment = husimi_experiment(probe, directions)
    else:
        raise DomainError(f"unknown scheme {scheme!r}")

    cache = grid_probability_table(experiment, anchor)
    counts = experiment.sample_counts(true_params, n_shots,
                                      [(seed, trial) for trial in range(n_trials)]).astype(float)
    n_ops, _, width = experiment.kernel._ops_f.shape
    chunk = max(1, _STACK_CHUNK // (n_ops * len(_RESTARTS) * width))
    estimates, n_capped = [], 0
    for lo in range(0, n_trials, chunk):
        omega, _, bias, size = _fit_trials(experiment, counts[lo:lo + chunk], cache, anchor)
        fitted = ~np.isnan(omega[:, 0])
        capped = fitted & (size > _MAX_BIAS)
        n_capped += int(capped.sum())
        keep = fitted & ~capped
        # the MLE less its Cox-Snell bias, a step -b in the local chart
        estimates.append(so3_omega(omega_so3(-bias[keep]) @ omega_so3(omega[keep])))
    estimates = np.vstack(estimates)
    n_failed = n_trials - len(estimates)
    if n_failed > 0.05 * n_trials:
        raise UnreliableRunError(
            f"{n_failed}/{n_trials} trials failed to produce an estimate"
            + (f", {n_capped} of them for a second-order bias not small against the "
               f"bound (sqrt(b^T I b) > {_MAX_BIAS})" if n_capped else ""),
            failed_fraction=n_failed / n_trials)
    if n_capped:
        _log.warning("%d of %d trials dropped for a second-order bias not small against the "
                     "bound (sqrt(b^T I b) > %s); the report's moments come from the rest",
                     n_capped, n_trials, _MAX_BIAS)

    deltas = _residuals(omega_spherical(estimates), true_params)  # >= 2: at most 5% failed
    emp_cov = np.cov(deltas.T, ddof=0)
    stats = _residual_moments(deltas, true_params.as_array())
    mean = stats["mean_estimate"]
    mean_params = RotationParams(*np.clip(mean, (0.0, 0.0, -np.inf), (TWO_PI, math.pi, np.inf)))
    trace_ratio = float(np.trace(emp_cov) / np.trace(bound.bound))
    gap = emp_cov - bound.bound
    min_eig = float(np.linalg.eigvalsh(gap)[0])
    scale = float(np.linalg.norm(emp_cov, 2))
    stat_tol = 3.0 * math.sqrt(2.0 / (len(deltas) - 1)) * scale
    return EstimationReport(
        estimate=mean_params,
        empirical_cov=emp_cov,
        crb_bound=bound.bound,
        n_shots=n_shots,
        n_trials=n_trials,
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
        p = model.kernel.probabilities(omega_rotate(probe.j, params.omega, probe.amps))
        return p / p.sum()

    return prob_fn


def born_derivatives(model: MeasurementModel, probe: SpinState,
                     params: RotationParams):
    """Exact probabilities and parameter derivatives of the Born model:
    dp_x/dk = 2 Im <psi|Pi_x (J.g_k)|psi>, with G_k = J.g_k."""
    p, dp = model.kernel.derivatives(omega_rotate(probe.j, params.omega, probe.amps))
    return p, generator_frame(params).matrix().T @ dp
