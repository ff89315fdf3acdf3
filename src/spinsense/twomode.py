"""Two bosonic modes embedded into fixed-excitation spin blocks.

Mode occupation (n_a, n_b) with n_a + n_b = N carries angular momentum
J = N/2 and projection m = (n_a - n_b)/2 (so n_a = J + m, n_b = J - m).
J_x = (a^dag b + b^dag a)/2, J_y = (a^dag b - b^dag a)/(2i),
J_z = (a^dag a - b^dag b)/2.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DomainError, TruncationError
from .majorana import majorana_poly
from .states import SpinState
from .su2 import HalfInt, OperatorSet, _moments

_TRUNCATION_BUDGET = 1e-10


@dataclass(frozen=True)
class TwoModeState:
    """Amplitudes amps[n_a, n_b] on a truncated two-mode Fock grid."""

    amps: np.ndarray
    neglected: float          # probability outside the truncation, estimated

    def __post_init__(self):
        a = np.array(self.amps, dtype=complex)
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


@dataclass(frozen=True)
class SubspaceComponent:
    """One N = 2J block; ``n_cut`` counts its amplitudes with n_a or n_b
    beyond the mode cutoffs, which the grid cannot hold and are zero here."""

    j: HalfInt
    weight: float
    state: SpinState
    n_cut: int = 0


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Per-J blocks of a two-mode state, with their weights."""

    components: tuple
    neglected: float

    def component(self, j: HalfInt) -> SubspaceComponent:
        for comp in self.components:
            if comp.j == j:
                return comp
        raise DomainError(f"no subspace with J = {j} in this decomposition")

    def weights_by_n(self) -> dict:
        return {comp.j.twice_j: comp.weight for comp in self.components}


def _coherent_amps(alpha: complex, n_max: int) -> np.ndarray:
    """Unnormalized coherent amplitudes alpha^n / sqrt(n!), forward recursion."""
    amps = np.empty(n_max + 1, dtype=complex)
    amps[0] = 1.0
    for n in range(1, n_max + 1):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def _squeezed_amps(lam: complex, n_max: int) -> np.ndarray:
    """Unnormalized amplitudes of exp(lam b^dag^2 / 2)|0>: support on even n,
    c_{k+2}/c_k = lam sqrt((k+1)(k+2)) / (k+2)."""
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[0] = 1.0
    for k in range(0, n_max - 1, 2):
        amps[k + 2] = amps[k] * lam * math.sqrt((k + 1.0) * (k + 2.0)) / (k + 2.0)
    return amps


def two_mode_coherent(alpha: complex, beta: complex, n_max: int) -> TwoModeState:
    """|alpha, beta>: product of coherent states, truncated at n_max photons
    per mode.  Raises TruncationError when the neglected probability exceeds
    the 1e-10 budget."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    a = _coherent_amps(complex(alpha), n_max)
    b = _coherent_amps(complex(beta), n_max)
    grid = np.outer(a, b)
    grid *= math.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2.0)
    neglected = max(0.0, 1.0 - float(np.sum(np.abs(grid) ** 2)))
    if neglected > _TRUNCATION_BUDGET:
        raise TruncationError(
            f"two-mode coherent truncation leaves {neglected:.3e} probability "
            f"outside n_max = {n_max}", neglected=neglected)
    return TwoModeState(amps=grid, neglected=neglected)


def default_n_max(mean_photons: float) -> int:
    """Cutoff heuristic: mean + 10 sqrt(mean) + 20."""
    return int(math.ceil(mean_photons + 10.0 * math.sqrt(max(mean_photons, 1.0)) + 20.0))


def coherent_plus_squeezed(alpha: complex, xi: complex, n_max: int,
                           n_max_b: int = None) -> TwoModeState:
    """exp(alpha a^dag + (lam/2) b^dag^2)|vac> with lam = (xi/|xi|) tanh|xi|.

    Mode a is Poissonian, mode b a squeezed vacuum on even photon numbers.
    The squeezed tail decays like |lam|^(2k), so mode b may need a larger
    cutoff; pass n_max_b to size it independently (defaults to n_max).
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    alpha = complex(alpha)
    xi = complex(xi)
    if not (math.isfinite(xi.real) and math.isfinite(xi.imag)):
        raise DomainError("squeezing strength must be finite")
    r = abs(xi)
    lam = 0.0 if r == 0.0 else (xi / r) * math.tanh(r)
    if abs(lam) >= 1.0:
        raise DomainError("squeezing must satisfy |tanh xi| < 1")
    nb = n_max if n_max_b is None else n_max_b
    a = _coherent_amps(alpha, n_max) * math.exp(-abs(alpha) ** 2 / 2.0)
    b = _squeezed_amps(lam, nb)
    b *= (1.0 - abs(lam) ** 2) ** 0.25
    grid = np.outer(a, b)
    neglected = max(0.0, 1.0 - float(np.sum(np.abs(grid) ** 2)))
    if neglected > _TRUNCATION_BUDGET:
        raise TruncationError(
            f"coherent+squeezed truncation leaves {neglected:.3e} probability "
            f"outside (n_max={n_max}, n_max_b={nb})", neglected=neglected)
    return TwoModeState(amps=grid, neglected=neglected)


def _apply_a(grid):
    out = np.zeros_like(grid)
    na = np.sqrt(np.arange(1, grid.shape[0]))[:, None]
    out[:-1, :] = na * grid[1:, :]
    return out


def _apply_adag(grid):
    out = np.zeros_like(grid)
    na = np.sqrt(np.arange(1, grid.shape[0]))[:, None]
    out[1:, :] = na * grid[:-1, :]
    return out


def _apply_b(grid):
    out = np.zeros_like(grid)
    nb = np.sqrt(np.arange(1, grid.shape[1]))[None, :]
    out[:, :-1] = nb * grid[:, 1:]
    return out


def _apply_bdag(grid):
    out = np.zeros_like(grid)
    nb = np.sqrt(np.arange(1, grid.shape[1]))[None, :]
    out[:, 1:] = nb * grid[:, :-1]
    return out


def apply_spin(grid: np.ndarray, which: str) -> np.ndarray:
    """Apply the Schwinger-mapped J_x, J_y or J_z to a Fock grid."""
    if which == "x":
        return 0.5 * (_apply_adag(_apply_b(grid)) + _apply_bdag(_apply_a(grid)))
    if which == "y":
        return -0.5j * (_apply_adag(_apply_b(grid)) - _apply_bdag(_apply_a(grid)))
    if which == "z":
        na = np.arange(grid.shape[0])[:, None]
        nb = np.arange(grid.shape[1])[None, :]
        return 0.5 * (na - nb) * grid
    raise DomainError(f"unknown spin component {which!r}")


def spin_moments(state: TwoModeState):
    """Mean <J_i> and covariance of the Schwinger angular momentum, computed
    directly on the two-mode grid (no subspace projection)."""
    return _moments(state.amps, [apply_spin(state.amps, w) for w in ("x", "y", "z")])


def schwinger_operators(j: HalfInt) -> OperatorSet:
    """J_mu built from mode operators on the N = 2J subspace; coincides with
    the canonical spin matrices under n_a = J + m, n_b = J - m."""
    n = j.twice_j
    dim = j.dim
    # basis vectors of the subspace as Fock grids, ordered m = +J .. -J
    jx = np.zeros((dim, dim), dtype=complex)
    jy = np.zeros((dim, dim), dtype=complex)
    jz = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        grid = np.zeros((n + 1, n + 1), dtype=complex)
        grid[n - col, col] = 1.0          # n_a = J + m = n - col
        for mat, w in ((jx, "x"), (jy, "y"), (jz, "z")):
            out = apply_spin(grid, w)
            for row in range(dim):
                mat[row, col] = out[n - row, row]
    jplus = jx + 1j * jy
    jminus = jx - 1j * jy
    jsq = jx @ jx + jy @ jy + jz @ jz
    return OperatorSet(j=j, jx=jx, jy=jy, jz=jz, jplus=jplus, jminus=jminus, jsq=jsq)


def decompose(state: TwoModeState, weight_floor: float = 1e-15) -> SubspaceDecomposition:
    """Group amplitudes by total photon number N; each block is a spin-J
    state with J = N/2 after normalization.

    Block N is the anti-diagonal n_a + n_b = N of the grid, read from
    n_a = min(N, na_max) down, i.e. idx = J - m = n_b upwards.
    """
    grid = state.amps
    na_max = grid.shape[0] - 1
    nb_max = grid.shape[1] - 1
    flipped = np.fliplr(grid)
    comps = []
    for n in range(na_max + nb_max + 1):
        diag = flipped.diagonal(nb_max - n)[::-1]
        first = max(0, n - na_max)           # idx where n_a = min(N, na_max)
        amps = np.zeros(n + 1, dtype=complex)
        amps[first:first + diag.size] = diag
        weight = float(np.sum(np.abs(amps) ** 2))
        if weight > weight_floor:
            j = HalfInt(n)
            comps.append(SubspaceComponent(
                j=j, weight=weight,
                state=SpinState(j, amps / math.sqrt(weight)),
                n_cut=n + 1 - diag.size))
    return SubspaceDecomposition(components=tuple(comps), neglected=state.neglected)


def hypergeometric_check(j: HalfInt, alpha: complex, lam: complex) -> float:
    """Max relative residual between the J-block Majorana polynomial of the
    coherent+squeezed state and its confluent-hypergeometric closed form, at
    20 points of |z| = 0.9 with phases drawn from seed 5.

    For x = -alpha^2 z^2 / (2 lam): integer J matches 1F1(-J; 1/2; x) and
    half-odd J matches z * 1F1(-(J-1/2); 3/2; x), up to one overall constant.
    """
    from scipy.special import hyp1f1

    alpha = complex(alpha)
    lam = complex(lam)
    if abs(lam) >= 1.0 or lam == 0.0:
        raise DomainError("need 0 < |lam| < 1")
    xi = math.atanh(abs(lam)) * (lam / abs(lam))
    n_max = max(default_n_max(abs(alpha) ** 2), j.twice_j + 2)
    nb = max(_squeezed_cutoff(abs(lam)), j.twice_j + 2)
    state = coherent_plus_squeezed(alpha, xi, n_max, n_max_b=nb)
    block = decompose(state).component(j)
    poly = majorana_poly(block.state)

    rng = np.random.default_rng(5)
    zs = 0.9 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 20))

    def closed_form(z):
        x = -(alpha ** 2) * z ** 2 / (2.0 * lam)
        if j.twice_j % 2 == 0:
            return hyp1f1(-j.j, 0.5, x)
        return z * hyp1f1(-(j.j - 0.5), 1.5, x)

    got = np.array([poly(z) for z in zs])
    want = np.array([closed_form(z) for z in zs])
    # fix the single overall constant on the largest sample
    k = int(np.argmax(np.abs(want)))
    scale = got[k] / want[k]
    resid = np.abs(got - scale * want) / max(np.max(np.abs(got)), 1e-300)
    return float(np.max(resid))


def _squeezed_cutoff(abs_lam: float) -> int:
    """Even cutoff so that the squeezed-vacuum tail is below the budget."""
    if abs_lam < 1e-8:
        return 4
    k = int(math.ceil(math.log(_TRUNCATION_BUDGET * (1.0 - abs_lam ** 2) * 0.1)
                      / math.log(abs_lam ** 2)))
    return 2 * max(k, 2) + 2


def squeezed_n_max(xi: complex) -> int:
    """Suggested mode-b cutoff for coherent_plus_squeezed."""
    lam = math.tanh(abs(complex(xi)))
    return _squeezed_cutoff(lam)
