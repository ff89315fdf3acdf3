"""Reference computations and output checks, independent of spinsense.

Everything here is built from numpy and scipy alone: spin matrices from the
ladder-operator formula, rotations by ``scipy.linalg.expm``, coherent-state
amplitudes from the binomial formula, and Fisher information from finite
differences of the rotated state.  The checks compare spinsense outputs with
these numbers or with properties the method must have; none of them compares
with a stored copy of an earlier output.

Conventions follow the library's documented ones: basis order m = +J ... -J,
rotations R = exp(-i theta J.n) with n = (sin T cos F, sin T sin F, cos T).
"""

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import comb
from scipy.stats import chi2, t

# Tolerances.  Each is set so that a correct program fails it with
# negligible probability on any seed, and a perturbed output fails it.
MOMENT_TOL = 1e-6        # King mean spin and covariance entries (abs)
AVG_VAR_RTOL = 1e-6      # avg_variance against its closed forms (rel)
HUSIMI_ZERO_TOL = 1e-9   # Husimi value at the zero paired with a simple star
STAR_ANGLE_TOL = 1e-6    # rad; coherent and NOON star positions
GREAT_CIRCLE_TOL = 1e-6  # max |n . u| for the best-fitting plane normal u
GRID_ATOL = 1e-12        # husimi_grid against independent overlaps
STUDY_ALPHA = 1e-6       # two-sided false-alarm rate of the study checks
STUDY_EXCESS = 0.15      # allowed estimator inefficiency above the bound
STUDY_DEFICIT = 0.05     # allowed shortfall below the bound (finite-shot bias)
FD_STEP = 1e-6           # finite-difference step in the rotation angles


# --- spin tools --------------------------------------------------------------

def spin_matrices(twice_j: int):
    """(Jx, Jy, Jz) in the basis m = +J ... -J."""
    j = twice_j / 2.0
    m = j - np.arange(twice_j + 1)
    jp = np.zeros((twice_j + 1, twice_j + 1), dtype=complex)
    for i in range(1, twice_j + 1):
        jp[i - 1, i] = math.sqrt(j * (j + 1.0) - m[i] * (m[i] + 1.0))
    jm = jp.conj().T
    return (jp + jm) / 2.0, (jp - jm) / 2.0j, np.diag(m).astype(complex)


def unit_vector(polar: float, azimuth: float) -> np.ndarray:
    s = math.sin(polar)
    return np.array([s * math.cos(azimuth), s * math.sin(azimuth), math.cos(polar)])


def rotate(twice_j: int, psi: np.ndarray, params) -> np.ndarray:
    """exp(-i theta J.n(cap_theta, cap_phi)) psi by matrix exponential."""
    theta, cap_theta, cap_phi = params
    jx, jy, jz = spin_matrices(twice_j)
    n = unit_vector(cap_theta, cap_phi)
    return expm(-1j * theta * (n[0] * jx + n[1] * jy + n[2] * jz)) @ psi


def coherent_amps(twice_j: int, polar: float, azimuth: float) -> np.ndarray:
    """+J eigenstate of J.n: sqrt(C(2J, k)) cos^(2J-k) sin^k e^{i k azimuth},
    k = J - m, half-angles of ``polar``."""
    k = np.arange(twice_j + 1)
    c, s = math.cos(polar / 2.0), math.sin(polar / 2.0)
    return np.sqrt(comb(twice_j, k)) * c ** (twice_j - k) * s ** k * np.exp(1j * k * azimuth)


def king_j3() -> np.ndarray:
    """(|3 2> + |3 -2>)/sqrt(2): m* = sqrt(J(J+1)/3) = 2 is admissible at J = 3."""
    psi = np.zeros(7, dtype=complex)
    psi[1] = psi[5] = 1.0 / math.sqrt(2.0)
    return psi


def moments(twice_j: int, psi: np.ndarray):
    """Mean spin vector and symmetrised covariance of a normalised state."""
    ops = spin_matrices(twice_j)
    jpsi = [o @ psi for o in ops]
    mean = np.array([np.vdot(psi, v).real for v in jpsi])
    cov = np.array([[np.vdot(a, b).real for b in jpsi] for a in jpsi])
    return mean, cov - np.outer(mean, mean)


def husimi_values(psi: np.ndarray, polar, azimuth) -> np.ndarray:
    """|<n|psi>|^2 at arrays of directions (same shape)."""
    n = len(psi) - 1
    polar = np.asarray(polar, dtype=float)
    azimuth = np.asarray(azimuth, dtype=float)
    k = np.arange(n + 1)
    c = np.cos(polar / 2.0)[..., None]
    s = np.sin(polar / 2.0)[..., None]
    amps = (np.sqrt(comb(n, k)) * c ** (n - k) * s ** k
            * np.exp(1j * k * azimuth[..., None]))
    return np.abs(amps.conj() @ psi) ** 2


# --- Fisher information and bounds -------------------------------------------

def _fd_derivatives(fn, params):
    """Central differences of fn in each of the three rotation parameters."""
    x = np.asarray(params, dtype=float)
    out = []
    for k in range(3):
        up, dn = x.copy(), x.copy()
        up[k] += FD_STEP
        dn[k] -= FD_STEP
        out.append((fn(up) - fn(dn)) / (2.0 * FD_STEP))
    return out


def qcrb(twice_j: int, psi0: np.ndarray, params, n_shots: int) -> np.ndarray:
    """Quantum Cramer-Rao covariance bound from the pure-state QFI
    4 Re(<d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi>)."""
    psi = rotate(twice_j, psi0, params)
    d = _fd_derivatives(lambda p: rotate(twice_j, psi0, p), params)
    q = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            q[a, b] = 4.0 * (np.vdot(d[a], d[b])
                             - np.vdot(d[a], psi) * np.vdot(psi, d[b])).real
    return np.linalg.inv(q) / n_shots


def husimi_design_crb(twice_j: int, psi0: np.ndarray, params, directions,
                      n_shots: int) -> np.ndarray:
    """Classical Cramer-Rao bound of binary coherent-state samplers, one per
    direction, each with an equal share of the shots."""
    probes = [coherent_amps(twice_j, pol, az) for pol, az in directions]

    def hit_probs(p):
        psi = rotate(twice_j, psi0, p)
        return np.array([abs(np.vdot(c, psi)) ** 2 for c in probes])

    p = hit_probs(params)
    dp = np.array(_fd_derivatives(hit_probs, params))        # (3, n_dirs)
    weights = 1.0 / (p * (1.0 - p)) / len(probes)
    fi = (dp * weights) @ dp.T
    return np.linalg.inv(fi) / n_shots


# --- study check -------------------------------------------------------------

def pool_reports(reports, truth):
    """Pool per-round study reports (ddof-0 covariances and mean estimates)
    into the trial count, mean deviation and covariance of all trials."""
    truth = np.asarray(truth, dtype=float)
    n_tot, first, second = 0, np.zeros(3), np.zeros((3, 3))
    for rep in reports:
        n = rep["n_trials"] - rep["n_failed"]
        est = rep["estimate"]
        m = np.array([est["theta"], est["cap_theta"], est["cap_phi"]]) - truth
        m[2] = (m[2] + math.pi) % (2.0 * math.pi) - math.pi
        cov = np.array(rep["empirical_cov"])
        n_tot += n
        first += n * m
        second += n * (cov + np.outer(m, m))
    mean = first / n_tot
    return n_tot, mean, second / n_tot - np.outer(mean, mean)


def study_limits(bound: np.ndarray, n: int):
    """Acceptance interval for tr(cov)/tr(bound) of n efficient estimates.

    n tr(S) is a sum of chi-square(n-1) variables weighted by the bound's
    eigenvalues; it is matched to a scaled chi-square with
    nu = (n-1) (sum l)^2 / sum l^2 degrees of freedom (Satterthwaite).
    """
    lam = np.linalg.eigvalsh(bound)
    nu = (n - 1) * lam.sum() ** 2 / np.sum(lam ** 2)
    scale = (n - 1) / (n * nu)
    lo = chi2.ppf(STUDY_ALPHA / 2.0, nu) * scale * (1.0 - STUDY_DEFICIT)
    hi = chi2.ppf(1.0 - STUDY_ALPHA / 2.0, nu) * scale * (1.0 + STUDY_EXCESS)
    return lo, hi


def check_study(n: int, mean: np.ndarray, cov: np.ndarray, bound: np.ndarray):
    """Empirical covariance trace within the bound's statistical interval,
    and every mean deviation within a Student-t quantile of zero.

    ``cov`` is the ddof-0 covariance of ``n`` estimates.  Returns
    (ok, details)."""
    ratio = float(np.trace(cov) / np.trace(bound))
    lo, hi = study_limits(bound, n)
    limit = float(t.isf(STUDY_ALPHA / 6.0, n - 1))   # two-sided, three parameters
    se = np.sqrt(np.diag(cov) / (n - 1))
    bias_t = np.abs(mean) / np.maximum(se, 1e-300)
    ok = bool(lo <= ratio <= hi and np.all(bias_t <= limit))
    return ok, {"trace_ratio": ratio, "ratio_limits": [lo, hi],
                "bias_t": bias_t.tolist(), "bias_t_limit": limit, "n": n}


# --- probe survey checks -----------------------------------------------------

def check_king(twice_j: int, psi: np.ndarray) -> bool:
    """Zero mean spin and covariance J(J+1)/3 times the identity."""
    j = twice_j / 2.0
    mean, cov = moments(twice_j, psi)
    return bool(np.max(np.abs(mean)) <= MOMENT_TOL
                and np.max(np.abs(cov - j * (j + 1.0) / 3.0 * np.eye(3))) <= MOMENT_TOL)


def king_avg_variance(twice_j: int) -> float:
    j = twice_j / 2.0
    return 3.0 / (4.0 * j * (j + 1.0))


def noon_avg_variance(twice_j: int) -> float:
    """Closed form for (|J J> - |J -J>)/sqrt(2), valid for 2J >= 3."""
    j = twice_j / 2.0
    r = math.sqrt(2.0 * j - 1.0)
    return math.atan(r) / (2.0 * j * r)


def check_avg_variance(value: float, expected: float) -> bool:
    return bool(abs(value - expected) <= AVG_VAR_RTOL * expected)


def chordal(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def husimi_zero_of_star(polar: float, azimuth: float):
    """The library places the stars of a coherent state along (polar,
    azimuth) at the mirror point (polar, azimuth + pi); the Husimi function
    of any state then vanishes at (pi - polar, azimuth) for each star."""
    return math.pi - polar, azimuth


def check_constellation(twice_j: int, psi: np.ndarray, stars) -> bool:
    """stars: list of (polar, azimuth, multiplicity).  Multiplicities sum to
    2J, and the Husimi function vanishes at the point paired with each
    simple star.  Multiple stars are checked by the dedicated position
    checks, because the Husimi function is too flat there to place them."""
    if sum(m for _, _, m in stars) != twice_j:
        return False
    simple = [(p, a) for p, a, m in stars if m == 1]
    if not simple:
        return True
    zeros = np.array([husimi_zero_of_star(p, a) for p, a in simple])
    q = husimi_values(psi, zeros[:, 0], zeros[:, 1])
    return bool(np.max(q) <= HUSIMI_ZERO_TOL)


def check_coherent_constellation(twice_j: int, polar: float, azimuth: float,
                                 stars) -> bool:
    """One star of multiplicity 2J at the mirror point (polar, azimuth + pi)."""
    if len(stars) != 1 or stars[0][2] != twice_j:
        return False
    want = unit_vector(polar, azimuth + math.pi)
    return chordal(unit_vector(stars[0][0], stars[0][1]), want) <= STAR_ANGLE_TOL


def check_noon_constellation(twice_j: int, stars) -> bool:
    """2J simple stars on the equator, equally spaced in azimuth."""
    if len(stars) != twice_j or any(m != 1 for _, _, m in stars):
        return False
    polar = np.array([p for p, _, _ in stars])
    az = np.sort(np.array([a for _, a, _ in stars]) % (2.0 * math.pi))
    gaps = np.diff(np.append(az, az[0] + 2.0 * math.pi))
    return bool(np.max(np.abs(polar - math.pi / 2.0)) <= STAR_ANGLE_TOL
                and np.max(np.abs(gaps - 2.0 * math.pi / twice_j)) <= STAR_ANGLE_TOL)


def check_great_circle(stars) -> bool:
    """All stars (with multiplicity) lie on one great circle."""
    pts = np.array([unit_vector(p, a) for p, a, m in stars for _ in range(m)])
    if len(pts) < 3:
        return True
    _, vecs = np.linalg.eigh(pts.T @ pts)
    return bool(np.max(np.abs(pts @ vecs[:, 0])) <= GREAT_CIRCLE_TOL)


def check_husimi_grid(psi: np.ndarray, polar, azimuth, q) -> bool:
    """Grid values equal independent overlaps at the grid's own points."""
    pp, aa = np.meshgrid(np.asarray(polar), np.asarray(azimuth), indexing="ij")
    want = husimi_values(psi, pp, aa)
    q = np.asarray(q)
    return bool(q.shape == want.shape and np.max(np.abs(q - want)) <= GRID_ATOL)
