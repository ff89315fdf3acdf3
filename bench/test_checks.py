"""Each reference check accepts a right output and rejects a deliberately
perturbed one.  Run with ``python3 -m pytest bench`` from the repo root."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import reference as ref  # noqa: E402

MOVE = 1e-3   # rad; the star displacement every star check must catch


def _moved(star, d=MOVE):
    polar, azimuth, mult = star
    return (polar + d if polar + d <= math.pi else polar - d, azimuth, mult)


# --- spin tools ----------------------------------------------------------------

@pytest.mark.parametrize("twice_j", [1, 4, 7])
def test_coherent_amps_are_top_eigenvectors(twice_j):
    jx, jy, jz = ref.spin_matrices(twice_j)
    n = ref.unit_vector(1.1, 2.0)
    psi = ref.coherent_amps(twice_j, 1.1, 2.0)
    np.testing.assert_allclose((n[0] * jx + n[1] * jy + n[2] * jz) @ psi,
                               twice_j / 2.0 * psi, atol=1e-12)


def test_rotation_moves_coherent_state_along_its_axis():
    # exp(-i theta Jz) shifts the azimuth of a coherent state by theta
    psi = ref.coherent_amps(6, 0.7, 0.2)
    rotated = ref.rotate(6, psi, (0.5, 0.0, 0.0))
    assert abs(abs(np.vdot(ref.coherent_amps(6, 0.7, 0.7), rotated)) - 1.0) < 1e-12


def test_classical_bound_is_above_quantum_bound():
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    psi /= np.linalg.norm(psi)
    params = (0.9, 1.2, 0.7)
    dirs = [(0.8, 0.4), (1.9, 2.1), (1.2, 4.4), (2.6, 5.6)]
    gap = ref.husimi_design_crb(4, psi, params, dirs, 1) - ref.qcrb(4, psi, params, 1)
    assert np.linalg.eigvalsh(gap)[0] > 0.0


def test_king_j3_bound_matches_isotropic_covariance():
    # QFI = G^T (4 C) G with C = J(J+1)/3 I, so tr QFI = 16 |g|^2 summed
    q = np.linalg.inv(ref.qcrb(6, ref.king_j3(), (0.8, 1.1, 2.3), 1))
    t = 0.8
    assert abs(q[0, 0] - 16.0) < 1e-6                       # 4 * 4 * |n|^2
    assert abs(q[1, 1] - 16.0 * 4.0 * math.sin(t / 2) ** 2) < 1e-5


# --- probe survey checks --------------------------------------------------------

def test_king_check():
    psi = ref.king_j3()
    assert ref.check_king(6, psi)
    bad = psi + 1e-3 * ref.coherent_amps(6, 0.4, 0.0)
    assert not ref.check_king(6, bad / np.linalg.norm(bad))
    assert not ref.check_king(6, ref.coherent_amps(6, 0.4, 0.0))


def test_avg_variance_checks():
    assert ref.check_avg_variance(0.125, ref.king_avg_variance(4))
    assert not ref.check_avg_variance(0.125 * (1 + 1e-5), ref.king_avg_variance(4))
    v = ref.noon_avg_variance(3)
    assert abs(v - math.atan(math.sqrt(2)) / (3 * math.sqrt(2))) < 1e-15
    assert not ref.check_avg_variance(v * (1 - 1e-5), v)


def _spinsense_stars(twice_j, amps):
    import spinsense as ss
    con = ss.constellation(ss.SpinState(ss.HalfInt(twice_j), amps))
    return [(s.point.polar, s.point.azimuth, s.multiplicity) for s in con.stars]


def _random_state_20():
    rng = np.random.default_rng([5, 20])
    psi = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    psi /= np.linalg.norm(psi)
    stars = _spinsense_stars(20, psi)
    assert ref.check_constellation(20, psi, stars)
    return psi, stars


def test_constellation_check_catches_a_moved_star():
    psi, stars = _random_state_20()
    assert not ref.check_constellation(20, psi, [_moved(stars[0])] + stars[1:])
    assert not ref.check_constellation(20, psi, stars[1:])        # multiplicity sum


def test_constellation_check_catches_spurious_polar_stars():
    # two true stars of a right constellation replaced by stars at the poles
    psi, stars = _random_state_20()
    polar = [(0.0, 0.0, 1), (math.pi, 0.0, 1)]
    assert not ref.check_constellation(20, psi, stars[2:] + polar)


def test_coherent_constellation_check():
    star = (0.7, 2.0 + math.pi, 9)
    assert ref.check_coherent_constellation(9, 0.7, 2.0, [star])
    assert not ref.check_coherent_constellation(9, 0.7, 2.0, [_moved(star)])
    assert not ref.check_coherent_constellation(9, 0.7, 2.0,
                                                [(0.7, 2.0 + math.pi, 8), _moved(star)[:2] + (1,)])


def test_noon_constellation_check():
    stars = [(math.pi / 2, 2 * math.pi * (k + 0.5) / 12, 1) for k in range(12)]
    assert ref.check_noon_constellation(12, stars)
    assert not ref.check_noon_constellation(12, [_moved(stars[0])] + stars[1:])
    moved_az = [(stars[0][0], stars[0][1] + MOVE, 1)] + stars[1:]
    assert not ref.check_noon_constellation(12, moved_az)


def test_great_circle_check():
    u = np.array([0.3, -0.5, 0.81])
    u /= np.linalg.norm(u)
    a = np.cross(u, [1.0, 0.0, 0.0])
    a /= np.linalg.norm(a)
    b = np.cross(u, a)
    pts = [math.cos(t) * a + math.sin(t) * b for t in (0.1, 0.9, 2.0, 4.0)]
    stars = [(math.acos(p[2]), math.atan2(p[1], p[0]) % (2 * math.pi), 1) for p in pts]
    assert ref.check_great_circle(stars)
    assert not ref.check_great_circle([_moved(stars[0])] + stars[1:])


def test_husimi_grid_check():
    import spinsense as ss
    king = ss.king_state(ss.HalfInt(4))
    grid = ss.husimi_grid(king, 16, 32)
    assert ref.check_husimi_grid(king.amps, grid.polar, grid.azimuth, grid.q)
    q = grid.q.copy()
    q[3, 5] += 1e-9
    assert not ref.check_husimi_grid(king.amps, grid.polar, grid.azimuth, q)


# --- study checks -----------------------------------------------------------

KING_BOUND = ref.qcrb(6, ref.king_j3(), (0.8, 1.1, 2.3), 10_000)


def test_study_check_accepts_the_bound_and_rejects_double():
    n = 100                          # a king_pvm run makes 140 to 190 trials
    assert ref.check_study(n, np.zeros(3), KING_BOUND, KING_BOUND)[0]
    assert not ref.check_study(n, np.zeros(3), 2.0 * KING_BOUND, KING_BOUND)[0]
    assert not ref.check_study(n, np.zeros(3), 0.5 * KING_BOUND, KING_BOUND)[0]


def test_study_check_rejects_bias():
    n = 100
    se = np.sqrt(np.diag(KING_BOUND) / n)
    shift = np.array([0.0, 7.0 * se[1], 0.0])
    assert not ref.check_study(n, shift, KING_BOUND, KING_BOUND)[0]


def test_study_check_husimi_power():
    # a husimi_gps run makes 24 to 32 trials: tripling is caught, doubling
    # is not (the README states this limit)
    psi = np.array([complex(0.000394688, 0.409134), complex(0.0324599, 0.0448131),
                    complex(0.494021, 0.484609), complex(0.483644, 0.114779),
                    complex(0.100279, 0.305783)])
    psi /= np.linalg.norm(psi)
    dirs = [(0.8, 0.4), (1.9, 2.1), (1.2, 4.4), (2.6, 5.6)]
    bound = ref.husimi_design_crb(4, psi, (0.9, 1.2, 0.7), dirs, 400_000)
    assert ref.check_study(24, np.zeros(3), bound, bound)[0]
    assert not ref.check_study(24, np.zeros(3), 3.0 * bound, bound)[0]


@pytest.mark.parametrize("n", [4, 16, 100])
def test_study_check_false_alarms_are_rare(n):
    rng = np.random.default_rng(11)
    chol = np.linalg.cholesky(KING_BOUND)
    for _ in range(300):
        d = rng.standard_normal((n, 3)) @ chol.T
        assert ref.check_study(n, d.mean(0), np.cov(d.T, ddof=0), KING_BOUND)[0]


def test_pool_reports_equals_all_trials():
    rng = np.random.default_rng(2)
    truth = np.array([0.8, 1.1, 2.3])
    d = rng.standard_normal((30, 3)) * 0.01
    reports = []
    for part in (d[:7], d[7:19], d[19:]):
        m = part.mean(0)
        est = truth + m
        reports.append({"n_trials": len(part), "n_failed": 0,
                        "estimate": {"theta": est[0], "cap_theta": est[1], "cap_phi": est[2]},
                        "empirical_cov": np.cov(part.T, ddof=0).tolist()})
    n, mean, cov = ref.pool_reports(reports, truth)
    assert n == 30
    np.testing.assert_allclose(mean, d.mean(0), atol=1e-14)
    np.testing.assert_allclose(cov, np.cov(d.T, ddof=0), atol=1e-14)


# --- tracing and the run script ----------------------------------------------

def test_tracer_restores_and_nests():
    import spinsense as ss
    import spinsense.cli  # noqa: F401  (the tracer wraps cli and serialize too)
    from spinsense import estimation, su2
    import spans
    orig = su2.rotation_unitary
    probe = ss.king_state(ss.HalfInt(6))
    params = ss.RotationParams(0.8, 1.1, 2.3)
    exp = estimation.optimal_pvm_experiment(probe, params)
    counts = [np.full(5, 10.0), np.full(5, 10.0)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        exp.loglik(counts, params)
    finally:
        tracer.uninstall()
    assert su2.rotation_unitary is orig and estimation.rotation_unitary is orig
    names = tracer.names
    assert names[0] == "estimation.loglik"
    ru = names.index("su2.rotation_unitary")
    assert names[tracer.parent[ru]] == "estimation.stage_probabilities"


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "king_pvm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
