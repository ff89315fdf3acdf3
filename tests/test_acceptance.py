"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import DEMO_J2_AMPS, random_pure_state
from spinsense.cli import main as cli_main
from spinsense.errors import NonIdentifiableError
from spinsense.estimation import (born_derivatives, husimi_experiment,
                                  monte_carlo_qcrb, optimal_pvm)
from spinsense.majorana import constellation
from spinsense.metrology import (_qfi_from_frame, avg_variance, classical_fi,
                                 cov_matrix, crb, qfi_rotation_matrix,
                                 singular_diagnosis)
from spinsense.states import (BlochPoint, SpinState, balanced_state, basis_state,
                              coherent_state, king_state, noon_state)
from spinsense.su2 import (HalfInt, RotationParams, cartesian_frame, compose,
                           generator_frame, make_operators, numerical_generator,
                           rotation_unitary, so3_matrix)
from spinsense.twomode import (coherent_plus_squeezed, decompose, default_n_max,
                               spin_moments, squeezed_n_max, two_mode_coherent)

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} [{text}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} [{text}]: PASS")


def test_criterion_01_closed_form_covariances():
    with criterion(1, "closed-form covariance suite, J <= 10, 1e-10, < 1 s"):
        start = time.perf_counter()
        tol = 1e-10
        for twice_j in range(1, 21):
            j = HalfInt(twice_j)
            jj = j.j * (j.j + 1.0)
            # coherent at the north pole: diag(J/2, J/2, 0)
            c = cov_matrix(coherent_state(j, BlochPoint(0.0, 0.0))).c
            assert np.max(np.abs(c - np.diag([j.j / 2, j.j / 2, 0.0]))) < tol
            # |J m>: diag((J^2+J-m^2)/2, ..., 0)
            for m in j.m_values():
                c = cov_matrix(basis_state(j, m)).c
                expect = np.diag([(jj - m * m) / 2, (jj - m * m) / 2, 0.0])
                assert np.max(np.abs(c - expect)) < tol
            # NOON: diag(J/2, J/2, J^2); admissible J >= 3/2 (below that the
            # extreme-projection pair is bridged by J_+^2 and the state
            # degenerates to a rotated eigenstate)
            if twice_j >= 3:
                c = cov_matrix(noon_state(j)).c
                expect = np.diag([j.j / 2, j.j / 2, j.j ** 2])
                assert np.max(np.abs(c - expect)) < tol
            # balanced: diag((J^2+J-m^2)/2, ..., m^2) for admissible m > 1
            for m in j.m_values():
                if m > 1.0:
                    c = cov_matrix(balanced_state(j, m)).c
                    expect = np.diag([(jj - m * m) / 2, (jj - m * m) / 2, m * m])
                    assert np.max(np.abs(c - expect)) < tol
        # King at J = 3 through the balanced shortcut
        c = cov_matrix(king_state(HalfInt(6))).c
        assert np.max(np.abs(c - 4.0 * np.eye(3))) < tol
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"covariance suite took {elapsed:.2f} s"


def test_criterion_02_trace_inverse_bound():
    with criterion(2, "Tr C^-1 >= 9/(J(J+1)) on 4000 Haar states, < 10 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for twice_j in (2, 4, 6, 10):
            j = HalfInt(twice_j)
            floor = 9.0 / (j.j * (j.j + 1.0))
            for _ in range(1000):
                c = cov_matrix(random_pure_state(j, rng))
                assert c.trace_inverse() >= floor - 1e-10
        king = cov_matrix(king_state(HalfInt(6)))
        assert abs(king.trace_inverse() - 0.75) < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"bound suite took {elapsed:.2f} s"


def test_criterion_03_generator_suite():
    with criterion(3, "analytic g-vectors vs integral/FD oracle, 1e-7"):
        rng = np.random.default_rng(33)
        for _ in range(100):
            twice_j = int(rng.integers(1, 7))
            j = HalfInt(twice_j)
            p = RotationParams(rng.uniform(0.05, 2.9), rng.uniform(0.05, 3.0),
                               rng.uniform(0.0, 2.0 * math.pi))
            ops = make_operators(j)
            frame = generator_frame(p)
            gs = (frame.g_theta, frame.g_cap_theta, frame.g_cap_phi)
            k = int(rng.integers(0, 3))
            oracle = numerical_generator(j, p, k)
            assert np.max(np.abs(oracle - ops.along(gs[k]))) < 1e-7
            # orthogonality and norm identities
            s = 2.0 * abs(math.sin(p.theta / 2.0))
            assert abs(np.linalg.norm(frame.g_theta) - 1.0) < 1e-10
            assert abs(np.linalg.norm(frame.g_cap_theta) - s) < 1e-10
            assert abs(np.linalg.norm(frame.g_cap_phi)
                       - s * math.sin(p.cap_theta)) < 1e-10
            assert abs(frame.g_theta @ frame.g_cap_theta) < 1e-10
            assert abs(frame.g_theta @ frame.g_cap_phi) < 1e-10
            assert abs(frame.g_cap_theta @ frame.g_cap_phi) < 1e-10


def test_criterion_04_qfi_equivalence():
    with criterion(4, "QFI matrix vs finite-difference formula, 1e-6"):
        rng = np.random.default_rng(44)
        for _ in range(20):
            j = HalfInt(int(rng.integers(2, 9)))
            st = random_pure_state(j, rng)
            p = RotationParams(rng.uniform(0.3, 2.8), rng.uniform(0.3, 2.8),
                               rng.uniform(0.0, 2.0 * math.pi))
            got = qfi_rotation_matrix(st, p).q
            assert np.max(np.abs(got - _fd_qfi(st, p))) < 1e-6
        # det Q / (theta^4 sin^2 T) approaches 64 det C as theta -> 0
        st = random_pure_state(HalfInt(6), rng)
        det_c = cov_matrix(st).det()
        cap_t, cap_f = 1.0, 2.2

        def scaled_det(theta):
            q = qfi_rotation_matrix(st, RotationParams(theta, cap_t, cap_f)).q
            return np.linalg.det(q) / (theta ** 4 * math.sin(cap_t) ** 2)

        f1, f2, f3 = scaled_det(0.1), scaled_det(0.05), scaled_det(0.025)
        assert abs(f3 - f2) < 0.01 * abs(f2)
        limit = (f1 - 6.0 * f2 + 8.0 * f3) / 3.0
        assert abs(limit - 64.0 * det_c) < 0.01 * abs(64.0 * det_c)


def _fd_qfi(state, p, h=1e-5):
    ops = make_operators(state.j)

    def psi(raw):
        t, ct, cp = raw
        s = math.sin(ct)
        w = t * np.array([s * math.cos(cp), s * math.sin(cp), math.cos(ct)])
        vals, vecs = np.linalg.eigh(ops.along(w))
        return ((vecs * np.exp(-1j * vals)) @ vecs.conj().T) @ state.amps

    raw0 = p.as_array()
    base = psi(raw0)
    derivs = []
    for i in range(3):
        up, dn = raw0.copy(), raw0.copy()
        up[i] += h
        dn[i] -= h
        derivs.append((psi(up) - psi(dn)) / (2.0 * h))
    q = np.zeros((3, 3))
    for i in range(3):
        for k in range(3):
            q[i, k] = 4.0 * np.real(np.vdot(derivs[i], derivs[k])) \
                + 4.0 * np.real(np.vdot(derivs[i], base) * np.vdot(derivs[k], base))
    return q


@pytest.mark.parametrize("twice_j", [2, 4, 8, 16])
def test_criterion_05_average_variance_noon(twice_j):
    jj = twice_j / 2.0
    # The closed form rests on the covariance diag(J/2, J/2, J^2), which holds
    # only for 2J >= 3 (criterion 01).  For 2J <= 2, J_+^{2J} bridges m = +J
    # and m = -J and the pair is a rotated eigenstate.  At J = 1,
    # J_x (|1 1> - |1 -1>)/sqrt(2) = 0, so the covariance is exactly
    # diag(0, 1, 1), Q(n) = 4 (1 - n_x^2), and the axis average
    # (1/8) int_{-1}^{1} du / (1 - u^2) diverges.
    if twice_j >= 3:
        expect = math.atan(math.sqrt(2 * jj - 1)) / (2 * jj * math.sqrt(2 * jj - 1))
    else:
        expect = math.inf
    with criterion(5, f"avg variance of the extreme-pair state, J = {jj}"):
        state = noon_state(HalfInt(twice_j))
        if twice_j == 2:
            c = cov_matrix(state).c
            assert np.max(np.abs(c - np.diag([0.0, 1.0, 1.0]))) < 1e-10
        got = avg_variance(state)
        if math.isinf(expect):
            assert got == math.inf, f"avg_variance = {got!r}, expected inf"
        else:
            assert abs(got - expect) < 1e-6, (
                f"avg_variance = {got!r}, closed form {expect!r}")


def test_criterion_05_average_variance_rest():
    with criterion(5, "avg variance: eigenstates divergent, King = 1/16"):
        rng = np.random.default_rng(55)
        st = basis_state(HalfInt(6), 2).rotate(
            RotationParams(rng.uniform(0.2, 2.8), rng.uniform(0.2, 2.8),
                           rng.uniform(0.0, 2.0 * math.pi)))
        assert avg_variance(st) == math.inf
        assert abs(avg_variance(king_state(HalfInt(6))) - 1.0 / 16.0) < 1e-6


def test_criterion_06_pvm_saturation():
    with criterion(6, "optimal-PVM classical FI equals QFI, 1e-5"):
        j = HalfInt(6)
        probe = king_state(j)
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = RotationParams(rng.uniform(0.3, 2.6), rng.uniform(0.4, 2.7),
                               rng.uniform(0.0, 2.0 * math.pi))
            while True:
                u = rng.standard_normal(3)
                u /= np.linalg.norm(u)
                if np.min(u ** 2) > 0.1:
                    break
            q = qfi_rotation_matrix(probe, p).q
            ref = SpinState(j, rotation_unitary(j, p) @ probe.amps)
            pvm = optimal_pvm(ref)

            def fi_at(eps):
                pt = compose(p, RotationParams.from_omega(eps * u))
                probs, dp = born_derivatives(pvm, probe, pt)
                # completion outcome carries O(eps^4) weight; drop it so the
                # extrapolation sequence stays smooth
                return classical_fi(probs[:4], dp[:, :4]).q

            e0 = 4e-4
            f1, f2, f3 = fi_at(e0), fi_at(e0 / 2), fi_at(e0 / 4)
            limit = (f1 - 6.0 * f2 + 8.0 * f3) / 3.0
            assert np.max(np.abs(limit - q)) < 1e-5
        # second-order probability expansion around the reference
        pvm = optimal_pvm(probe)
        jj = 12.0
        u = np.array([0.3, -0.5, 0.81])
        u /= np.linalg.norm(u)
        for eps in (1e-2, 1e-3):
            pert = probe.rotate(RotationParams.from_omega(eps * u))
            p0 = pvm.probabilities(pert)[0]
            assert abs(p0 - (1.0 - eps * eps * jj / 3.0)) <= 5.0 * eps ** 3


def test_criterion_07_monte_carlo_saturation(tmp_path):
    with criterion(7, "Monte Carlo QCRB saturation, King vs NOON, < 5 min"):
        start = time.perf_counter()
        out = tmp_path / "king_report.json"
        code = cli_main(["simulate", str(ROOT / "configs" / "king_j3.json"),
                         "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        tr_emp = float(np.trace(np.array(report["empirical_cov"])))
        tr_bound = float(np.trace(np.array(report["crb_bound"])))
        assert report["n_failed"] == 0
        assert tr_emp <= 1.15 * tr_bound, (tr_emp, tr_bound)
        sigma = math.sqrt(2.0 / (report["n_trials"] - 1)) \
            * float(np.linalg.norm(np.array(report["empirical_cov"])))
        assert tr_emp >= tr_bound - 3.0 * sigma
        # the NOON probe under the identical protocol does strictly worse
        noon_rep = monte_carlo_qcrb(
            noon_state(HalfInt(6)), RotationParams(0.8, 1.1, 2.3),
            "optimal_pvm", n_shots=10_000, n_trials=500, seed=7)
        assert float(np.trace(noon_rep.empirical_cov)) > tr_emp
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"Monte Carlo suite took {elapsed:.0f} s"


def test_criterion_08_husimi_gps(tmp_path):
    with criterion(8, "Husimi orientation recovery, 4 directions, 100 trials"):
        probe = SpinState.from_amplitudes(HalfInt(4), DEMO_J2_AMPS)
        dirs = [BlochPoint(0.8, 0.4), BlochPoint(1.9, 2.1), BlochPoint(1.2, 4.4),
                BlochPoint(2.6, 5.6)]
        p_true = RotationParams(0.9, 1.2, 0.7)
        report = monte_carlo_qcrb(probe, p_true, "husimi",
                                  n_shots=400_000, n_trials=100, seed=21,
                                  directions=dirs)
        assert report.n_failed == 0
        se = np.sqrt(report.variance / (report.n_trials - report.n_failed))
        bias = np.sqrt(report.bias_sq)
        assert np.all(bias <= 3.0 * se), (bias, 3.0 * se)
        # 3-direction configurations are flagged, not silently wrong
        with pytest.raises(NonIdentifiableError):
            husimi_experiment(probe, dirs[:3])


def test_criterion_09_two_mode():
    with criterion(9, "two-mode covariances and great-circle constellations"):
        st = two_mode_coherent(2.0, 1.0, 40)
        _, cov = spin_moments(st)
        assert np.max(np.abs(cov - 1.25 * np.eye(3))) < 1e-6
        # coherent + squeezed: every sampled subspace constellation lies on
        # one great circle through the origin
        lam = 0.8
        alpha = math.sqrt(4.0 * lam)
        xi = math.atanh(lam)
        cs = coherent_plus_squeezed(alpha, xi, default_n_max(alpha ** 2),
                                    n_max_b=squeezed_n_max(xi))
        dec = decompose(cs)
        for n in (4, 9, 14, 19):
            pts = constellation(dec.component(HalfInt(n)).state).expanded()
            w, v = np.linalg.eigh(pts.T @ pts)
            assert np.max(np.abs(pts @ v[:, 0])) <= 1e-6
        # asymptotic covariance at J_a = J_b = 15: {4 Ja Jb, Jb/2, 2 Jb^2}
        # within 10% per entry (largest value sits on the x axis under the
        # standard Schwinger phase conventions)
        alpha2 = 30.0
        xi = math.asinh(math.sqrt(alpha2))
        big = coherent_plus_squeezed(math.sqrt(alpha2), xi, default_n_max(alpha2),
                                     n_max_b=squeezed_n_max(xi))
        _, cov = spin_moments(big)
        ja = jb = 15.0
        targets = np.array([4.0 * ja * jb, jb / 2.0, 2.0 * jb * jb])
        assert np.max(np.abs(np.diag(cov) - targets) / targets) < 0.10


def test_criterion_10_singularity_diagnostics():
    with criterion(10, "singular-QFI diagnosis and Cartesian repair"):
        # coherent probe: persistent rank-2 with the null direction mapping to
        # the probe's symmetry axis
        st = coherent_state(HalfInt(6), BlochPoint(0.7, 0.4))
        p = RotationParams(1.0, 1.2, 0.5)
        fi = qfi_rotation_matrix(st, p)
        assert fi.rank == 2
        rep = singular_diagnosis(fi, cov=cov_matrix(st).c)
        assert rep.classification == "state_deficiency"
        gt = so3_matrix(p).T @ generator_frame(p).matrix()
        axis = st.mean_spin()
        v = np.linalg.solve(gt, axis / np.linalg.norm(axis))
        v /= np.linalg.norm(v)
        assert np.max(np.abs(fi.q @ v)) < 1e-10
        # King probe at theta -> 0: coordinate singularity repaired by the
        # Cartesian chart
        king = king_state(HalfInt(6))
        p0 = RotationParams(1e-6, 0.9, 2.0)
        fi0 = qfi_rotation_matrix(king, p0)
        assert fi0.rank == 1
        rep0 = singular_diagnosis(fi0, cov=cov_matrix(king).c)
        assert rep0.classification == "coordinate_singularity"
        repaired = _qfi_from_frame(king, p0, cartesian_frame(p0.omega), ("wx", "wy", "wz"))
        assert repaired.rank == 3
        assert np.max(np.abs(repaired.q - 16.0 * np.eye(3))) < 0.01
