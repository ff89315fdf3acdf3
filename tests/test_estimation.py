import logging
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from conftest import DEMO_J2_AMPS, random_params
from spinsense import estimation
from spinsense.errors import (DegenerateInputError, DomainError,
                              NonIdentifiableError, UnreliableRunError)
from spinsense.estimation import (EstimationReport, MeasurementModel, ShotRecord,
                                  born_derivatives, born_probability_model, estimator_stats,
                                  grid_probability_table, husimi_design,
                                  husimi_experiment, ml_estimate,
                                  monte_carlo_qcrb, optimal_pvm,
                                  optimal_pvm_experiment, simulate_shots)
from spinsense.majorana import husimi
from spinsense.metrology import classical_fi, qfi_rotation_matrix
from spinsense.states import (BlochPoint, SpinState, basis_state, coherent_state,
                              king_state, noon_state)
from spinsense.su2 import (HalfInt, RotationParams, compose, omega_rotate, omega_so3,
                           omega_spherical, rotation_unitary, so3_matrix)


@pytest.fixture(scope="module")
def king3():
    return king_state(HalfInt(6))


class TestMeasurementModel:
    def test_completeness_enforced(self):
        proj = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(DomainError):
            MeasurementModel(elements=(proj,), labels=("a",))

    def test_psd_enforced(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        rest = np.eye(2) - bad
        with pytest.raises(DomainError):
            MeasurementModel(elements=(bad, rest), labels=("a", "b"))

    def test_experiment_models_build_no_kernel(self, king3):
        # an experiment's stages share its kernel; a model builds its own
        # only when used on its own
        exp = optimal_pvm_experiment(king3, RotationParams(0.8, 1.1, 2.3))
        exp.sample_counts(RotationParams(0.8, 1.1, 2.3), 1000, [0, 1])
        assert all("kernel" not in vars(m) for m in exp.stages)
        p = exp.stages[0].probabilities(king3)
        assert "kernel" in vars(exp.stages[0]) and abs(p.sum() - 1.0) < 1e-12

    def test_probabilities(self):
        j = HalfInt(2)
        st = basis_state(j, 1)
        proj = st.density_matrix()
        model = MeasurementModel(elements=(proj, np.eye(j.dim) - proj),
                                 labels=("hit", "miss"))
        assert np.allclose(model.probabilities(st), [1.0, 0.0], atol=1e-14)


class TestOptimalPvm:
    def test_king_pvm_states_orthonormal(self, king3):
        pvm = optimal_pvm(king3)
        states = []
        for e in pvm.elements[:4]:
            vals, vecs = np.linalg.eigh(e)
            states.append(vecs[:, -1])
        for a in range(4):
            for b in range(a + 1, 4):
                assert abs(np.vdot(states[a], states[b])) < 1e-10

    def test_probability_at_own_state(self, king3):
        pvm = optimal_pvm(king3)
        p = pvm.probabilities(king3)
        assert abs(p[0] - 1.0) < 1e-12
        assert np.max(p[1:]) < 1e-12

    def test_second_order_expansion(self, king3):
        # p0 = 1 - eps^2 J(J+1)/3 + O(eps^3); p_k carries the (v_k.u)^2 split
        pvm = optimal_pvm(king3)
        jj = 3.0 * 4.0
        u = np.array([0.3, -0.5, 0.81])
        u /= np.linalg.norm(u)
        for eps in (1e-2, 1e-3):
            pert = king3.rotate(RotationParams.from_omega(eps * u))
            p = pvm.probabilities(pert)
            assert abs(p[0] - (1.0 - eps * eps * jj / 3.0)) <= 5.0 * eps ** 3
            for k in range(3):
                expect = eps * eps * jj / 3.0 * u[k] ** 2
                assert abs(p[1 + k] - expect) <= 5.0 * eps ** 3

    def test_gram_schmidt_branch_for_generic_probe(self):
        # a generic state has <J> != 0, so the raw (J.v_k)|psi> overlap |psi>
        # and Gram-Schmidt removes real overlaps; the result still resolves
        # the identity
        rng = np.random.default_rng(54)
        st = SpinState.from_amplitudes(
            HalfInt(6), rng.standard_normal(7) + 1j * rng.standard_normal(7))
        assert np.linalg.norm(st.mean_spin()) > 1e-3
        pvm = optimal_pvm(st)
        total = sum(pvm.elements)
        assert np.max(np.abs(total - np.eye(st.j.dim))) < 1e-9
        for a in range(4):
            for b in range(a + 1, 4):
                overlap = np.trace(pvm.elements[a] @ pvm.elements[b])
                assert abs(overlap) < 1e-12

    def test_noon_probe_needs_gram_schmidt_but_succeeds(self):
        pvm = optimal_pvm(noon_state(HalfInt(6)))
        total = sum(pvm.elements)
        assert np.max(np.abs(total - np.eye(7))) < 1e-9

    @pytest.mark.parametrize("family, twice_j", [("king", 6), ("king", 20), ("king", 60),
                                                 ("noon", 6), ("random", 6)])
    @pytest.mark.parametrize("reference", [(0.8, 1.1, 2.3), (0.0, 0.0, 0.0),
                                           (math.pi - 1e-9, 1.1, 2.3)])
    def test_experiment_matches_composed_references(self, family, twice_j, reference):
        # oracle: each stage reference composed through SO(3) and back to
        # axis-angle, one stage at a time
        j = HalfInt(twice_j)
        if family == "random":
            rng = np.random.default_rng(3)
            probe = SpinState.from_amplitudes(j, rng.standard_normal(j.dim)
                                              + 1j * rng.standard_normal(j.dim))
        else:
            probe = (king_state if family == "king" else noon_state)(j)
        ref = RotationParams(*reference)
        offset = min(0.1, 1.0 / twice_j)
        want = []
        for axis in ([0.36, -0.48, 0.80], [-0.80, 0.36, 0.48]):
            u = np.array(axis) / np.linalg.norm(axis)
            stage_ref = compose(ref, RotationParams.from_omega(offset * u))
            want.append(optimal_pvm(SpinState(j, omega_rotate(j, stage_ref.omega, probe.amps))))
        got = optimal_pvm_experiment(probe, ref).stages
        for a, b in zip(got, want):
            assert np.max(np.abs(np.array(a.elements) - np.array(b.elements))) < 1e-13

    def test_degenerate_probe(self):
        # coherent states satisfy (J.n)|psi> = J|psi>, which collapses the
        # four-state family to three dimensions: no valid projector set
        st = coherent_state(HalfInt(6), BlochPoint(0.4, 0.2))
        with pytest.raises(DegenerateInputError):
            optimal_pvm(st)


class TestHusimiDesign:
    def test_binary_models_sum_to_one(self, demo_j2_state):
        models = husimi_design(demo_j2_state.j, [BlochPoint(0.3, 1.0),
                                                 BlochPoint(1.3, 2.0),
                                                 BlochPoint(2.3, 3.0),
                                                 BlochPoint(0.9, 5.0)])
        for m in models:
            p = m.probabilities(demo_j2_state)
            assert abs(p.sum() - 1.0) < 1e-12

    def test_aligned_coherent_hits(self):
        j = HalfInt(6)
        pt = BlochPoint(1.0, 2.0)
        model = husimi_design(j, [pt])[0]
        assert abs(model.probabilities(coherent_state(j, pt))[0] - 1.0) < 1e-12

    def test_duplicate_directions_rejected(self):
        with pytest.raises(DomainError):
            husimi_design(HalfInt(4), [BlochPoint(0.3, 1.0), BlochPoint(0.3, 1.0)])

    def test_three_direction_orientation_exists(self, demo_j2_state):
        # the documented three-sample configuration: polar (1, 0.6, 0.9),
        # azimuth (-1.7, -0.3, -0.3) admits an orientation with projections
        # (1/10, 3/10, 5/10) up to the rounding of those quoted values
        from scipy.optimize import minimize
        dirs = [BlochPoint(1.0, -1.7), BlochPoint(0.6, -0.3), BlochPoint(0.9, -0.3)]
        targets = np.array([0.1, 0.3, 0.5])

        def cost(w):
            rot = demo_j2_state.rotate(RotationParams.from_omega(w))
            q = np.array([husimi(rot, d) for d in dirs])
            return float(np.sum((q - targets) ** 2))

        rng = np.random.default_rng(50)
        best = math.inf
        for _ in range(40):
            w0 = rng.uniform(-2.5, 2.5, 3)
            res = minimize(cost, w0, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
            best = min(best, res.fun)
            if best < 2e-6:
                break
        assert best < 5e-6
        assert math.sqrt(best / 3.0) < 2e-3

    def test_fewer_than_four_flagged_for_estimation(self, demo_j2_state):
        with pytest.raises(NonIdentifiableError):
            husimi_experiment(demo_j2_state,
                              [BlochPoint(1.0, -1.7), BlochPoint(0.6, -0.3),
                               BlochPoint(0.9, -0.3)])


class TestSimulateShots:
    def test_deterministic_model(self):
        j = HalfInt(4)
        st = noon_state(j)
        model = MeasurementModel(elements=(np.eye(j.dim, dtype=complex),),
                                 labels=("all",))
        rec = simulate_shots(model, st, 1000, 5)
        assert rec.counts[0] == 1000

    def test_seed_reproducibility(self, king3):
        pvm = optimal_pvm(king3)
        st = king3.rotate(RotationParams(0.4, 1.0, 2.0))
        a = simulate_shots(pvm, st, 5000, 123)
        b = simulate_shots(pvm, st, 5000, 123)
        assert np.array_equal(a.counts, b.counts)
        c = simulate_shots(pvm, st, 5000, 124)
        assert not np.array_equal(a.counts, c.counts)

    def test_multinomial_bands(self):
        j = HalfInt(2)
        st = basis_state(j, 1)
        # binary model with p = (0.25, 0.75) via a rotated projector
        probe = coherent_state(j, BlochPoint(2.0 * math.asin(math.sqrt(0.75) / 1.0) if False else 2.0943951023931953, 0.0))
        # simpler: build p directly from the state overlap
        proj = probe.density_matrix()
        model = MeasurementModel(elements=(proj, np.eye(j.dim) - proj),
                                 labels=("a", "b"))
        p = model.probabilities(st)
        rec = simulate_shots(model, st, 1_000_000, 7)
        for k in range(2):
            sigma = math.sqrt(p[k] * (1 - p[k]) * rec.n_shots)
            assert abs(rec.counts[k] - p[k] * rec.n_shots) < 3.0 * sigma

    def test_record_invariants(self):
        with pytest.raises(DomainError):
            ShotRecord(counts=np.array([2, 3]), n_shots=4, seed=0, labels=("a", "b"))


class TestMlEstimate:
    def test_infinite_data_self_consistency(self, king3):
        # counts equal to exact probabilities x N recover the true parameters
        p_true = RotationParams(0.8, 1.1, 2.3)
        exp = optimal_pvm_experiment(king3, p_true)
        n_eff = 1e6
        weights = [q * n_eff for q in exp.stage_probabilities(p_true)]
        est = ml_estimate(weights, exp, anchor=p_true)
        assert np.max(np.abs(est.as_array() - p_true.as_array())) < 1e-3

    def test_theta_zero_flagged(self, king3):
        p_true = RotationParams(0.0, 0.9, 1.0)
        exp = optimal_pvm_experiment(king3, p_true)
        records = exp.sample(p_true, 20_000, 3)
        with pytest.raises(NonIdentifiableError):
            ml_estimate(records, exp, anchor=p_true)

    def test_coherent_probe_flagged(self):
        # full 3-parameter fit on a coherent probe: the rotation about the
        # spin direction is invisible, whatever the measurement design
        probe = coherent_state(HalfInt(6), BlochPoint(0.8, 0.2))
        p_true = RotationParams(0.9, 1.2, 0.7)
        dirs = [BlochPoint(0.8, 0.4), BlochPoint(1.9, 2.1), BlochPoint(1.2, 4.4),
                BlochPoint(2.6, 5.6)]
        exp = husimi_experiment(probe, dirs)
        records = exp.sample(p_true, 50_000, 4)
        with pytest.raises(NonIdentifiableError) as err:
            ml_estimate(records, exp)
        assert err.value.null_directions is not None

    def test_flat_likelihood_flagged(self, king3):
        exp = optimal_pvm_experiment(king3, RotationParams(0.8, 1.1, 2.3))
        # zero counts in every outcome: flat likelihood over the grid
        zero = [np.zeros(len(m.elements)) for m in exp.stages]
        with pytest.raises(NonIdentifiableError):
            ml_estimate(zero, exp, anchor=RotationParams(0.8, 1.1, 2.3))


GPS_J2_DIRECTIONS = [BlochPoint(0.8, 0.4), BlochPoint(1.9, 2.1), BlochPoint(1.2, 4.4),
                     BlochPoint(2.6, 5.6)]


def _king_j3_trials(probe, n_trials):
    """The configs/king_j3.json protocol: anchored at the true rotation,
    10^4 shots, trial seeds (7, trial)."""
    p_true = RotationParams(0.8, 1.1, 2.3)
    exp = optimal_pvm_experiment(probe, p_true)
    return exp, {"anchor": p_true}, [exp.sample(p_true, 10_000, (7, t))
                                     for t in range(n_trials)]


def _gps_j2_trials(n_trials):
    """The configs/gps_j2.json protocol: the figure-3 probe, its four Husimi
    directions, 4 x 10^5 shots, the global lattice table and trial seeds
    (21, trial); no anchor."""
    p_true = RotationParams(0.9, 1.2, 0.7)
    exp = husimi_experiment(SpinState.from_amplitudes(HalfInt(4), DEMO_J2_AMPS),
                            GPS_J2_DIRECTIONS)
    cache = grid_probability_table(exp)
    return exp, {"grid_cache": cache}, [exp.sample(p_true, 400_000, (21, t))
                                        for t in range(n_trials)]


PROTOCOLS = {
    "king_j3": lambda n: _king_j3_trials(king_state(HalfInt(6)), n),
    "noon_j3": lambda n: _king_j3_trials(noon_state(HalfInt(6)), n),
    "gps_j2": _gps_j2_trials,
}


def _record_calls(monkeypatch, name, results=None):
    """Patch estimation.<name> to record the arguments of every call, and
    its return values in ``results`` if given."""
    calls = []
    fn = getattr(estimation, name)

    def recording(*args, **kwargs):
        calls.append(args)
        out = fn(*args, **kwargs)
        if results is not None:
            results.append(out)
        return out

    monkeypatch.setattr(estimation, name, recording)
    return calls


def _stacked(trials):
    """The trials' counts as _fit_trials takes them: one row per trial, the
    stages' counts concatenated."""
    return np.array([np.concatenate([r.counts for r in records]) for records in trials],
                    dtype=float)


def _table(exp, kwargs):
    return kwargs.get("grid_cache") or grid_probability_table(exp, anchor=kwargs.get("anchor"))


def _max_angle_diff(a, b):
    d = np.asarray(a) - np.asarray(b)
    d[..., 2] = (d[..., 2] + math.pi) % (2.0 * math.pi) - math.pi
    return float(np.max(np.abs(d)))


def _nelder_mead(kernel, counts, w0, base_psi):
    """The Nelder-Mead oracle, in Newton's chart: maximizes the
    log-likelihood of exp(-i J.w) base_psi over w from w0.  Returns the
    optimum's -loglik and w."""
    from scipy.optimize import minimize
    res = minimize(lambda w: -kernel.loglik(counts, omega_rotate(kernel.j, w, base_psi)), w0,
                   method="Nelder-Mead", options={"xatol": 1e-7, "fatol": 1e-7, "maxiter": 600})
    return res.fun, res.x


def _hard_trial(case):
    """A trial whose Newton stack leaves a start unconverged: trial 862 of a
    gps_j2-design study at 4000 shots (seed 21), and trials 41 and 69 of the
    100-trial King studies at 2J = 120, 10^4 shots, seeds 3000 and 4000.
    Returns the experiment, ml_estimate's keyword arguments and the records."""
    if case == "gps_j2_4000":
        exp, kwargs, _ = _gps_j2_trials(0)
        return exp, kwargs, exp.sample(RotationParams(0.9, 1.2, 0.7), 4000, (21, 862))
    p_true = RotationParams(0.8, 1.1, 2.3)
    exp = optimal_pvm_experiment(king_state(HalfInt(120)), p_true)
    seed = {"king_2j120_3000": (3000, 41), "king_2j120_4000": (4000, 69)}[case]
    return exp, {"anchor": p_true}, exp.sample(p_true, 10_000, seed)


class TestNewtonRefinement:
    @pytest.mark.parametrize("protocol", ["king_j3", "gps_j2"])
    def test_every_start_converges(self, protocol, monkeypatch):
        results = []
        _record_calls(monkeypatch, "_newton_fit", results)
        exp, kwargs, trials = PROTOCOLS[protocol](20)
        for records in trials:
            ml_estimate(records, exp, **kwargs)
        assert len(results) >= len(trials)
        assert all(converged.all() for _, _, converged in results)

    @pytest.mark.parametrize("protocol", ["king_j3", "noon_j3", "gps_j2"])
    def test_estimates_match_nelder_mead(self, protocol, monkeypatch):
        # the reference refines by Nelder-Mead every start that Newton
        # receives, and takes each trial's best
        fits = _record_calls(monkeypatch, "_newton_fit")
        exp, kwargs, trials = PROTOCOLS[protocol](20)
        for records in trials:
            n_before = len(fits)
            newton = ml_estimate(records, exp, **kwargs)
            counts = np.concatenate([r.counts for r in records])
            (_, w), base_rot = min(((_nelder_mead(kernel, counts, start, base_psi), base_rot)
                                    for kernel, _, _, w0, base_psi, base_rot in fits[n_before:]
                                    for start in w0), key=lambda fit: fit[0][0])
            reference = RotationParams.from_so3(omega_so3(w) @ base_rot)
            d = newton.as_array() - reference.as_array()
            d[2] = (d[2] + math.pi) % (2.0 * math.pi) - math.pi
            assert np.max(np.abs(d)) < 1e-6, (newton, reference)

    @pytest.mark.parametrize("protocol", ["king_j3", "gps_j2"])
    def test_starts_refine_independently(self, protocol, monkeypatch):
        # each row of a stack, whichever trial it belongs to, reaches what it
        # reaches when refined alone on its own counts
        newton_fit = estimation._newton_fit
        fits = _record_calls(monkeypatch, "_newton_fit")
        exp, kwargs, trials = PROTOCOLS[protocol](3)
        estimation._fit_trials(exp, _stacked(trials), _table(exp, kwargs), kwargs.get("anchor"))
        assert len(fits) == (1 if protocol == "king_j3" else 2)   # grid starts, restarts
        for kernel, counts, shots, w0, base_psi, base_rot in fits:
            vals, rots, converged = newton_fit(kernel, counts, shots, w0, base_psi, base_rot)
            assert len(np.unique(counts, axis=0)) == len(trials)   # rows of every trial
            assert converged.all()
            for i in range(len(w0)):
                val, rot, conv = newton_fit(kernel, counts[i:i + 1], shots[i:i + 1],
                                            w0[i:i + 1], base_psi, base_rot)
                assert abs(val[0] - vals[i]) <= 1e-12 * abs(vals[i]) and conv[0]
                assert np.max(np.abs(rot[0] - rots[i])) < 1e-10

    @pytest.mark.parametrize("case", ["gps_j2_4000", "king_2j120_3000", "king_2j120_4000"])
    def test_unconverged_start_loses_to_a_converged_one(self, case, monkeypatch):
        # each of these trials has a start that Newton does not converge
        # from; the estimate is a converged row, and Nelder-Mead from the
        # unconverged starts finds nothing better
        def no_optimizer(*args, **kwargs):
            raise AssertionError("estimation.minimize called")

        monkeypatch.setattr(estimation, "minimize", no_optimizer)
        results = []
        fits = _record_calls(monkeypatch, "_newton_fit", results)
        exp, kwargs, records = _hard_trial(case)
        est = ml_estimate(records, exp, **kwargs)
        counts = np.concatenate([r.counts for r in records])
        loglik = exp.kernel.loglik(counts, exp.rotated_amps(est))
        unconverged = [(kernel, w0[i], base_psi)
                       for (kernel, _, _, w0, base_psi, _), (_, _, converged) in zip(fits, results)
                       for i in np.flatnonzero(~converged)]
        assert unconverged
        for kernel, w0, base_psi in unconverged:
            neg_ll, _ = _nelder_mead(kernel, counts, w0, base_psi)
            assert -neg_ll <= loglik + 1e-6

    @pytest.mark.parametrize("fake", ["one_row_each_stack", "whole_first_stack"])
    def test_converged_row_beats_an_unconverged_one(self, fake, monkeypatch):
        # an unconverged row loses to a converged one whatever its value:
        # within a stack, and between the first stack and the restarts.  The
        # faked rows are moved off the optimum and given a higher likelihood
        exp, kwargs, trials = _gps_j2_trials(1)
        truth = ml_estimate(trials[0], exp, **kwargs).as_array()
        newton_fit = estimation._newton_fit
        n_calls = []

        def faked(*args):
            vals, rots, converged = newton_fit(*args)
            if fake == "one_row_each_stack":
                rows, angle = [0], 0.5
            else:
                rows, angle = (slice(None) if not n_calls else []), 0.01
            n_calls.append(1)
            vals[rows], converged[rows] = vals.min() - 10.0, False
            rots[rows] = omega_so3(np.array([angle, 0.0, 0.0])) @ rots[rows]
            return vals, rots, converged

        monkeypatch.setattr(estimation, "_newton_fit", faked)
        est = ml_estimate(trials[0], exp, **kwargs)
        assert len(n_calls) == 2
        assert _max_angle_diff(est.as_array(), truth) < 1e-9

    def test_no_converged_start_is_a_typed_failure(self, king3, monkeypatch):
        # with no Newton iteration allowed, no start converges: a fit raises
        # NonIdentifiableError, and a study whose every trial fails raises
        # UnreliableRunError, with no optimizer imported
        monkeypatch.setattr(estimation, "_NEWTON_MAX_ITER", 0)
        exp, kwargs, trials = _king_j3_trials(king3, 1)
        with pytest.raises(NonIdentifiableError, match="no Newton start converged"):
            ml_estimate(trials[0], exp, **kwargs)
        with pytest.raises(UnreliableRunError, match="20/20"):
            monte_carlo_qcrb(king3, RotationParams(0.8, 1.1, 2.3), "optimal_pvm", 10_000, 20, 7)
        script = textwrap.dedent("""
            import sys
            from spinsense import estimation
            from spinsense.errors import NonIdentifiableError, UnreliableRunError
            from spinsense.states import king_state
            from spinsense.su2 import HalfInt, RotationParams
            estimation._NEWTON_MAX_ITER = 0
            truth = RotationParams(0.8, 1.1, 2.3)
            king = king_state(HalfInt(6))
            exp = estimation.optimal_pvm_experiment(king, truth)
            try:
                estimation.ml_estimate(exp.sample(truth, 10_000, (7, 0)), exp, anchor=truth)
            except NonIdentifiableError:
                pass
            try:
                estimation.monte_carlo_qcrb(king, truth, "optimal_pvm", 10_000, 20, 7)
            except UnreliableRunError:
                pass
            print("scipy.optimize" in sys.modules)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_fallback_logs_its_reason(self, monkeypatch, caplog):
        # a global fit, which refines several starts per trial; with no
        # Newton iteration allowed, every start logs why it stopped
        monkeypatch.setattr(estimation, "_NEWTON_MAX_ITER", 0)
        fits = _record_calls(monkeypatch, "_newton_fit")
        exp, kwargs, trials = _gps_j2_trials(1)
        with caplog.at_level(logging.DEBUG, logger="spinsense"):
            with pytest.raises(NonIdentifiableError):
                ml_estimate(trials[0], exp, **kwargs)
        events = [r for r in caplog.records if r.name == "spinsense"]
        # one per start, each naming the reason and the start
        assert len(events) == sum(len(args[3]) for args in fits) > 1
        for r in events:
            assert r.levelno == logging.DEBUG
            assert "did not converge: no convergence in 0 iterations" in r.getMessage()
            assert "w0 = [" in r.getMessage()

    @staticmethod
    def _lapack_steps(curvature, grad, fisher):
        """The Newton step by LAPACK, as the fit took it before its closed
        form: -hess where eigvalsh finds it positive definite or where it
        is not finite, else Fisher scoring; no step where det is 0.
        Returns the steps, the singular rows and the rows scored."""
        finite = np.isfinite(curvature).all(axis=(1, 2))
        concave = np.linalg.eigvalsh(np.where(finite[:, None, None], curvature,
                                              np.eye(3)))[:, 0] > 0.0
        chosen = np.where((concave | ~finite)[:, None, None], curvature, fisher)
        step = np.full_like(grad, np.nan)
        with np.errstate(invalid="ignore"):
            singular = np.linalg.det(chosen) == 0.0
            step[~singular] = np.linalg.solve(chosen[~singular], grad[~singular, :, None])[..., 0]
        return step, singular, ~(concave | ~finite)

    def test_closed_form_step_matches_lapack(self):
        rng = np.random.default_rng(17)
        n = 600

        def symmetric(negative):
            """Random symmetric matrices of condition number at most 100,
            each eigenvalue negative with probability ``negative``."""
            q, _ = np.linalg.qr(rng.standard_normal((n, 3, 3)))
            vals = rng.uniform(0.1, 10.0, (n, 3)) * np.where(rng.random((n, 3)) < negative, -1, 1)
            scale = 10.0 ** rng.integers(-3, 6, n)[:, None, None]
            return scale * np.einsum("mij,mj,mkj->mik", q, vals, q)

        curvature, fisher = symmetric(0.3), symmetric(0.0)
        grad = rng.standard_normal((n, 3))
        # exactly singular information: an unobserved direction, or two equal ones
        fisher[0:40, 1, :] = fisher[0:40, :, 1] = 0.0
        fisher[40:80] = np.array([[2.0, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        curvature[0:80] = -np.abs(curvature[0:80])                  # not concave: scored
        # non-finite observed information; LAPACK solves an infinite
        # diagonal entry to its finite limit, which the closed form does not
        curvature[80:90, 0, 1] = curvature[80:90, 1, 0] = np.nan
        curvature[90:100, 2, 2] = np.inf
        expect, expect_singular, expect_scored = self._lapack_steps(curvature, grad, fisher)
        asked = []

        def information(rows):
            asked.append(rows)
            return fisher[rows]

        step, singular = estimation._newton_steps(curvature.copy(), grad, information)
        # the information is built once, for exactly the rows LAPACK scores
        (scored,) = asked
        assert np.array_equal(scored, expect_scored)
        assert 0 < scored[100:].sum() < n - 100           # both kinds of step
        assert np.array_equal(singular, expect_singular) and singular[:80].all()
        # the reasons a row stops on: singular curvature, else a non-finite step
        finite = np.isfinite(step).all(axis=1)
        assert not finite[:100].any() and finite[100:].all()
        compare = np.r_[0:90, 100:n]
        assert np.array_equal(finite[compare], np.isfinite(expect[compare]).all(axis=1))
        err = np.linalg.norm(step[finite] - expect[finite], axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(expect[finite], axis=1))

    @pytest.mark.parametrize("protocol", ["king_j3", "gps_j2"])
    def test_closed_form_fit_matches_lapack_fit(self, protocol, monkeypatch):
        exp, kwargs, trials = PROTOCOLS[protocol](4)
        counts, table = _stacked(trials), _table(exp, kwargs)
        closed, _, _, _ = estimation._fit_trials(exp, counts, table, kwargs.get("anchor"))
        monkeypatch.setattr(estimation, "_newton_steps",
                            lambda c, g, info: self._lapack_steps(c, g, info(slice(None)))[:2])
        lapack, _, _, _ = estimation._fit_trials(exp, counts, table, kwargs.get("anchor"))
        assert _max_angle_diff(omega_spherical(closed), omega_spherical(lapack)) < 1e-12


class TestTrialStack:
    """monte_carlo_qcrb fits its trials in chunks, each one stack of
    (trial, start) rows; every trial must come out as ml_estimate fits it."""

    @staticmethod
    def _study(protocol, n_trials):
        """monte_carlo_qcrb's arguments for the protocol's trials."""
        if protocol == "king_j3":
            return dict(probe=king_state(HalfInt(6)), true_params=RotationParams(0.8, 1.1, 2.3),
                        scheme="optimal_pvm", n_shots=10_000, n_trials=n_trials, seed=7)
        return dict(probe=SpinState.from_amplitudes(HalfInt(4), DEMO_J2_AMPS),
                    true_params=RotationParams(0.9, 1.2, 0.7), scheme="husimi",
                    n_shots=400_000, n_trials=n_trials, seed=21, directions=GPS_J2_DIRECTIONS)

    @pytest.mark.parametrize("protocol", ["king_j3", "gps_j2"])
    def test_study_matches_one_fit_per_trial(self, protocol, monkeypatch):
        exp, kwargs, trials = PROTOCOLS[protocol](7)
        alone = [ml_estimate(r, exp, **kwargs).as_array() for r in trials]
        # three trials per stack, so the seven trials cross two chunk boundaries
        width = exp.kernel._ops_f.shape[-1]
        monkeypatch.setattr(estimation, "_STACK_CHUNK", 3 * 13 * 12 * width)
        fits = []
        calls = _record_calls(monkeypatch, "_fit_trials", fits)
        monte_carlo_qcrb(**self._study(protocol, 7))
        assert [len(c[1]) for c in calls] == [3, 3, 1]
        stacked = omega_spherical(np.vstack([omega for omega, _, _, _ in fits]))
        assert _max_angle_diff(stacked, alone) < 1e-9

    def test_study_builds_no_per_trial_params(self, monkeypatch):
        # a study's fits stay rotation-vector stacks from Newton to the
        # report: the RotationParams it builds do not grow with its trials
        built = []
        post_init = RotationParams.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        monkeypatch.setattr(RotationParams, "__post_init__", counting)
        counts = []
        for n_trials in (50, 500):
            built.clear()
            monte_carlo_qcrb(**self._study("king_j3", n_trials))
            counts.append(len(built))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("protocol", ["king_j3", "gps_j2"])
    def test_sampled_counts_match_per_trial_draws(self, protocol, monkeypatch):
        calls = _record_calls(monkeypatch, "_fit_trials")
        study = self._study(protocol, 4)
        monte_carlo_qcrb(**study)
        drawn = np.vstack([c[1] for c in calls])
        exp, seed, truth = calls[0][0], study["seed"], study["true_params"]
        true_state = SpinState(exp.probe.j, exp.rotated_amps(truth))
        for t, row in enumerate(drawn):
            records = exp.sample(truth, study["n_shots"], (seed, t))
            assert np.array_equal(row, np.concatenate([r.counts for r in records]))
            # the draw of every stage as the stages drew one trial at a time
            direct = [simulate_shots(m, true_state, r.n_shots, ((seed, t), s)).counts
                      for s, (m, r) in enumerate(zip(exp.stages, records))]
            assert np.array_equal(row, np.concatenate(direct))

    def test_flat_trial_fails_alone(self, king3, monkeypatch):
        exp, kwargs, trials = _king_j3_trials(king3, 4)
        table, anchor = _table(exp, kwargs), kwargs["anchor"]
        counts = _stacked(trials)
        good, _, _, _ = estimation._fit_trials(exp, counts, table, anchor)
        mixed, errors, bias, size = estimation._fit_trials(
            exp, np.insert(counts, 2, 0.0, axis=0), table, anchor)
        assert list(errors) == [2]
        assert isinstance(errors[2], NonIdentifiableError)
        assert "flat" in str(errors[2])
        assert np.isnan(mixed[2]).all() and np.isnan(bias[2]).all() and np.isnan(size[2])
        kept = omega_spherical(np.delete(mixed, 2, axis=0))
        assert _max_angle_diff(kept, omega_spherical(good)) < 1e-12
        # a study counts such a trial in n_failed by itself
        draw = estimation.RotationExperiment.sample_counts

        def one_flat(self, *args):
            counts = draw(self, *args)
            counts[1] = 0
            return counts

        monkeypatch.setattr(estimation.RotationExperiment, "sample_counts", one_flat)
        rep = monte_carlo_qcrb(king3, RotationParams(0.8, 1.1, 2.3), "optimal_pvm",
                               10_000, 20, 7)
        assert rep.n_failed == 1


class TestPeakStarts:
    """Newton starts are the local maxima of a trial's table scores: cells
    at least as high as their 26 grid neighbours."""

    @staticmethod
    def _starts(scores, cand, grid, n_starts):
        (starts,) = estimation._select_starts(scores[None], cand, grid, n_starts, 0)
        return starts[~np.isnan(starts[:, 0])]

    def test_global_lattice(self, demo_j2_state):
        cand, _, grid = grid_probability_table(husimi_experiment(demo_j2_state,
                                                                 GPS_J2_DIRECTIONS))
        step = math.pi / 12.0
        radius = np.linalg.norm(cand, axis=1)
        # the lattice holds omega = 0 and reaches one step past theta = pi
        assert np.min(radius) == 0.0
        assert np.max(radius) == pytest.approx(13 * step)
        # two separated maxima, best first; every other cell is below a neighbour
        a, b = np.array([-5, 2, 1]) * step, np.array([4, -3, 6]) * step
        scores = np.maximum(-np.sum((cand - a) ** 2, axis=1),
                            -0.05 - np.sum((cand - b) ** 2, axis=1))
        assert np.allclose(self._starts(scores, cand, grid, 8), [a, b])
        assert np.allclose(self._starts(scores, cand, grid, 1), [a])

    def test_anchored_cube(self, king3):
        anchor = RotationParams(0.8, 1.1, 2.3)
        cand, _, grid = grid_probability_table(optimal_pvm_experiment(king3, anchor),
                                               anchor=anchor)
        step = estimation._ANCHOR_RADIUS / 3.0
        # a bump centred outside the ball peaks at the ball's edge, where the
        # lattice has no further cell
        edge = np.array([3 * step, 0.0, 0.0])
        starts = self._starts(-np.sum((cand - 5.0 / 3.0 * edge) ** 2, axis=1), cand, grid, 4)
        assert np.allclose(starts, [edge])
        # two separated maxima, best first; every other cell is below a neighbour
        a, b = np.array([-2, 0, 1]) * step, np.array([2, 1, -1]) * step
        scores = np.maximum(-np.sum((cand - a) ** 2, axis=1),
                            -0.05 - np.sum((cand - b) ** 2, axis=1))
        assert np.allclose(self._starts(scores, cand, grid, 4), [a, b])

    def test_king_trial_gets_one_start(self, king3, monkeypatch):
        fits = _record_calls(monkeypatch, "_newton_fit")
        exp, kwargs, trials = _king_j3_trials(king3, 20)
        estimation._fit_trials(exp, _stacked(trials), _table(exp, kwargs), kwargs["anchor"])
        (args,) = fits
        assert len(args[3]) == len(trials)

    @staticmethod
    def _reference_starts(scores, cand, grid, n_peaks, n_backups):
        """A trial's starts as they were picked one trial at a time: peaks
        _PEAK_BLOCK cells at a time down the full ranking, then backups from
        the best block, or from the full ranking when that block holds too
        few."""
        cube, position, offsets = grid
        order = np.argsort(scores)[::-1]
        padded = np.append(scores, -np.inf)

        def spread(points, starts, n_new, spacing):
            def far(s):
                d = points - s[:, None]
                return np.sqrt((d * d).sum(axis=0)) > spacing

            free = np.ones(points.shape[1], dtype=bool)
            for s in starts:
                free &= far(s)
            picks = []
            while len(picks) < n_new and free.any():
                picks.append(points[:, np.argmax(free)])
                free &= far(picks[-1])
            return picks

        starts = []
        for lo in range(0, len(order), estimation._PEAK_BLOCK):
            cells = order[lo:lo + estimation._PEAK_BLOCK]
            neighbours = padded[cube[position[cells][:, None] + offsets]]
            peaks = cells[(scores[cells][:, None] >= neighbours).all(axis=1)]
            starts += spread(cand[peaks].T, starts, n_peaks - len(starts), 0.1)
            if len(starts) == n_peaks:
                break
        if n_backups:
            backups = spread(cand[order[:estimation._PEAK_BLOCK]].T, starts, n_backups, 0.35)
            if len(backups) < n_backups:
                backups = spread(cand[order].T, starts, n_backups, 0.35)
            starts += backups
        return np.array(starts)

    def _assert_matches_reference(self, scores, cand, grid, n_peaks, n_backups):
        batched = estimation._select_starts(scores, cand, grid, n_peaks, n_backups)
        counts = []
        for row, starts in zip(scores, batched):
            expect = self._reference_starts(row, cand, grid, n_peaks, n_backups)
            assert np.array_equal(starts[~np.isnan(starts[:, 0])], expect)
            counts.append(len(expect))
        return counts

    def test_batched_selection_matches_per_trial(self, demo_j2_state, king3):
        rng = np.random.default_rng(29)
        cand, _, grid = grid_probability_table(husimi_experiment(demo_j2_state,
                                                                 GPS_J2_DIRECTIONS))

        def bumps(points, n_bumps, width, noise):
            # centres off the lattice, so that no two cells tie
            centres = (points[rng.integers(len(points), size=n_bumps)]
                       + rng.normal(0.0, 0.01, (n_bumps, 3)))
            heights = rng.uniform(0.0, 3.0, n_bumps)
            heights[0] += 10.0                       # one bump holds the best cells
            dist = np.sum((points[:, None] - centres[None]) ** 2, axis=-1)
            return (np.max(heights - dist / width ** 2, axis=1)
                    + noise * rng.standard_normal(len(points)))

        # narrow bumps: the best block holds one peak, so the peak search
        # walks further blocks, which hold fewer than 8 peaks or more; wide
        # noisy bumps: the best block holds more than 8
        scores = np.array([bumps(cand, k, 0.5, 0.0) for k in (1, 3, 9, 40)]
                          + [bumps(cand, 4, 2.0, 0.3) for _ in range(3)])
        counts = self._assert_matches_reference(scores, cand, grid, 8, 4)
        assert counts[0] == 1 + 4 and 1 + 4 < counts[1] < 8 + 4
        assert counts[2:] == [8 + 4] * 5
        # a fine lattice whose best block lies within 0.35 rad of the best
        # peak, so the backups walk further blocks as well; its step puts no
        # two cells exactly 0.1 or 0.35 apart, where rounding would decide
        ijk = np.indices((15, 15, 15)).reshape(3, -1)
        fine = 0.047 * ijk.T.astype(float)
        fine_grid = estimation._neighbour_grid(ijk, (15, 15, 15))
        scores = np.array([bumps(fine, k, 0.2, 0.0) for k in (1, 2, 6)])
        assert self._assert_matches_reference(scores, fine, fine_grid, 8, 4)[0] == 1 + 4
        # the shipped protocols' trials
        for protocol, n_peaks, n_backups in (("gps_j2", 8, 4), ("king_j3", 4, 0)):
            exp, kwargs, trials = PROTOCOLS[protocol](6)
            cand, tables, grid = _table(exp, kwargs)
            scores = _stacked(trials) @ np.log(np.maximum(np.hstack(tables), 1e-300)).T
            self._assert_matches_reference(scores, cand, grid, n_peaks, n_backups)


def _cox_snell_by_differences(exp, probe, point, n_shots, h):
    """The Cox-Snell bias of ``n_shots`` shots at ``point``, in the local chart
    psi(delta) = exp(-i J.delta) U(point) probe, from central differences of
    each stage's born_probability_model: I = N sum p l_r l_t,
    kappa_{rt,u} = N sum p l_rt l_u and kappa_{rtu} = N sum p l_rtu, with
    l = log p and N each stage's share of the shots.  Returns the bias and I."""
    models = [born_probability_model(m, probe) for m in exp.stages]
    base = so3_matrix(point)

    def log_p(delta):
        params = RotationParams.from_so3(omega_so3(delta) @ base)
        return np.concatenate([np.log(f(params)) for f in models])

    shares = np.concatenate([np.full(len(m.elements), n_shots * w)
                             for m, w in zip(exp.stages, exp.weights)])
    p = np.exp(log_p(np.zeros(3)))
    e = h * np.eye(3)
    signs = [np.array(s) for s in np.ndindex(2, 2, 2)]
    d1 = np.array([(log_p(e[r]) - log_p(-e[r])) / (2 * h) for r in range(3)])
    d2 = np.array([[sum((1 - 2 * a) * (1 - 2 * b) * log_p((1 - 2 * a) * e[r] + (1 - 2 * b) * e[t])
                        for a, b in np.ndindex(2, 2)) / (4 * h * h)
                    for t in range(3)] for r in range(3)])
    d3 = np.array([[[sum(np.prod(1 - 2 * s) * log_p((1 - 2 * s) @ e[[r, t, u]]) for s in signs)
                     / (8 * h ** 3) for u in range(3)] for t in range(3)] for r in range(3)])
    w = shares * p
    info = np.einsum("rx,tx,x->rt", d1, d1, w)
    kappa_rt_u = np.einsum("rtx,ux,x->rtu", d2, d1, w)
    kappa_rtu = np.einsum("rtux,x->rtu", d3, w)
    inv = np.linalg.inv(info)
    return np.einsum("sr,tu,rtu->s", inv, inv, kappa_rt_u + 0.5 * kappa_rtu), info


class TestCoxSnellBias:
    """The study subtracts each trial's Cox-Snell bias from its MLE."""

    @pytest.mark.parametrize("design", ["king_pvm", "husimi"])
    def test_matches_finite_differences(self, design, king3, demo_j2_state):
        if design == "king_pvm":
            probe, point = king3, RotationParams(0.83, 1.08, 2.32)
            exp = optimal_pvm_experiment(probe, RotationParams(0.8, 1.1, 2.3))
        else:
            probe, point = demo_j2_state, RotationParams(0.9, 1.2, 0.7)
            exp = husimi_experiment(probe, GPS_J2_DIRECTIONS)
        n_shots = 10_000
        counts = np.zeros((1, exp.kernel._seg_t.shape[1]))
        counts[0, 0] = n_shots                  # only the trial's total counts
        errors, bias, size = estimation._check_optima(exp, point.omega[None], counts)
        assert errors == {}
        # Richardson's extrapolation cancels the differences' h^2 error
        (coarse, info), (fine, _) = (_cox_snell_by_differences(exp, probe, point, n_shots, h)
                                     for h in (2e-4, 1e-4))
        expect = (4.0 * fine - coarse) / 3.0
        assert np.max(np.abs(bias[0] - expect)) < 2e-5 * np.max(np.abs(expect))
        assert abs(size[0] - math.sqrt(expect @ info @ expect)) < 1e-4 * size[0]

    @staticmethod
    def _king_study(king3, monkeypatch, n_shots):
        """A 100-trial King study at ``n_shots``: its report or the
        UnreliableRunError it raises, every trial's plain fit as a rotation
        vector, nan if rejected, and the size sqrt(b^T I b) of every trial's
        bias."""
        fits = []
        _record_calls(monkeypatch, "_fit_trials", fits)
        try:
            out = monte_carlo_qcrb(king3, RotationParams(0.8, 1.1, 2.3), "optimal_pvm",
                                   n_shots, 100, 7)
        except UnreliableRunError as err:
            out = err
        return (out, np.vstack([omega for omega, _, _, _ in fits]),
                np.concatenate([size for _, _, _, size in fits]))

    def test_bias_cap_fails_a_study_at_300_shots(self, king3, monkeypatch):
        out, plain, size = self._king_study(king3, monkeypatch, 300)
        capped = size > estimation._MAX_BIAS
        # every plain fit stands, as ml_estimate returns it; the study drops
        # the capped trials, more than the 5% it tolerates
        assert not np.isnan(plain).any()
        assert capped.sum() > 5
        assert isinstance(out, UnreliableRunError)
        assert out.failed_fraction == capped.sum() / 100
        assert f", {capped.sum()} of them for a second-order bias" in str(out)

    def test_bias_cap_trims_a_study_at_500_shots(self, king3, monkeypatch, caplog):
        with caplog.at_level(logging.WARNING, logger="spinsense"):
            rep, plain, size = self._king_study(king3, monkeypatch, 500)
        capped = size > estimation._MAX_BIAS
        assert not np.isnan(plain).any()
        assert isinstance(rep, EstimationReport)
        assert rep.n_failed == capped.sum() > 0
        # the trimmed sample is not silent
        (warning,) = [r for r in caplog.records if r.name == "spinsense"]
        assert warning.levelno == logging.WARNING
        assert warning.getMessage().startswith(f"{capped.sum()} of 100 trials dropped")


class TestEstimatorStats:
    def test_exact_on_truth(self):
        truth = RotationParams(0.5, 1.0, 2.0)
        stats = estimator_stats([truth, truth, truth], truth)
        assert np.max(stats["mse"]) == 0.0

    def test_constant_offset(self):
        truth = RotationParams(0.5, 1.0, 2.0)
        wrong = RotationParams(0.6, 1.0, 2.0)
        stats = estimator_stats([wrong] * 5, truth)
        assert np.max(stats["variance"]) < 1e-30
        assert abs(stats["mse"][0] - 0.01) < 1e-12

    def test_decomposition_identity(self):
        rng = np.random.default_rng(51)
        truth = RotationParams(0.5, 1.0, 2.0)
        ests = [RotationParams(*np.abs(truth.as_array() + 0.05 * rng.standard_normal(3)))
                for _ in range(200)]
        stats = estimator_stats(ests, truth)
        assert np.max(np.abs(stats["mse"] - stats["variance"] - stats["bias_sq"])) < 1e-12

    def test_synthetic_gaussian_moments(self):
        rng = np.random.default_rng(52)
        truth = RotationParams(0.7, 1.0, 2.0)
        draws = truth.as_array()[None, :] + np.array([0.1, 0.0, 0.0]) \
            + 0.2 * rng.standard_normal((4000, 3))
        stats = estimator_stats(draws, truth)
        assert abs(stats["bias_sq"][0] - 0.01) < 3e-3
        assert abs(stats["variance"][0] - 0.04) < 4e-3

    def test_needs_two(self):
        truth = RotationParams(0.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            estimator_stats([truth], truth)

    def test_moments_independent_of_the_form_near_pi(self):
        # (theta, T, F) and (2 pi - theta, pi - T, F + pi) are one rotation
        rng = np.random.default_rng(53)
        truth = RotationParams(3.1, 1.2, 0.7)
        near = [truth.as_array() + 0.05 * rng.standard_normal(3) for _ in range(40)]
        mixed = [RotationParams(2.0 * math.pi - t, math.pi - T, F + math.pi) if i % 2
                 else RotationParams(t, T, F) for i, (t, T, F) in enumerate(near)]
        one, two = estimator_stats(near, truth), estimator_stats(mixed, truth)
        for key in ("mse", "bias_sq", "variance", "mean_estimate"):
            assert np.allclose(one[key], two[key], rtol=1e-12, atol=1e-12), key


class TestBornModel:
    def test_exact_derivatives_match_finite_differences(self, king3):
        from spinsense.estimation import born_probability_model
        p = RotationParams(0.9, 1.1, 0.4)
        ref = SpinState(king3.j, rotation_unitary(king3.j, p) @ king3.amps)
        pvm = optimal_pvm(ref)
        point = RotationParams(1.0, 1.0, 0.6)
        probs, dp = born_derivatives(pvm, king3, point)
        prob_fn = born_probability_model(pvm, king3)
        assert np.max(np.abs(prob_fn(point) - probs / probs.sum())) < 1e-12
        h = 1e-6
        raw = point.as_array()
        for i in range(3):
            up, dn = raw.copy(), raw.copy()
            up[i] += h
            dn[i] -= h
            fd = (prob_fn(up) - prob_fn(dn)) / (2.0 * h)
            assert np.max(np.abs(fd - dp[i])) < 1e-7


class TestBornKernel:
    @pytest.mark.parametrize("design", ["king_pvm", "husimi"])
    def test_local_chart_derivatives_match_finite_differences(
            self, design, king3, demo_j2_state):
        if design == "king_pvm":
            probe = king3
            stages = optimal_pvm_experiment(king3, RotationParams(0.8, 1.1, 2.3)).stages
        else:
            probe = demo_j2_state
            stages = husimi_design(probe.j, [BlochPoint(0.8, 0.4)])
        kernel = estimation.BornKernel([m.elements for m in stages])
        psi = rotation_unitary(probe.j, RotationParams(0.9, 1.0, 2.1)) @ probe.amps
        p, dp, d2p = kernel.derivatives(psi, second=True)
        expect = [np.vdot(psi, e @ psi).real for m in stages for e in m.elements]
        assert np.max(np.abs(p - expect)) < 1e-14

        def p_at(delta):
            return kernel.probabilities(omega_rotate(probe.j, delta, psi))

        e1, e2 = 1e-5 * np.eye(3), 5e-5 * np.eye(3)
        for k in range(3):
            fd = (p_at(e1[k]) - p_at(-e1[k])) / 2e-5
            assert np.max(np.abs(fd - dp[k])) < 1e-6
            for l in range(3):
                fd2 = (p_at(e2[k] + e2[l]) - p_at(e2[k] - e2[l]) - p_at(e2[l] - e2[k])
                       + p_at(-e2[k] - e2[l])) / (4.0 * 5e-5 ** 2)
                assert np.max(np.abs(fd2 - d2p[k, l])) < 1e-6

    @pytest.mark.parametrize("twice_j", [6, 10, 20, 120])
    def test_complement_is_clipped_at_zero(self, twice_j):
        # at a PVM's own reference state the "rest" outcome has probability
        # 0, which 1 - sum(others) can miss by a few ulps in either sign
        king = king_state(HalfInt(twice_j))
        for state in (king, king.rotate(RotationParams(0.6, 0.9, 2.6))):
            model = optimal_pvm(state)
            p = model.probabilities(state)
            assert p.min() >= 0.0 and p[-1] < 1e-14
            assert simulate_shots(model, state, 10_000, 3).counts[-1] == 0

    @pytest.mark.parametrize("twice_j", [6, 20, 60, 120])
    def test_complement_matches_factored_outcomes(self, twice_j):
        # a zero element appended to every model makes the kernel factor
        # each real outcome, the last one included; the subtracted outcomes
        # must agree with those to rounding, near the truth and near each
        # stage's reference, where the "rest" probability nears 0
        probe, truth = king_state(HalfInt(twice_j)), RotationParams(0.8, 1.1, 2.3)
        exp = optimal_pvm_experiment(probe, truth)
        husimi = husimi_design(probe.j, GPS_J2_DIRECTIONS)
        offset = min(0.1, 1.0 / twice_j)
        units = [u / np.linalg.norm(u) for u in estimation._OFFSET_AXES]
        points = [truth] + [compose(truth, RotationParams.from_omega(offset * u)) for u in units]
        rng = np.random.default_rng(11)
        psi = np.array([omega_rotate(probe.j, scale * rng.standard_normal(3),
                                     omega_rotate(probe.j, q.omega, probe.amps))
                        for q in points for scale in (0.0, 1e-4, 1e-2)])
        for stages in (exp.stages, husimi):
            kernel = estimation.BornKernel([m.elements for m in stages])
            zero = np.zeros((probe.j.dim, probe.j.dim))
            factored = estimation.BornKernel([m.elements + (zero,) for m in stages])
            real = np.concatenate([np.arange(len(m.elements)) + k * (len(m.elements) + 1)
                                   for k, m in enumerate(stages)])
            got, want = kernel.derivatives(psi, True), factored.derivatives(psi, True)
            for order, (a, b) in enumerate(zip(got, want)):
                assert np.max(np.abs(a - b[..., real])) < 1e-13 * twice_j ** order
            assert kernel._ops_f.shape[-1] == (8 if stages is exp.stages else 4)

    @pytest.mark.parametrize("twice_j", [6, 20, 120])
    def test_every_stage_sums_to_one(self, twice_j):
        # the complement outcome closes each stage to rounding, so a fit
        # reads the kernel's probabilities without renormalizing them; the
        # states are 200 random rotations of the probe and, where the
        # complement is clipped at 0, the state each stage's first element
        # projects onto
        probe = king_state(HalfInt(twice_j))
        rng = np.random.default_rng(twice_j)
        turned = omega_rotate(probe.j, rng.uniform(-math.pi, math.pi, (200, 3)), probe.amps)
        for exp in (optimal_pvm_experiment(probe, RotationParams(0.8, 1.1, 2.3)),
                    husimi_experiment(probe, GPS_J2_DIRECTIONS)):
            own = [np.linalg.eigh(m.elements[0])[1][:, -1] for m in exp.stages]
            p = exp.kernel.probabilities(np.vstack([turned, own]))
            for stage in np.split(p, exp.kernel.splits, axis=1):
                assert np.max(np.abs(stage.sum(axis=1) - 1.0)) < 1e-13

    def test_one_element_model(self, demo_j2_state):
        # a one-element model is its own complement and has no factor columns
        dim = demo_j2_state.j.dim
        proj = np.outer(DEMO_J2_AMPS, DEMO_J2_AMPS.conj()) / np.vdot(DEMO_J2_AMPS, DEMO_J2_AMPS)
        turned = demo_j2_state.rotate(RotationParams(0.4, 1.0, 2.0))
        psi = np.array([demo_j2_state.amps, turned.amps])
        alone = estimation.BornKernel([[np.eye(dim)]])
        assert alone._ops_f.shape[-1] == 0
        p, dp, d2p = alone.derivatives(psi, second=True)
        assert np.array_equal(p, np.ones((2, 1)))
        assert not dp.any() and not d2p.any()
        mixed = estimation.BornKernel([[proj, np.eye(dim) - proj], [np.eye(dim)]])
        p, dp, d2p = mixed.derivatives(psi, second=True)
        assert mixed._ops_f.shape[-1] == 1
        assert np.array_equal(p[:, 2], [1.0, 1.0]) and not dp[..., 2].any()
        assert abs(p[0, 0] - 1.0) < 1e-14
        assert abs(p[1, 0] - abs(np.vdot(psi[0], psi[1])) ** 2) < 1e-14


class TestFisherSaturation:
    def test_experiment_fi_tracks_qfi(self, king3):
        # the two-reference experiment loses less than 2% of Tr Q^-1
        p = RotationParams(0.8, 1.1, 2.3)
        exp = optimal_pvm_experiment(king3, p)
        f = exp.fisher_information(p)
        q = qfi_rotation_matrix(king3, p)
        tr_f = np.trace(np.linalg.inv(f.q))
        tr_q = np.trace(np.linalg.inv(q.q))
        assert tr_f <= 1.02 * tr_q

    @pytest.mark.parametrize("twice_j", [8, 20, 40, 60, 120])
    def test_default_offset_stays_optimal_as_j_grows(self, twice_j):
        # the default calibration offset min(0.1, 1/(2J)) keeps the
        # experiment's bound within 10% of the quantum one; a fixed 0.1 rad
        # offset loses 17% at 2J = 20 and a factor 16 at 2J = 120
        probe = king_state(HalfInt(twice_j))
        p = RotationParams(0.8, 1.1, 2.3)
        tr_q = np.trace(np.linalg.inv(qfi_rotation_matrix(probe, p).q))

        def ratio(**offset):
            f = optimal_pvm_experiment(probe, p, **offset).fisher_information(p)
            return np.trace(np.linalg.inv(f.q)) / tr_q

        assert ratio() <= 1.1
        if twice_j >= 20:       # an explicit offset is still honoured
            assert ratio(offset_angle=0.1) > 1.1

    @pytest.mark.parametrize("twice_j", [8, 20, 40, 60, 120])
    def test_king_study_saturates_the_bound_as_j_grows(self, twice_j):
        # the trial count, shots and seed were fixed before the first run;
        # the gate is three standard errors of a sample variance, so a
        # fixed 0.1 rad offset, which loses a factor 2 at 2J = 40, fails it
        n_trials = 200
        rep = monte_carlo_qcrb(king_state(HalfInt(twice_j)), RotationParams(0.8, 1.1, 2.3),
                               "optimal_pvm", 10_000, n_trials, 3)
        assert rep.trace_ratio <= 1.0 + 3.0 * math.sqrt(2.0 / (n_trials - 1))

    def test_husimi_fi_bounded_by_qfi(self, demo_j2_state, king3):
        # PSD ordering F <= Q for sampled binary designs
        rng = np.random.default_rng(53)
        for probe in (demo_j2_state, king3):
            dirs = [BlochPoint(rng.uniform(0.2, 2.9), rng.uniform(0, 2 * math.pi))
                    for _ in range(5)]
            exp = husimi_experiment(probe, dirs)
            for _ in range(5):
                p = random_params(rng, theta_range=(0.3, 2.8), cap_range=(0.3, 2.8))
                f = exp.fisher_information(p).q
                q = qfi_rotation_matrix(probe, p).q
                gap_eigs = np.linalg.eigvalsh(q - f)
                assert gap_eigs[0] > -1e-8


class TestGpsIdentifiability:
    def test_unique_global_grid_maximum(self, demo_j2_state):
        dirs = [BlochPoint(0.8, 0.4), BlochPoint(1.9, 2.1), BlochPoint(1.2, 4.4),
                BlochPoint(2.6, 5.6)]
        exp = husimi_experiment(demo_j2_state, dirs)
        p_true = RotationParams(0.9, 1.2, 0.7)
        grid, tables, _ = grid_probability_table(exp)
        weights = [q * 1e6 for q in exp.stage_probabilities(p_true)]
        scores = np.zeros(len(grid))
        for w, t in zip(weights, tables):
            scores += np.log(np.maximum(t, 1e-300)) @ w
        order = np.argsort(scores)[::-1]
        top = RotationParams.from_omega(grid[order[0]]).as_array()
        # every near-top grid point lies in the same parameter neighbourhood
        for idx in order[1:]:
            if scores[idx] > scores[order[0]] - 1.0:
                assert np.linalg.norm(RotationParams.from_omega(grid[idx]).as_array()
                                      - top) < 0.75


class TestMonteCarlo:
    def test_seed_determinism(self, king3):
        p_true = RotationParams(0.8, 1.1, 2.3)
        a = monte_carlo_qcrb(king3, p_true, "optimal_pvm", 2000, 12, 9)
        b = monte_carlo_qcrb(king3, p_true, "optimal_pvm", 2000, 12, 9)
        assert np.array_equal(a.empirical_cov, b.empirical_cov)
        assert a.estimate == b.estimate

    def test_report_decomposition(self, king3):
        p_true = RotationParams(0.8, 1.1, 2.3)
        rep = monte_carlo_qcrb(king3, p_true, "optimal_pvm", 2000, 20, 10)
        assert np.max(np.abs(rep.mse - rep.variance - rep.bias_sq)) < 1e-9
        assert rep.n_failed == 0
        assert rep.bound_consistent

    def test_singular_probe_rejected(self):
        probe = coherent_state(HalfInt(6), BlochPoint(0.8, 0.2))
        from spinsense.errors import SingularInformationError
        with pytest.raises(SingularInformationError):
            monte_carlo_qcrb(probe, RotationParams(0.9, 1.2, 0.7),
                             "optimal_pvm", 1000, 5, 1)

    def test_shot_doubling_halves_covariance(self, king3):
        p_true = RotationParams(0.8, 1.1, 2.3)
        small = monte_carlo_qcrb(king3, p_true, "optimal_pvm", 2000, 150, 31)
        big = monte_carlo_qcrb(king3, p_true, "optimal_pvm", 4000, 150, 32)
        ratio = float(np.trace(big.empirical_cov) / np.trace(small.empirical_cov))
        assert 0.4 < ratio < 0.6

    def test_husimi_covariance_near_pi(self, demo_j2_state):
        # estimates straddle theta = pi and come back in either form
        rep = monte_carlo_qcrb(demo_j2_state, RotationParams(3.1, 1.2, 0.7), "husimi",
                               400_000, 20, 3, directions=GPS_J2_DIRECTIONS)
        assert rep.n_failed == 0
        assert float(np.trace(rep.empirical_cov)) < 1e-2

    def test_husimi_study_near_pi_finds_the_higher_peak(self, demo_j2_state, monkeypatch):
        # seeded from a (24, 16, 24) grid over (theta, cap_theta, cap_phi),
        # this study's trial 238 ended at the rotation below, 0.86 rad from
        # the truth and 2.7 nats under the optimum that the lattice reaching
        # past theta = pi finds
        results = []
        _record_calls(monkeypatch, "_fit_trials", results)
        p_true = RotationParams(3.1, 1.2, 0.7)
        monte_carlo_qcrb(demo_j2_state, p_true, "husimi", 400_000, 239, 3,
                         directions=GPS_J2_DIRECTIONS)
        fit = RotationParams.from_omega(np.vstack([omega for omega, _, _, _ in results])[238])
        exp = husimi_experiment(demo_j2_state, GPS_J2_DIRECTIONS)
        counts = [r.counts for r in exp.sample(p_true, 400_000, (3, 238))]
        trapped = RotationParams.from_omega([-1.5118790735653744, -2.4165396390709266,
                                             -0.30297674464173313])
        assert exp.loglik(counts, fit) > exp.loglik(counts, trapped) + 2.0

    def test_one_global_table_per_study(self, demo_j2_state, monkeypatch):
        sizes = []
        table = estimation.grid_probability_table

        def recording_table(*args, **kwargs):
            out = table(*args, **kwargs)
            sizes.append(len(out[0]))
            return out

        monkeypatch.setattr(estimation, "grid_probability_table", recording_table)
        monte_carlo_qcrb(demo_j2_state, RotationParams(0.9, 1.2, 0.7), "husimi",
                         400_000, 2, 3, directions=GPS_J2_DIRECTIONS)
        assert sizes == [9171]

    def test_unknown_scheme(self, king3):
        with pytest.raises(DomainError):
            monte_carlo_qcrb(king3, RotationParams(0.9, 1.2, 0.7),
                             "bogus", 1000, 5, 1)

    def test_unreliable_run_near_zero_angle(self, king3):
        # a barely-nonzero true angle keeps the QFI technically invertible,
        # but every trial trips the axis-resolution flag
        from spinsense.errors import UnreliableRunError
        with pytest.raises(UnreliableRunError) as err:
            monte_carlo_qcrb(king3, RotationParams(2e-3, 0.9, 1.0),
                             "optimal_pvm", 2000, 10, 2)
        assert err.value.failed_fraction > 0.05
