import math

import numpy as np
import pytest

from conftest import random_params
from spinsense import estimation
from spinsense.errors import (DegenerateInputError, DomainError,
                              NonIdentifiableError)
from spinsense.estimation import (EstimationReport, MeasurementModel, ShotRecord,
                                  born_derivatives, estimator_stats,
                                  grid_probability_table, husimi_design,
                                  husimi_experiment, ml_estimate,
                                  monte_carlo_qcrb, optimal_pvm,
                                  optimal_pvm_experiment, simulate_shots)
from spinsense.majorana import husimi
from spinsense.metrology import classical_fi, qfi_rotation_matrix
from spinsense.states import (BlochPoint, SpinState, basis_state, coherent_state,
                              king_state, noon_state)
from spinsense.su2 import (HalfInt, RotationParams, compose, omega_rotate,
                           rotation_unitary)


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

    def test_probabilities(self):
        j = HalfInt(2)
        st = basis_state(j, 1)
        proj = st.density_matrix()
        model = MeasurementModel(elements=(proj, np.eye(j.dim) - proj),
                                 labels=("hit", "miss"))
        assert np.allclose(model.probabilities(st), [1.0, 0.0], atol=1e-14)


class TestOptimalPvm:
    def test_king_orthogonal_without_gram_schmidt(self, king3):
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
        # and the orthogonalization branch engages; the result still resolves
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

    def test_degenerate_probe(self):
        # coherent states satisfy (J.n)|psi> = J|psi>, which collapses the
        # four-state family to three dimensions: no valid projector set
        st = coherent_state(HalfInt(6), BlochPoint(0.4, 0.2))
        with pytest.raises(DegenerateInputError):
            optimal_pvm(st)

    def test_triad_validation(self, king3):
        with pytest.raises(DomainError):
            optimal_pvm(king3, triad=np.ones((3, 3)))


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


def _king_j3_trials(probe, n_trials):
    """The configs/king_j3.json protocol: anchored at the true rotation,
    10^4 shots, trial seeds (7, trial)."""
    p_true = RotationParams(0.8, 1.1, 2.3)
    exp = optimal_pvm_experiment(probe, p_true)
    return exp, p_true, [exp.sample(p_true, 10_000, (7, t)) for t in range(n_trials)]


class TestAnchoredNewton:
    def test_no_start_falls_back_to_nelder_mead(self, king3, monkeypatch):
        calls = []
        minimize = estimation.minimize

        def counting_minimize(*args, **kwargs):
            calls.append(args)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(estimation, "minimize", counting_minimize)
        exp, p_true, trials = _king_j3_trials(king3, 20)
        for records in trials:
            ml_estimate(records, exp, anchor=p_true)
        assert len(calls) == 0

    @pytest.mark.parametrize("family", [king_state, noon_state])
    def test_estimates_match_nelder_mead(self, family, monkeypatch):
        # the reference refines every start by Nelder-Mead, the fallback path
        exp, p_true, trials = _king_j3_trials(family(HalfInt(6)), 20)
        newton = [ml_estimate(r, exp, anchor=p_true) for r in trials]
        monkeypatch.setattr(estimation, "_newton_fit", lambda *args: None)
        reference = [ml_estimate(r, exp, anchor=p_true) for r in trials]
        for a, b in zip(newton, reference):
            d = a.as_array() - b.as_array()
            d[2] = (d[2] + math.pi) % (2.0 * math.pi) - math.pi
            assert np.max(np.abs(d)) < 1e-6, (a, b)


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
        grid, tables = grid_probability_table(exp)
        weights = [q * 1e6 for q in exp.stage_probabilities(p_true)]
        scores = np.zeros(len(grid))
        for w, t in zip(weights, tables):
            scores += np.log(np.maximum(t, 1e-300)) @ w
        order = np.argsort(scores)[::-1]
        top = grid[order[0]].as_array()
        # every near-top grid point lies in the same parameter neighbourhood
        for idx in order[1:]:
            if scores[idx] > scores[order[0]] - 1.0:
                assert np.linalg.norm(grid[idx].as_array() - top) < 0.75


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
