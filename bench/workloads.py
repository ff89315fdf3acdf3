"""The benchmark's workloads: two Monte Carlo studies run through the CLI,
and a survey of single-call probe analyses.

A workload is built from the checkout root, the seed and an output
directory.  ``build()`` makes what the program builds before its first
operation (timed as set-up); ``run_round(r)`` runs one whole round of
operations and returns ``(attempted, failed, busy_s)``, where ``busy_s`` is
the time spent inside the program's calls, less any set-up the program does
inside the round; ``round_setup_s()`` is that set-up, per round;
``ops_per_s(rounds)`` turns the rounds of a run into one throughput figure;
``finish()`` runs the checks that need every round and returns the number of
further failed operations.  ``trace_rounds`` is the fixed number of rounds of
a traced run, so that its counts repeat exactly.

Throughput is a median, because the speed of the host drifts by tens of
percent over seconds: a study takes the median over its short rounds, and
the survey, whose rounds repeat the same inputs, the median time of each
operation across rounds.
"""

import contextlib
import io
import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import spinsense as ss
import spinsense.cli
import spinsense.serialize
from spinsense import estimation, twomode
from spinsense.errors import SpinSenseError

import reference as ref


def _round_seed(seed: int, r: int) -> int:
    return int(np.random.default_rng([seed, r]).integers(2 ** 31))


class Study:
    """``spinsense simulate`` on a shipped config, with the seed and the
    trial count set by the benchmark; one round is one simulate call.

    Each simulate call on the global path builds its own grid table before
    its first trial.  The table is timed where the program builds it, with
    the program's own shape, and counts as set-up, not as trial time."""

    def __init__(self, name, root, seed, out_dir, config, trials_per_round,
                 trace_rounds):
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.trials_per_round = trials_per_round
        self.trace_rounds = trace_rounds
        self.table_s = []
        self.cfg = json.loads((root / "configs" / config).read_text())
        if "file" in self.cfg["probe"]:
            self.cfg["probe"] = {"file": str(root / self.cfg["probe"]["file"])}
        tp = self.cfg["true_params"]
        self.truth = (tp["theta"], tp["cap_theta"], tp["cap_phi"])
        self.reports = []

    def build(self):
        probe_spec = self.cfg["probe"]
        params = ss.RotationParams(*self.truth)
        if "file" in probe_spec:
            probe = ss.serialize.load_state_file(probe_spec["file"])
        else:
            probe = ss.king_state(ss.HalfInt(probe_spec["twice_j"]))
        if self.cfg["scheme"] == "husimi":
            dirs = [ss.BlochPoint(d["polar"], d["azimuth"]) for d in self.cfg["directions"]]
            estimation.husimi_experiment(probe, dirs)
        else:
            estimation.optimal_pvm_experiment(probe, params)

    def reference_bound(self):
        n_shots = self.cfg["n_shots"]
        if self.cfg["scheme"] == "optimal_pvm":
            return ref.qcrb(6, ref.king_j3(), self.truth, n_shots)
        raw = json.loads(Path(self.cfg["probe"]["file"]).read_text())
        psi = np.array([complex(re, im) for re, im in raw["amps"]])
        psi /= np.linalg.norm(psi)
        dirs = [(d["polar"], d["azimuth"]) for d in self.cfg["directions"]]
        return ref.husimi_design_crb(raw["twice_j"], psi, self.truth, dirs, n_shots)

    def run_round(self, r):
        n = self.trials_per_round
        cfg = dict(self.cfg, seed=_round_seed(self.seed, r), n_trials=n)
        cfg["output"] = str(self.out_dir / f"{self.name}-r{r}-report.json")
        cfg_path = self.out_dir / f"{self.name}-r{r}-config.json"
        cfg_path.write_text(json.dumps(cfg))
        table_s = []
        build_table = estimation.grid_probability_table

        def timed_table(*args, **kwargs):
            t0 = perf_counter()
            try:
                return build_table(*args, **kwargs)
            finally:
                table_s.append(perf_counter() - t0)

        estimation.grid_probability_table = timed_table
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                code = ss.cli.main(["simulate", str(cfg_path), "--out", cfg["output"]])
                busy = perf_counter() - t0 - sum(table_s)
        finally:
            estimation.grid_probability_table = build_table
        self.table_s.append(sum(table_s))
        if code != 0:
            return n, n, busy
        report = json.loads(Path(cfg["output"]).read_text())
        self.reports.append(report)
        return n, report["n_failed"], busy

    def round_setup_s(self):
        """Median time per simulate call spent building the grid table."""
        return statistics.median(self.table_s)

    @staticmethod
    def ops_per_s(rounds):
        return statistics.median(a / busy for a, _, busy in rounds)

    def finish(self):
        """The pooled covariance and bias against the reference bound; a
        failed check fails every trial of the run."""
        if not self.reports:
            return 0
        n, mean, cov = ref.pool_reports(self.reports, self.truth)
        ok, details = ref.check_study(n, mean, cov, self.reference_bound())
        self.details = details
        if ok:
            return 0
        return sum(rep["n_trials"] - rep["n_failed"] for rep in self.reports)


# probe survey inputs
KING_TWICE_J = (4, 7, 10, 12)                 # J = 2, 7/2, 5, 6: no closed form
NOON_AVG_TWICE_J = tuple(range(3, 13))        # closed form holds for 2J >= 3
RANDOM_TWICE_J = (10, 20, 30, 40, 50, 60)     # drawn from the seed
RANDOM_FIXED_TWICE_J = (100, 120)             # fixed draws; spurious polar stars
NOON_STAR_TWICE_J = 120
COHERENT_POLARS = (0.3, 1.5, 3.0)
COHERENT_TWICE_J = tuple(range(2, 61, 2))
SUBSPACE_N = tuple(range(1, 17))
TWO_MODE_ALPHA, TWO_MODE_BETA = 2.0, 1.0
CS_LAM = 0.8                                  # the criterion-09 state
FIXED_STREAM = 2020                           # seed of the seed-independent draws


def _random_amps(twice_j, rng):
    a = rng.standard_normal(twice_j + 1) + 1j * rng.standard_normal(twice_j + 1)
    return a / np.linalg.norm(a)


def _stars(con):
    return [(s.point.polar, s.point.azimuth, s.multiplicity) for s in con.stars]


class ProbeSurvey:
    """A fixed list of single-call analyses; one round runs the whole list.

    Inputs that some operations fail on, by faults the README names, do not
    depend on the seed, so every round fails the same operations."""

    trace_rounds = 1

    def __init__(self, root, seed, out_dir):
        fixed = np.random.default_rng(FIXED_STREAM)
        self.coherent_points = [(pol, float(fixed.uniform(0.0, 2.0 * math.pi)), n)
                                for pol in COHERENT_POLARS for n in COHERENT_TWICE_J]
        self.random_amps = {n: _random_amps(n, np.random.default_rng([seed, n]))
                            for n in RANDOM_TWICE_J}
        self.random_amps.update({n: _random_amps(n, np.random.default_rng([FIXED_STREAM, n]))
                                 for n in RANDOM_FIXED_TWICE_J})
        self.failed_by_kind = {}
        self.op_times = []

    def build(self):
        """SpinState and two-mode inputs of the survey."""
        self.random_states = {n: ss.SpinState(ss.HalfInt(n), a)
                              for n, a in self.random_amps.items()}
        self.noon_states = {n: ss.noon_state(ss.HalfInt(n))
                            for n in NOON_AVG_TWICE_J + (NOON_STAR_TWICE_J,)}
        self.coherent_states = [
            (ss.coherent_state(ss.HalfInt(n), ss.BlochPoint(pol, az)), pol, az, n)
            for pol, az, n in self.coherent_points]
        a, b = TWO_MODE_ALPHA, TWO_MODE_BETA
        self.two_mode = ss.two_mode_coherent(a, b, twomode.default_n_max(a * a + b * b))
        alpha, xi = math.sqrt(4.0 * CS_LAM), math.atanh(CS_LAM)
        self.squeezed = ss.coherent_plus_squeezed(
            alpha, xi, twomode.default_n_max(alpha ** 2),
            n_max_b=twomode.squeezed_n_max(xi))

    def operations(self):
        """(kind, call, check) triples in round order; ``check`` receives
        the call's result and returns True when it is right."""
        kings = {}
        ops = []
        for n in KING_TWICE_J:
            def call(n=n):
                kings[n] = ss.king_state(ss.HalfInt(n))
                return kings[n]
            ops.append(("king_state", call,
                        lambda st, n=n: ref.check_king(n, st.amps)))
        for n in KING_TWICE_J:
            ops.append(("husimi_grid",
                        lambda n=n: ss.husimi_grid(kings[n], 64, 128),
                        lambda g, n=n: ref.check_husimi_grid(kings[n].amps, g.polar,
                                                             g.azimuth, g.q)))
        for n in KING_TWICE_J:
            ops.append(("avg_variance", lambda n=n: ss.avg_variance(kings[n]),
                        lambda v, n=n: ref.check_avg_variance(v, ref.king_avg_variance(n))))
        for n in NOON_AVG_TWICE_J:
            ops.append(("avg_variance", lambda n=n: ss.avg_variance(self.noon_states[n]),
                        lambda v, n=n: ref.check_avg_variance(v, ref.noon_avg_variance(n))))
        for n, st in self.random_states.items():
            ops.append(("constellation", lambda st=st: ss.constellation(st),
                        lambda c, n=n, st=st: ref.check_constellation(n, st.amps, _stars(c))))
        noon = self.noon_states[NOON_STAR_TWICE_J]
        ops.append(("constellation", lambda: ss.constellation(noon),
                    lambda c: (ref.check_noon_constellation(NOON_STAR_TWICE_J, _stars(c))
                               and ref.check_constellation(NOON_STAR_TWICE_J, noon.amps,
                                                           _stars(c)))))
        for st, pol, az, n in self.coherent_states:
            ops.append(("constellation", lambda st=st: ss.constellation(st),
                        lambda c, pol=pol, az=az, n=n:
                        ref.check_coherent_constellation(n, pol, az, _stars(c))))
        ops.extend(self._two_mode_operations())
        return ops

    def _two_mode_operations(self):
        decs = {}
        mean = TWO_MODE_ALPHA ** 2 + TWO_MODE_BETA ** 2
        polar = 2.0 * math.atan(TWO_MODE_BETA / TWO_MODE_ALPHA)

        def poisson_ok(dec):
            w = dec.weights_by_n()
            return all(abs(w.get(n, 0.0) - math.exp(-mean) * mean ** n / math.factorial(n))
                       <= 1e-12 for n in range(31))

        def total_ok(dec):
            return abs(sum(dec.weights_by_n().values()) + dec.neglected - 1.0) <= 1e-9

        def decomposer(key, state):
            def call():
                decs[key] = ss.decompose(state)
                return decs[key]
            return call

        ops = [("decompose", decomposer("coherent", self.two_mode),
                lambda d: poisson_ok(d) and total_ok(d)),
               ("decompose", decomposer("squeezed", self.squeezed), total_ok)]
        for n in SUBSPACE_N:
            def sub(key, n=n):
                return decs[key].component(ss.HalfInt(n)).state
            ops.append(("constellation",
                        lambda n=n: ss.constellation(sub("coherent", n)),
                        lambda c, n=n: ref.check_coherent_constellation(n, polar, 0.0,
                                                                        _stars(c))))
            ops.append(("constellation",
                        lambda n=n: ss.constellation(sub("squeezed", n)),
                        lambda c, n=n: (ref.check_great_circle(_stars(c))
                                        and ref.check_constellation(
                                            n, sub("squeezed", n).amps, _stars(c)))))
        return ops

    def run_round(self, r):
        failed = 0
        times = []
        for kind, call, check in self.operations():
            t0 = perf_counter()
            try:
                out = call()
            except (SpinSenseError, KeyError):   # KeyError: an input that an
                #                                  earlier operation failed to make
                times.append(perf_counter() - t0)
                ok = False
            else:
                times.append(perf_counter() - t0)
                ok = check(out)
            if not ok:
                failed += 1
                self.failed_by_kind[kind] = self.failed_by_kind.get(kind, 0) + 1
        self.op_times.append(times)
        return len(times), failed, sum(times)

    @staticmethod
    def round_setup_s():
        return 0.0

    def ops_per_s(self, rounds):
        per_op = np.median(np.array(self.op_times), axis=0)
        return len(per_op) / float(per_op.sum())

    def finish(self):
        return 0


def make(name, root, seed, out_dir):
    if name == "king_pvm":
        return Study(name, root, seed, out_dir, "king_j3.json", trials_per_round=10,
                     trace_rounds=5)
    if name == "husimi_gps":
        return Study(name, root, seed, out_dir, "gps_j2.json", trials_per_round=4,
                     trace_rounds=4)
    if name == "probe_survey":
        return ProbeSurvey(root, seed, out_dir)
    raise KeyError(name)
