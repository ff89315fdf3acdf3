"""Run one benchmark workload on the spinsense checkout that holds this file.

    python3 bench/run.py --workload king_pvm --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, ops_per_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones, and the spans are written to
``bench/out/``.  See bench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
NEEDED = ("src/spinsense/__init__.py", "configs/king_j3.json", "configs/gps_j2.json",
          "configs/figure3_state.json")


def _parse(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import spinsense, build the workload and print the times")
    return p.parse_args(argv)


def _prepare():
    """Refuse anything but a spinsense checkout; pin BLAS to one thread so
    that the small dense kernels run the same way on every run."""
    missing = [p for p in NEEDED if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"bench/run.py: {ROOT} is not a spinsense checkout; missing {missing}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def _import_spinsense():
    import spinsense
    if Path(spinsense.__file__).resolve().parent != ROOT / "src" / "spinsense":
        sys.exit(f"bench/run.py: imported spinsense from {spinsense.__file__}, "
                 f"not from {ROOT / 'src'}")


def _setup_only(args):
    t0 = perf_counter()
    _import_spinsense()
    import_s = perf_counter() - t0
    import workloads
    wl = workloads.make(args.workload, ROOT, args.seed, OUT_DIR)
    t0 = perf_counter()
    wl.build()
    print(json.dumps({"import_s": import_s, "build_s": perf_counter() - t0}))


def _measure_setup(args):
    """Median over fresh interpreters of importing spinsense and building
    what the workload builds before its first round.  Set-up the program
    does inside each round is added by the caller."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
        out = json.loads(proc.stdout.splitlines()[-1])
        times.append(out["import_s"] + out["build_s"])
    return statistics.median(times)


def _run_rounds(wl, rounds=None, seconds=None):
    """Whole rounds: a fixed number, or as many as are expected to end within
    ``seconds`` (at least one).  Returns (attempted, failed, busy) per round."""
    out = []
    t0 = perf_counter()
    while True:
        out.append(wl.run_round(len(out)))
        elapsed = perf_counter() - t0
        if len(out) == rounds or (rounds is None
                                  and elapsed + elapsed / len(out) > seconds):
            return out


def _untraced(args, tmp, setup_s):
    import workloads
    wl = workloads.make(args.workload, ROOT, args.seed, tmp)
    wl.build()
    rounds = _run_rounds(wl, seconds=args.seconds)
    attempted, failed = sum(r[0] for r in rounds), sum(r[1] for r in rounds)
    study_failed = wl.finish()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s += wl.round_setup_s()
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "ops_per_s": {"value": wl.ops_per_s(rounds), "unit": "1/s"},
               "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    return _result(wl, attempted, failed + study_failed, study_failed, metrics)


def _traced(args, tmp):
    """The same rounds untraced, then traced; per-layer numbers come from the
    traced pass and the ratio of the two passes is the tracing slowdown."""
    import spans
    import workloads
    plain = workloads.make(args.workload, ROOT, args.seed, tmp)
    plain.build()
    busy_plain = sum(r[2] for r in _run_rounds(plain, rounds=plain.trace_rounds))

    wl = workloads.make(args.workload, ROOT, args.seed, tmp)
    wl.build()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _run_rounds(wl, rounds=wl.trace_rounds)
    finally:
        tracer.uninstall()
    attempted, failed, busy = (sum(col) for col in zip(*traced))
    study_failed = wl.finish()
    cons_failed = getattr(wl, "failed_by_kind", {}).get("constellation", 0)
    metrics = tracer.metrics(attempted, cons_failed, busy / busy_plain)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.csv.gz"
    tracer.write(path)
    print(f"spans: {len(tracer.names)} written to {path.relative_to(ROOT)}")
    return _result(wl, attempted, failed + study_failed, study_failed, metrics)


def _result(wl, attempted, failed, study_failed, metrics):
    """The result line.  ``correct`` is false when a study's pooled check
    fails; an operation that fails on its own counts in ``failed`` only."""
    details = getattr(wl, "details", None)
    if details is not None:
        print(f"study check: {json.dumps(details)}")
    by_kind = getattr(wl, "failed_by_kind", None)
    if by_kind:
        print(f"failed by kind: {json.dumps(by_kind, sort_keys=True)}")
    return {"correct": study_failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = _parse(argv)
    _prepare()
    if args.setup_only:
        _setup_only(args)
        return 0
    setup_s = None if args.trace else _measure_setup(args)
    _import_spinsense()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        result = _traced(args, tmp) if args.trace else _untraced(args, tmp, setup_s)
    finally:
        shutil.rmtree(tmp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
