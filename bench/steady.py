"""Steadiness check: two sets of runs of every workload, compared against
the bounds in BENCHMARK.json.

    python3 bench/steady.py                       # 2 sets x 10 seeds, all workloads
    python3 bench/steady.py --runs 5 --sets 1 --workloads husimi_gps
    python3 bench/steady.py --runs 0 --trace-repeat   # traced counts repeat?

Each set runs seeds 1 .. runs, so both sets see the same inputs.  For every
end-to-end metric it prints each set's median and quartiles and the spread
(q3 - q1) / median.  The benchmark holds when every spread is within the
metric's bound, the second-set median differs from the first by at most the
bound either way, every run is correct, and the share of failed operations
is the same in every run.  It also prints three
times the largest spread seen, the least bound that keeps each spread under
a third of it.  Logs and a summary go to bench/out/steady/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LOG_DIR = BENCH_DIR / "out" / "steady"
FIRST_SEED = 1


def _run(spec, workload, seed, trace, tag):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    (LOG_DIR / f"{tag}.log").write_text(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}; see {tag}.log")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def _worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share
    (negative when it is better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def check_sets(spec, results):
    """results[set][workload] -> list of run results.  Returns (ok, lines)."""
    ok = True
    lines = []
    for w in [x["name"] for x in spec["workloads"]]:
        sets = [r[w] for r in results if w in r]
        if not sets:
            continue
        shares = {(run["failed"], run["attempted"]) for runs in sets for run in runs}
        share_set = {f / a for f, a in shares}
        correct = all(run["correct"] for runs in sets for run in runs)
        same_share = len(share_set) == 1
        ok &= correct and same_share
        lines.append(f"{w}: correct={correct} failed shares={sorted(share_set)}"
                     f"{'' if same_share else '  <-- differ'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            st = [_stats([run["metrics"][name]["value"] for run in runs]) for runs in sets]
            worst = max(s["spread"] for s in st)
            spread_ok = worst <= bound
            drift = _worse_by(metric, st[0]["median"], st[-1]["median"]) if len(st) > 1 else 0.0
            drift_ok = abs(drift) <= bound
            ok &= spread_ok and drift_ok
            cells = "  ".join(f"set{k + 1} median {s['median']:.6g} "
                              f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.4f}"
                              for k, s in enumerate(st))
            lines.append(f"  {name:12s} {cells}  worse-by {drift:+.4f}  bound {bound}"
                         f"  3x spread {3 * worst:.4f}"
                         f"{'' if spread_ok and drift_ok else '  <-- out of bound'}")
    return ok, lines


def trace_repeat(spec, workloads, seed):
    """Two traced runs with one seed: count metrics must agree exactly."""
    ok = True
    lines = []
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    for w in workloads:
        a, b = (_run(spec, w, seed, 1, f"{w}-trace-{k}") for k in (1, 2))
        diff = [n for n in counts
                if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        ok &= not diff and a["failed"] == b["failed"] and a["attempted"] == b["attempted"]
        lines.append(f"{w}: traced counts {'repeat exactly' if not diff else 'differ: ' + str(diff)}")
        for name in sorted(a["metrics"]):
            lines.append(f"  {name:40s} {a['metrics'][name]['value']:.6g}"
                         f"  {b['metrics'][name]['value']:.6g} {a['metrics'][name]['unit']}")
    return ok, lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10, help="seeds per set")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--workloads", default=None, help="comma-separated names")
    p.add_argument("--trace-repeat", action="store_true",
                   help="also run each workload traced twice with seed 1")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [w for w in args.workloads.split(",") if w in names]
    LOG_DIR.mkdir(parents=True, exist_ok=True)

    results = []
    for s in range(args.sets):
        per = {}
        for w in names:
            per[w] = []
            for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
                run = _run(spec, w, seed, 0, f"{w}-set{s + 1}-seed{seed}")
                per[w].append(run)
                m = run["metrics"]
                print(f"set {s + 1} {w} seed {seed}: attempted {run['attempted']} "
                      f"failed {run['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in m.items()), flush=True)
        results.append(per)
    ok, lines = check_sets(spec, results) if args.runs else (True, [])
    if args.trace_repeat:
        t_ok, t_lines = trace_repeat(spec, names, FIRST_SEED)
        ok &= t_ok
        lines += t_lines
    print("\n".join(lines))
    (LOG_DIR / "summary.json").write_text(json.dumps({"ok": ok, "results": results,
                                                      "report": lines}, indent=1))
    print("steady: " + ("all bounds hold" if ok else "OUT OF BOUND"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
