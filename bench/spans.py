"""Span tracing from outside the program.

``Tracer.install()`` replaces the public functions and methods listed in
``TRACED`` with wrappers that record a span (name, start, end, parent) and
count calls.  Call sites inside spinsense import names directly (``from .su2
import rotation_unitary``), so each wrapper is put in every spinsense module
that binds the original object.  ``uninstall()`` puts the originals back.
Spans stay in memory until ``write()``.
"""

import csv
import functools
import gzip
import sys
from time import perf_counter

import numpy as np

# (span name, module, attribute[, method]); the layer is the part of the name
# before the first dot, except for scipy.minimize, which is its own layer
TRACED = (
    ("su2.rotation_unitary", "spinsense.su2", "rotation_unitary"),
    ("su2.compose", "spinsense.su2", "compose"),
    ("states.king_state", "spinsense.states", "king_state"),
    ("states.coherent_state", "spinsense.states", "coherent_state"),
    ("majorana.constellation", "spinsense.majorana", "constellation"),
    ("majorana.husimi_grid", "spinsense.majorana", "husimi_grid"),
    ("metrology.qfi_rotation_matrix", "spinsense.metrology", "qfi_rotation_matrix"),
    ("metrology.crb", "spinsense.metrology", "crb"),
    ("metrology.classical_fi", "spinsense.metrology", "classical_fi"),
    ("metrology.avg_variance", "spinsense.metrology", "avg_variance"),
    ("estimation.stage_probabilities", "spinsense.estimation", "RotationExperiment",
     "stage_probabilities"),
    ("estimation.loglik", "spinsense.estimation", "RotationExperiment", "loglik"),
    ("estimation.sample", "spinsense.estimation", "RotationExperiment", "sample"),
    ("estimation.fisher_information", "spinsense.estimation", "RotationExperiment",
     "fisher_information"),
    ("estimation.grid_probability_table", "spinsense.estimation",
     "grid_probability_table"),
    ("estimation.ml_estimate", "spinsense.estimation", "ml_estimate"),
    ("estimation.monte_carlo_qcrb", "spinsense.estimation", "monte_carlo_qcrb"),
    ("twomode.decompose", "spinsense.twomode", "decompose"),
    ("cli.main", "spinsense.cli", "main"),
    ("cli.load_state_file", "spinsense.serialize", "load_state_file"),
    ("cli.validate_experiment_config", "spinsense.serialize",
     "validate_experiment_config"),
    ("cli.report_to_dict", "spinsense.serialize", "report_to_dict"),
    ("cli.dump_json", "spinsense.serialize", "dump_json"),
)
# scipy's minimize as estimation calls it: the Nelder-Mead layer
MINIMIZE = ("scipy.minimize", "spinsense.estimation", "minimize")

LAYERS = ("su2", "states", "majorana", "metrology", "estimation", "twomode", "cli",
          "scipy.minimize")


def layer_of(name: str) -> str:
    return "scipy.minimize" if name.startswith("scipy.minimize") else name.split(".")[0]


class Tracer:
    def __init__(self):
        self.names = []
        self.parent = []
        self.start = []
        self.end = []
        self._stack = [-1]
        self.minimize_iters = 0
        self._patches = []

    def _wrap(self, name, fn, on_result=None):
        names, parent, start, end, stack = (self.names, self.parent, self.start,
                                            self.end, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out
        return wrapper

    def _count_iters(self, res):
        self.minimize_iters += int(res.nit)

    def install(self):
        """Wrap every traced name wherever a spinsense module binds it."""
        modules = [m for k, m in sys.modules.items()
                   if (k == "spinsense" or k.startswith("spinsense.")) and m is not None]
        for entry in TRACED + (MINIMIZE,):
            name, home, attr = entry[:3]
            owner = sys.modules[home]
            if len(entry) == 4:                       # a method on a class
                cls = getattr(owner, attr)
                orig = cls.__dict__[entry[3]]
                self._patch(cls, entry[3], self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            on_result = self._count_iters if entry is MINIMIZE else None
            wrapped = self._wrap(name, orig, on_result)
            targets = [owner] if entry is MINIMIZE else modules
            for mod in targets:
                if mod.__dict__.get(attr) is orig:
                    self._patch(mod, attr, wrapped)

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # --- results -------------------------------------------------------------

    def arrays(self):
        names = np.array(self.names)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return names, dur, dur - child

    def metrics(self, n_ops: int, constellation_failed: int, slowdown: float) -> dict:
        """The per-layer metrics of one traced pass over ``n_ops`` operations."""
        names, dur, self_time = self.arrays()

        def calls(name):
            return int(np.count_nonzero(names == name))

        def median(name, scale):
            sel = dur[names == name]
            return float(np.median(sel)) * scale if len(sel) else 0.0

        per_op = max(n_ops, 1)
        m = {
            "su2.rotation_unitary.calls_per_op": (calls("su2.rotation_unitary") / per_op, "count"),
            "su2.rotation_unitary.us": (median("su2.rotation_unitary", 1e6), "us"),
            "su2.compose.calls_per_op": (calls("su2.compose") / per_op, "count"),
            "su2.compose.us": (median("su2.compose", 1e6), "us"),
            "estimation.loglik.calls_per_op": (calls("estimation.loglik") / per_op, "count"),
            "estimation.loglik.us": (median("estimation.loglik", 1e6), "us"),
            "estimation.minimize.calls_per_op": (calls("scipy.minimize") / per_op, "count"),
            "estimation.minimize.iters_per_op": (self.minimize_iters / per_op, "count"),
            "estimation.ml_estimate.ms": (median("estimation.ml_estimate", 1e3), "ms"),
            "estimation.sample.ms": (median("estimation.sample", 1e3), "ms"),
            "estimation.fisher_information.ms": (median("estimation.fisher_information", 1e3),
                                                 "ms"),
            "estimation.grid_probability_table.s": (
                median("estimation.grid_probability_table", 1.0), "s"),
            "states.king_state.ms": (median("states.king_state", 1e3), "ms"),
            "states.coherent_state.calls_per_op": (calls("states.coherent_state") / per_op,
                                                   "count"),
            "states.coherent_state.us": (median("states.coherent_state", 1e6), "us"),
            "majorana.constellation.ms": (median("majorana.constellation", 1e3), "ms"),
            "majorana.constellation.failed": (constellation_failed, "count"),
            "majorana.husimi_grid.ms": (median("majorana.husimi_grid", 1e3), "ms"),
            "metrology.avg_variance.ms": (median("metrology.avg_variance", 1e3), "ms"),
            "twomode.decompose.ms": (median("twomode.decompose", 1e3), "ms"),
        }
        layer = np.array([layer_of(n) for n in names]) if len(names) else names
        for lay in LAYERS:
            total = float(self_time[layer == lay].sum()) if len(names) else 0.0
            m[f"{lay}.self_s"] = (total, "s")
        m["trace.slowdown"] = (slowdown, "ratio")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def write(self, path):
        """Spans as gzipped CSV: id, parent, name, start and end in seconds
        from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start_s", "end_s"])
            for i, (n, p, s, e) in enumerate(zip(self.names, self.parent, self.start,
                                                 self.end)):
                out.writerow([i, p, n, f"{s - t0:.9f}", f"{e - t0:.9f}"])
