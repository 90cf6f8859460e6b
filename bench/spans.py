"""Span tracer for the benchmark's traced run.

Wraps library functions in every ``cempca.*`` module namespace that binds
them, records one span per call (name, parent span, start, end, whether an
exception escaped) in memory, and folds the spans into per-function
``calls``, ``total_s``, ``self_s`` and ``errors``. A span's self time is its
duration minus the durations of its direct children.

The tracer changes no library code: it swaps module attributes while it is
installed and restores them on ``uninstall``.
"""

import functools
import sys
import time
import tracemalloc
from collections import defaultdict

# Every traced function, as <module>.<function> under the cempca package.
FUNCTIONS = (
    "data.standardize", "data.knn_graph", "data.smooth",
    "linalg.thin_svd", "linalg.spd_solve",
    "mixture.log_joint", "mixture.m_step", "mixture.cem_refine",
    "mixture.e_step", "mixture.log_likelihood", "mixture.kmeans",
    "mixture.lloyd", "mixture.em_gmm", "mixture.cem",
    "cempca.fit_cempca", "cempca.pca_embed", "cempca.update_Q",
    "cempca.update_B", "cempca.update_M", "cempca.objective",
    "baselines.kmeans_pca", "baselines.reduced_kmeans",
    "metrics.nmi", "metrics.ari", "metrics.accuracy",
    "cli.main", "cli.run_method",
)
STATS = (("calls", "count"), ("total_s", "s"), ("self_s", "s"), ("errors", "count"))
# Counters read from a call's arguments or return value and summed over
# calls, and the largest allocation peak inside knn_graph.
EXTRAS = (
    ("mixture.cem_refine.iters", "count"),
    ("mixture.lloyd.iters", "count"),
    ("mixture.log_joint.rows", "count"),
    ("data.knn_graph.peak_mb", "MB"),
)
OVERHEAD = ("trace.overhead_s", "s")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{fn}.{stat}": unit for fn in FUNCTIONS for stat, unit in STATS}
    units.update(EXTRAS)
    units[OVERHEAD[0]] = OVERHEAD[1]
    return units


def _iterations(args, kwargs, result):
    return result[3]


def _log_joint_rows(args, kwargs, result):
    X = args[0] if args else kwargs["X"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    return len(X) * params.g


_COUNTERS = {
    "mixture.cem_refine": ("mixture.cem_refine.iters", _iterations),
    "mixture.lloyd": ("mixture.lloyd.iters", _iterations),
    "mixture.log_joint": ("mixture.log_joint.rows", _log_joint_rows),
}
# Calls whose peak traced allocation is recorded; tracemalloc runs only
# inside these calls, so it slows nothing else.
_PEAK_MB = {"data.knn_graph": "data.knn_graph.peak_mb"}


class Tracer:
    """In-memory span recorder installed over the cempca module namespaces."""

    def __init__(self):
        self.spans = []          # [name, parent index, start, end, error]
        self._stack = []
        self._counters = defaultdict(float)
        self._peaks = defaultdict(float)
        self._undo = []

    def install(self):
        originals = {}
        for qual in FUNCTIONS:
            module_name, fn_name = qual.rsplit(".", 1)
            fn = getattr(sys.modules[f"cempca.{module_name}"], fn_name)
            originals[id(fn)] = (qual, fn)
        wrappers = {}
        for module_name, module in list(sys.modules.items()):
            if module_name != "cempca" and not module_name.startswith("cempca."):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is None:
                    continue
                qual, fn = entry
                if qual not in wrappers:
                    wrappers[qual] = self._wrap(qual, fn)
                setattr(module, attr, wrappers[qual])
                self._undo.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        peak = _PEAK_MB.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if peak:
                tracemalloc.start()
            record = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                record[4] = True
                raise
            finally:
                record[3] = time.perf_counter()
                stack.pop()
                if peak:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self._peaks[peak] = max(self._peaks[peak], mb)
            if counter:
                self._counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def summary(self, passes):
        """Per-pass means of every per-layer stat (peaks are maxima)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{fn}.{stat}": 0.0 for fn in FUNCTIONS for stat, _ in STATS}
        for (name, _, start, end, error), inner in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - inner
            out[f"{name}.errors"] += error
        for metric, _ in EXTRAS:
            out[metric] = self._counters.get(metric, 0.0)
        out = {k: v / passes for k, v in out.items()}
        out.update((metric, self._peaks.get(metric, 0.0)) for metric in _PEAK_MB.values())
        return out
