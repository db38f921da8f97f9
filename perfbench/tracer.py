"""Outside-in span and counter recorder for the tapbound layers.

The tracer wraps public names at each layer boundary without changing the
package. A `from ... import` makes a second binding of a name, so a wrapper
replaces the original in every loaded tapbound module that binds it (for
example `tapbound.harness.experiments.maximize_tap` and
`tapbound.cover.gradient`); methods are replaced on their class. Names looked
up at call time, such as `round_down_index` inside
`partition.node_member_mask`, then resolve to the wrapper too.

Spans (name, start, end, parent) are kept in compact in-memory arrays and
written by `write_spans` when the run ends. Wrappers exist only in the
process that installed them: pool workers do not inherit them, so traced
runs must be serial and in-process.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (metric prefix, defining module, attribute) of every traced name. Spans
# time the call; counters only count it, for names called so often that a
# span would dominate their cost.
SPANS = (
    ("hamiltonian.sample_disorder", "tapbound.hamiltonian", "sample_disorder"),
    ("hamiltonian.energy", "tapbound.hamiltonian", "energy"),
    ("hamiltonian.energy_many", "tapbound.hamiltonian", "energy_many"),
    ("hamiltonian.gradient", "tapbound.hamiltonian", "gradient"),
    ("covariance.evaluate", "tapbound.covariance", "CovarianceSeries.evaluate"),
    ("entropy.lambda_min_entropy", "tapbound.entropy", "lambda_min_entropy"),
    ("cover.classify", "tapbound.cover", "CoverBuilder.classify"),
    ("cover.pair", "tapbound.cover", "CoverBuilder.pair"),
    ("cover.thin_projection", "tapbound.cover", "thin_projection"),
    ("partition.node_member_mask", "tapbound.partition", "node_member_mask"),
    ("partition.log_partition_exact_ising", "tapbound.partition",
     "log_partition_exact_ising"),
    ("partition.log_partition_mc_sphere", "tapbound.partition",
     "log_partition_mc_sphere"),
    ("tap.maximize_tap", "tapbound.tap", "maximize_tap"),
    ("tap.tap_energy", "tapbound.tap", "tap_energy"),
    ("tap.tap_gradient", "tapbound.tap", "tap_gradient"),
    ("harness.run", "tapbound.harness", "run"),
    ("harness.write_report", "tapbound.harness.report", "write_report"),
)
COUNTERS = (
    ("cover.round_down_index", "tapbound.cover", "round_down_index"),
    ("cover.membership", "tapbound.cover", "membership"),
)


def _maximize_work(result, p, starts, *args, **kwargs):
    # A start is "at best" when its final value (its last trace row) is
    # within 1e-6 * N of the returned best value.
    final = {}
    for row in result.trace:
        final[row.start] = row.value
    tol = 1e-6 * p.n
    return {"iterations": len(result.trace),
            "converged": int(result.converged),
            "starts": starts,
            "starts_at_best": sum(1 for v in final.values()
                                  if v >= result.value - tol)}


# Work counted per call, read from the call's arguments or its result.
WORK = {
    "hamiltonian.energy_many":
        lambda result, d, sigmas, *a, **k: {"rows": len(sigmas)},
    "partition.node_member_mask":
        lambda result, node, block, *a, **k: {"rows": len(block)},
    "partition.log_partition_exact_ising":
        lambda result, *a, **k: {"configs": result.sample_count},
    "partition.log_partition_mc_sphere":
        lambda result, *a, **k: {"samples": result.sample_count},
    "cover.classify": lambda result, *a, **k: {"depth": result[0].k},
    "tap.maximize_tap": _maximize_work,
}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.work_sum: dict[tuple, float] = {}
        self.work_max: dict[tuple, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.origin = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, module, attr in SPANS:
            self._patch(module, attr, self._span_wrapper(name, WORK.get(name)))
        for name, module, attr in COUNTERS:
            self._patch(module, attr, self._count_wrapper(name))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        owner = sys.modules[module]
        *path, key = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, key)
        wrapper = make_wrapper(original)
        if path:  # a method: one binding, on its class
            self._undo.append((owner, key, original))
            setattr(owner, key, wrapper)
            return
        for mod in _tapbound_modules():
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, binding, original))
                    setattr(mod, binding, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name: str, work):
        name_id = self._name_id(name)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = len(span_start)
                span_name.append(name_id)
                span_parent.append(stack[-1] if stack else -1)
                span_end.append(0.0)
                stack.append(index)
                span_start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span_end[index] = clock()
                    stack.pop()
                if work is not None:
                    self._add_work(name, work(result, *args, **kwargs))
                return result
            return wrapper
        return make

    def _count_wrapper(self, name: str):
        calls = self.calls
        calls.setdefault(name, 0)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _add_work(self, name: str, work: dict) -> None:
        for key, value in work.items():
            slot = (name, key)
            self.work_sum[slot] = self.work_sum.get(slot, 0) + value
            self.work_max[slot] = max(self.work_max.get(slot, value), value)

    # -- results -----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (the
        span's duration minus the part its child spans cover)."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested],
                            minlength=len(dur))
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        incl = np.bincount(names, weights=dur, minlength=width)
        own = np.bincount(names, weights=dur - child, minlength=width)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def write_spans(self, path: str) -> None:
        """One CSV row per span; times in seconds since the tracer started."""
        with open(path, "w") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_parent[i]},"
                         f"{self.names[self.span_name[i]]},"
                         f"{self.span_start[i] - self.origin:.9f},"
                         f"{self.span_end[i] - self.origin:.9f}\n")


def _tapbound_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "tapbound" or key.startswith("tapbound."))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, verdicts: int, untraced_wall: float,
                  traced_wall: float, untraced_cpu: float) -> dict:
    """Every per-layer metric by name; counts and seconds are per traced
    verdict, rates are work per inclusive span second."""
    spans = tracer.totals()

    def span(name):
        return spans.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def calls(name):
        return span(name)["calls"] if name in spans else tracer.calls.get(name, 0)

    def work(name, key):
        return tracer.work_sum.get((name, key), 0)

    per = 1.0 / verdicts
    out = {}
    for name, _, _ in SPANS:
        out[name + ".calls"] = calls(name) * per
        out[name + ".self_s"] = span(name)["self_s"] * per
    for name, _, _ in COUNTERS:
        out[name + ".calls"] = calls(name) * per
    out["cover.pair.miss_ratio"] = _ratio(calls("entropy.lambda_min_entropy"),
                                          calls("cover.pair"))
    out["cover.classify.depth_mean"] = _ratio(work("cover.classify", "depth"),
                                              calls("cover.classify"))
    out["cover.classify.depth_max"] = tracer.work_max.get(("cover.classify", "depth"), 0)
    for name, key in (("partition.node_member_mask", "rows"),
                      ("hamiltonian.energy_many", "rows"),
                      ("tap.maximize_tap", "iterations")):
        out[f"{name}.{key}"] = work(name, key) * per
    for name, key in (("partition.log_partition_exact_ising", "configs"),
                      ("partition.log_partition_mc_sphere", "samples"),
                      ("hamiltonian.energy_many", "rows")):
        out[f"{name}.{key}_per_s"] = _ratio(work(name, key), span(name)["incl_s"])
    mt = "tap.maximize_tap"
    out[mt + ".converged_ratio"] = _ratio(work(mt, "converged"), calls(mt))
    out[mt + ".starts_at_best_ratio"] = _ratio(work(mt, "starts_at_best"),
                                               work(mt, "starts"))
    out["harness.cpu_util"] = _ratio(untraced_cpu, untraced_wall)
    out["harness.trace_overhead"] = _ratio(traced_wall, untraced_wall)
    return out

