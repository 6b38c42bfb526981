"""Traced mode: wrappers around the package's functions, installed from outside.

Every function and method defined in a layer module is wrapped, and the
wrapper is installed under every module attribute that holds the original
object, because modules import one another's functions by name. Each call
pushes a frame on one stack, so a layer's self time is the time of its
frames minus the time of their child frames. Calls are stored as spans
(name, start, end, parent span, operation), except the per-call
primitives in AGGREGATED, which are only counted and timed.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("curves", "beliefs", "utility", "numerics", "solver", "nash",
          "kernels", "oracle", "mixture", "io", "cli")

# Called hundreds of thousands of times per region map: counted, not stored.
AGGREGATED = frozenset({
    "curves.PayoffCurve.value", "curves.PayoffCurve.derivative",
    "beliefs.BeliefDistribution.cdf", "beliefs.BeliefDistribution.pdf",
    "utility.TailIntegrals._eval", "utility.TailIntegrals.own",
    "utility.TailIntegrals.other", "utility.TailIntegrals.responder_term",
    "utility.dg_objective", "utility.social_expost", "solver._fast_u",
})

# Search functions whose callback evaluations are counted, by counter name.
_CALLBACK_COUNTERS = {
    "numerics.scan_then_golden": "numerics.objective_evals",
    "numerics.bisect_root": "numerics.bisect_root_evals",
    "numerics.bisect_boundary": "numerics.bisect_boundary_evals",
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None
        self.origin = time.perf_counter()
        self._stack = []  # frames: [child time, span id of the nearest stored span]
        self.spans = []
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.durations = defaultdict(list)
        self.keys = {}  # (layer, attribute or Class.method) -> wrapper key

    # -- recording -----------------------------------------------------------

    def call(self, layer, key, fn, args, kwargs, store):
        stack = self._stack
        parent = stack[-1] if stack else None
        parent_span = parent[1] if parent is not None else None
        frame = [0.0, parent_span]
        if store:
            frame[1] = len(self.spans)
            self.spans.append(None)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[0] += dur
            self.self_s[layer] += dur - frame[0]
            self.calls[key] += 1
            self.total_s[key] += dur
            if store:
                self.durations[key].append(dur)
                self.spans[frame[1]] = (key, t0 - self.origin, t1 - self.origin, parent_span, self.op)

    def operation(self, name, fn):
        """Run one benchmark operation under a top-level span."""
        self.op = name
        try:
            return self.call("bench", f"op.{name}", fn, (), {}, True)
        finally:
            self.op = None

    # -- installation --------------------------------------------------------

    def install(self, package_name: str = "moralbargain") -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if (n == package_name or n.startswith(package_name + ".")) and m is not None}
        replace = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = modules.get(f"{package_name}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__:
                        self._wrap_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    if id(obj) not in replace:
                        replace[id(obj)] = (obj, self._wrapper(layer, f"{layer}.{obj.__name__}", obj))
                    self.keys[(layer, attr)] = replace[id(obj)][1].trace_key
        # install each wrapper under every name that holds the original
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer, cls) -> None:
        is_dataclass = "__dataclass_fields__" in vars(cls)
        for attr, obj in list(vars(cls).items()):
            if not callable(obj) or isinstance(obj, (type, staticmethod, classmethod)):
                continue
            if attr.startswith("__") and (attr != "__init__" or is_dataclass):
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            setattr(cls, attr, self._wrapper(layer, key, obj))
            self.keys[(layer, f"{cls.__name__}.{attr}")] = key

    def _wrapper(self, layer, key, fn):
        store = key not in AGGREGATED
        counter = _CALLBACK_COUNTERS.get(key)
        kernel = layer == "kernels"  # every kernel takes (.., .., .., x1s, x2s, ..)
        lattice_score = key == "mixture._Lattice._score"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None and args:
                args = (tracer._counted(args[0], counter),) + args[1:]
            if kernel:
                x1s = kwargs.get("x1s", args[3] if len(args) > 3 else ())
                x2s = kwargs.get("x2s", args[4] if len(args) > 4 else ())
                tracer.counts["kernels.grid_cells"] += len(x1s) * len(x2s)
            if lattice_score:
                tracer.counts["mixture.lattice_points_scored"] += len(args[1])
            return tracer.call(layer, key, fn, args, kwargs, store)

        wrapper.trace_key = key
        return wrapper

    def _counted(self, f, counter):
        mod = getattr(f, "__module__", "") or ""
        layer = mod.rsplit(".", 1)[-1] if mod.rsplit(".", 1)[-1] in LAYERS else "bench"
        key = f"{layer}.callback"
        tracer = self

        def g(*args, **kwargs):
            tracer.counts[counter] += 1
            return tracer.call(layer, key, f, args, kwargs, False)

        return g

    # -- results -------------------------------------------------------------

    def metrics(self, traced_wall_s: float, untraced_wall_s: float):
        """Per-layer metrics; a metric whose function is gone is listed as missing."""
        out, missing = {}, []

        def key(name, layer, attr):
            k = self.keys.get((layer, attr))
            if k is None:
                missing.append(name)
            return k

        def calls(name, layer, attr):
            k = key(name, layer, attr)
            if k is not None:
                out[name] = (self.calls[k], "count")

        def total(name, layer, attr):
            k = key(name, layer, attr)
            if k is not None:
                out[name] = (self.total_s[k], "s")

        def counted(name, layer, attr):
            if key(name, layer, attr) is not None:
                out[name] = (self.counts[name], "count")

        for layer in LAYERS:
            if any(lay == layer for lay, _ in self.keys):
                out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            else:
                missing.append(f"{layer}.self_s")
        calls("curves.value_calls", "curves", "PayoffCurve.value")
        calls("curves.derivative_calls", "curves", "PayoffCurve.derivative")
        calls("beliefs.cdf_calls", "beliefs", "BeliefDistribution.cdf")
        calls("beliefs.pdf_calls", "beliefs", "BeliefDistribution.pdf")
        calls("beliefs.tail_expectation_calls", "beliefs", "BeliefDistribution.tail_expectation")
        calls("utility.tail_integrals_builds", "utility", "TailIntegrals.__init__")
        total("utility.tail_integrals_s", "utility", "TailIntegrals.__init__")
        calls("utility.dg_transfer_calls", "utility", "dg_transfer")
        calls("utility.eval_expected_utility_calls", "utility", "eval_expected_utility")
        calls("numerics.scan_calls", "numerics", "scan_then_golden")
        counted("numerics.objective_evals", "numerics", "scan_then_golden")
        calls("numerics.bisect_root_calls", "numerics", "bisect_root")
        counted("numerics.bisect_root_evals", "numerics", "bisect_root")
        calls("numerics.bisect_boundary_calls", "numerics", "bisect_boundary")
        counted("numerics.bisect_boundary_evals", "numerics", "bisect_boundary")
        calls("solver.kappa_tilde_calls", "solver", "kappa_tilde")
        total("solver.kappa_tilde_s", "solver", "kappa_tilde")
        calls("solver.selfish_offer_calls", "solver", "selfish_offer")
        calls("solver.constrained_offer_calls", "solver", "constrained_offer")
        calls("solver.constrained_threshold_calls", "solver", "constrained_threshold")
        calls("solver.optimal_strategy_calls", "solver", "optimal_strategy")
        k = key("solver.optimal_strategy_p50_ms", "solver", "optimal_strategy")
        if k is not None:
            durs = self.durations[k]
            out["solver.optimal_strategy_p50_ms"] = (
                1e3 * statistics.median(durs) if durs else 0.0, "ms")
        calls("nash.verify_calls", "nash", "verify_nash")
        calls("kernels.deviation_best_calls", "kernels", "deviation_best")
        calls("kernels.grid_argmax_calls", "kernels", "grid_argmax")
        if "kernels.self_s" not in out:
            missing += ["kernels.grid_cells", "kernels.ns_per_cell"]
        else:
            cells = self.counts["kernels.grid_cells"]
            out["kernels.grid_cells"] = (cells, "count")
            out["kernels.ns_per_cell"] = (
                1e9 * self.self_s["kernels"] / cells if cells else 0.0, "ns")
        calls("oracle.brute_force_ug_calls", "oracle", "brute_force_ug")
        calls("oracle.brute_force_dg_calls", "oracle", "brute_force_dg")
        calls("mixture.em_fit_calls", "mixture", "em_fit")
        calls("mixture.em_iterations", "mixture", "_loglik_matrix")
        calls("mixture.mstep_calls", "mixture", "_Lattice.maximize")
        counted("mixture.lattice_points_scored", "mixture", "_Lattice._score")
        total("mixture.lattice_build_s", "mixture", "_Lattice.__init__")
        out["bench.trace_overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
        return out, missing

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines after one header line with the aggregated counts."""
        head = dict(header)
        head["calls"] = dict(self.calls)
        head["total_s"] = dict(self.total_s)
        head["self_s"] = dict(self.self_s)
        head["counts"] = dict(self.counts)
        with open(path, "w") as fh:
            fh.write(json.dumps(head) + "\n")
            for key, start, end, parent, op in self.spans:
                fh.write(json.dumps([key, round(start, 9), round(end, 9), parent, op]) + "\n")
