"""In-memory span tracing of the shapedist layers, installed from outside.

``installed(tracer, experiments)`` replaces, for the duration of a ``with``
block, every shapedist function bound in the ``shapedist.experiments``
namespace (and its ``Pool``) by a wrapper that records a span: name, layer,
parent span, start and end.  The package's own source is untouched; calls a
module makes to itself go through its own namespace and stay unseen, so each
span marks a call that crosses from the drivers into a layer.

A layer is the module a function comes from, except that the two shape
events (``concavity_event``, ``convexity_event``) form their own ``events``
layer.  A span's self time is its duration minus the time of its direct
child spans; a layer's busy time is the sum of its spans' self times.
"""

import functools
import math
import statistics
import time
import types
from contextlib import contextmanager

EVENT_FUNCTIONS = frozenset({"concavity_event", "convexity_event"})

# Layer-level and function-level per-layer metrics, as declared in
# BENCHMARK.json.  Functions not named here count only in their layer total.
LAYER_TOTALS = ("empirical", "models", "monotone", "events", "spline", "bounds")
FUNCTION_BUSY = (
    "spline.interp_integrated_cdf", "spline.interp_integrated_ecdf",
    "spline.smooth_interp_error_bounds",
    "bounds.bernstein_cell_bound", "bounds.bernstein_residual_bound",
    "bounds.binomial_cell_bound", "bounds.cell_variance_report",
    "bounds.compute_quantities", "bounds.convexity_event_bound",
    "bounds.interp_gap_report", "bounds.mesh_ratio_check",
    "bounds.slope_difference_bound", "bounds.trapezoid_remainder_bounds",
)


class Tracer:
    """Spans and layer counters of one or more traced driver calls.

    ``spans`` holds ``[name, layer, parent, start, end, child_s, call]``
    lists; ``call`` numbers the driver call a span belongs to, so the spans
    of one call share an identifier.
    """

    def __init__(self):
        self.spans = []
        self.call = 0
        self._stack = []
        self.sample_keys = []
        self.lcm_vertices = []
        self.fit_iterations = []
        self.fit_kinks = []
        self.fit_failures = 0
        self.replicate_s = []  # (n, seconds) per replicate worker call

    def _span(self, name, layer, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, parent, time.perf_counter(), 0.0, 0.0, self.call]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][5] += span[4] - span[3]

    def wrap(self, layer, name, fn, observe=None):
        """``fn`` recording a span per call; ``observe(result, seconds)`` sees each result."""
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = self._span(span_name, layer, fn, args, kwargs)
            if observe is not None:
                observe(result, time.perf_counter() - t0)
            return result
        return traced

    def wrap_fit_lse(self, fn, fit_error):
        """``fit_lse`` asked for its info dict, to read iterations; callers get what they asked for."""

        @functools.wraps(fn)
        def fit_lse(data, *args, full_output=False, **kwargs):
            try:
                fit, info = self._span("convexlse.fit_lse", "convexlse", fn,
                                       (data, *args), dict(kwargs, full_output=True))
            except fit_error:
                self.fit_failures += 1
                raise
            self.fit_iterations.append(info["iterations"])
            self.fit_kinks.append(len(fit.kinks))
            return (fit, info) if full_output else fit
        return fit_lse

    # -- observers -------------------------------------------------------

    def _on_sample(self, data, _seconds):
        self.sample_keys.append((data.n, data.seed))

    def _on_lcm(self, majorant, _seconds):
        self.lcm_vertices.append(len(majorant.x))

    def _on_replicate(self, row, seconds):
        self.replicate_s.append((row["n"], seconds))

    # -- aggregation -----------------------------------------------------

    def layer_totals(self, calls=None):
        """``{name: [count, self seconds]}`` per span name and per layer."""
        out = {}
        for name, layer, _parent, t0, t1, child_s, call in self.spans:
            if calls is not None and call not in calls:
                continue
            self_s = t1 - t0 - child_s
            for key in (name, layer):
                entry = out.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += self_s
        return out


def _layer_of(fn) -> str:
    if fn.__name__ in EVENT_FUNCTIONS:
        return "events"
    return fn.__module__.rsplit(".", 1)[-1]


@contextmanager
def installed(tracer: Tracer, experiments):
    """Trace every layer call the drivers make while the block runs.

    Wraps each shapedist function bound in ``experiments`` (the drivers
    ``run_*`` and the private ``*_replicate`` workers as ``experiments``
    spans), and ``experiments.Pool``.  The original bindings are restored on
    exit, also when the block raises.
    """
    originals = {}
    try:
        for name, obj in list(vars(experiments).items()):
            if name == "Pool":
                wrapped = tracer.wrap("experiments", name, obj)
            elif not isinstance(obj, types.FunctionType) or not obj.__module__.startswith("shapedist."):
                continue
            elif obj.__module__ == experiments.__name__:
                if name.startswith("run_"):
                    wrapped = tracer.wrap("experiments", name, obj)
                elif name.startswith("_") and name.endswith("replicate"):
                    wrapped = tracer.wrap("experiments", name, obj, tracer._on_replicate)
                else:
                    continue
            elif name == "fit_lse":
                wrapped = tracer.wrap_fit_lse(obj, experiments.FitError)
            else:
                observe = {"sample": tracer._on_sample, "lcm": tracer._on_lcm}.get(name)
                wrapped = tracer.wrap(_layer_of(obj), name, obj, observe)
            originals[name] = obj
            setattr(experiments, name, wrapped)
        yield tracer
    finally:
        for name, obj in originals.items():
            setattr(experiments, name, obj)


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _quantile(xs, q):
    """Nearest-rank quantile of ``xs`` (0 when empty)."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def layer_metrics(tracer: Tracer, pool_tracer: Tracer, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` of the traced driver calls.

    Counts are those of the first traced call (every call of a run repeats
    the same work); busy times are medians over the traced calls.  Pool
    counts come from ``pool_tracer``, which traced one call at the
    workload's own worker count.
    """
    per_call = [tracer.layer_totals({c}) for c in range(tracer.call)]
    first = per_call[0] if per_call else {}

    def count(key):
        return first.get(key, [0, 0.0])[0]

    def busy(key):
        return statistics.median([t.get(key, [0, 0.0])[1] for t in per_call]) if per_call else 0.0

    m = {}
    for layer in LAYER_TOTALS:
        m[f"{layer}.calls"] = (count(layer), "count")
        m[f"{layer}.busy_s"] = (busy(layer), "s")
    calls0 = count("empirical.sample")
    keys0 = tracer.sample_keys[:calls0]
    m["empirical.sample.calls"] = (calls0, "count")
    m["empirical.sample.busy_s"] = (busy("empirical.sample"), "s")
    m["empirical.sample.points"] = (sum(n for n, _ in keys0), "count")
    m["empirical.sample.unique_frac"] = (len(set(keys0)) / calls0 if calls0 else 0.0, "ratio")
    lcm0 = count("monotone.lcm")
    m["monotone.lcm.calls"] = (lcm0, "count")
    m["monotone.lcm.busy_s"] = (busy("monotone.lcm"), "s")
    m["monotone.lcm.vertices_mean"] = (_mean(tracer.lcm_vertices[:lcm0]), "count")
    fits0 = count("convexlse.fit_lse")
    m["convexlse.fit_lse.calls"] = (fits0, "count")
    m["convexlse.fit_lse.busy_s"] = (busy("convexlse.fit_lse"), "s")
    m["convexlse.fit_lse.iterations"] = (_mean(tracer.fit_iterations[:fits0]), "iter/fit")
    m["convexlse.fit_lse.kinks_mean"] = (_mean(tracer.fit_kinks[:fits0]), "count")
    m["convexlse.fit_lse.failures"] = (tracer.fit_failures, "count")
    m["curves.sup_norm.calls"] = (count("curves.sup_norm"), "count")
    m["curves.sup_norm.busy_s"] = (busy("curves.sup_norm"), "s")
    for name in FUNCTION_BUSY:
        m[f"{name}.busy_s"] = (busy(name), "s")
    m["experiments.self_s"] = (busy("experiments"), "s")
    pools, pool_start_s = pool_tracer.layer_totals().get("experiments.Pool", [0, 0.0])
    m["experiments.pools_opened"] = (pools, "count")
    m["experiments.pool_start_s"] = (pool_start_s, "s")
    n_max = max((n for n, _ in tracer.replicate_s), default=0)
    at_max = [1e3 * s for n, s in tracer.replicate_s if n == n_max]
    m["replicate_ms.p50"] = (_quantile(at_max, 0.5), "ms")
    m["replicate_ms.p90"] = (_quantile(at_max, 0.9), "ms")
    m["replicate_ms.samples"] = (len(at_max), "count")
    traced, untraced = statistics.median(traced_walls), statistics.median(untraced_walls)
    m["trace.wall_s"] = (traced, "s")
    m["trace.untraced_wall_s"] = (untraced, "s")
    m["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return m
