"""Outside-in layer tracing: self time per layer from a per-call stack.

:class:`LayerTracer` replaces public functions of the program with
timing wrappers at class or consumer-module level, keeps one frame per
active wrapped call, and charges each call's wall time minus the time
of its wrapped children to the call's layer (its *self time*).  The
entry point itself is the root frame, so the self times of all layers
plus the root's (``framework``) add up to the entry-point wall.

Wrappers must be installed before the service or framework is built:
a session binds ``plan_space.label`` into ``_label`` when it is
constructed, and ``median_supported`` is looked up in the module that
imported it, not where it is defined.  :meth:`LayerTracer.restore`
puts every original back.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

#: Root layer: the entry-point wall minus every timed child.
ROOT = "framework"

#: Largest allowed gap, as a share of the caller-measured wall, between
#: the summed self times and that wall.
ATTRIBUTION_SLACK = 0.05

#: Layers whose nested calls are not timed separately: time spent
#: inside them (telemetry snapshots, quality scans, trace sealing)
#: belongs to the observability layer even when it reaches predictor
#: or histogram code.
OPAQUE = frozenset({"obs.trace", "obs.telemetry"})

#: ``(module, owner, attribute, layer)``: the timed public calls.
#: ``owner`` is a class name in ``module`` or ``None`` for a
#: module-level name.  ``optimizer.label`` is split by :meth:`_layer_of`
#: into a ground-truth call and an invoked one.
TARGETS = (
    ("repro.histograms.base", "Histogram", "range_query_batch", "histograms.range_query"),
    ("repro.histograms.incremental", "IncrementalHistogram", "insert", "histograms.insert"),
    ("repro.core.histogram_predictor", None, "median_supported", "predictor.median"),
    ("repro.lsh.stacked", "StackedEnsemble", "z_values", "lsh.z_values"),
    ("repro.core.confidence", "ConfidenceModel", "decide_batch", "confidence.decide"),
    ("repro.core.histogram_predictor", "HistogramPredictor", "predict_batch", "histogram_predictor.predict"),
    ("repro.core.histogram_predictor", "HistogramPredictor", "insert", "histogram_predictor.insert"),
    ("repro.optimizer.plan_space", "PlanSpace", "label", "optimizer.label"),
    ("repro.optimizer.plan_space", "PlanSpace", "cost_at", "optimizer.cost_at"),
    ("inputs", "StepDriftPlanSpace", "label", "optimizer.label"),
    ("inputs", "StepDriftPlanSpace", "cost_at", "optimizer.cost_at"),
    ("repro.core.framework", None, "retry_call", "resilience.retry"),
    ("repro.core.cache", "PlanCache", "get", "cache"),
    ("repro.core.cache", "PlanCache", "put", "cache"),
    ("repro.core.monitor", "PerformanceMonitor", "record_prediction", "monitor"),
    ("repro.core.monitor", "PerformanceMonitor", "record_null", "monitor"),
    ("repro.core.monitor", "PerformanceMonitor", "drift_detected", "monitor"),
    ("repro.core.online", "OnlinePredictor", "should_invoke_optimizer", "online.policy"),
    ("repro.core.online", "OnlinePredictor", "suspect_error", "online.policy"),
    ("repro.obs.tracing", "DecisionTracer", "begin", "obs.trace"),
    ("repro.obs.tracing", "DecisionTracer", "finish", "obs.trace"),
    ("repro.obs.timeseries", "TimeSeriesStore", "maybe_sample", "obs.telemetry"),
    ("repro.core.framework", "PPCFramework", "refresh_quality", "obs.telemetry"),
    ("repro.workload.template", "TemplateBinder", "to_point", "service.bind"),
)


class _Frame:
    __slots__ = ("layer", "children")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.children = 0.0


class LayerTracer:
    """Per-layer self time and call counts for wrapped public calls.

    ``self_seconds[layer]`` and ``calls[layer]`` accumulate from the
    last :meth:`reset`.  ``rows`` counts the points handed to
    ``HistogramPredictor.predict_batch``; ``drift_detections`` and
    ``telemetry_samples`` count true answers of ``drift_detected`` and
    ``maybe_sample``.
    """

    def __init__(self, clock=perf_counter) -> None:
        self._clock = clock
        self._stack: list[_Frame] = []
        self._opaque = 0
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.wall = 0.0
        self.rows = 0
        self.drift_detections = 0
        self.telemetry_samples = 0

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Wrap every target in place; :meth:`restore` undoes it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attribute, layer in targets:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer))

    def restore(self) -> None:
        """Put every original back, last wrapped first."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _layer_of(self, layer: str) -> str:
        if layer != "optimizer.label":
            return layer
        invoked = any(f.layer == "resilience.retry" for f in self._stack)
        return "optimizer.invoke" if invoked else "optimizer.ground_truth"

    def _wrap(self, original, layer: str):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._opaque or not tracer._stack:
                # Inside an opaque layer, or outside any timed entry
                # point (set-up, the benchmark's own oracle calls).
                return original(*args, **kwargs)
            return tracer._timed(tracer._layer_of(layer), original, args, kwargs)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", layer)
        return wrapper

    def _timed(self, layer: str, fn, args, kwargs):
        frame = _Frame(layer)
        parent = self._stack[-1] if self._stack else None
        opaque = layer in OPAQUE
        self._stack.append(frame)
        self._opaque += opaque
        started = self._clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self._clock() - started
            self._opaque -= opaque
            self._stack.pop()
            self.self_seconds[layer] += elapsed - frame.children
            self.calls[layer] += 1
            if parent is None:
                self.wall += elapsed
            else:
                parent.children += elapsed
        if layer == "histogram_predictor.predict":
            self.rows += len(args[1])
        elif layer == "monitor" and result is True:
            self.drift_detections += 1
        elif layer == "obs.telemetry" and result is True:
            self.telemetry_samples += 1
        return result

    def call(self, fn, *args, **kwargs):
        """Run one entry-point call as the root frame; returns its result.

        The root's self time is charged to :data:`ROOT`; its wall is
        added to :attr:`wall`.
        """
        if self._stack:
            raise RuntimeError("entry-point calls do not nest")
        return self._timed(ROOT, fn, args, kwargs)


def attribution_problem(tracer: LayerTracer, caller_wall: float,
                        slack: float = ATTRIBUTION_SLACK) -> "str | None":
    """Check the self times against the wall the caller measured.

    The self times, :data:`ROOT` included, add up to :attr:`LayerTracer.wall`
    by construction, so that sum is compared with ``caller_wall``: the
    time the caller measured around each entry-point call, which also
    holds the tracer's own cost outside the root frame's clock reads.
    Returns a message when the two differ by more than ``slack`` of
    ``caller_wall``, else ``None``.
    """
    attributed = sum(tracer.self_seconds.values())
    if abs(attributed - caller_wall) <= slack * caller_wall:
        return None
    return (
        f"layer self times sum to {attributed:.6f}s, the caller-measured "
        f"traced wall is {caller_wall:.6f}s"
    )
