"""Span-based decision tracing for the plan-caching predict path.

Every :meth:`TemplateSession.execute <repro.core.framework.TemplateSession.execute>`
asks its :class:`DecisionTracer` for a trace.  Sampled executions get a
:class:`DecisionTrace` — a tree of :class:`Span` nodes covering
normalize → per-transform density lookup → confidence check → noise
elimination → the resilience fallback chain — finished with the
execution's outcome and admitted to a bounded per-template
:class:`FlightRecorder`.  Unsampled executions get the tracer's one
reusable :class:`StageTrace`, which times only the four stage spans and
absorbs every other call, so the hot path stays O(1) and
allocation-free when sampling is off; callers guard expensive attribute
computation behind ``if trace.active:``.

Span open and close are the only per-decision timing points: a trace
reads the tracer's clock once per span boundary, and every close
reports its wall to two consumers — a top-level ``predict`` /
``optimize`` / ``execute_plan`` / ``feedback`` span observes
``ppc_stage_seconds`` (see :data:`STAGE_SPANS`), and when the
:class:`~repro.obs.profiling.StageProfiler` sampled the execution it
folds the span's path.  A profiled execution the tracer did not sample
gets the tracer's one reusable inactive :class:`DecisionTrace`: spans
are timed, no span tree is built, nothing is annotated or recorded.

Sampling is deterministic — no RNG draw is consumed, so a traced run
produces bit-identical decisions to an untraced one (see the parity
test).  The sampler admits the first ``head`` executions, every
``interval``-th after that, and an ``error_burst``-sized run after any
degraded/fallback/raised execution; ``explain`` forces a trace.

Traces serialize losslessly: :func:`trace_to_dict` /
:func:`trace_from_dict` round-trip through JSON, and
:func:`dumps_jsonl` / :func:`loads_jsonl` do the same for a recorder's
worth of traces.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterator, Mapping, Sequence
from time import perf_counter
from typing import TYPE_CHECKING, Any

import json

from repro.config import TraceConfig
from repro.obs import names
from repro.obs.profiling import StageProfiler
from repro.obs.registry import LatencyHistogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.framework import ExecutionRecord

__all__ = [
    "STAGE_SPANS",
    "DecisionTrace",
    "DecisionTracer",
    "FlightRecorder",
    "Span",
    "StageTrace",
    "dumps_jsonl",
    "loads_jsonl",
    "render_trace",
    "trace_from_dict",
    "trace_to_dict",
]

#: Top-level span name → its ``ppc_stage_seconds`` stage label.  A span
#: of these names nested in another (the negative-feedback ``optimize``
#: inside ``feedback``) is not a stage.
STAGE_SPANS = {
    "predict": "predict",
    "optimize": "optimize",
    "execute_plan": "execute",
    "feedback": "feedback",
}


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays nested in span attributes to plain
    Python values so traces serialize without a numpy dependency."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    # Before the scalar check: np.float64 subclasses float but should
    # leave as a plain Python float.  tolist before item: arrays have
    # both, but item() raises for size > 1.
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    if isinstance(value, (str, bytes, bool, int, float)) or value is None:
        return value
    return str(value)


class Span:
    """One named, timed step of a decision, with nested children.

    ``start`` and ``duration`` are seconds relative to the owning
    trace's origin, read on the tracer's clock (``perf_counter`` by
    default — monotonic, not wall-clock).
    ``status`` is ``"ok"`` unless the guarded block raised.
    """

    __slots__ = ("attributes", "children", "duration", "name", "start", "status")

    def __init__(self, name: str, start: float = 0.0) -> None:
        self.name = name
        self.start = start
        self.duration = 0.0
        self.attributes: dict[str, Any] = {}
        self.children: list[Span] = []
        self.status = "ok"

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
        }
        if self.attributes:
            out["attributes"] = _jsonable(self.attributes)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        span = cls(str(payload["name"]), float(payload.get("start", 0.0)))
        span.duration = float(payload.get("duration", 0.0))
        span.status = str(payload.get("status", "ok"))
        span.attributes = dict(payload.get("attributes", {}))
        span.children = [cls.from_dict(c) for c in payload.get("children", ())]
        return span


class _NoopSpan:
    """Stand-in span for unsampled executions: absorbs every call."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _StageSpan(_NoopSpan):
    """A :class:`StageTrace` stage span: times its block on the tracer
    clock and observes the stage histogram when the block exits
    cleanly."""

    __slots__ = ("_histogram", "_start", "_trace")

    def __init__(self, trace: "StageTrace", histogram: LatencyHistogram) -> None:
        self._trace = trace
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_StageSpan":
        self._trace._open = True
        self._start = self._trace._clock()
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        seconds = self._trace._clock() - self._start
        self._trace._open = False
        if exc_type is None:
            self._histogram.observe(seconds)


class StageTrace:
    """The reusable trace of unsampled executions, one per tracer.

    ``active`` is False; callers use it to skip attribute computation.
    A top-level span named in :data:`STAGE_SPANS` times itself into its
    stage histogram; every other span (and any span opened inside a
    stage) is the shared no-op.  Its spans are preallocated, so the
    unsampled path allocates nothing.
    """

    __slots__ = ("_clock", "_open", "_spans")

    active = False

    def __init__(
        self,
        stages: Mapping[str, LatencyHistogram],
        clock: Callable[[], float],
    ) -> None:
        self._clock = clock
        self._open = False
        self._spans = {
            name: _StageSpan(self, histogram) for name, histogram in stages.items()
        }

    def span(self, name: str, **attributes: Any) -> _NoopSpan:
        if not self._open:
            stage = self._spans.get(name)
            if stage is not None:
                return stage
        return _NOOP_SPAN

    def annotate(self, **attributes: Any) -> None:
        return None

    def charge(self, name: str, seconds: float) -> None:
        """Observe a stage timed outside any span (the batch prefetch's
        amortized share of its one vectorized predict)."""
        self._spans[name]._histogram.observe(seconds)

    def finish(self, outcome: Mapping[str, Any]) -> None:
        return None


class DecisionTrace:
    """The full story of one cache prediction, as a tree of spans.

    ``stages`` maps top-level span names to their stage histograms
    (:data:`STAGE_SPANS`); ``profiler`` is set when the stage profiler
    sampled this execution.  An inactive trace (profiled, not sampled
    by the tracer) times its spans for those consumers only: it builds
    no :class:`Span` below the root and hands out the no-op span.
    """

    __slots__ = (
        "_clock",
        "_path",
        "_profiler",
        "_stack",
        "_stages",
        "_starts",
        "_t0",
        "active",
        "decision",
        "outcome",
        "point",
        "root",
        "seq",
        "template",
    )

    def __init__(
        self,
        template: str,
        seq: int,
        decision: str,
        clock: Callable[[], float] = perf_counter,
        stages: "Mapping[str, LatencyHistogram] | None" = None,
        profiler: "StageProfiler | None" = None,
        active: bool = True,
    ) -> None:
        self.template = template
        self.seq = seq
        self.decision = decision
        self.active = active
        self.point: list[float] | None = None
        self.outcome: dict[str, Any] | None = None
        self._clock = clock
        self._stages = stages or {}
        self._profiler = profiler
        self._t0 = clock()
        self.root = Span("decision")
        self._stack: list[Span] = [self.root]
        #: Names of the open spans, root first: the profiler's stage path.
        self._path: tuple[str, ...] = (self.root.name,)
        #: Start offsets of the open spans below the root.
        self._starts: list[float] = []

    def restart(self, seq: int) -> "DecisionTrace":
        """Begin the next execution on this inactive trace: it records
        nothing, so the tracer keeps one instead of building one per
        profiled execution."""
        self.seq = seq
        self._path = (self.root.name,)
        self._starts.clear()
        self._t0 = self._clock()
        return self

    # The two methods below are the *only* sanctioned span lifecycle
    # primitives, and RPR009 confines direct calls to this module —
    # everyone else goes through the ``span()`` context manager, which
    # guarantees the close and records error status on exceptions.
    def open_span(self, name: str, **attributes: Any) -> "Span | _NoopSpan":
        start = self._clock() - self._t0
        self._path += (name,)
        self._starts.append(start)
        if not self.active:
            return _NOOP_SPAN
        span = Span(name, start)
        if attributes:
            span.attributes.update(attributes)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def close_span(self, ok: bool = True) -> None:
        if len(self._path) > 1:
            seconds = self._clock() - self._t0 - self._starts.pop()
            path = self._path
            self._path = path[:-1]
            if self.active:
                self._stack.pop().duration = seconds
            if len(path) == 2 and ok:
                histogram = self._stages.get(path[1])
                if histogram is not None:
                    histogram.observe(seconds)
            if self._profiler is not None:
                self._profiler.fold(self.template, path, seconds)

    def span(self, name: str, **attributes: Any) -> "DecisionTrace":
        """Open a child span for the duration of the ``with`` block;
        ``with trace.span(name) as span:`` binds the new :class:`Span`
        (the no-op span on an inactive trace).  The trace is its own
        context manager, so a span costs no allocation beyond the
        :class:`Span` itself."""
        self.open_span(name, **attributes)
        return self

    def __enter__(self) -> "Span | _NoopSpan":
        return self._stack[-1] if self.active else _NOOP_SPAN

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is not None and self.active:
            self._stack[-1].status = "error"
        self.close_span(ok=exc_type is None)

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the innermost open span."""
        if self.active:
            self._stack[-1].attributes.update(attributes)

    def charge(self, name: str, seconds: float) -> None:
        """Report a top-level stage timed outside any span (the batch
        prefetch's amortized share of its one vectorized predict)."""
        self._stages[name].observe(seconds)
        if self._profiler is not None:
            self._profiler.fold(self.template, (self.root.name, name), seconds)

    def finish(self, outcome: Mapping[str, Any]) -> None:
        """Close any spans left open and seal the trace's outcome."""
        while len(self._path) > 1:
            self.close_span()
        self.root.duration = self._clock() - self._t0
        if self._profiler is not None:
            self._profiler.fold(self.template, self._path, self.root.duration)
        self.outcome = dict(outcome)

    @property
    def errored(self) -> bool:
        """True when this execution degraded, fell back, or raised."""
        if self.outcome is None:
            return False
        return bool(
            self.outcome.get("error")
            or self.outcome.get("degraded")
            or self.outcome.get("fallback_source")
        )

    def spans(self, name: str | None = None) -> Iterator[Span]:
        """Depth-first iteration over the span tree (root excluded)."""
        stack = list(reversed(self.root.children))
        while stack:
            span = stack.pop()
            if name is None or span.name == name:
                yield span
            stack.extend(reversed(span.children))

    @property
    def span_count(self) -> int:
        return sum(1 for _ in self.spans())

    def to_dict(self) -> dict[str, Any]:
        return trace_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DecisionTrace":
        return trace_from_dict(payload)


def trace_to_dict(trace: DecisionTrace) -> dict[str, Any]:
    """Serialize a trace to a JSON-ready dict (lossless round-trip)."""
    return {
        "template": trace.template,
        "seq": trace.seq,
        "decision": trace.decision,
        "point": _jsonable(trace.point),
        "outcome": _jsonable(trace.outcome),
        "root": trace.root.to_dict(),
    }


def trace_from_dict(payload: Mapping[str, Any]) -> DecisionTrace:
    """Rebuild a trace from :func:`trace_to_dict` output."""
    trace = DecisionTrace(
        template=str(payload["template"]),
        seq=int(payload["seq"]),
        decision=str(payload.get("decision", "forced")),
    )
    point = payload.get("point")
    trace.point = None if point is None else [float(v) for v in point]
    outcome = payload.get("outcome")
    trace.outcome = None if outcome is None else dict(outcome)
    trace.root = Span.from_dict(payload["root"])
    trace._stack = [trace.root]
    return trace


def dumps_jsonl(traces: Sequence[DecisionTrace]) -> str:
    """Render traces as JSON Lines, one trace per line."""
    return "\n".join(
        json.dumps(trace_to_dict(trace), separators=(",", ":")) for trace in traces
    ) + ("\n" if traces else "")


def loads_jsonl(text: str) -> list[DecisionTrace]:
    """Parse :func:`dumps_jsonl` output back into traces."""
    return [
        trace_from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


class FlightRecorder:
    """Bounded ring buffer of recent decision traces.

    Two buffers: errored traces (degraded / fallback / raised) live in
    their own deque so a burst of healthy traffic cannot evict the
    evidence of an incident.  ``recorded``/``dropped`` count admissions
    and evictions over the recorder's lifetime.
    """

    def __init__(self, capacity: int = 256, error_capacity: int = 64) -> None:
        if capacity < 1 or error_capacity < 1:
            raise ValueError("recorder capacities must be >= 1")
        self._normal: deque[DecisionTrace] = deque(maxlen=capacity)
        self._errors: deque[DecisionTrace] = deque(maxlen=error_capacity)
        self.recorded = 0
        self.dropped = 0

    def admit(self, trace: DecisionTrace) -> int:
        """Store a finished trace; returns how many were evicted."""
        buffer = self._errors if trace.errored else self._normal
        evicted = 1 if len(buffer) == buffer.maxlen else 0
        buffer.append(trace)
        self.recorded += 1
        self.dropped += evicted
        return evicted

    def traces(self) -> list[DecisionTrace]:
        """All retained traces, oldest first (by execution sequence)."""
        return sorted([*self._normal, *self._errors], key=lambda t: t.seq)

    @property
    def occupancy(self) -> int:
        return len(self._normal) + len(self._errors)

    def clear(self) -> None:
        self._normal.clear()
        self._errors.clear()


class DecisionTracer:
    """Per-template sampler + flight recorder for decision traces.

    Owned by one :class:`~repro.core.framework.TemplateSession`;
    ``begin`` is called once per execute and returns a live
    :class:`DecisionTrace`, the reusable inactive one when only the
    profiler sampled, or the reusable :class:`StageTrace`;
    ``finish`` seals the trace with the execution's outcome and arms
    the error-bias burst.  ``clock`` times every span of every trace
    (tests inject a fake one).
    """

    def __init__(
        self,
        template: str,
        config: TraceConfig | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: "StageProfiler | None" = None,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        self.template = template
        self.config = config if config is not None else TraceConfig()
        self.profiler = profiler
        self._clock = clock if clock is not None else perf_counter
        self.recorder = FlightRecorder(
            capacity=self.config.capacity,
            error_capacity=self.config.error_capacity,
        )
        self._seq = 0
        self._burst_left = 0
        registry = metrics if metrics is not None else MetricsRegistry()
        self._spans_counter = registry.counter(
            names.TRACE_SPANS_TOTAL, template=template
        )
        self._recorded_counter = registry.counter(
            names.TRACE_RECORDED_TOTAL, template=template
        )
        self._dropped_counter = registry.counter(
            names.TRACE_DROPPED_TOTAL, template=template
        )
        self._sampler_counters = {
            decision: registry.counter(
                names.TRACE_SAMPLER_TOTAL, template=template, decision=decision
            )
            for decision in names.SAMPLER_DECISIONS
        }
        self._sampled = dict.fromkeys(names.SAMPLER_DECISIONS, 0)
        self._stages = {
            span: registry.histogram(
                names.STAGE_SECONDS, template=template, stage=stage
            )
            for span, stage in STAGE_SPANS.items()
        }
        self._unsampled = StageTrace(self._stages, self._clock)
        self._profiled: "DecisionTrace | None" = None

    def begin(self, force: bool = False) -> "DecisionTrace | StageTrace":
        """Sample this execution; deterministic, consumes no RNG."""
        seq = self._seq
        self._seq += 1
        if force:
            decision = "forced"
        elif not self.config.enabled:
            decision = "skipped"
        elif seq < self.config.head:
            decision = "head"
        elif self._burst_left > 0:
            self._burst_left -= 1
            decision = "error_bias"
        elif self.config.interval and seq % self.config.interval == 0:
            decision = "interval"
        else:
            decision = "skipped"
        self._sampler_counters[decision].inc()
        self._sampled[decision] += 1
        # The profiler samples independently of the tracer (its own
        # deterministic counter), so stage times keep flowing at trace
        # interval 0 — but it never flips ``active``: a profiled,
        # trace-skipped execution behaves exactly like an unsampled one.
        profiled = self.profiler is not None and self.profiler.sample(
            self.template
        )
        if decision == "skipped":
            if not profiled:
                return self._unsampled
            if self._profiled is not None:
                return self._profiled.restart(seq)
            self._profiled = DecisionTrace(
                self.template,
                seq,
                decision,
                clock=self._clock,
                stages=self._stages,
                profiler=self.profiler,
                active=False,
            )
            return self._profiled
        return DecisionTrace(
            self.template,
            seq,
            decision,
            clock=self._clock,
            stages=self._stages,
            profiler=self.profiler if profiled else None,
        )

    def finish(
        self,
        trace: "DecisionTrace | StageTrace",
        record: "ExecutionRecord | None" = None,
        error: BaseException | None = None,
    ) -> None:
        """Seal + record a trace; arm the error-bias burst on incident.

        The burst arms even when the incident execution itself was not
        sampled, so the recorder captures the aftermath of every
        degraded/fallback/raised decision.
        """
        incident = error is not None or (
            record is not None and (record.degraded or bool(record.fallback_source))
        )
        if incident and self.config.enabled and self.config.error_burst:
            self._burst_left = max(self._burst_left, self.config.error_burst)
        if not trace.active:
            trace.finish({})
            return
        if error is not None:
            outcome: dict[str, Any] = {
                "error": f"{type(error).__name__}: {error}",
            }
        elif record is not None:
            outcome = {
                "predicted": record.predicted,
                "confidence": record.confidence,
                "optimizer_invoked": record.optimizer_invoked,
                "invocation_reason": record.invocation_reason,
                "executed_plan": record.executed_plan,
                "execution_cost": record.execution_cost,
                "optimal_plan": record.optimal_plan,
                "optimal_cost": record.optimal_cost,
                "suboptimality": record.suboptimality,
                "drift_triggered": record.drift_triggered,
                "degraded": record.degraded,
                "fallback_source": record.fallback_source,
                "correct": record.correct,
            }
        else:
            outcome = {}
        trace.finish(outcome)
        evicted = self.recorder.admit(trace)
        self._recorded_counter.inc()
        if evicted:
            self._dropped_counter.inc(evicted)
        self._spans_counter.inc(trace.span_count)

    def stats(self) -> dict[str, Any]:
        """Recorder + sampler state for ``service.metrics()``."""
        return {
            "enabled": self.config.enabled,
            "occupancy": self.recorder.occupancy,
            "capacity": self.config.capacity,
            "error_capacity": self.config.error_capacity,
            "recorded": self.recorder.recorded,
            "dropped": self.recorder.dropped,
            "sampler": dict(self._sampled),
        }

    def traces(self) -> list[DecisionTrace]:
        return self.recorder.traces()


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(v) for v in value) + "]"
    return str(value)


def _format_attributes(attributes: Mapping[str, Any]) -> str:
    return " ".join(f"{key}={_format_value(val)}" for key, val in attributes.items())


def _render_span(span: Span, prefix: str, is_last: bool, lines: list[str]) -> None:
    connector = "└─ " if is_last else "├─ "
    marker = " !" if span.status != "ok" else ""
    attrs = _format_attributes(span.attributes)
    body = f"{span.name}{marker} [{span.duration * 1e3:.3f} ms]"
    if attrs:
        body += f" {attrs}"
    lines.append(prefix + connector + body)
    child_prefix = prefix + ("   " if is_last else "│  ")
    for i, child in enumerate(span.children):
        _render_span(child, child_prefix, i == len(span.children) - 1, lines)


def render_trace(trace: DecisionTrace) -> str:
    """Human-readable span tree for ``repro explain``."""
    lines = [f"trace {trace.template}#{trace.seq} decision={trace.decision}"]
    if trace.point is not None:
        lines.append(f"point: ({', '.join(f'{v:.6g}' for v in trace.point)})")
    for i, child in enumerate(trace.root.children):
        _render_span(child, "", i == len(trace.root.children) - 1, lines)
    outcome = trace.outcome or {}
    if outcome.get("error"):
        lines.append(f"outcome: error {outcome['error']}")
    elif outcome:
        plan = outcome.get("executed_plan")
        optimal = outcome.get("optimal_plan")
        verdict = (
            "optimal"
            if plan == optimal
            else f"suboptimal x{outcome.get('suboptimality', float('nan')):.3f}"
        )
        via = []
        if outcome.get("fallback_source"):
            via.append(f"fallback={outcome['fallback_source']}")
        if outcome.get("degraded"):
            via.append("degraded")
        if outcome.get("optimizer_invoked"):
            via.append(f"optimizer({outcome.get('invocation_reason')})")
        suffix = f" [{' '.join(via)}]" if via else ""
        lines.append(
            f"outcome: plan={plan} optimal={optimal} ({verdict}){suffix}"
        )
    return "\n".join(lines)
