"""Deterministic in-process stage profiler for the decision hot path.

Folds the span closes of :mod:`repro.obs.tracing`: when the profiler
sampled an execution, every span its trace closes — normalize → density
lookup (per-transform) → vote aggregation → noise elimination →
confidence → decide → execute → feedback → drift — reports its full
stage *path* and wall, accumulated per template so both cumulative and
self time fall out (self = cumulative minus the direct children's
cumulative).

Three properties are load-bearing:

* **Decisions never change.**  Profiling consumes no RNG and never
  flips ``trace.active`` — a profiled-but-unsampled execution gets an
  inactive :class:`~repro.obs.tracing.DecisionTrace`, so attribute
  computation stays skipped and ``execute_batch`` keeps its precomputed
  vectorized predictions.  The lockstep parity test in
  ``tests/obs/test_profiling.py`` pins this bit-for-bit.
* **O(1) when disabled.**  With ``ProfileConfig.enabled`` false the
  tracer owns no profiler object at all; unsampled executions keep
  getting the tracer's one reusable stage trace.
* **Deterministic sampling, one clock.**  Every ``interval``-th
  execution per template is profiled (a plain counter, no RNG), and the
  times are the trace's own span walls, read on the tracer's injectable
  clock — tests drive a fake clock and assert exact stage times.

Rendering: :meth:`StageProfiler.report` returns the aggregate,
:func:`render_profile` draws the text stage tree, and
:meth:`StageProfiler.collapsed` emits ``template;stage;...`` →
self-microseconds stacks in the collapsed format flamegraph tools eat.
"""

from __future__ import annotations

from typing import Any

from repro.config import ProfileConfig

__all__ = [
    "StageProfiler",
    "render_profile",
]


class _PathStat:
    """Accumulator for one stage path: call count + cumulative time."""

    __slots__ = ("calls", "seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0


class StageProfiler:
    """Per-template stage-time aggregation over many executions.

    One instance is shared by every session of a framework (or owned by
    a standalone session), so ``report()`` covers the whole deployment.
    :meth:`sample` is the sampling gate — true for every
    ``interval``-th execution of each template, deterministic,
    counter-based, RNG-free — and the sampled execution's trace calls
    :meth:`fold` once per span close.
    """

    def __init__(self, config: "ProfileConfig | None" = None) -> None:
        self.config = config if config is not None else ProfileConfig(enabled=True)
        self._stats: dict[str, dict[tuple[str, ...], _PathStat]] = {}
        self._seen: dict[str, int] = {}
        self._profiled: dict[str, int] = {}
        self._dropped_paths: dict[str, int] = {}

    def sample(self, template: str) -> bool:
        """Sampling gate: true for every ``interval``-th execution."""
        seen = self._seen.get(template, 0)
        self._seen[template] = seen + 1
        if seen % self.config.interval != 0:
            return False
        self._profiled[template] = self._profiled.get(template, 0) + 1
        return True

    def fold(self, template: str, path: tuple[str, ...], seconds: float) -> None:
        """Accumulate one closed span's wall under its stage path."""
        stats = self._stats.setdefault(template, {})
        stat = stats.get(path)
        if stat is None:
            if len(stats) >= self.config.max_paths:
                # Bounded memory: past the cap new paths are counted as
                # dropped instead of accumulated (report() shows the
                # drop count so truncation is never silent).
                self._dropped_paths[template] = (
                    self._dropped_paths.get(template, 0) + 1
                )
                return
            stat = stats[path] = _PathStat()
        stat.calls += 1
        stat.seconds += seconds

    def reset(self) -> None:
        self._stats.clear()
        self._seen.clear()
        self._profiled.clear()
        self._dropped_paths.clear()

    def _preorder(self, template: str) -> list[tuple[str, ...]]:
        """Paths parent-before-children, siblings in first-seen order."""
        stats = self._stats.get(template, {})
        order = {path: index for index, path in enumerate(stats)}

        def key(path: tuple[str, ...]) -> tuple[int, ...]:
            return tuple(
                order.get(path[: depth + 1], len(order))
                for depth in range(len(path))
            )

        return sorted(stats, key=key)

    def report(self) -> dict[str, Any]:
        """Aggregate stage table: per template, per path, calls + time.

        ``self_seconds`` is cumulative time minus the cumulative time of
        the path's *direct* children, clamped at zero (clock jitter on
        near-empty stages can make the raw difference slightly
        negative).
        """
        templates: dict[str, Any] = {}
        for template, stats in self._stats.items():
            rows = []
            for path in self._preorder(template):
                stat = stats[path]
                child_seconds = sum(
                    other.seconds
                    for other_path, other in stats.items()
                    if len(other_path) == len(path) + 1
                    and other_path[: len(path)] == path
                )
                rows.append(
                    {
                        "path": list(path),
                        "stage": path[-1],
                        "depth": len(path) - 1,
                        "calls": stat.calls,
                        "cum_seconds": stat.seconds,
                        "self_seconds": max(stat.seconds - child_seconds, 0.0),
                    }
                )
            templates[template] = {
                "executions_seen": self._seen.get(template, 0),
                "executions_profiled": self._profiled.get(template, 0),
                "paths_dropped": self._dropped_paths.get(template, 0),
                "stages": rows,
            }
        return {
            "enabled": self.config.enabled,
            "interval": self.config.interval,
            "templates": templates,
        }

    def collapsed(self) -> dict[str, float]:
        """Collapsed stacks: ``template;stage;...`` → self-microseconds.

        The flamegraph convention — one entry per full stack, weighted
        by self time, semicolon-joined frames.
        """
        report = self.report()
        stacks: dict[str, float] = {}
        for template, payload in report["templates"].items():
            for row in payload["stages"]:
                key = ";".join([template, *row["path"]])
                stacks[key] = row["self_seconds"] * 1e6
        return stacks


def _render_template(name: str, payload: dict[str, Any], lines: list[str]) -> None:
    profiled = payload["executions_profiled"]
    lines.append(
        f"template {name}: {profiled} of {payload['executions_seen']} "
        "executions profiled"
    )
    if payload["paths_dropped"]:
        lines.append(
            f"  (truncated: {payload['paths_dropped']} stage paths over cap)"
        )
    lines.append(
        f"  {'stage':<32s} {'calls':>8s} {'cum ms':>10s} "
        f"{'self ms':>10s} {'per-call us':>12s}"
    )
    for row in payload["stages"]:
        indent = "  " * row["depth"]
        per_call = (
            row["cum_seconds"] / row["calls"] * 1e6 if row["calls"] else 0.0
        )
        lines.append(
            f"  {indent + row['stage']:<32s} {row['calls']:>8d} "
            f"{row['cum_seconds'] * 1e3:>10.3f} "
            f"{row['self_seconds'] * 1e3:>10.3f} {per_call:>12.1f}"
        )


def render_profile(report: dict[str, Any]) -> str:
    """Human-readable stage tree for ``repro profile``."""
    lines = [
        "stage profiler"
        f" (interval {report['interval']},"
        f" {'enabled' if report['enabled'] else 'disabled'})"
    ]
    for name in sorted(report["templates"]):
        _render_template(name, report["templates"][name], lines)
    if len(lines) == 1:
        lines.append("no executions profiled")
    return "\n".join(lines)
