"""Measurement cores + registry of every bench ``repro bench`` runs.

Each runner builds its rig from scratch (seeded sessions, deterministic
workloads), measures with ``perf_counter`` walls (best of N for a single
rig; the overhead matrices alternate their modes per instance), and
returns a validated schema-v2 envelope.  The pytest benches under
``benchmarks/`` are thin wrappers over these same functions — one
measurement core, two entry points — so the CI gate and the committed
snapshots can never drift apart.

Registry: :data:`BENCHES` maps bench name → definition (runner +
snapshot filename + suites); :data:`SUITES` groups them (``ci`` is what
the CI gate runs, ``full`` adds the slower overhead matrices).
:func:`run_suite` executes a set of benches, refreshes the committed
``BENCH_*.json`` snapshots on request, and journals every run to
``history.jsonl``.
"""

from __future__ import annotations

import json
import pathlib
from time import perf_counter
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.bench.history import append_run
from repro.bench.schema import load_envelope, make_envelope, metric
from repro.config import (
    EventsConfig,
    PPCConfig,
    ProfileConfig,
    TelemetryConfig,
    TraceConfig,
)
from repro.core.framework import PPCFramework, TemplateSession
from repro.core.persistence import atomic_write_text
from repro.exceptions import BenchError
from repro.obs import names as metric_names
from repro.resilience import VirtualClock
from repro.tpch import plan_space_for
from repro.workload import RandomTrajectoryWorkload
from repro.workload.runner import run_matrix
from repro.workload.scenarios import SCENARIO_NAMES

__all__ = [
    "BENCHES",
    "SUITES",
    "run_events_overhead",
    "run_oracle_label",
    "run_predict_throughput",
    "run_profile_overhead",
    "run_quality_overhead",
    "run_scenarios",
    "run_suite",
    "run_trace_overhead",
    "scenarios_envelope",
]

#: Seeds shared by every throughput/overhead rig: the session's RNG
#: stream and the warmup/probe trajectory workloads.
SESSION_SEED = 17
WARM_SEED = 5
PROBE_SEED = 6


def _seeds() -> dict[str, int]:
    return {"session": SESSION_SEED, "warm": WARM_SEED, "probe": PROBE_SEED}


def _hot_path_config(**overrides: Any) -> PPCConfig:
    return PPCConfig(
        confidence_threshold=0.8,
        mean_invocation_probability=0.05,
        drift_response=False,
        **overrides,
    )


# ----------------------------------------------------------------------
# predict_throughput: the vectorized batch primitive vs the scalar loop
# ----------------------------------------------------------------------

PREDICT_WARMUP = 500
PREDICT_PROBES = 1500
PREDICT_REPEATS = 5
PREDICT_TARGET_US = 150.0
PREDICT_HARD_LIMIT_US = 2.0 * PREDICT_TARGET_US
#: Explicit shared-runner allowance for the CI gate: amortized
#: microseconds wobble hard on busy runners, so the committed value may
#: be exceeded by this much before compare calls it a regression (the
#: bench's own HARD_LIMIT assert still backstops a runaway).
PREDICT_TOLERANCE_PCT = 100.0


def run_predict_throughput() -> dict[str, Any]:
    """Best-of-N amortized per-instance cost, batch vs scalar."""
    session = TemplateSession(
        plan_space_for("Q1"), _hot_path_config(), seed=SESSION_SEED
    )
    warm = RandomTrajectoryWorkload(2, spread=0.02, seed=WARM_SEED).generate(
        PREDICT_WARMUP
    )
    for x in warm:
        session.execute(x)
    probes = RandomTrajectoryWorkload(
        2, spread=0.02, seed=PROBE_SEED
    ).generate(PREDICT_PROBES)
    online = session.online

    best_batch = float("inf")
    best_scalar = float("inf")
    batch_predictions = None
    scalar_predictions = None
    for __ in range(PREDICT_REPEATS):
        t0 = perf_counter()
        batch_predictions = online.predict_batch(probes)
        best_batch = min(best_batch, (perf_counter() - t0) / PREDICT_PROBES)

        t0 = perf_counter()
        scalar_predictions = [online.predict(x) for x in probes]
        best_scalar = min(best_scalar, (perf_counter() - t0) / PREDICT_PROBES)

    if batch_predictions != scalar_predictions:
        raise BenchError(
            "batch and scalar predictions diverged on the bench workload"
        )
    batch_us = best_batch * 1e6
    scalar_us = best_scalar * 1e6
    speedup = scalar_us / batch_us if batch_us > 0.0 else float("inf")
    return make_envelope(
        "predict_throughput",
        metrics={
            "batch_us_per_instance": metric(
                batch_us,
                "us/instance",
                "lower",
                tolerance_pct=PREDICT_TOLERANCE_PCT,
            ),
            "scalar_us_per_instance": metric(
                scalar_us, "us/instance", "lower", tolerance_pct=200.0
            ),
            "speedup": metric(speedup, "x", "higher", tolerance_pct=60.0),
        },
        workload={
            "template": "Q1",
            "warmup": PREDICT_WARMUP,
            "probes": PREDICT_PROBES,
            "repeats": PREDICT_REPEATS,
            "seeds": _seeds(),
        },
        gate={
            "target_us": PREDICT_TARGET_US,
            "hard_limit_us": PREDICT_HARD_LIMIT_US,
            "passed": batch_us <= PREDICT_HARD_LIMIT_US,
        },
    )


# ----------------------------------------------------------------------
# oracle_label: the single-point plan-space oracle call
# ----------------------------------------------------------------------

ORACLE_TEMPLATES = ("Q1", "Q5")
ORACLE_CALLS = 1000
ORACLE_REPEATS = 5
#: Shared-runner allowance, as for ``scalar_us_per_instance``.  Falling
#: back to the vectorized operator trees for one point costs ~10x, far
#: past it.
ORACLE_TOLERANCE_PCT = 200.0


def run_oracle_label() -> dict[str, Any]:
    """Best-of-N microseconds per single-point ``PlanSpace.label``.

    Serving labels every instance at one point (ground truth, and the
    optimizer call on a miss), so this is the per-instance oracle cost.
    The runner checks each single-point label against the batched one.
    """
    metrics: dict[str, Any] = {}
    plans: dict[str, int] = {}
    for name in ORACLE_TEMPLATES:
        space = plan_space_for(name)
        plans[name] = space.plan_count
        points = RandomTrajectoryWorkload(
            space.dimensions, spread=0.02, seed=PROBE_SEED
        ).generate(ORACLE_CALLS)[:, None, :]
        best = float("inf")
        for __ in range(ORACLE_REPEATS):
            t0 = perf_counter()
            labels = [space.label(x) for x in points]
            best = min(best, (perf_counter() - t0) / ORACLE_CALLS)
        single_ids, single_costs = (
            np.concatenate(column) for column in zip(*labels, strict=True)
        )
        batch_ids, batch_costs = space.label(points[:, 0, :])
        if not (
            np.array_equal(single_ids, batch_ids)
            and np.array_equal(single_costs, batch_costs)
        ):
            raise BenchError(f"{name}: single-point and batched labels diverged")
        metrics[f"{name.lower()}_label_us"] = metric(
            best * 1e6, "us/call", "lower", tolerance_pct=ORACLE_TOLERANCE_PCT
        )
    return make_envelope(
        "oracle_label",
        metrics=metrics,
        workload={
            "templates": list(ORACLE_TEMPLATES),
            "plans": plans,
            "calls": ORACLE_CALLS,
            "repeats": ORACLE_REPEATS,
            "seeds": {"probe": PROBE_SEED},
        },
        gate={"parity": True},
    )


# ----------------------------------------------------------------------
# Overhead matrices: tracing, quality telemetry, stage profiling
# ----------------------------------------------------------------------

OVERHEAD_WARMUP = 500
OVERHEAD_PROBES = 4500

#: Tracing's acceptance bar: at the shipped sampling, the hot path
#: slows by less than this.
TRACE_MAX_OVERHEAD_PCT = 10.0

TRACE_MODES = (
    ("off", TraceConfig(enabled=False)),
    ("sampled", TraceConfig()),  # shipped default: head + error bias
    ("full", TraceConfig(interval=1, capacity=4096, error_capacity=512)),
)

QUALITY_MODES = (
    ("off", TelemetryConfig(enabled=False)),
    ("sampled", TelemetryConfig()),  # shipped default: 5 s / every 12th
    ("aggressive", TelemetryConfig(sample_interval=1.0, quality_every=4)),
)

QUALITY_ADVANCE = 1.0  # simulated seconds per instance

PROFILE_WARMUP = 300
PROFILE_PROBES = 3000
#: The profiler's acceptance bar: enabled at the default sampling
#: (every execution), the hot path slows by less than this.
PROFILE_MAX_OVERHEAD_PCT = 5.0

PROFILE_MODES = (
    ("off", ProfileConfig()),
    ("on", ProfileConfig(enabled=True, interval=1)),
)


def _predict_p95(metrics_owner: Any) -> float:
    digest = metrics_owner.metrics.histogram_summary(
        metric_names.STAGE_SECONDS, template="Q1", stage="predict"
    )
    return float(digest["p95"]) if digest else 0.0


def _overhead_workload(warmup: int, probes: int) -> "tuple[Any, Any]":
    warm = RandomTrajectoryWorkload(2, spread=0.02, seed=WARM_SEED).generate(
        warmup
    )
    probe = RandomTrajectoryWorkload(
        2, spread=0.02, seed=PROBE_SEED
    ).generate(probes)
    return warm, probe


def _alternating_walls(
    modes: dict[str, Callable[[Any], Any]], probes: Any
) -> dict[str, float]:
    """Mean seconds per instance of each mode, timed in lockstep.

    Every probe runs through every mode back to back, and every other
    probe reverses the mode order, so a change in host speed lands on
    all modes alike instead of on whichever mode's block it hit.
    """
    order = list(modes)
    walls = dict.fromkeys(order, 0.0)
    for x in probes:
        for name in order:
            run = modes[name]
            t0 = perf_counter()
            run(x)
            walls[name] += perf_counter() - t0
        order.reverse()
    return {name: wall / len(probes) for name, wall in walls.items()}


def _hold_bar(bench: str, mode: str, overhead_pct: float, bar_pct: float) -> None:
    """Fail the run when the gated mode reaches its acceptance bar.

    ``repro bench compare`` judges a metric against its committed
    baseline plus tolerance, so a refreshed baseline would move that
    allowance; the bar itself is checked here, on every run.
    """
    if overhead_pct >= bar_pct:
        raise BenchError(
            f"{bench}: {mode} overhead {overhead_pct:.2f}% reaches the "
            f"{bar_pct:g}% bar"
        )


def _mode_payload(
    walls: dict[str, float], owners: dict[str, Any]
) -> dict[str, Any]:
    baseline = walls["off"]
    return {
        name: {
            "us_per_instance": walls[name] * 1e6,
            "overhead_pct": (walls[name] / baseline - 1.0) * 100.0,
            "predict_p95_seconds": _predict_p95(owners[name]),
        }
        for name in walls
    }


def run_trace_overhead() -> dict[str, Any]:
    """Tracing cost: off vs shipped sampling vs every-execution."""
    sessions = {
        name: TemplateSession(
            plan_space_for("Q1"),
            _hot_path_config(trace=cfg),
            seed=SESSION_SEED,
        )
        for name, cfg in TRACE_MODES
    }
    warm, probes = _overhead_workload(OVERHEAD_WARMUP, OVERHEAD_PROBES)
    for x in warm:
        for session in sessions.values():
            session.execute(x)
    walls = _alternating_walls(
        {name: session.execute for name, session in sessions.items()}, probes
    )
    if not sessions["full"].tracer.traces() or sessions["off"].tracer.traces():
        raise BenchError("trace rig sanity check failed")
    modes = _mode_payload(walls, sessions)
    _hold_bar(
        "trace_overhead", "sampled", modes["sampled"]["overhead_pct"],
        TRACE_MAX_OVERHEAD_PCT,
    )
    return make_envelope(
        "trace_overhead",
        metrics={
            "off_us_per_instance": metric(
                modes["off"]["us_per_instance"],
                "us/instance",
                "lower",
                tolerance_pct=100.0,
            ),
            "sampled_overhead_pct": metric(
                modes["sampled"]["overhead_pct"],
                "pct",
                "lower",
                tolerance_abs=10.0,
            ),
            "full_overhead_pct": metric(
                modes["full"]["overhead_pct"],
                "pct",
                "lower",
                tolerance_abs=25.0,
            ),
        },
        workload={
            "template": "Q1",
            "warmup": OVERHEAD_WARMUP,
            "probes": OVERHEAD_PROBES,
            "timing": "alternating",
            "seeds": _seeds(),
        },
        gate={"mode": "sampled", "max_overhead_pct": TRACE_MAX_OVERHEAD_PCT},
        details={"modes": modes},
    )


def run_quality_overhead() -> dict[str, Any]:
    """Quality-telemetry cost on virtual clocks, off vs shipped vs hot."""
    rigs: dict[str, tuple[PPCFramework, VirtualClock]] = {}
    for name, cfg in QUALITY_MODES:
        clock = VirtualClock()
        framework = PPCFramework(
            _hot_path_config(telemetry=cfg),
            seed=SESSION_SEED,
            clock=clock,
            sleep=clock.sleep,
        )
        framework.register(plan_space_for("Q1"))
        rigs[name] = (framework, clock)
    warm, probes = _overhead_workload(OVERHEAD_WARMUP, OVERHEAD_PROBES)

    def step(framework: PPCFramework, clock: VirtualClock) -> Callable[[Any], None]:
        def run(x: Any) -> None:
            framework.execute("Q1", x)
            clock.advance(QUALITY_ADVANCE)

        return run

    steps = {name: step(*rig) for name, rig in rigs.items()}
    for x in warm:
        for run in steps.values():
            run(x)
    walls = _alternating_walls(steps, probes)
    if rigs["off"][0].telemetry is not None:
        raise BenchError("off rig unexpectedly has telemetry")
    if not rigs["sampled"][0].telemetry.sample_count:
        raise BenchError("sampled rig never sampled")
    reference = [
        (r.executed_plan, r.optimizer_invoked)
        for r in rigs["off"][0].session("Q1").records
    ]
    for name, (framework, __) in rigs.items():
        decisions = [
            (r.executed_plan, r.optimizer_invoked)
            for r in framework.session("Q1").records
        ]
        if decisions != reference:
            raise BenchError(f"telemetry mode {name} changed decisions")
    frameworks = {name: rig[0] for name, rig in rigs.items()}
    modes = _mode_payload(walls, frameworks)
    return make_envelope(
        "quality_overhead",
        metrics={
            "off_us_per_instance": metric(
                modes["off"]["us_per_instance"],
                "us/instance",
                "lower",
                tolerance_pct=100.0,
            ),
            "sampled_overhead_pct": metric(
                modes["sampled"]["overhead_pct"],
                "pct",
                "lower",
                tolerance_abs=6.0,
            ),
            "aggressive_overhead_pct": metric(
                modes["aggressive"]["overhead_pct"],
                "pct",
                "lower",
                tolerance_abs=15.0,
            ),
        },
        workload={
            "template": "Q1",
            "warmup": OVERHEAD_WARMUP,
            "probes": OVERHEAD_PROBES,
            "timing": "alternating",
            "advance_seconds": QUALITY_ADVANCE,
            "seeds": _seeds(),
        },
        gate={"mode": "sampled", "max_overhead_pct": 5.0},
        details={"modes": modes},
    )


def run_profile_overhead() -> dict[str, Any]:
    """Stage-profiler cost at default sampling, with decision parity.

    Two identically seeded sessions run the same trajectory in
    lockstep: profiling off (the shipped default) and profiling every
    execution.  The profiler consumes no RNG and never flips
    ``trace.active``, so the decisions must match bit-for-bit — checked
    here, and pinned by the parity test in ``tests/obs``.
    """
    sessions = {
        name: TemplateSession(
            plan_space_for("Q1"),
            _hot_path_config(profiling=cfg),
            seed=SESSION_SEED,
        )
        for name, cfg in PROFILE_MODES
    }
    warm, probes = _overhead_workload(PROFILE_WARMUP, PROFILE_PROBES)
    for x in warm:
        for session in sessions.values():
            session.execute(x)
    walls = _alternating_walls(
        {name: session.execute for name, session in sessions.items()}, probes
    )
    profiler = sessions["on"].profiler
    if profiler is None or not profiler.report()["templates"]:
        raise BenchError("profiled rig recorded nothing")
    if sessions["off"].profiler is not None:
        raise BenchError("off rig unexpectedly owns a profiler")
    reference = [
        (r.executed_plan, r.optimizer_invoked, r.predicted, r.confidence)
        for r in sessions["off"].records
    ]
    profiled = [
        (r.executed_plan, r.optimizer_invoked, r.predicted, r.confidence)
        for r in sessions["on"].records
    ]
    if profiled != reference:
        raise BenchError("profiling changed decisions")
    modes = _mode_payload(walls, sessions)
    _hold_bar(
        "profile_overhead", "on", modes["on"]["overhead_pct"],
        PROFILE_MAX_OVERHEAD_PCT,
    )
    return make_envelope(
        "profile_overhead",
        metrics={
            "off_us_per_instance": metric(
                modes["off"]["us_per_instance"],
                "us/instance",
                "lower",
                tolerance_pct=100.0,
            ),
            "enabled_overhead_pct": metric(
                modes["on"]["overhead_pct"],
                "pct",
                "lower",
                tolerance_abs=PROFILE_MAX_OVERHEAD_PCT,
            ),
        },
        workload={
            "template": "Q1",
            "warmup": PROFILE_WARMUP,
            "probes": PROFILE_PROBES,
            "timing": "alternating",
            "seeds": _seeds(),
        },
        gate={
            "mode": "on",
            "max_overhead_pct": PROFILE_MAX_OVERHEAD_PCT,
            "parity": True,
        },
        details={"modes": modes},
    )


EVENTS_WARMUP = 300
EVENTS_PROBES = 3000
#: The journal's acceptance bar: enabled with a production-sized ring,
#: the hot path slows by less than this.
EVENTS_MAX_OVERHEAD_PCT = 5.0

EVENTS_MODES = (
    ("off", EventsConfig()),
    ("on", EventsConfig(enabled=True, capacity=4096)),
)


def run_events_overhead() -> dict[str, Any]:
    """Lifecycle-journal cost when enabled, with decision parity.

    Two identically seeded sessions run the same trajectory in
    lockstep: events off (the shipped default) and events on with the
    default ring.  Emission consumes no RNG and never flips
    ``trace.active``, so the decisions must match bit-for-bit — checked
    here, and pinned by the parity test in ``tests/obs``.
    """
    sessions = {
        name: TemplateSession(
            plan_space_for("Q1"),
            _hot_path_config(events=cfg),
            seed=SESSION_SEED,
        )
        for name, cfg in EVENTS_MODES
    }
    warm, probes = _overhead_workload(EVENTS_WARMUP, EVENTS_PROBES)
    for x in warm:
        for session in sessions.values():
            session.execute(x)
    walls = _alternating_walls(
        {name: session.execute for name, session in sessions.items()}, probes
    )
    journal = sessions["on"].events
    if journal is None or not journal.emitted:
        raise BenchError("events rig journaled nothing")
    if sessions["off"].events is not None:
        raise BenchError("off rig unexpectedly owns a journal")
    reference = [
        (r.executed_plan, r.optimizer_invoked, r.predicted, r.confidence)
        for r in sessions["off"].records
    ]
    journaled = [
        (r.executed_plan, r.optimizer_invoked, r.predicted, r.confidence)
        for r in sessions["on"].records
    ]
    if journaled != reference:
        raise BenchError("event journaling changed decisions")
    modes = _mode_payload(walls, sessions)
    _hold_bar(
        "events_overhead", "on", modes["on"]["overhead_pct"],
        EVENTS_MAX_OVERHEAD_PCT,
    )
    return make_envelope(
        "events_overhead",
        metrics={
            "off_us_per_instance": metric(
                modes["off"]["us_per_instance"],
                "us/instance",
                "lower",
                tolerance_pct=100.0,
            ),
            "enabled_overhead_pct": metric(
                modes["on"]["overhead_pct"],
                "pct",
                "lower",
                tolerance_abs=EVENTS_MAX_OVERHEAD_PCT,
            ),
        },
        workload={
            "template": "Q1",
            "warmup": EVENTS_WARMUP,
            "probes": EVENTS_PROBES,
            "timing": "alternating",
            "events_emitted": journal.emitted,
            "seeds": _seeds(),
        },
        gate={
            "mode": "on",
            "max_overhead_pct": EVENTS_MAX_OVERHEAD_PCT,
            "parity": True,
        },
        details={"modes": modes},
    )


# ----------------------------------------------------------------------
# Scenario fleet
# ----------------------------------------------------------------------


def scenarios_envelope(
    payload: dict[str, Any], elapsed_seconds: float
) -> dict[str, Any]:
    """Wrap a :func:`run_matrix` payload in the schema-v2 envelope.

    Shared by the bench runner, the pytest bench, and
    ``repro scenarios run --out`` so the committed snapshot always has
    the same shape no matter which entry point produced it.
    """
    contracts_failed = sum(
        0 if contract["passed"] else 1
        for row in payload["scenarios"]
        for contract in row["contracts"]
    )
    instances = sum(row["instances"] for row in payload["scenarios"])
    return make_envelope(
        "scenarios",
        metrics={
            "contracts_failed": metric(
                contracts_failed, "contracts", "lower", tolerance_abs=0.0
            ),
            "instances": metric(
                instances, "instances", "higher", tolerance_abs=0.0
            ),
            "elapsed_seconds": metric(
                elapsed_seconds, "s", "lower", tolerance_pct=300.0
            ),
        },
        workload={
            "scenarios": [row["scenario"] for row in payload["scenarios"]],
            "tier": payload.get("tier", "fast"),
            "batch_size": payload.get("batch_size", 1),
        },
        gate={"contracts_failed": contracts_failed, "passed": not contracts_failed},
        details={"scenarios": payload["scenarios"]},
    )


def run_scenarios() -> dict[str, Any]:
    """The full adversarial fleet, fast tier, contracts asserted."""
    t0 = perf_counter()
    payload = run_matrix(SCENARIO_NAMES, fast=True)
    return scenarios_envelope(payload, perf_counter() - t0)


# ----------------------------------------------------------------------
# Registry + suite runner
# ----------------------------------------------------------------------


class BenchDef(NamedTuple):
    """One registered bench: how to run it and where its baseline lives."""

    name: str
    snapshot: str  # committed baseline: benchmarks/results/BENCH_<snapshot>.json
    runner: Callable[[], dict[str, Any]]
    suites: tuple[str, ...]


BENCHES: dict[str, BenchDef] = {
    bench.name: bench
    for bench in (
        BenchDef(
            "predict_throughput", "predict", run_predict_throughput, ("ci", "full")
        ),
        BenchDef("oracle_label", "oracle", run_oracle_label, ("ci", "full")),
        BenchDef(
            "profile_overhead", "profile", run_profile_overhead, ("ci", "full")
        ),
        BenchDef(
            "events_overhead", "events", run_events_overhead, ("ci", "full")
        ),
        BenchDef("scenarios", "scenarios", run_scenarios, ("ci", "full")),
        BenchDef("trace_overhead", "trace", run_trace_overhead, ("full",)),
        BenchDef("quality_overhead", "quality", run_quality_overhead, ("full",)),
    )
}

SUITES: dict[str, tuple[str, ...]] = {
    suite: tuple(
        name for name, bench in BENCHES.items() if suite in bench.suites
    )
    for suite in ("ci", "full")
}


def snapshot_path(results_dir: "str | pathlib.Path", bench: str) -> pathlib.Path:
    return pathlib.Path(results_dir) / f"BENCH_{BENCHES[bench].snapshot}.json"


def load_baselines(
    results_dir: "str | pathlib.Path", names: "tuple[str, ...] | list[str]"
) -> dict[str, dict[str, Any]]:
    """The committed envelopes for ``names`` (missing files skipped)."""
    baselines: dict[str, dict[str, Any]] = {}
    for name in names:
        path = snapshot_path(results_dir, name)
        if path.exists():
            baselines[name] = load_envelope(path)
    return baselines


def run_suite(
    names: "tuple[str, ...] | list[str]",
    results_dir: "str | pathlib.Path",
    history_path: "str | pathlib.Path | None" = None,
    refresh_baselines: bool = False,
    suite_label: str = "",
    log: "Callable[[str], None] | None" = None,
) -> dict[str, Any]:
    """Run benches, journal the results, optionally refresh baselines."""
    say = log if log is not None else (lambda _line: None)
    envelopes: dict[str, dict[str, Any]] = {}
    for name in names:
        if name not in BENCHES:
            raise BenchError(
                f"unknown bench {name!r}; registered: {sorted(BENCHES)}"
            )
        say(f"running {name} ...")
        envelope = BENCHES[name].runner()
        envelopes[name] = envelope
        for metric_name, entry in envelope["metrics"].items():
            say(f"  {metric_name} = {entry['value']:.4g} {entry['unit']}")
    run_id = None
    if history_path is not None:
        run_id = append_run(history_path, envelopes, suite=suite_label)
        say(f"journaled run {run_id} -> {history_path}")
    if refresh_baselines:
        for name, envelope in envelopes.items():
            path = snapshot_path(results_dir, name)
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                path, json.dumps(envelope, indent=2, sort_keys=True) + "\n"
            )
            say(f"baseline refreshed -> {path}")
    return {"run_id": run_id, "envelopes": envelopes}
