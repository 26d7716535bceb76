"""Lifecycle-journal overhead on the predict/execute hot path.

Thin wrapper over :func:`repro.bench.runners.run_events_overhead` —
the same measurement core behind ``repro bench run``.  Two identically
seeded sessions run the same trajectory workload in lockstep: one with
the synopsis lifecycle event journal disabled (the shipped default,
where the journal object does not even exist and every emit site is a
single ``is None`` check) and one journaling every synopsis mutation
into the default 4096-slot ring.  Emission consumes no RNG and never
flips ``trace.active``, so the runner asserts the two sessions'
decisions match bit-for-bit (the lockstep parity test in ``tests/obs``
pins the same property per-field).

The acceptance bar from the lineage work: enabled with the
production-sized ring, the hot path slows by less than
``EVENTS_MAX_OVERHEAD_PCT`` percent.  The snapshot lands in
``benchmarks/results/BENCH_events.json``.
"""

from _bench_utils import write_bench_json, write_result
from repro.bench.runners import (
    EVENTS_MAX_OVERHEAD_PCT,
    EVENTS_MODES,
    EVENTS_PROBES,
    EVENTS_WARMUP,
    run_events_overhead,
)


def test_events_overhead(benchmark):
    envelope = benchmark.pedantic(
        run_events_overhead, rounds=1, iterations=1
    )
    modes = envelope["details"]["modes"]
    lines = [
        "Lifecycle-journal overhead on the predict/execute path",
        f"(Q1, {EVENTS_WARMUP} warmup + {EVENTS_PROBES} probes, "
        "modes alternated per instance)",
        "",
    ]
    for name, __ in EVENTS_MODES:
        lines.append(
            f"{name:8s}: {modes[name]['us_per_instance']:8.2f} "
            f"us/instance  ({modes[name]['overhead_pct'] / 100.0:+.1%} "
            "vs off)"
        )
    lines.append(
        f"gate: enabled overhead < {EVENTS_MAX_OVERHEAD_PCT:.0f}% "
        "with bit-identical decisions"
    )
    write_result("events_overhead", lines)
    write_bench_json("events", envelope)
    # The runner already proved decision parity; this pins the cost bar.
    assert envelope["gate"]["parity"] is True
    assert (
        envelope["metrics"]["enabled_overhead_pct"]["value"]
        < EVENTS_MAX_OVERHEAD_PCT
    )
