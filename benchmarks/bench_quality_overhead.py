"""Quality-telemetry sampling overhead on the serving path.

Thin wrapper over :func:`repro.bench.runners.run_quality_overhead` —
the same measurement core behind ``repro bench run``.  Three
identically seeded frameworks run the same trajectory workload in
lockstep on virtual clocks advancing one simulated second per
instance: telemetry disabled, the shipped default (snapshot every 5
simulated seconds, scorecard refresh every 12th snapshot), and an
aggressive cadence (snapshot every second, scorecard every 4th).
Telemetry is read-only over session state and consumes no RNG, so all
three make bit-identical decisions (the runner asserts it) and the
comparison isolates pure sampling cost.

The acceptance bar: the shipped default must stay within 5 % of the
untelemetered baseline on this storm-shaped workload — the ISSUE 5
gate for leaving cache-quality telemetry always-on.
"""

from _bench_utils import write_bench_json, write_result
from repro.bench.runners import (
    OVERHEAD_PROBES,
    OVERHEAD_WARMUP,
    QUALITY_ADVANCE,
    QUALITY_MODES,
    run_quality_overhead,
)


def test_quality_overhead(benchmark):
    envelope = benchmark.pedantic(
        run_quality_overhead, rounds=1, iterations=1
    )
    modes = envelope["details"]["modes"]
    lines = [
        "Quality-telemetry overhead on the serving path",
        f"(Q1, {OVERHEAD_WARMUP} warmup + {OVERHEAD_PROBES} probes, "
        f"{QUALITY_ADVANCE}s simulated per instance, modes alternated "
        "per instance)",
        "",
    ]
    for name, __ in QUALITY_MODES:
        lines.append(
            f"{name:10s}: {modes[name]['us_per_instance']:8.2f} "
            f"us/instance  ({modes[name]['overhead_pct'] / 100.0:+.1%} "
            "vs off)"
        )
    write_result("quality_overhead", lines)
    write_bench_json("quality", envelope)
    # The shipped default must be cheap enough to leave on.
    assert envelope["metrics"]["sampled_overhead_pct"]["value"] < 5.0
