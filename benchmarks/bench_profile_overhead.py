"""Stage-profiler overhead on the predict/execute hot path.

Thin wrapper over :func:`repro.bench.runners.run_profile_overhead` —
the same measurement core behind ``repro bench run``.  Two identically
seeded sessions run the same trajectory workload in lockstep: one with
the stage profiler disabled (the shipped default, where the profiler
object does not even exist) and one profiling every execution on the
span seam.  The profiler consumes no RNG and never flips
``trace.active``, so the runner asserts the two sessions' decisions
match bit-for-bit (the lockstep parity test in ``tests/obs`` pins the
same property per-field).

The acceptance bar from the observatory work: enabled at the default
sampling, the hot path slows by less than
``PROFILE_MAX_OVERHEAD_PCT`` percent.  The snapshot lands in
``benchmarks/results/BENCH_profile.json``.
"""

from _bench_utils import write_bench_json, write_result
from repro.bench.runners import (
    PROFILE_MAX_OVERHEAD_PCT,
    PROFILE_MODES,
    PROFILE_PROBES,
    PROFILE_WARMUP,
    run_profile_overhead,
)


def test_profile_overhead(benchmark):
    envelope = benchmark.pedantic(
        run_profile_overhead, rounds=1, iterations=1
    )
    modes = envelope["details"]["modes"]
    lines = [
        "Stage-profiler overhead on the predict/execute path",
        f"(Q1, {PROFILE_WARMUP} warmup + {PROFILE_PROBES} probes, "
        "modes alternated per instance)",
        "",
    ]
    for name, __ in PROFILE_MODES:
        lines.append(
            f"{name:8s}: {modes[name]['us_per_instance']:8.2f} "
            f"us/instance  ({modes[name]['overhead_pct'] / 100.0:+.1%} "
            "vs off)"
        )
    lines.append(
        f"gate: enabled overhead < {PROFILE_MAX_OVERHEAD_PCT:.0f}% "
        "with bit-identical decisions"
    )
    write_result("profile_overhead", lines)
    write_bench_json("profile", envelope)
    # The runner already proved decision parity; this pins the cost bar.
    assert envelope["gate"]["parity"] is True
    assert (
        envelope["metrics"]["enabled_overhead_pct"]["value"]
        < PROFILE_MAX_OVERHEAD_PCT
    )
