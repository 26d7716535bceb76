"""Decision-tracing overhead on the predict/execute hot path.

Thin wrapper over :func:`repro.bench.runners.run_trace_overhead` — the
same measurement core behind ``repro bench run``.  Three identically
seeded sessions run the same trajectory workload with tracing
disabled, at the default sampling policy (head + error bias — the
shipped configuration), and fully traced (every execution records a
complete span tree).  Sampling is deterministic and RNG-free, so the
three sessions make bit-identical decisions and the comparison
isolates pure tracing cost.

The acceptance bar: the *sampled* default must stay within 10 % of the
untraced baseline — the flight recorder is meant to be always-on.
"""

from _bench_utils import write_bench_json, write_result
from repro.bench.runners import (
    OVERHEAD_PROBES,
    OVERHEAD_WARMUP,
    TRACE_MODES,
    run_trace_overhead,
)


def test_trace_overhead(benchmark):
    envelope = benchmark.pedantic(run_trace_overhead, rounds=1, iterations=1)
    modes = envelope["details"]["modes"]
    lines = [
        "Decision-tracing overhead on the predict/execute path",
        f"(Q1, {OVERHEAD_WARMUP} warmup + {OVERHEAD_PROBES} probes, "
        "modes alternated per instance)",
        "",
    ]
    for name, __ in TRACE_MODES:
        lines.append(
            f"{name:8s}: {modes[name]['us_per_instance']:8.2f} "
            f"us/instance  ({modes[name]['overhead_pct'] / 100.0:+.1%} "
            "vs off)"
        )
    write_result("trace_overhead", lines)
    write_bench_json("trace", envelope)
    # The shipped default must be cheap enough to leave on.
    assert envelope["metrics"]["sampled_overhead_pct"]["value"] < 10.0
