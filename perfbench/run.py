"""Outside-in serving benchmark for the plan cache.

Run from the repository root:

    python3 perfbench/run.py --workload warm_q1 --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics, with wall times in units of a reference loop timed between the
calls (see ``measure.relative_walls``); ``--trace 1`` runs it untraced
and then traced on identical inputs, checks that both made the same
decisions, and reports the per-layer split.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
describe the host, the workload and the checks.  The exit code is 0
only when every check passed and no call failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END_UNITS = {
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "throughput_ipr": "instances/ref",
    "optimizer_calls_per_instance": "ratio",
    "recall": "ratio",
    "precision": "ratio",
    "suboptimality": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "synopsis_kb": "KB",
}


#: Environment variables pinning BLAS/OpenMP pools to one thread; set
#: before numpy is imported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

PER_LAYER_UNITS = {
    "histograms.range_query_us": "us",
    "histograms.range_queries_per_instance": "ratio",
    "predictor.median_us": "us",
    "lsh.z_values_us": "us",
    "confidence.decide_us": "us",
    "histogram_predictor.predict_self_us": "us",
    "histogram_predictor.rows_per_instance": "ratio",
    "histogram_predictor.useful_row_ratio": "ratio",
    "histogram_predictor.insert_self_us": "us",
    "histogram_predictor.inserts_per_instance": "ratio",
    "histograms.insert_us": "us",
    "histograms.buckets": "count",
    "optimizer.ground_truth_us": "us",
    "optimizer.ground_truth_calls_per_instance": "ratio",
    "optimizer.invoke_us": "us",
    "optimizer.cost_at_us": "us",
    "resilience.retry_self_us": "us",
    "cache.us": "us",
    "cache.hit_rate": "ratio",
    "cache.evictions_per_1k": "count",
    "monitor.us": "us",
    "monitor.drift_events": "count",
    "online.policy_us": "us",
    "obs.trace_us": "us",
    "obs.telemetry_us": "us",
    "obs.telemetry_samples": "count",
    "service.bind_us": "us",
    "framework.self_us": "us",
    "trace.wall_us": "us",
    "trace.attributed_pct": "%",
    "trace.overhead_pct": "%",
}


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _emit(line: str) -> None:
    print(line, flush=True)


def relative(runs):
    """Per-call walls of timed phases in units of the reference loop."""
    import numpy as np
    from measure import relative_walls

    return np.concatenate(
        [
            relative_walls(
                o.latencies, o.reference_walls, [size for _, _, size in p.calls]
            )
            for p, o in runs
        ]
    )


def _end_to_end(runs, quality, setups, rss_mb) -> dict:
    from measure import latency_summary

    walls = relative(runs)
    latency = latency_summary(walls)
    seconds = [t for _, o in runs for t in o.latencies]
    raw = latency_summary([t * 1e6 for t in seconds])
    loop_walls = [w / size for p, o in runs
                  for (_, _, size), w in zip(p.calls, o.reference_walls)]
    values = {
        "latency_p50_ref": latency["p50"],
        "latency_tail_ref": latency["tail"],
        "throughput_ipr": quality["instances"] / float(walls.sum()),
        "optimizer_calls_per_instance": quality["optimizer_calls_per_instance"],
        "recall": quality["recall"],
        "precision": quality["precision"],
        "suboptimality": quality["suboptimality"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "synopsis_kb": quality["synopsis_kb"],
    }
    _emit(
        f"tail: p{latency['tail_percentile']:g} over {latency['samples']} calls, "
        f"{latency['tail_beyond']} beyond it; setups (s): "
        + ", ".join(f"{s:.3f}" for s in setups)
    )
    _emit(
        "wall (us, host speed not divided out): p50={:.1f} tail={:.1f} "
        "throughput={:.1f} instances/s; reference loop (us): median={:.2f}".format(
            raw["p50"],
            raw["tail"],
            quality["instances"] / sum(seconds),
            1e6 * statistics.median(loop_walls),
        )
    )
    return values


def _per_layer(tracer, wall, overhead, quality, problems) -> dict:
    """Per-layer metrics of a traced run whose entry-point calls took
    ``wall`` seconds in all, as measured by the caller, and whose
    reference-loop walls exceed the untraced run's by ``overhead``."""
    from layers import ROOT, attribution_problem

    n = quality["instances"]
    us = {k: v * 1e6 / n for k, v in tracer.self_seconds.items()}
    calls = tracer.calls
    hits = quality["cache_hits"]
    lookups = hits + quality["cache_misses"]
    named = sum(v for k, v in tracer.self_seconds.items() if k != ROOT)
    problem = attribution_problem(tracer, wall)
    if problem is not None:
        problems.append(problem)
    rows = tracer.rows
    return {
        "histograms.range_query_us": us.get("histograms.range_query", 0.0),
        "histograms.range_queries_per_instance": calls["histograms.range_query"] / n,
        "predictor.median_us": us.get("predictor.median", 0.0),
        "lsh.z_values_us": us.get("lsh.z_values", 0.0),
        "confidence.decide_us": us.get("confidence.decide", 0.0),
        "histogram_predictor.predict_self_us": us.get("histogram_predictor.predict", 0.0),
        "histogram_predictor.rows_per_instance": rows / n,
        "histogram_predictor.useful_row_ratio": n / rows if rows else 0.0,
        "histogram_predictor.insert_self_us": us.get("histogram_predictor.insert", 0.0),
        "histogram_predictor.inserts_per_instance": calls["histogram_predictor.insert"] / n,
        "histograms.insert_us": us.get("histograms.insert", 0.0),
        "histograms.buckets": quality["synopsis_buckets"],
        "optimizer.ground_truth_us": us.get("optimizer.ground_truth", 0.0),
        "optimizer.ground_truth_calls_per_instance": calls["optimizer.ground_truth"] / n,
        "optimizer.invoke_us": us.get("optimizer.invoke", 0.0),
        "optimizer.cost_at_us": us.get("optimizer.cost_at", 0.0),
        "resilience.retry_self_us": us.get("resilience.retry", 0.0),
        "cache.us": us.get("cache", 0.0),
        "cache.hit_rate": hits / lookups if lookups else 0.0,
        "cache.evictions_per_1k": quality["evictions"] * 1000.0 / n,
        "monitor.us": us.get("monitor", 0.0),
        "monitor.drift_events": tracer.drift_detections,
        "online.policy_us": us.get("online.policy", 0.0),
        "obs.trace_us": us.get("obs.trace", 0.0),
        "obs.telemetry_us": us.get("obs.telemetry", 0.0),
        "obs.telemetry_samples": tracer.telemetry_samples,
        "service.bind_us": us.get("service.bind", 0.0),
        "framework.self_us": us.get(ROOT, 0.0),
        "trace.wall_us": wall * 1e6 / n,
        "trace.attributed_pct": 100.0 * named / wall,
        "trace.overhead_pct": 100.0 * overhead,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(HERE))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from layers import LayerTracer
    from measure import calibration_ms, host_record, peak_rss_mb
    from workloads import STREAMS, VIRTUAL_STEP_S, WORKLOADS, check_and_score, drive

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    # A traced run times the workload twice (untraced, then traced) on
    # half the instances each, so it takes about as long as an
    # untraced one.
    count = workload.timed_instances(args.seconds, STREAMS * (1 + args.trace))
    _emit("host: " + json.dumps(host_record(SRC, THREAD_VARS), sort_keys=True))
    _emit(
        f"workload: {workload.name} seed={args.seed} streams={STREAMS} "
        f"instances={STREAMS * count} virtual_step_s={VIRTUAL_STEP_S} "
        f"trace={args.trace}"
    )
    _emit(f"why: {workload.why}")
    calibration = [calibration_ms()]

    def prepare_streams():
        streams, setups = [], []
        for stream in range(STREAMS):
            started = perf_counter()
            streams.append(workload.prepare((args.seed, stream), count))
            setups.append(perf_counter() - started)
        return streams, setups

    streams, setups = prepare_streams()
    runs = [(prepared, drive(prepared)) for prepared in streams]
    problems, decisions, quality = check_and_score(runs)
    attempted = sum(len(p.calls) for p, _ in runs)
    failed = sum(o.failed for _, o in runs)
    untraced = float(relative(runs).sum())

    if args.trace == 0:
        metrics = _end_to_end(runs, quality, setups, peak_rss_mb())
        units = END_TO_END_UNITS
    else:
        streams = runs = None
        tracer = LayerTracer()
        tracer.install()
        try:
            streams, _ = prepare_streams()
            tracer.reset()  # count the timed phases only, not the warm-ups
            runs = [(prepared, drive(prepared, tracer)) for prepared in streams]
        finally:
            tracer.restore()
        traced_problems, traced_decisions, quality = check_and_score(runs)
        problems.extend(f"traced: {p}" for p in traced_problems)
        if traced_decisions != decisions:
            problems.append("traced and untraced decision sequences differ")
        failed += sum(o.failed for _, o in runs)
        attempted += sum(len(p.calls) for p, _ in runs)
        overhead = float(relative(runs).sum()) / untraced - 1.0
        metrics = _per_layer(
            tracer, sum(sum(o.latencies) for _, o in runs), overhead, quality,
            problems,
        )
        units = PER_LAYER_UNITS

    calibration.append(calibration_ms())
    properties = {
        k: quality[k]
        for k in (
            "served_without_optimizer",
            "mutations_per_instance",
            "drift_drops",
            "evictions",
            "regret",
        )
    }
    properties["error_rate"] = failed / attempted
    _emit("properties: " + json.dumps(properties, sort_keys=True))
    _emit(
        "calibration_ms: before={:.3f} after={:.3f}".format(*calibration)
    )
    for name, value in metrics.items():
        _emit(f"metric {name} = {value:.6g} {units[name]}")
    for problem in problems[:20]:
        _emit(f"CHECK FAILED: {problem}")
    correct = not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    _emit(json.dumps(result))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
