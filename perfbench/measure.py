"""Percentiles, the host record, and the reference loop that the time
metrics are measured in."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

#: Percentiles the tail metric may use, highest first.  The ladder
#: stops at p99: on a host whose speed swings, p99.9 over 10,000 calls
#: (ten samples beyond it) differed by 38% of its median between runs.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Iterations of the reference loop run after each timed instance; one
#: such loop is the unit ``ref`` of the time metrics (50 to 100 µs on a
#: 2.1 GHz Xeon vCPU, as that host's speed changed).
REFERENCE_ITERATIONS = 150

#: Instances on either side of a call whose reference loops give the
#: host's speed at that call.
REFERENCE_WINDOW = 25

#: Iterations of the calibration loop timed before and after a workload.
CALIBRATION_ITERATIONS = 100_000


def tail_percentile(samples: int) -> tuple[float, int]:
    """The highest ladder percentile with at least ten samples beyond
    it, and how many samples lie beyond it."""
    for percentile in TAIL_LADDER:
        beyond = int(samples * (100.0 - percentile) / 100.0 + 1e-9)
        if beyond >= TAIL_MIN_BEYOND:
            return percentile, beyond
    raise ValueError(
        f"{samples} samples cannot support a tail percentile; "
        f"need at least {2 * TAIL_MIN_BEYOND}"
    )


def latency_summary(values) -> dict:
    """Median and tail of per-call values, in the values' own unit, with
    the tail rule's percentile and sample counts."""
    values = np.asarray(values, dtype=float)
    percentile, beyond = tail_percentile(values.size)
    return {
        "p50": float(np.percentile(values, 50.0)),
        "tail": float(np.percentile(values, percentile)),
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "samples": int(values.size),
    }


def relative_walls(latencies, reference_walls, sizes, window=REFERENCE_WINDOW):
    """Each call's wall in units of the reference loop's local wall.

    ``reference_walls[i]`` is the wall of the ``sizes[i]`` reference
    loops run right after call ``i``.  A call's local reference is the
    mean wall of one loop over the calls within ``window`` instances on
    either side of it, so the host's speed at that moment divides out of
    the call's wall.
    """
    latencies = np.asarray(latencies, dtype=float)
    loops = np.asarray(sizes, dtype=float)
    n = latencies.size
    reach = max(1, round(window / float(np.median(loops))))
    walls = np.concatenate(([0.0], np.cumsum(reference_walls)))
    counts = np.concatenate(([0.0], np.cumsum(loops)))
    index = np.arange(n)
    lo = np.maximum(index - reach, 0)
    hi = np.minimum(index + reach + 1, n)
    local = (walls[hi] - walls[lo]) / (counts[hi] - counts[lo])
    return latencies / local


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources, as a commit stand-in
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_record(src: Path, thread_vars) -> dict:
    from repro.buildinfo import commit_id

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit_id(),
        "source_sha256": source_digest(src),
        "blas_threads": {name: os.environ.get(name) for name in thread_vars},
        "argv": sys.argv[1:],
    }


def reference_loop(iterations: int) -> float:
    """A fixed mixed Python/numpy loop: the benchmark's unit of host
    speed."""
    vector = np.linspace(0.0, 1.0, 64)
    total = 0.0
    for i in range(iterations):
        total += (i % 7) * 0.5
        if i % 10 == 0:
            total += float(np.sort(vector * (i % 13))[32])
    if total < 0.0:  # keeps the loop's result live
        raise AssertionError("reference loop result is negative")
    return total


def calibration_ms() -> float:
    """Wall time of a long run of the reference loop, in milliseconds.

    Reported before and after each workload as a record of the host's
    speed; the time metrics divide by the short loops run between calls
    instead (:func:`relative_walls`).
    """
    started = perf_counter()
    reference_loop(CALIBRATION_ITERATIONS)
    return (perf_counter() - started) * 1e3
