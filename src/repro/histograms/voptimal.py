"""V-Optimal histogram: boundaries minimizing total variance.

The V-Optimal(V, F) construction (Jagadish et al.) places bucket
boundaries so that the summed within-bucket variance of the frequency
distribution is minimal — provably the best piecewise-constant
approximation for a given bucket budget.  It costs a dynamic program
(O(n^2 b) over distinct values), so real systems approximate it with
MaxDiff; having the exact optimum in the family lets the histogram
ablation quantify how much MaxDiff leaves on the table.

Here the point set is summarized by its distinct values and their
multiplicities; the DP minimizes the variance of the *positions* inside
each bucket (weighted by multiplicity), which directly bounds the
continuous-values interpolation error of range queries.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.histograms.base import Bucket, Histogram
from repro.histograms.store import BucketStore

#: Above this many distinct values the input is pre-aggregated onto a
#: quantile grid to keep the O(n^2 b) dynamic program tractable.
MAX_DISTINCT = 512


class VOptimalHistogram(Histogram):
    """Histogram with variance-optimal bucket boundaries."""

    @classmethod
    def build(
        cls,
        values: Sequence[float],
        costs: "Sequence[float] | None" = None,
        bucket_count: int = 40,
        domain: tuple[float, float] = (0.0, 1.0),
        store: "BucketStore | None" = None,
        row: int = 0,
    ) -> "VOptimalHistogram":
        hist, data, cost_data = cls._sorted_input(
            values, costs, bucket_count, domain, store, row
        )
        if data.size == 0:
            return hist

        # Aggregate to (distinct value, count, cost sum) triples.
        distinct, start_index, counts = np.unique(
            data, return_index=True, return_counts=True
        )
        cost_sums = np.add.reduceat(cost_data, start_index)
        if distinct.size > MAX_DISTINCT:
            distinct, counts, cost_sums = _coarsen(
                distinct, counts, cost_sums, MAX_DISTINCT
            )

        boundaries = _voptimal_boundaries(
            distinct, counts, min(bucket_count, distinct.size)
        )
        hist.load(
            Bucket(
                lo=float(distinct[start]),
                hi=float(distinct[stop - 1]),
                count=float(counts[start:stop].sum()),
                cost_sum=float(cost_sums[start:stop].sum()),
            )
            for start, stop in boundaries
        )
        return hist


def _coarsen(
    values: np.ndarray,
    counts: np.ndarray,
    cost_sums: np.ndarray,
    target: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-aggregate onto at most ``target`` groups of adjacent values."""
    groups = np.linspace(0, values.size, target + 1).astype(int)
    new_values, new_counts, new_costs = [], [], []
    for start, stop in zip(groups, groups[1:], strict=False):
        if start == stop:
            continue
        mass = counts[start:stop].sum()
        centroid = float(
            (values[start:stop] * counts[start:stop]).sum() / mass
        )
        new_values.append(centroid)
        new_counts.append(mass)
        new_costs.append(cost_sums[start:stop].sum())
    return (
        np.array(new_values),
        np.array(new_counts),
        np.array(new_costs),
    )


def _voptimal_boundaries(
    values: np.ndarray, counts: np.ndarray, buckets: int
) -> list[tuple[int, int]]:
    """Optimal ``[start, stop)`` index ranges by dynamic programming.

    Minimizes the summed weighted variance of values within buckets
    using prefix sums for O(1) per-interval cost.
    """
    n = values.size
    weight = counts.astype(float)
    prefix_w = np.concatenate([[0.0], np.cumsum(weight)])
    prefix_wx = np.concatenate([[0.0], np.cumsum(weight * values)])
    prefix_wx2 = np.concatenate([[0.0], np.cumsum(weight * values**2)])

    def interval_error(i: int, j: int) -> float:
        """Weighted variance of values[i:j]."""
        w = prefix_w[j] - prefix_w[i]
        if w <= 0.0:
            return 0.0
        wx = prefix_wx[j] - prefix_wx[i]
        wx2 = prefix_wx2[j] - prefix_wx2[i]
        return max(0.0, wx2 - wx * wx / w)

    # dp[b][j]: minimal error covering values[:j] with b buckets.
    dp = np.full((buckets + 1, n + 1), np.inf)
    choice = np.zeros((buckets + 1, n + 1), dtype=np.int64)
    dp[0, 0] = 0.0
    for b in range(1, buckets + 1):
        for j in range(b, n + 1):
            best = np.inf
            best_i = b - 1
            for i in range(b - 1, j):
                if dp[b - 1, i] == np.inf:
                    continue
                error = dp[b - 1, i] + interval_error(i, j)
                if error < best:
                    best = error
                    best_i = i
            dp[b, j] = best
            choice[b, j] = best_i

    boundaries: list[tuple[int, int]] = []
    j = n
    for b in range(buckets, 0, -1):
        i = int(choice[b, j])
        boundaries.append((i, j))
        j = i
    boundaries.reverse()
    return [pair for pair in boundaries if pair[0] < pair[1]]
