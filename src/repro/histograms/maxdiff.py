"""MaxDiff histogram: boundaries at the largest gaps in the data.

The MaxDiff(V, A) family (Poosala et al.) places bucket boundaries
where adjacent sorted values differ the most, so that each bucket spans
a region of near-uniform density.  This is the "standard histogram
construction technique that chooses boundaries to minimize estimation
error" that the paper credits for the precision advantage of
APPROXIMATE-LSH-HISTOGRAMS over fixed grids (Section V-A).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.histograms.base import Bucket, Histogram
from repro.histograms.store import BucketStore


class MaxDiffHistogram(Histogram):
    """Histogram with boundaries at the ``bucket_count - 1`` widest gaps."""

    @classmethod
    def build(
        cls,
        values: Sequence[float],
        costs: Sequence[float] | None = None,
        bucket_count: int = 40,
        domain: tuple[float, float] = (0.0, 1.0),
        store: "BucketStore | None" = None,
        row: int = 0,
    ) -> "MaxDiffHistogram":
        hist, data, cost_data = cls._sorted_input(
            values, costs, bucket_count, domain, store, row
        )
        if data.size == 0:
            return hist

        if data.size == 1 or bucket_count == 1:
            hist.load(
                [Bucket(float(data[0]), float(data[-1]), float(data.size),
                        float(cost_data.sum()))]
            )
            return hist

        gaps = np.diff(data)
        split_budget = min(bucket_count - 1, data.size - 1)
        # Indices of the largest gaps; a split after sorted index i means a
        # boundary between data[i] and data[i + 1].
        split_after = np.sort(np.argpartition(gaps, -split_budget)[-split_budget:])

        buckets = []
        start = 0
        for split in list(split_after) + [data.size - 1]:
            stop = int(split) + 1
            if stop <= start:
                continue
            buckets.append(
                Bucket(
                    lo=float(data[start]),
                    hi=float(data[stop - 1]),
                    count=float(stop - start),
                    cost_sum=float(cost_data[start:stop].sum()),
                )
            )
            start = stop
        hist.load(buckets)
        return hist
