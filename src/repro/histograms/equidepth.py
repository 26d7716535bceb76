"""Equi-depth histogram: bucket boundaries at data quantiles.

Every bucket receives (as close as possible to) the same number of
points, which adapts boundaries to dense regions — the property that
lets a small number of buckets summarize the sharply clustered z-order
distributions in Figure 6 of the paper.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.histograms.base import Bucket, Histogram
from repro.histograms.store import BucketStore


class EquiDepthHistogram(Histogram):
    """Histogram whose buckets hold equal shares of the input mass."""

    @classmethod
    def build(
        cls,
        values: Sequence[float],
        costs: Sequence[float] | None = None,
        bucket_count: int = 40,
        domain: tuple[float, float] = (0.0, 1.0),
        store: "BucketStore | None" = None,
        row: int = 0,
    ) -> "EquiDepthHistogram":
        hist, data, cost_data = cls._sorted_input(
            values, costs, bucket_count, domain, store, row
        )
        if data.size == 0:
            return hist

        effective = min(bucket_count, data.size)
        # Quantile edges; first/last edges snap to the actual data range so
        # that no bucket extends into empty space (which would dilute the
        # continuous-values interpolation).
        positions = np.linspace(0, data.size, effective + 1).astype(int)
        hist.load(
            Bucket(
                lo=float(data[start]),
                hi=float(data[stop - 1]),
                count=float(stop - start),
                cost_sum=float(cost_data[start:stop].sum()),
            )
            for start, stop in zip(positions, positions[1:], strict=False)
            if start < stop
        )
        return hist
