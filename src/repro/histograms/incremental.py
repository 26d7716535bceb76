"""Online-insertable bounded-bucket histogram.

The ONLINE-APPROXIMATE-LSH-HISTOGRAMS predictor inserts newly optimized
plan-space points into its histograms one at a time (Section IV-D), so
the synopsis structure must support streaming insertion under a hard
bucket budget.  This implementation follows the streaming-histogram
approach of Ben-Haim and Tom-Tov: each insertion creates a point-mass
bucket, and when the budget is exceeded the two adjacent buckets whose
merge produces the narrowest combined bucket are coalesced.  Merging
the narrowest pair keeps boundaries aligned with the dense z-order
clusters, approximating the error-minimizing constructions that the
static variants compute offline.
"""

from __future__ import annotations

from repro.exceptions import HistogramError
from repro.histograms.base import Histogram
from repro.histograms.store import BucketStore


class IncrementalHistogram(Histogram):
    """Histogram with at most ``max_buckets`` buckets, built by insertion."""

    def __init__(
        self,
        max_buckets: int = 40,
        domain: tuple[float, float] = (0.0, 1.0),
        store: "BucketStore | None" = None,
        row: int = 0,
    ) -> None:
        if max_buckets < 1:
            raise HistogramError("max_buckets must be >= 1")
        super().__init__(
            domain, BucketStore(1, max_buckets + 1) if store is None else store, row
        )
        self.max_buckets = max_buckets

    def insert(self, value: float, cost: float = 0.0, weight: float = 1.0) -> None:
        """Insert one labeled point, merging buckets if over budget.

        A value inside an existing bucket is absorbed by it; otherwise
        it opens a point-mass bucket.  ``weight`` scales the point's
        mass (and its cost contribution); fractional weights implement
        the discounted insertion of the positive-feedback extension.
        """
        self._check_in_domain(value)
        if weight <= 0.0:
            raise HistogramError("insertion weight must be > 0")
        self._store.insert(self._row, value, cost, weight, self.max_buckets)

    def shrink(self, new_max: int) -> None:
        """Reduce the bucket budget in place (memory-governor support)."""
        if new_max < 1:
            raise HistogramError("max_buckets must be >= 1")
        self.max_buckets = new_max
        self._store.shrink(self._row, new_max)

    def clear(self) -> None:
        """Drop all buckets (used when a template's plan space drifts)."""
        self.load(())
