"""Histogram base class and bucket representation.

A histogram summarizes a weighted one-dimensional point set.  Each
bucket stores its boundaries, the number of points that fell inside it
and the sum of their associated costs.  Range queries interpolate under
the standard *continuous-values assumption*: points are uniformly
distributed within a bucket, so a query range receives mass
proportional to its overlap with the bucket.  Bucket state lives in a
columnar :class:`~repro.histograms.store.BucketStore`; a histogram is a
view of one of its rows.

The paper's space accounting (Table I) charges 12 bytes per bucket — a
32-bit count, a 32-bit average cost and a 32-bit boundary — which
:meth:`Histogram.space_bytes` reproduces.
"""

from __future__ import annotations

from abc import ABC
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import HistogramError
from repro.histograms.store import COUNT, BucketStore

#: Bytes per bucket: 32-bit count + 32-bit average cost + 32-bit boundary.
BYTES_PER_BUCKET = 12


@dataclass
class Bucket:
    """A single histogram bucket over ``[lo, hi]``: the value type for
    building, persisting and inspecting histograms (their state lives
    in a :class:`BucketStore`).

    ``count`` is the number of inserted points, ``cost_sum`` the sum of
    their cost annotations.  A zero-width bucket (``lo == hi``) models a
    point mass, which arises naturally in the incremental histogram.
    """

    lo: float
    hi: float
    count: float = 0.0
    cost_sum: float = 0.0

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def average_cost(self) -> float:
        """Mean cost of the points in this bucket (0 when empty)."""
        if self.count <= 0.0:
            return 0.0
        return self.cost_sum / self.count

    def overlap_fraction(self, lo: float, hi: float) -> float:
        """Fraction of this bucket's mass inside the query range."""
        if self.width <= 0.0:
            return 1.0 if lo <= self.lo <= hi else 0.0
        inter = min(hi, self.hi) - max(lo, self.lo)
        if inter <= 0.0:
            return 0.0
        return min(1.0, inter / self.width)


class Histogram(ABC):
    """Common query interface shared by all histogram variants.

    A histogram is a view of one row of a :class:`BucketStore`: its own
    one-row store by default, or row ``row`` of a store shared with the
    other histograms of a predictor.  Static variants load their
    buckets at construction; the incremental variant inserts them.
    """

    def __init__(
        self,
        domain: tuple[float, float] = (0.0, 1.0),
        store: "BucketStore | None" = None,
        row: int = 0,
    ) -> None:
        lo, hi = domain
        if not lo < hi:
            raise HistogramError(f"empty histogram domain [{lo}, {hi}]")
        self.domain = (float(lo), float(hi))
        self._store = BucketStore(1) if store is None else store
        self._row = row

    @property
    def buckets(self) -> tuple[Bucket, ...]:
        """Read-only snapshot of the buckets, sorted by ``lo``."""
        return tuple(
            Bucket(*values) for values in self._store.row(self._row).T.tolist()
        )

    def load(self, buckets: "Iterable[Bucket]") -> None:
        """Replace the buckets (sorted by ``lo``) wholesale."""
        self._store.load(
            self._row, ((b.lo, b.hi, b.count, b.cost_sum) for b in buckets)
        )

    # ------------------------------------------------------------------
    # Queries: one-row calls of the store's fused range query
    # ------------------------------------------------------------------
    @property
    def total_count(self) -> float:
        """Total mass stored in the histogram."""
        return float(self._store.row(self._row)[COUNT].sum())

    @property
    def bucket_count(self) -> int:
        return self._store.row(self._row).shape[1]

    def range_count(self, lo: float, hi: float) -> float:
        """Estimated number of points in ``[lo, hi]``."""
        return float(self.range_count_batch([min(lo, hi)], [max(lo, hi)])[0])

    def range_cost(self, lo: float, hi: float) -> float:
        """Estimated average cost of the points in ``[lo, hi]``.

        Returns 0 when the range holds no mass, mirroring a histogram
        query that finds no qualifying buckets.
        """
        return float(self.range_cost_batch([min(lo, hi)], [max(lo, hi)])[0])

    def space_bytes(self) -> int:
        """Storage footprint under the paper's 12-bytes-per-bucket model."""
        return self.bucket_count * BYTES_PER_BUCKET

    def range_count_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`range_count` over query arrays ``(m,)``."""
        mass, __ = self.range_query_batch(lo, hi)
        return mass

    def range_cost_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`range_cost` over query arrays ``(m,)``."""
        __, average = self.range_query_batch(lo, hi)
        return average

    def range_query_batch(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Counts and average costs for query arrays ``(m,)``: this
        histogram's row through :meth:`BucketStore.query`."""
        mass, average = self._store.query(
            lo, hi, rows=slice(self._row, self._row + 1)
        )
        return mass[0], average[0]

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    @classmethod
    def _sorted_input(
        cls,
        values: "Iterable[float]",
        costs: "Iterable[float] | None",
        bucket_count: int,
        domain: tuple[float, float],
        store: "BucketStore | None",
        row: int,
    ) -> "tuple[Histogram, np.ndarray, np.ndarray]":
        """A static builder's validated input: the empty histogram and
        the values with their costs, sorted by value."""
        if bucket_count < 1:
            raise HistogramError("bucket_count must be >= 1")
        hist = cls(domain, store, row)
        data = np.asarray(values, dtype=float)
        if data.size == 0:
            return hist, data, data
        if data.min() < hist.domain[0] or data.max() > hist.domain[1]:
            raise HistogramError("values outside histogram domain")
        cost_data = np.zeros_like(data) if costs is None else np.asarray(
            costs, dtype=float
        )
        if cost_data.shape != data.shape:
            raise HistogramError("values and costs must align")
        order = np.argsort(data, kind="stable")
        return hist, data[order], cost_data[order]

    def _check_in_domain(self, value: float) -> None:
        lo, hi = self.domain
        if not lo <= value <= hi:
            raise HistogramError(
                f"value {value!r} outside histogram domain [{lo}, {hi}]"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(buckets={self.bucket_count}, "
            f"count={self.total_count:g})"
        )
