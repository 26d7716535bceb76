"""Columnar bucket store: the one copy of histogram bucket state.

A :class:`BucketStore` keeps the buckets of ``rows`` histograms in one
``(4, rows, capacity)`` array of ``lo, hi, count, cost_sum``; row ``r``
holds its buckets sorted by ``lo`` in its first ``length`` slots.  A
histogram is a view of one row, and a predictor keeps every (transform,
plan) histogram as a row of one store, so one :meth:`BucketStore.query`
answers all range queries of a predict.

The query applies :meth:`~repro.histograms.base.Bucket.overlap_fraction`
to real buckets only, then sums each row in the order numpy's pairwise
``ndarray.sum`` uses for up to 128 terms: eight interleaved lanes over
the whole blocks of eight, the lanes combined pairwise, the rest added
in order.  Results are bit-identical to summing each row's terms with
``ndarray.sum``, and no query depends on which others share its batch.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

#: Column indices of the bucket array.
LO, HI, COUNT, COST = range(4)

#: Accumulators of numpy's unrolled pairwise summation.
_LANES = 8

#: Elements per query-chunk work array (256 KiB of float64), so large
#: batches and probe grids never allocate batch-sized temporaries.
_CHUNK_ELEMENTS = 1 << 15

#: Row selection of a query over the whole store.
_ALL_ROWS = slice(None)


class _Layout(NamedTuple):
    """Where the real buckets of a row selection sit (query-independent)."""

    lengths: np.ndarray  # buckets per selected row
    gather: np.ndarray  # flat column index of each real bucket
    slot: np.ndarray  # its summation slot
    long_rows: np.ndarray  # rows holding at least one block of 8
    blocks: int
    lane_size: int
    slots: int


class BucketStore:
    """Sorted buckets of ``rows`` histograms in one columnar array."""

    def __init__(self, rows: int, capacity: int = 1) -> None:
        self._columns = np.zeros((4, rows, max(1, capacity)))
        self._lengths = np.zeros(rows, dtype=np.intp)
        #: Bumped by every mutator (lint rule RPR103 checks this).
        self._mutations = 0
        self._layout_key: "tuple | None" = None
        self._last_layout: "_Layout | None" = None

    @property
    def mutation_count(self) -> int:
        return self._mutations

    def bucket_count(self) -> int:
        """Real buckets over all rows (padding excluded)."""
        return int(self._lengths.sum())

    def row(self, row: int) -> np.ndarray:
        """Read-only ``(4, length)`` view of one row's buckets."""
        view = self._columns[:, row, : self._lengths[row]]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _reserve(self, size: int) -> None:
        capacity = self._columns.shape[2]
        if size > capacity:
            grown = np.zeros((4, len(self._lengths), max(size, 2 * capacity)))
            grown[:, :, :capacity] = self._columns
            self._columns = grown

    def load(self, row: int, buckets: Iterable) -> None:
        """Replace a row with ``(lo, hi, count, cost_sum)`` tuples sorted
        by ``lo``."""
        values = np.array(list(buckets), dtype=float).reshape(-1, 4)
        self._reserve(len(values))
        self._columns[:, row, : len(values)] = values.T
        self._lengths[row] = len(values)
        self._mutations += 1

    def clear(self) -> None:
        """Empty every row."""
        self._lengths[:] = 0
        self._mutations += 1

    def deposit(self, row: int, index: int, cost: float, weight: float) -> None:
        """Add a point of mass ``weight`` to bucket ``index`` of ``row``."""
        self._columns[COUNT, row, index] += weight
        self._columns[COST, row, index] += cost * weight
        self._mutations += 1

    def insert(
        self, row: int, value: float, cost: float, weight: float, max_buckets: int
    ) -> None:
        """Streaming insert (Ben-Haim and Tom-Tov): the bucket holding
        ``value`` absorbs it, else it opens a point-mass bucket; then
        the narrowest adjacent pairs merge down to ``max_buckets``."""
        n = int(self._lengths[row])
        lo, hi = self._columns[LO, row], self._columns[HI, row]
        index = int(np.searchsorted(lo[:n], value))
        absorbed = index < n and lo[index] == value
        if not absorbed and index > 0 and hi[index - 1] >= value:
            index -= 1
        elif not absorbed:
            self._reserve(n + 1)
            columns = self._columns[:, row]
            columns[:, index + 1 : n + 1] = columns[:, index:n]
            columns[:, index] = (value, value, 0.0, 0.0)
            self._lengths[row] = n + 1
        self.deposit(row, index, cost, weight)
        self.shrink(row, max_buckets)

    def shrink(self, row: int, max_buckets: int) -> None:
        """Merge the row's narrowest adjacent pair (the first on ties)
        until at most ``max_buckets`` buckets remain."""
        while self._lengths[row] > max_buckets:
            n = int(self._lengths[row])
            columns = self._columns[:, row, :n]
            i = int(np.argmin(columns[HI, 1:] - columns[LO, :-1]))
            columns[HI, i] = columns[HI, i + 1]
            columns[COUNT, i] += columns[COUNT, i + 1]
            columns[COST, i] += columns[COST, i + 1]
            columns[:, i + 1 : n - 1] = columns[:, i + 2 : n]
            self._lengths[row] = n - 1
            self._mutations += 1

    # ------------------------------------------------------------------
    # The fused range query
    # ------------------------------------------------------------------
    def _layout(self, rows: slice) -> _Layout:
        """The bucket placement of a row selection.  It depends only on
        the row lengths and the capacity, so the last one is reused
        while they are unchanged."""
        lengths = self._lengths[rows]
        key = (rows.start, rows.stop, self._columns.shape[2], lengths.tobytes())
        if self._layout_key == key:
            return self._last_layout
        first = range(len(self._lengths))[rows].start if len(lengths) else 0
        row_of = np.repeat(np.arange(len(lengths)), lengths)
        position = np.arange(len(row_of)) - (np.cumsum(lengths) - lengths)[row_of]
        # Slots are position-major so every summation step adds whole
        # contiguous slabs.  The lane region holds, for each position
        # inside the whole blocks of 8, one slot per row of 8+ buckets;
        # the tail region holds 8 slots per row: its combined lanes,
        # then its remaining buckets in order.
        whole = lengths[row_of] - lengths[row_of] % _LANES
        long_rows = np.flatnonzero(lengths >= _LANES)
        blocks = int(lengths.max(initial=0)) // _LANES
        lane_size = blocks * _LANES * len(long_rows)
        rank = np.cumsum(lengths >= _LANES) - 1
        slot = np.where(
            position < whole,
            position * len(long_rows) + rank[row_of],
            lane_size + (1 + position - whole) * len(lengths) + row_of,
        )
        self._layout_key = key
        self._last_layout = _Layout(
            lengths.copy(),
            (first + row_of) * self._columns.shape[2] + position,
            slot,
            long_rows,
            blocks,
            lane_size,
            lane_size + _LANES * len(lengths),
        )
        return self._last_layout

    def query(
        self, lo: np.ndarray, hi: np.ndarray, rows: slice = _ALL_ROWS
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mass and average cost of the selected rows over ``[lo, hi]``.

        ``lo`` and ``hi`` are ``(groups, m)``: the selected rows split
        into ``groups`` consecutive equal runs, and each row of run ``g``
        answers the ``m`` ranges of ``lo[g]``/``hi[g]`` (a predictor's
        row ``transform * plans + plan`` is in run ``transform``).
        Returns ``(mass, average)``, each ``(rows, m)``; the average is
        0 where a range holds no mass.
        """
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        layout = self._layout(rows)
        n_rows, m = len(layout.lengths), lo.shape[1]
        mass = np.zeros((n_rows, m))
        cost = np.zeros((n_rows, m))
        if len(layout.slot) == 0 or m == 0:
            return mass, cost
        blo, bhi, counts, cost_sums = self._columns.reshape(4, -1).take(
            layout.gather, axis=1
        )[..., None]
        width = bhi - blo
        per_group = layout.lengths.reshape(len(lo), -1).sum(axis=1)
        long_rows, blocks = layout.long_rows, layout.blocks
        lane_size, slot = layout.lane_size, layout.slot
        step = max(1, _CHUNK_ELEMENTS // max(2 * layout.slots, len(slot)))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for begin in range(0, m, step):
                end = min(m, begin + step)
                # overlap_fraction: a point mass inside the range gives
                # 0/0 = NaN -> fmin 1; outside it, -x/0 = -inf -> 0.
                near = np.repeat(lo[:, begin:end], per_group, axis=0)
                np.maximum(near, blo, out=near)
                fraction = np.repeat(hi[:, begin:end], per_group, axis=0)
                np.minimum(fraction, bhi, out=fraction)
                fraction -= near
                fraction /= width
                np.fmin(fraction, 1.0, out=fraction)
                np.maximum(fraction, 0.0, out=fraction)
                terms = np.zeros((layout.slots, 2, end - begin))
                terms[slot, 0] = np.multiply(fraction, counts, out=near)
                terms[slot, 1] = np.multiply(fraction, cost_sums, out=fraction)
                tails = terms[lane_size:].reshape(_LANES, n_rows, 2, end - begin)
                if lane_size:
                    lanes = terms[:lane_size].reshape(
                        blocks, _LANES, len(long_rows), 2, end - begin
                    ).sum(axis=0)
                    pairs = lanes[0::2] + lanes[1::2]
                    tails[0, long_rows] = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
                sums = tails.sum(axis=0)
                mass[:, begin:end] = sums[:, 0]
                cost[:, begin:end] = sums[:, 1]
        average = np.zeros_like(mass)
        return mass, np.divide(cost, mass, out=average, where=mass > 0.0)
