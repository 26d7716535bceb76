"""Differential tests: the fused columnar lookup against a slow reference.

The reference keeps every (transform, plan) histogram as a plain list of
:class:`Bucket` objects, inserts and merges one Python bucket at a
time, and answers a range query with a per-bucket loop over
:meth:`Bucket.overlap_fraction`.  Hypothesis drives it and the
production :class:`BucketStore` / :class:`HistogramPredictor` through
the same insert, shrink, drop and persistence sequences; the bucket
state must agree exactly, counts and average costs within 1e-12
relative, and predictions (winner or NULL) exactly.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram_predictor import HistogramPredictor
from repro.core.persistence import predictor_from_state, predictor_to_state
from repro.core.point import SamplePool
from repro.core.predictor import median_supported, sorted_median
from repro.histograms import Bucket, MaxDiffHistogram
from repro.histograms.store import BucketStore

RTOL = 1e-12


class ReferenceHistogram:
    """The streaming histogram as a sorted list of Python buckets."""

    def __init__(self, max_buckets: int) -> None:
        self.max_buckets = max_buckets
        self.buckets: list[Bucket] = []

    def insert(self, value: float, cost: float, weight: float) -> None:
        index = bisect.bisect_left([b.lo for b in self.buckets], value)
        if index < len(self.buckets) and self.buckets[index].lo == value:
            bucket = self.buckets[index]
        elif index > 0 and self.buckets[index - 1].hi >= value:
            bucket = self.buckets[index - 1]
        else:
            bucket = Bucket(value, value)
            self.buckets.insert(index, bucket)
        bucket.count += weight
        bucket.cost_sum += cost * weight
        self.shrink(self.max_buckets)

    def shrink(self, max_buckets: int) -> None:
        self.max_buckets = max_buckets
        while len(self.buckets) > max_buckets:
            spans = [
                right.hi - left.lo
                for left, right in zip(self.buckets, self.buckets[1:], strict=False)
            ]
            i = spans.index(min(spans))
            right = self.buckets.pop(i + 1)
            self.buckets[i].hi = right.hi
            self.buckets[i].count += right.count
            self.buckets[i].cost_sum += right.cost_sum

    def query(self, lo: float, hi: float) -> tuple[float, float]:
        count = cost = 0.0
        for bucket in self.buckets:
            fraction = bucket.overlap_fraction(lo, hi)
            count += bucket.count * fraction
            cost += bucket.cost_sum * fraction
        return count, (cost / count if count > 0.0 else 0.0)


def reference_estimates(rows, lo, hi, plans):
    """Per-(row, query) loop: ``(counts, averages)``, each ``(rows, m)``."""
    counts = np.zeros((len(rows), lo.shape[1]))
    averages = np.zeros_like(counts)
    for r, histogram in enumerate(rows):
        for j in range(lo.shape[1]):
            group = r // plans
            counts[r, j], averages[r, j] = histogram.query(
                lo[group, j], hi[group, j]
            )
    return counts, averages


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0.0)


def assert_same_buckets(store, row, reference):
    expected = [(b.lo, b.hi, b.count, b.cost_sum) for b in reference.buckets]
    assert [tuple(c) for c in store.row(row).T.tolist()] == expected


# ----------------------------------------------------------------------
# Store level: direct z-values, edge values and structural corner cases
# ----------------------------------------------------------------------
GROUPS, PLANS = 2, 3
EDGE_VALUES = (0.0, 1.0, 0.5, 0.25)
z_values = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(0.0, 1.0, allow_nan=False),
)
insert_op = st.tuples(
    st.just("insert"),
    st.integers(0, PLANS - 1),
    st.lists(z_values, min_size=GROUPS, max_size=GROUPS),
    st.floats(0.0, 1e4, allow_nan=False),
    st.sampled_from((1.0, 0.25)),
)
operations = st.lists(
    st.one_of(
        insert_op,
        insert_op,
        insert_op,
        st.tuples(st.just("shrink"), st.integers(1, 6)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("round_trip")),
    ),
    max_size=60,
)


def _queries(store, reference, delta, extra):
    """Query ranges per group: random centres plus ranges whose ``lo``
    or ``hi`` sits exactly on a stored point mass."""
    lo = [[] for __ in range(GROUPS)]
    hi = [[] for __ in range(GROUPS)]
    for group in range(GROUPS):
        for centre in extra:
            lo[group].append(centre - delta)
            hi[group].append(centre + delta)
        for histogram in reference[group * PLANS : (group + 1) * PLANS]:
            for bucket in histogram.buckets[:3]:
                lo[group] += [bucket.lo, bucket.lo - delta]
                hi[group] += [bucket.lo + delta, bucket.lo]
    width = max(len(q) for q in lo)

    def pad(q):
        return (q * width)[:width] if q else [0.0] * width

    return np.array([pad(q) for q in lo]), np.array([pad(q) for q in hi])


class TestStoreAgainstReference:
    @given(
        ops=operations,
        max_buckets=st.integers(1, 12),
        delta=st.sampled_from((1e-3, 0.05, 0.3)),
        centres=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_incremental_sequences(self, ops, max_buckets, delta, centres):
        store = BucketStore(GROUPS * PLANS, max_buckets + 1)
        reference = [
            ReferenceHistogram(max_buckets) for __ in range(GROUPS * PLANS)
        ]
        for op in ops:
            if op[0] == "insert":
                __, plan, zs, cost, weight = op
                for group, z in enumerate(zs):
                    row = group * PLANS + plan
                    store.insert(row, z, cost, weight, reference[row].max_buckets)
                    reference[row].insert(z, cost, weight)
            elif op[0] == "shrink":
                for row, histogram in enumerate(reference):
                    store.shrink(row, op[1])
                    histogram.shrink(op[1])
            elif op[0] == "clear":
                store.clear()
                for histogram in reference:
                    histogram.buckets = []
            else:
                loaded = BucketStore(GROUPS * PLANS)
                for row in range(GROUPS * PLANS):
                    loaded.load(row, store.row(row).T.tolist())
                store = loaded
        for row, histogram in enumerate(reference):
            assert_same_buckets(store, row, histogram)
        lo, hi = _queries(store, reference, delta, centres)
        counts, averages = store.query(lo, hi)
        expected_counts, expected_averages = reference_estimates(
            reference, lo, hi, PLANS
        )
        assert_close(counts, expected_counts)
        assert_close(averages, expected_averages)

    @given(
        values=st.lists(
            st.lists(z_values, max_size=80), min_size=GROUPS * PLANS,
            max_size=GROUPS * PLANS,
        ),
        budget=st.integers(1, 40),
        centres=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_static_builder_rows(self, values, budget, centres):
        store = BucketStore(GROUPS * PLANS, budget + 1)
        reference = []
        for row, row_values in enumerate(values):
            costs = np.arange(len(row_values), dtype=float) * 1.5
            MaxDiffHistogram.build(
                row_values, costs, bucket_count=budget, store=store, row=row
            )
            histogram = ReferenceHistogram(budget)
            histogram.buckets = list(
                MaxDiffHistogram.build(row_values, costs, bucket_count=budget).buckets
            )
            reference.append(histogram)
            assert store.row(row).shape[1] <= budget
        lo, hi = _queries(store, reference, 0.05, centres)
        counts, averages = store.query(lo, hi)
        expected_counts, expected_averages = reference_estimates(
            reference, lo, hi, PLANS
        )
        assert_close(counts, expected_counts)
        assert_close(averages, expected_averages)

    def test_point_masses_on_both_range_ends_and_empty_rows(self):
        store = BucketStore(GROUPS * PLANS, 4)
        store.load(0, [(0.2, 0.2, 3.0, 6.0), (0.4, 0.4, 1.0, 5.0)])
        store.load(4, [(0.1, 0.3, 2.0, 2.0)])
        counts, averages = store.query([[0.2], [0.2]], [[0.4], [0.2]])
        assert counts[:, 0].tolist() == [4.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert averages[0, 0] == 11.0 / 4.0
        # A zero-width range inside a wide bucket holds no mass.
        assert counts[4, 0] == 0.0

    @pytest.mark.parametrize(
        "initial, values, max_buckets",
        [
            # Equal spans: the first narrowest pair merges.
            ((), (0.0, 0.25, 0.5, 0.75, 1.0), 3),
            # A value equal to a wide bucket's hi is absorbed by it.
            ((Bucket(0.1, 0.5, 2.0, 4.0), Bucket(0.55, 0.55, 1.0, 2.0)),
             (0.5, 0.1, 0.55), 2),
        ],
    )
    def test_merge_ties_and_bucket_edges(self, initial, values, max_buckets):
        store = BucketStore(1, max_buckets + 1)
        store.load(0, [(b.lo, b.hi, b.count, b.cost_sum) for b in initial])
        reference = ReferenceHistogram(max_buckets)
        reference.buckets = [Bucket(b.lo, b.hi, b.count, b.cost_sum) for b in initial]
        for value in values:
            store.insert(0, value, 2.0, 1.0, max_buckets)
            reference.insert(value, 2.0, 1.0)
            assert_same_buckets(store, 0, reference)

    def test_every_mutator_bumps_the_mutation_count(self):
        store = BucketStore(2, 2)
        mutators = (
            lambda: store.load(0, [(0.1, 0.2, 1.0, 1.0)]),
            lambda: store.insert(1, 0.5, 2.0, 1.0, 2),
            lambda: store.deposit(1, 0, 1.0, 0.25),
            lambda: store.load(1, [(0.1, 0.1, 1.0, 0.0), (0.3, 0.3, 1.0, 0.0)]),
            lambda: store.shrink(1, 1),
            store.clear,
        )
        for mutate in mutators:
            before = store.mutation_count
            mutate()
            assert store.mutation_count > before

    def test_rows_at_capacity_sum_like_numpy(self):
        """Rows of every length up to 40 buckets: the fused sums equal
        ``ndarray.sum`` over the row's terms bit for bit."""
        rng = np.random.default_rng(7)
        store = BucketStore(40, 40)
        rows = []
        for row in range(40):
            edges = np.sort(rng.uniform(0.0, 1.0, 2 * (row + 1)))
            buckets = np.column_stack(
                [edges[0::2], edges[1::2], rng.uniform(0.25, 9.0, row + 1),
                 rng.uniform(0.0, 1e3, row + 1)]
            )
            store.load(row, buckets.tolist())
            rows.append(buckets.T)
        lo = rng.uniform(0.0, 0.6, (1, 25))
        hi = lo + rng.uniform(0.0, 0.6, (1, 25))
        counts, averages = store.query(lo, hi)
        for row, (start, stop, count, cost) in enumerate(rows):
            inter = np.minimum(hi.T, stop) - np.maximum(lo.T, start)
            fractions = np.clip(inter / (stop - start), 0.0, 1.0)
            mass = (fractions * count).sum(axis=1)
            assert np.array_equal(counts[row], mass)
            with np.errstate(invalid="ignore"):
                average = np.where(
                    mass > 0.0, (fractions * cost).sum(axis=1) / mass, 0.0
                )
            assert np.array_equal(averages[row], average)


# ----------------------------------------------------------------------
# Predictor level: the whole lookup, decisions included
# ----------------------------------------------------------------------
points = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
predictor_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"), points, st.integers(0, 2),
            st.floats(1.0, 1e3), st.sampled_from((1.0, 0.25)),
        ),
        st.tuples(st.just("insert"), points, st.integers(0, 2),
                  st.floats(1.0, 1e3), st.just(1.0)),
        st.tuples(st.just("shrink"), st.integers(2, 8)),
        st.tuples(st.just("drop")),
        st.tuples(st.just("round_trip")),
    ),
    max_size=50,
)


def _reference_predictions(predictor, reference, probes):
    z = predictor._z_values_batch(probes)
    t, plans = len(predictor.ensemble), predictor.plan_count
    counts, averages = reference_estimates(
        reference, z - predictor.delta, z + predictor.delta, plans
    )
    counts = counts.reshape(t, plans, -1)
    averages = averages.reshape(t, plans, -1)
    result = []
    for j in range(probes.shape[0]):
        aggregated = np.median(counts[:, :, j], axis=0)
        if (
            predictor.total_mass > 0
            and aggregated.max() < predictor.noise_fraction * predictor.total_mass
        ):
            result.append(None)
            continue
        plan, __ = predictor.model.decide(
            aggregated, predictor.confidence_threshold
        )
        cost = None
        if plan is not None:
            held = counts[:, plan, j] > 0.0
            if held.any():
                cost = float(np.median(averages[:, plan, j][held]))
        result.append(None if plan is None else (plan, cost))
    return counts, result


class TestPredictorAgainstReference:
    @given(
        ops=predictor_ops,
        probes=st.lists(points, min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_sequences(self, ops, probes):
        predictor = HistogramPredictor(
            SamplePool(2), plan_count=3, transforms=3, max_buckets=6,
            confidence_threshold=0.6, noise_fraction=0.01,
            histogram_kind="incremental", seed=3,
        )
        t, plans = len(predictor.ensemble), predictor.plan_count
        reference = [ReferenceHistogram(6) for __ in range(t * plans)]
        for op in ops:
            if op[0] == "insert":
                __, x, plan, cost, weight = op
                x = np.array(x)
                predictor.insert(x, plan, cost, weight=weight)
                for index, z in enumerate(predictor._z_values_batch(x[None])[:, 0]):
                    reference[index * plans + plan].insert(float(z), cost, weight)
            elif op[0] == "shrink":
                for row in predictor._histograms:
                    for histogram in row:
                        histogram.shrink(op[1])
                for histogram in reference:
                    histogram.shrink(op[1])
            elif op[0] == "drop":
                predictor.drop()
                reference = [ReferenceHistogram(6) for __ in range(t * plans)]
            else:
                predictor = predictor_from_state(predictor_to_state(predictor))
        for r, histogram in enumerate(reference):
            assert_same_buckets(predictor._store, r, histogram)
        probes = np.array(probes)
        expected_counts, expected = _reference_predictions(
            predictor, reference, probes
        )
        __, counts, __ = predictor._range_estimates(probes)
        assert_close(counts, expected_counts)
        actual = predictor.predict_batch(probes)
        assert [p is None for p in actual] == [e is None for e in expected]
        for prediction, wanted in zip(actual, expected, strict=True):
            if prediction is None:
                continue
            assert prediction.plan_id == wanted[0]
            if wanted[1] is None:
                assert prediction.estimated_cost is None
            else:
                assert prediction.estimated_cost == pytest.approx(
                    wanted[1], rel=RTOL
                )


# ----------------------------------------------------------------------
# The order-statistic helper
# ----------------------------------------------------------------------
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def columns(draw):
    t = draw(st.integers(1, 7))
    m = draw(st.integers(1, 6))
    values = np.array(
        draw(st.lists(finite, min_size=t * m, max_size=t * m))
    ).reshape(t, m)
    supported = np.array(
        draw(st.lists(st.booleans(), min_size=t * m, max_size=t * m))
    ).reshape(t, m)
    return values, supported


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestSortedMedian:
    @given(data=columns())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_numpy_median(self, data):
        values, __ = data
        assert np.array_equal(sorted_median(values), np.median(values, axis=0))

    @given(data=columns())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_numpy_nanmedian(self, data):
        values, supported = data
        medians, any_support = median_supported(values, supported)
        assert any_support.tolist() == supported.any(axis=0).tolist()
        if any_support.any():
            expected = np.nanmedian(
                np.where(supported, values, np.nan)[:, any_support], axis=0
            )
            assert np.array_equal(medians[any_support], expected)
        assert np.isnan(medians[~any_support]).all()

    def test_three_dimensional_estimates(self):
        values = np.arange(60, dtype=float).reshape(5, 3, 4)[::-1]
        assert np.array_equal(sorted_median(values), np.median(values, axis=0))

    def test_all_unsupported_column_is_nan(self):
        medians, any_support = median_supported(
            np.ones((4, 2)), np.array([[True, False]] * 4)
        )
        assert medians[0] == 1.0 and np.isnan(medians[1])
        assert any_support.tolist() == [True, False]
