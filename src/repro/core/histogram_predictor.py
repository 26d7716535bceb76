"""APPROXIMATE-LSH-HISTOGRAMS: z-ordered synopses in database histograms.

Section IV-C replaces the per-grid cell arrays of APPROXIMATE-LSH with
database histograms: the cells of each transformed grid are linearized
onto ``[0, 1]`` by a z-order curve, and for every (transform, plan)
pair a histogram summarizes the distribution of that plan's points
along the z-axis, together with their average execution cost.  Density
around a test point becomes a histogram range query over
``[T(x) - delta, T(x) + delta]``, where ``2 * delta`` equals the volume
of the radius-``d`` hypersphere.

Two sanity checks keep the lossy summarization honest:

* **confidence** (Section IV-A) — the majority plan must dominate the
  z-range by enough margin; this suppresses the false positives a
  histogram bucket spanning non-contiguous z-intervals would cause;
* **noise elimination** — the majority plan's density must exceed a
  fixed fraction of the total sample count, suppressing z-order
  artifacts that place a few far-away points into the queried range.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.core.confidence import ConfidenceModel
from repro.core.point import SamplePool
from repro.core.predictor import (
    PlanPredictor,
    Prediction,
    median_supported,
    sorted_median,
)
from repro.core.relevance import apply_axis_weights
from repro.exceptions import ConfigurationError, PredictionError
from repro.histograms import (
    EquiDepthHistogram,
    EquiWidthHistogram,
    Histogram,
    IncrementalHistogram,
    MaxDiffHistogram,
    VOptimalHistogram,
)
from repro.histograms.base import BYTES_PER_BUCKET
from repro.histograms.store import BucketStore
from repro.lsh.grid import Grid
from repro.lsh.stacked import StackedEnsemble
from repro.lsh.transforms import TransformEnsemble
from repro.lsh.zorder import ZOrderCurve

from repro.geometry import ball_volume

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import MetricsRegistry
    from repro.obs.events import _TemplateEmitter
    from repro.obs.tracing import DecisionTrace

_STATIC_BUILDERS = {
    "maxdiff": MaxDiffHistogram,
    "equidepth": EquiDepthHistogram,
    "equiwidth": EquiWidthHistogram,
    "voptimal": VOptimalHistogram,
}


class HistogramPredictor(PlanPredictor):
    """The paper's flagship structure: LSH + z-order + histograms."""

    def __init__(
        self,
        pool: SamplePool,
        plan_count: "int | None" = None,
        transforms: int = 5,
        resolution: int = 16,
        max_buckets: int = 40,
        radius: float = 0.05,
        confidence_threshold: float = 0.7,
        noise_fraction: "float | None" = None,
        histogram_kind: str = "maxdiff",
        output_dims: "int | None" = None,
        aggregation: str = "median",
        axis_weights: "np.ndarray | None" = None,
        seed: "int | np.random.Generator | None" = 0,
        confidence_model: "ConfidenceModel | None" = None,
    ) -> None:
        if resolution < 2 or resolution & (resolution - 1):
            raise ConfigurationError("resolution must be a power of two >= 2")
        if histogram_kind not in (*_STATIC_BUILDERS, "incremental"):
            raise ConfigurationError(
                f"unknown histogram kind {histogram_kind!r}"
            )
        if radius <= 0.0:
            raise PredictionError("radius must be > 0")
        if aggregation not in ("median", "mean"):
            raise ConfigurationError(f"unknown aggregation {aggregation!r}")
        self.dimensions = pool.dimensions
        self.radius = radius
        self.confidence_threshold = confidence_threshold
        self.noise_fraction = noise_fraction
        self.max_buckets = max_buckets
        self.histogram_kind = histogram_kind
        self.aggregation = aggregation
        self.axis_weights = (
            None if axis_weights is None
            else np.asarray(axis_weights, dtype=float)
        )
        self.model = confidence_model or ConfidenceModel()

        # Default s = r; pass output_dims < r explicitly for
        # dimensionality reduction (useful only on redundant axes).
        self.ensemble = TransformEnsemble(
            transforms,
            self.dimensions,
            output_dims=output_dims,
            resolution=resolution,
            seed=seed,
        )
        self.grids = [
            Grid(*transform.output_bounds, resolution)
            for transform in self.ensemble
        ]
        output_dims = self.ensemble.transforms[0].output_dims
        bits = int(math.log2(resolution))
        if output_dims * bits > 62:
            bits = max(1, 62 // output_dims)
        self.curve = ZOrderCurve(output_dims, bits)
        self._rebuild_stacked()

        # 2*delta = volume of the radius-d hypersphere (Section IV-C),
        # floored at one z-order cell so tiny radii still see the
        # containing cell.
        self.delta = max(
            ball_volume(radius, self.dimensions) / 2.0,
            self.curve.cell_extent(),
        )

        if plan_count is None:
            if len(pool) == 0:
                raise PredictionError(
                    "APPROXIMATE-LSH-HISTOGRAMS needs samples "
                    "or an explicit plan count"
                )
            plan_count = int(pool.plan_ids.max()) + 1
        self.plan_count = plan_count
        #: Number of points inserted (integer, weight-independent).
        self.total_points = 0
        #: Total inserted mass: verified points carry weight 1, positive
        #: feedback inserts discounted weights.  Noise elimination
        #: compares against this, matching the weighted bucket counts.
        self.total_mass = 0.0
        #: One store row per (transform, plan), ``transform * plans +
        #: plan``; ``_histograms[transform][plan]`` are views of them.
        self._store = BucketStore(0)
        self._histograms: list[list[Histogram]] = []
        self._metrics = None
        self._transform_timer = None
        self._range_timer = None
        #: Lifecycle event emitter (``repro.obs.events``); ``None`` until
        #: the owning session binds one, so the construction-time pool
        #: replay below journals nothing and the disabled path stays a
        #: single ``is None`` check.
        self._events = None
        #: Monotone synopsis-mutation counter: bumped by ``insert`` and
        #: ``drop`` so batch consumers (``TemplateSession.execute_batch``)
        #: can detect when precomputed predictions went stale.
        self._mutations = 0
        self._build_histograms(pool)

    def _rebuild_stacked(self) -> None:
        """(Re)build the struct-of-arrays transform/grid view.

        Derived state: must be called again after ``ensemble`` or
        ``grids`` are replaced wholesale (persistence restore does).
        """
        self._stacked = StackedEnsemble(
            self.ensemble, self.grids, curve=self.curve
        )

    @property
    def mutation_count(self) -> int:
        """Number of synopsis mutations (inserts and drops) so far."""
        return self._mutations

    def bind_metrics(self, registry: "MetricsRegistry", **labels) -> None:
        """Publish per-predict transform / range-query timings.

        Called by the owning session once the registry and template
        label are known; predictors without a binding skip all timing.
        """
        from repro.obs import names as metric_names

        self._metrics = registry
        self._transform_timer = registry.histogram(
            metric_names.PREDICT_TRANSFORM_SECONDS, **labels
        )
        self._range_timer = registry.histogram(
            metric_names.PREDICT_RANGE_QUERY_SECONDS, **labels
        )

    def bind_events(self, emitter: "_TemplateEmitter") -> None:
        """Attach a lifecycle event emitter (``repro.obs.events``).

        Late binding, like :meth:`bind_metrics`: the constructor's pool
        replay runs before any emitter exists, so the journal records
        the synopsis *going live* (one ``histogram_built`` event) and
        every mutation after that, not the seed replay.
        """
        self._events = emitter
        self._emit_event(
            "histogram_built",
            histogram_kind=self.histogram_kind,
            transforms=len(self.ensemble),
            plans=self.plan_count,
            points=self.total_points,
        )

    def _emit_event(self, kind: str, **fields) -> None:
        """Journal one lifecycle event if an emitter is bound."""
        if self._events is not None:
            self._events(kind, **fields)

    # ------------------------------------------------------------------
    # Construction / population
    # ------------------------------------------------------------------
    def _new_synopsis(self, make) -> None:
        """A fresh store whose row ``transform * plans + plan`` backs the
        histogram ``make(store, row, transform, plan)``."""
        plans = self.plan_count
        rows = len(self.ensemble) * plans
        self._store = BucketStore(rows, self.max_buckets + 1)
        self._histograms = [
            [
                make(self._store, index * plans + plan, index, plan)
                for plan in range(plans)
            ]
            for index in range(len(self.ensemble))
        ]

    def _empty_synopsis(self) -> None:
        self._new_synopsis(
            lambda store, row, *__: IncrementalHistogram(
                self.max_buckets, store=store, row=row
            )
        )

    def _build_histograms(self, pool: SamplePool) -> None:
        if self.histogram_kind == "incremental" or len(pool) == 0:
            self._empty_synopsis()
            for point in pool.points():
                self.insert(point.coords, point.plan_id, point.cost)
            return

        builder = _STATIC_BUILDERS[self.histogram_kind]
        plan_ids = pool.plan_ids
        z_all = self._z_values_batch(pool.coords)
        self._new_synopsis(
            lambda store, row, index, plan: builder.build(
                z_all[index][plan_ids == plan],
                pool.costs[plan_ids == plan],
                bucket_count=self.max_buckets,
                store=store,
                row=row,
            )
        )
        self.total_points = len(pool)
        self.total_mass = float(len(pool))

    def _z_values_batch(self, points: np.ndarray) -> np.ndarray:
        """z-values ``(t, m)`` of each point under every transform."""
        return self._stacked.z_values(
            apply_axis_weights(points, self.axis_weights)
        )

    def insert(
        self,
        x: np.ndarray,
        plan_id: int,
        cost: float = 0.0,
        weight: float = 1.0,
        provenance: str = "direct",
    ) -> None:
        """Add one labeled point (requires insertable histograms).

        ``weight < 1`` inserts a discounted point — used by the
        positive-feedback extension for unverified predictions.

        ``provenance`` names the decision-flow origin of the point
        (``cache_miss`` / ``exploration`` / ``negative_feedback`` /
        ``positive_feedback`` / ``direct``) and is journaled with the
        ``point_inserted`` lifecycle event; it never affects the insert.

        The insert is atomic across transforms: insertability, the
        weight, and every z-value are validated up front, so a rejected
        insert leaves no histogram partially mutated.
        """
        x = self._check_point(x)
        if weight <= 0.0:
            raise PredictionError("insertion weight must be > 0")
        targets = [
            self._histograms[index][plan_id]
            for index in range(len(self.ensemble))
        ]
        if any(not hasattr(histogram, "insert") for histogram in targets):
            raise PredictionError(
                "histogram kind "
                f"{self.histogram_kind!r} does not support insertion; "
                "use histogram_kind='incremental'"
            )
        z_values = [
            float(z) for z in self._z_values_batch(x[None, :])[:, 0]
        ]
        for histogram, z in zip(targets, z_values, strict=True):
            histogram.insert(z, cost, weight=weight)
        self.total_points += 1
        self.total_mass += weight
        self._mutations += 1
        if self._events is not None:
            self._emit_event(
                "point_inserted",
                plan=int(plan_id),
                cost=float(cost),
                weight=float(weight),
                provenance=provenance,
            )

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def _range_estimates(
        self, points: np.ndarray, record_timing: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The struct-of-arrays lookup core shared by every predict path.

        For validated points ``(m, r)``, returns ``(z_values (t, m),
        counts (t, plans, m), avg_costs (t, plans, m))``: one stacked
        pass computes all z-values, then one fused store query answers
        every (transform, plan) range query of the batch.  When metrics
        are bound (and ``record_timing``), the transform and range-query
        timers observe exactly once per call.
        """
        record = record_timing and self._metrics is not None
        if record:
            started = perf_counter()
        z_values = self._z_values_batch(points)
        if record:
            mid = perf_counter()
        counts, avg_costs = self._store.query(
            z_values - self.delta, z_values + self.delta
        )
        shape = (len(self.ensemble), self.plan_count, points.shape[0])
        if record:
            self._transform_timer.observe(mid - started)
            self._range_timer.observe(perf_counter() - mid)
        return z_values, counts.reshape(shape), avg_costs.reshape(shape)

    def _aggregate(self, estimates: np.ndarray) -> np.ndarray:
        """Median (or mean, under the ablation) over the transform axis."""
        if self.aggregation == "mean":
            return estimates.mean(axis=0)
        return sorted_median(estimates)

    def _winner_costs(
        self,
        counts: np.ndarray,
        avg_costs: np.ndarray,
        winners: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized cost estimate for each point's winning plan.

        Selects the winner's per-transform (count, avg cost) columns
        from the ``(t, plans, m)`` estimate arrays and medians the
        averages over the transforms holding mass.  NULL rows
        (``winners < 0``) are gathered against plan 0 merely to keep
        the gather in bounds; callers never read them.
        """
        columns = np.arange(winners.shape[0])
        safe = np.where(winners < 0, 0, winners)
        return median_supported(
            avg_costs[:, safe, columns],
            counts[:, safe, columns] > 0.0,
        )

    def _emit_lookup_spans(
        self,
        trace: "DecisionTrace",
        z_values: np.ndarray,
        counts: np.ndarray,
        avg_costs: np.ndarray,
    ) -> np.ndarray:
        """Annotate per-transform lookup spans plus the aggregate span
        from already-computed batch-of-one estimates; returns the
        aggregated per-plan counts ``(plans,)``."""
        for index in range(len(self.ensemble)):
            with trace.span("transform") as span:
                z = float(z_values[index, 0])
                row = counts[index, :, 0]
                span.set(
                    index=index,
                    z=z,
                    z_range=[z - self.delta, z + self.delta],
                    counts=[float(c) for c in row],
                    avg_costs=[
                        float(avg_costs[index, plan, 0])
                        if row[plan] > 0
                        else None
                        for plan in range(self.plan_count)
                    ],
                    vote=int(row.argmax()) if row.max() > 0.0 else None,
                )
        aggregated = self._aggregate(counts)[:, 0]
        with trace.span("aggregate") as span:
            span.set(
                method=self.aggregation,
                counts=[float(c) for c in aggregated],
            )
        return aggregated

    def median_counts(
        self, x: np.ndarray, trace: "DecisionTrace | None" = None
    ) -> np.ndarray:
        """Per-plan range-count aggregated across the ``t`` transforms
        (median by default; mean under the ablation setting).

        A batch of one through the struct-of-arrays core.  With an
        active ``trace``, every transform's density lookup gets its own
        span (z-value, per-plan counts and average costs, the
        transform's argmax vote) plus an ``aggregate`` span; the
        returned counts are identical either way.
        """
        x = self._check_point(x)
        z_values, counts, avg_costs = self._range_estimates(x[None, :])
        if trace is not None and trace.active:
            return self._emit_lookup_spans(trace, z_values, counts, avg_costs)
        return self._aggregate(counts)[:, 0]

    def predict(
        self, x: np.ndarray, trace: "DecisionTrace | None" = None
    ) -> "Prediction | None":
        """A thin wrapper over a batch of one.

        The untraced path is literally ``predict_batch(x[None, :])[0]``;
        the traced path runs the same numeric core and only adds span
        annotation — the decisions are bit-for-bit identical, which the
        trace-parity suite pins down.
        """
        if trace is not None and trace.active:
            return self._predict_traced(x, trace)
        x = self._check_point(x)
        return self.predict_batch(x[None, :])[0]

    def _predict_traced(
        self, x: np.ndarray, trace: "DecisionTrace"
    ) -> "Prediction | None":
        """Traced twin of :meth:`predict` — identical decision, with
        per-transform lookup, noise-elimination and confidence
        (γ comparison) spans, all computed from the same batch-of-one
        estimates the untraced path uses."""
        x = self._check_point(x)
        z_values, counts_tpm, avg_costs = self._range_estimates(x[None, :])
        counts = self._emit_lookup_spans(
            trace, z_values, counts_tpm, avg_costs
        )
        max_count = float(counts.max())
        threshold = (
            None
            if self.noise_fraction is None
            else self.noise_fraction * self.total_mass
        )
        eliminated = (
            self.noise_fraction is not None
            and self.total_mass > 0
            and max_count < self.noise_fraction * self.total_mass
        )
        with trace.span("noise_elimination") as span:
            span.set(
                max_count=max_count,
                total_mass=self.total_mass,
                noise_fraction=self.noise_fraction,
                threshold=threshold,
                eliminated=eliminated,
            )
        if eliminated:
            if self._events is not None:
                self._emit_event(
                    "noise_pruned",
                    plan=int(counts.argmax()),
                    max_count=max_count,
                    threshold=float(threshold),
                )
            return None
        with trace.span("confidence") as span:
            plan_id, confidence, detail = self.model.explain_decide(
                counts, self.confidence_threshold
            )
            span.set(**detail)
        if plan_id is None:
            return None
        medians, any_support = self._winner_costs(
            counts_tpm, avg_costs, np.array([plan_id])
        )
        cost = float(medians[0]) if any_support[0] else None
        return Prediction(plan_id, confidence, cost)

    def predict_batch(self, points: np.ndarray) -> "list[Prediction | None]":
        """Vectorized prediction for a whole point batch — the primitive
        every other predict path wraps.

        The batch is validated up front (`_check_batch`: shape errors
        and non-finite rows raise, exactly like the scalar guard) and an
        empty ``(0, r)`` batch returns ``[]``.  One stacked pass
        computes the z-values of every point under every transform,
        all histogram range queries run through the fused columnar
        views, and aggregation, noise elimination, the confidence
        decision and the winner cost estimates are fully vectorized.
        Bit-for-bit identical to calling :meth:`predict` per point, at
        a fraction of the time — the operation the runtime simulation
        charges as "prediction overhead".
        """
        points = self._check_batch(points)
        m = points.shape[0]
        if m == 0:
            return []
        __, counts_tpm, avg_costs = self._range_estimates(points)
        counts = self._aggregate(counts_tpm)  # (plans, m)
        winners, confidences = self.model.decide_batch(
            counts.T, self.confidence_threshold
        )
        if self.noise_fraction is not None and self.total_mass > 0:
            noisy = counts.max(axis=0) < self.noise_fraction * self.total_mass
            if self._events is not None and noisy.any():
                threshold = self.noise_fraction * self.total_mass
                majorities = counts.argmax(axis=0)
                maxima = counts.max(axis=0)
                for j in np.flatnonzero(noisy):
                    self._emit_event(
                        "noise_pruned",
                        plan=int(majorities[j]),
                        max_count=float(maxima[j]),
                        threshold=float(threshold),
                    )
            winners = np.where(noisy, -1, winners)
        medians, any_support = self._winner_costs(
            counts_tpm, avg_costs, winners
        )
        return [
            None
            if winners[j] < 0
            else Prediction(
                int(winners[j]),
                float(confidences[j]),
                float(medians[j]) if any_support[j] else None,
            )
            for j in range(m)
        ]

    def estimated_cost(self, x: np.ndarray, plan_id: int) -> "float | None":
        """Median per-transform average cost of the plan around ``x``.

        Because the pool contains only truly optimal points (no
        positive feedback), this estimates the *optimal* cost near
        ``x`` — the quantity negative feedback compares against.
        Timing is not recorded: only full predictions own the
        once-per-predict timer contract.
        """
        x = self._check_point(x)
        __, counts, avg_costs = self._range_estimates(
            x[None, :], record_timing=False
        )
        medians, any_support = self._winner_costs(
            counts, avg_costs, np.array([plan_id])
        )
        if not any_support[0]:
            return None
        return float(medians[0])

    def cell_densities(self, probes: int = 64) -> np.ndarray:
        """Density mass per (transform, plan, z-cell): shape
        ``(t, plan_count, probes)``.

        Tiles the z-axis ``[0, 1]`` into ``probes`` equal cells and
        answers every (transform, plan) range count in one fused store
        query — the read-only synopsis view the quality scorecard
        aggregates into coverage/purity/entropy.  Never mutates
        predictor state.
        """
        if probes < 1:
            raise ConfigurationError("probes must be >= 1")
        edges = np.linspace(0.0, 1.0, probes + 1)
        densities, __ = self._store.query(edges[None, :-1], edges[None, 1:])
        return densities.reshape(len(self.ensemble), self.plan_count, probes)

    def drop(self) -> None:
        """Drop every histogram and restart from scratch (Section IV-E:
        the reaction to a detected plan-space change)."""
        points_dropped = self.total_points
        mass_dropped = self.total_mass
        self._empty_synopsis()
        self.histogram_kind = "incremental"
        self.total_points = 0
        self.total_mass = 0.0
        self._mutations += 1
        if self._events is not None:
            self._emit_event(
                "histogram_rebuilt",
                points_dropped=points_dropped,
                mass_dropped=mass_dropped,
            )

    def space_bytes(self) -> int:
        """``t * n_plans * b_h * 12`` bytes; actual bucket counts may be
        below the ``b_h`` cap."""
        return self._store.bucket_count() * BYTES_PER_BUCKET
