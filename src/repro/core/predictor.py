"""Common predictor interface.

Every plan-prediction algorithm — the Section III comparators, the four
approximation levels of Section IV, and the online variant — answers
the same question: *given a plan-space point, which plan would the
optimizer choose, or NULL if unsure* (the output model of Section
II-B).  :class:`PlanPredictor` fixes that interface so experiments can
treat algorithms uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.exceptions import PredictionError


@dataclass(frozen=True)
class Prediction:
    """A non-NULL prediction: the plan, the confidence behind it, and —
    when the predictor tracks costs — the expected execution cost of
    the plan at the predicted point (used by negative feedback)."""

    plan_id: int
    confidence: float
    estimated_cost: "float | None" = None


def sorted_median(
    values: np.ndarray, supported: "np.ndarray | None" = None
) -> np.ndarray:
    """Median over axis 0 by sorting: of every entry (bit-identical to
    ``np.median``), or of the ``supported`` entries of a ``(t, m)``
    matrix (bit-identical to ``np.nanmedian`` with the others as NaN,
    and NaN for a column with none) — without the masked-array
    machinery ``nanmedian`` pays on every call.
    """
    if supported is None:
        ordered = np.sort(values, axis=0)
        middle = values.shape[0] // 2
        if values.shape[0] % 2:
            return ordered[middle]
        return (ordered[middle - 1] + ordered[middle]) / 2.0
    # Unsupported entries sort last; like nanmedian's masked median,
    # average the two middle supported entries (one twice when odd).
    ordered = np.sort(np.where(supported, values, np.inf), axis=0)
    count = supported.sum(axis=0)
    columns = np.arange(values.shape[1])
    low = ordered[(count - 1) // 2, columns]
    high = ordered[count // 2, columns]
    return np.where(count > 0, (low + high) / 2.0, np.nan)


def median_supported(
    values: np.ndarray, supported: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Column-wise median of ``values (t, m)`` over the ``supported``
    entries.

    The vectorized form of "median per-transform average cost over the
    transforms that actually hold mass for the winning plan".  Returns
    ``(medians, any_support)``: columns with no supported transform get
    a NaN median and ``any_support`` False (the caller maps those to an
    absent cost estimate).
    """
    return sorted_median(values, supported), supported.any(axis=0)


class PlanPredictor(ABC):
    """Interface shared by every plan-prediction algorithm."""

    #: Dimensionality ``r`` of the plan space the predictor serves.
    dimensions: int

    @abstractmethod
    def predict(self, x: np.ndarray) -> "Prediction | None":
        """Predict the optimizer's plan at ``x`` (``None`` = NULL)."""

    def predict_batch(self, points: np.ndarray) -> list["Prediction | None"]:
        """Predict for many points; subclasses may vectorize.

        The batch contract all implementations share: an empty
        ``(0, r)`` batch returns ``[]``, a 1-D input must be exactly one
        ``r``-dimensional point (so a ``(0,)`` vector is a shape error,
        not a silently promoted ``(1, 0)`` batch), and any non-finite
        coordinate raises :class:`PredictionError` up front — the same
        guard scalar :meth:`predict` applies per point.
        """
        points = self._check_batch(points)
        return [self.predict(points[i]) for i in range(points.shape[0])]

    @abstractmethod
    def space_bytes(self) -> int:
        """Memory footprint under the paper's space-accounting model
        (Table I)."""

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.dimensions:
            # Callers and tests pin ValueError for shape mismatches.
            raise ValueError(  # repro: noqa[RPR104] - shape contract
                f"expected a {self.dimensions}-dimensional point, "
                f"got {x.shape[0]}"
            )
        if not np.isfinite(x).all():
            raise PredictionError(
                "plan-space point contains NaN or infinity"
            )
        return x

    def _check_batch(self, points: np.ndarray) -> np.ndarray:
        """Validate a point batch into a ``(m, r)`` float matrix.

        Shape errors raise :class:`ValueError`; non-finite coordinates
        raise :class:`PredictionError`, mirroring :meth:`_check_point`
        so a batch can never sneak past the scalar guard.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            if points.shape[0] != self.dimensions:
                raise ValueError(  # repro: noqa[RPR104] - shape contract
                    f"expected a {self.dimensions}-dimensional point, "
                    f"got shape {points.shape}"
                )
            points = points[None, :]
        elif points.ndim != 2:
            raise ValueError(  # repro: noqa[RPR104] - shape contract
                f"expected an (m, {self.dimensions}) batch, "
                f"got shape {points.shape}"
            )
        if points.shape[1] != self.dimensions:
            raise ValueError(  # repro: noqa[RPR104] - shape contract
                f"expected {self.dimensions}-dimensional points, "
                f"got shape {points.shape}"
            )
        if points.shape[0] and not np.isfinite(points).all():
            raise PredictionError(
                "point batch contains NaN or infinity"
            )
        return points
