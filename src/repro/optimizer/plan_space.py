"""The plan-space oracle: ``plan(x)`` and ``cost(x, p)``.

Definition 2 of the paper models the optimizer, for one query template,
as a function from normalized optimizer parameters (the ``r`` predicate
selectivities) to plans.  :class:`PlanSpace` realizes that function:

1. **Harvest** — run the full DP enumerator at batches of sampled
   selectivity points, collecting every distinct winning plan, until a
   whole batch yields nothing new.  The harvested set is the candidate
   plan pool of the template.
2. **Label** — for arbitrary points, evaluate every candidate's
   cost formula and take the argmin.  At harvested points this matches
   the DP result exactly; elsewhere it defines a consistent
   piecewise-minimum plan diagram with the same cost surfaces, which
   is the structure every experiment consumes.

A batch of points runs each candidate's operator tree vectorized.  One
point — the serving path's ground truth, optimizer call and executed
cost — runs a *program* compiled after harvest: the candidates' unique
subplans (deduplicated by fingerprint, so a scan or join shared by many
plans is costed once) in post order, each step one operator's
single-point formula on Python floats; one plan's cost at one point
walks that plan's tree in the same form.  Both paths give bit-identical
costs.

The PPC framework uses the oracle both as ground truth (did the
prediction match the optimizer's choice?) and as the "optimizer" it
invokes on cache misses, so labels are consistent by construction.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.exceptions import OptimizationError
from repro.optimizer.catalog import Catalog
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import DPEnumerator
from repro.optimizer.expressions import QueryTemplate
from repro.optimizer.operators import Point, PlanNode
from repro.optimizer.plans import PhysicalPlan
from repro.rng import as_generator


class PlanSpace:
    """Oracle for one template's plan space over ``[0, 1]^r``."""

    def __init__(
        self,
        template: QueryTemplate,
        catalog: Catalog,
        model: CostModel | None = None,
        seed: "int | np.random.Generator | None" = 0,
        harvest_batch: int = 64,
        max_harvest_rounds: int = 8,
        optimizer: "DPEnumerator | None" = None,
    ) -> None:
        if template.parameter_degree < 1:
            raise OptimizationError(
                f"template {template.name} has no parameterized predicates"
            )
        self.template = template
        self.catalog = catalog
        self.model = model or CostModel()
        self._enumerator = optimizer or DPEnumerator(template, catalog, self.model)
        self.plans: list[PhysicalPlan] = []
        self._ids_by_fingerprint: dict[str, int] = {}
        self._harvest(as_generator(seed), harvest_batch, max_harvest_rounds)
        self._compile()

    # ------------------------------------------------------------------
    # Harvesting
    # ------------------------------------------------------------------
    def _harvest(
        self,
        rng: np.random.Generator,
        batch: int,
        max_rounds: int,
    ) -> None:
        degree = self.template.parameter_degree
        probes = [self._structured_probes(degree)]
        for __ in range(max_rounds):
            probes.append(rng.uniform(0.0, 1.0, size=(batch, degree)))

        for round_index, points in enumerate(probes):
            new_plans = 0
            for point in points:
                plan, __ = self._enumerator.optimize(point[None, :])
                if self._register(plan):
                    new_plans += 1
            # After the structured probes, stop as soon as a whole random
            # round discovers nothing new.
            if round_index > 0 and new_plans == 0:
                break
        if not self.plans:
            raise OptimizationError("harvest produced no plans")

    @staticmethod
    def _structured_probes(degree: int) -> np.ndarray:
        """Corners, centre and per-axis sweeps — cheap coverage of the
        regions where plan choice usually flips."""
        levels = np.array([0.02, 0.25, 0.5, 0.75, 0.98])
        points = [np.full(degree, 0.5)]
        for axis in range(degree):
            for level in levels:
                point = np.full(degree, 0.5)
                point[axis] = level
                points.append(point)
        # Diagonal sweep plus extreme corners.
        for level in levels:
            points.append(np.full(degree, level))
        return np.unique(np.array(points), axis=0)

    def _register(self, plan: PhysicalPlan) -> bool:
        if plan.fingerprint in self._ids_by_fingerprint:
            return False
        self._ids_by_fingerprint[plan.fingerprint] = len(self.plans)
        self.plans.append(plan)
        return True

    def _compile(self) -> None:
        """Lay the candidates out as one post-order program of unique
        subplans: ``_steps[i]`` is ``(node.point, input slots)`` and plan
        ``p``'s root is slot ``_roots[p]``.

        Sharing a step by fingerprint is exact: within one template a
        fingerprint fixes the subtree's operators, access paths and
        tables, hence every constant its cost formula reads."""
        slots: dict[str, int] = {}
        steps: list[tuple[Callable[..., Point], tuple[int, ...]]] = []

        def visit(node: PlanNode) -> int:
            key = node.fingerprint()
            if key not in slots:
                inputs = tuple(visit(child) for child in node.children)
                slots[key] = len(steps)
                steps.append((node.point, inputs))
            return slots[key]

        self._roots = [visit(plan.root) for plan in self.plans]
        self._steps = steps

    def _point_costs(self, selectivities: list[float]) -> list[float]:
        """Every candidate's cost at one point, through the program."""
        results: list[Point] = []
        for point, inputs in self._steps:
            results.append(point(selectivities, *[results[i] for i in inputs]))
        return [results[root][1] for root in self._roots]

    # ------------------------------------------------------------------
    # Oracle queries
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        return self.template.parameter_degree

    @property
    def plan_count(self) -> int:
        return len(self.plans)

    def plan(self, plan_id: int) -> PhysicalPlan:
        return self.plans[plan_id]

    def _check_points(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[None, :]
        if points.shape[1] != self.dimensions:
            raise OptimizationError(
                f"expected {self.dimensions}-dimensional points, "
                f"got {points.shape[1]}"
            )
        if (points < 0.0).any() or (points > 1.0).any():
            raise OptimizationError("plan-space points must lie in [0, 1]^r")
        return points

    def _selectivities(self, points: np.ndarray) -> np.ndarray:
        return self._enumerator.mapping.to_selectivity(self._check_points(points))

    def _point_selectivities(self, points: np.ndarray) -> "list[float] | None":
        """Selectivities of a single valid point, as floats.

        ``None`` for a batch — and for anything :meth:`_check_points`
        would reject or that holds a NaN, so the array path raises or
        answers exactly as it always has.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim == 2 and points.shape[0] == 1:
            points = points[0]
        if points.ndim != 1 or points.shape[0] != self.dimensions:
            return None
        values = points.tolist()
        if not all(0.0 <= value <= 1.0 for value in values):
            return None
        return self._enumerator.mapping.point_to_selectivity(values)

    def cost_matrix(self, points: np.ndarray) -> np.ndarray:
        """Costs of every candidate plan at every point: ``(plans, n)``."""
        point = self._point_selectivities(points)
        if point is not None:
            return np.array(self._point_costs(point))[:, None]
        selectivities = self._selectivities(points)
        return np.stack([plan.cost(selectivities) for plan in self.plans])

    def label(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Optimal plan ids and costs at each point: ``((n,), (n,))``."""
        point = self._point_selectivities(points)
        if point is not None:
            costs = self._point_costs(point)
            # ``min`` keeps the first of equal costs, like ``argmin``.
            best = min(range(len(costs)), key=costs.__getitem__)
            return np.array([best]), np.array([costs[best]])
        costs = self.cost_matrix(points)
        ids = np.argmin(costs, axis=0)
        return ids, costs[ids, np.arange(costs.shape[1])]

    def plan_at(self, points: np.ndarray) -> np.ndarray:
        """Optimal plan id at each point."""
        ids, __ = self.label(points)
        return ids

    def cost_at(self, points: np.ndarray, plan_id: "int | None" = None) -> np.ndarray:
        """Cost of ``plan_id`` (or of the optimal plan) at each point."""
        if plan_id is None:
            __, costs = self.label(points)
            return costs
        point = self._point_selectivities(points)
        if point is not None:
            # One plan has no shared subtrees to deduplicate.
            return np.array([self.plans[plan_id].root.evaluate_point(point)[1]])
        return self.plans[plan_id].cost(self._selectivities(points))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanSpace({self.template.name}, r={self.dimensions}, "
            f"plans={self.plan_count})"
        )
