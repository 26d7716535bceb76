"""Seeded input generators owned by the benchmark.

The benchmark keeps its own generators (instead of importing
``repro.workload``) so that edits to the program cannot move the inputs
it is measured on.  Every generator is a pure function of its seed.
"""

from __future__ import annotations

import numpy as np

#: Fixed Gaussian hotspots for ``warm_q1``: (centre, sigma, weight).
#: The centres are constants so that the seed only moves individual
#: instances, not the shape of the traffic.
Q1_HOTSPOTS = (
    ((0.20, 0.30), 0.04, 0.35),
    ((0.65, 0.25), 0.04, 0.25),
    ((0.40, 0.75), 0.04, 0.25),
    ((0.85, 0.80), 0.04, 0.15),
)

#: ``drift_mix`` templates in Zipf rank order (rank 1 is the most
#: popular and is the one whose oracle drifts).
MIX_TEMPLATES = ("Q1", "Q0", "Q2", "Q8")
MIX_ZIPF_EXPONENT = 1.0


def hotspot_points(
    count: int, dimensions: int, hotspots, rng: np.random.Generator
) -> np.ndarray:
    """``count`` points drawn around weighted Gaussian hotspots, clipped
    to the unit cube."""
    centres = np.array([np.resize(c, dimensions) for c, _, _ in hotspots])
    sigmas = np.array([s for _, s, _ in hotspots])
    weights = np.array([w for _, _, w in hotspots], dtype=float)
    which = rng.choice(len(hotspots), size=count, p=weights / weights.sum())
    noise = rng.normal(0.0, 1.0, size=(count, dimensions))
    points = centres[which] + noise * sigmas[which, None]
    return np.clip(points, 0.0, 1.0)


def wandering_points(
    count: int,
    dimensions: int,
    rng: np.random.Generator,
    walkers: int = 32,
    step: float = 0.035,
    jitter: float = 0.015,
) -> np.ndarray:
    """``count`` points along ``walkers`` random walks, emitted walker by
    walker.  Each walk reflects off the walls of the unit cube; each
    emitted point is the walk position plus Gaussian jitter."""
    per_walker = -(-count // walkers)
    chunks = []
    for _ in range(walkers):
        steps = rng.normal(0.0, step, size=(per_walker, dimensions))
        path = rng.uniform(0.0, 1.0, size=dimensions) + np.cumsum(steps, axis=0)
        # Reflect into [0, 1]: fold the path with period 2.
        path = np.abs(((path + 1.0) % 2.0) - 1.0)
        jittered = path + rng.normal(0.0, jitter, size=path.shape)
        chunks.append(np.clip(jittered, 0.0, 1.0))
    return np.concatenate(chunks)[:count]


def zipf_choices(
    count: int, names, exponent: float, rng: np.random.Generator
) -> list[str]:
    """``count`` names drawn with Zipf weights ``1 / rank**exponent``."""
    weights = 1.0 / np.arange(1, len(names) + 1) ** exponent
    picks = rng.choice(len(names), size=count, p=weights / weights.sum())
    return [names[i] for i in picks]


def drift_permutation(plan_count: int, rng: np.random.Generator) -> np.ndarray:
    """A permutation of plan ids with no fixed point, so that every plan
    changes its cost surface when the drift is switched on."""
    order = rng.permutation(plan_count)
    permutation = np.empty(plan_count, dtype=int)
    permutation[order] = np.roll(order, -1)
    return permutation


class StepDriftPlanSpace:
    """A plan-space oracle whose cost surfaces switch once, on request.

    Before :meth:`activate` it answers exactly like the wrapped
    :class:`~repro.optimizer.plan_space.PlanSpace`.  Afterwards plan
    ``p`` costs what plan ``permutation[p]`` cost before, so every
    learned plan region now names the wrong plan: the step drift of the
    paper's Section V-D.  Plan objects are untouched; only which id is
    cheapest where changes.
    """

    def __init__(self, inner, permutation: np.ndarray) -> None:
        self.inner = inner
        self.permutation = np.asarray(permutation)
        self.active = False

    @property
    def template(self):
        return self.inner.template

    @property
    def dimensions(self) -> int:
        return self.inner.dimensions

    @property
    def plan_count(self) -> int:
        return self.inner.plan_count

    def plan(self, plan_id: int):
        return self.inner.plan(plan_id)

    def activate(self) -> None:
        self.active = True

    def cost_matrix_as(self, points: np.ndarray, active: bool) -> np.ndarray:
        """Costs ``(plans, n)`` in the pre- or post-drift state."""
        costs = self.inner.cost_matrix(points)
        return costs[self.permutation] if active else costs

    def cost_matrix(self, points: np.ndarray) -> np.ndarray:
        return self.cost_matrix_as(points, self.active)

    def label(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        costs = self.cost_matrix(points)
        ids = np.argmin(costs, axis=0)
        return ids, costs[ids, np.arange(costs.shape[1])]

    def cost_at(
        self, points: np.ndarray, plan_id: "int | None" = None
    ) -> np.ndarray:
        if plan_id is None:
            return self.label(points)[1]
        if self.active:
            plan_id = int(self.permutation[plan_id])
        return self.inner.cost_at(points, plan_id)
