"""Single-point costing vs the vectorized operator trees.

The array evaluator (``PlanNode.evaluate`` over a batch of points) is
the reference.  The operators' single-point form, the deduplicated cost
program :class:`~repro.optimizer.plan_space.PlanSpace` runs for one
point, and the DP harvest that now costs candidates through the point
form must all agree with it exactly — bit for bit, not within a
tolerance — because ground truth, executed costs and every golden file
downstream are built from these numbers.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.cost_model import CostModel
from repro.optimizer.operators import HashJoin, PlanNode, SeqScan, Sort
from repro.optimizer.parameters import ParameterMapping
from repro.optimizer.plan_space import PlanSpace
from repro.tpch import plan_space_for
from repro.tpch.queries import TEMPLATE_NAMES, query_template
from repro.tpch.schema import build_catalog

MODEL = CostModel()


def _unique_nodes(space: PlanSpace) -> list[PlanNode]:
    """Every distinct subtree of every harvested plan."""
    nodes: dict[str, PlanNode] = {}

    def visit(node: PlanNode) -> None:
        nodes.setdefault(node.fingerprint(), node)
        for child in node.children:
            visit(child)

    for plan in space.plans:
        visit(plan.root)
    return list(nodes.values())


def _mapping(space: PlanSpace) -> ParameterMapping:
    return ParameterMapping.for_template(space.template, space.catalog)


def _assert_point_form_matches(nodes: list[PlanNode], selectivities: np.ndarray) -> None:
    for node in nodes:
        rows, cost = node.evaluate(selectivities)
        for i, x in enumerate(selectivities.tolist()):
            assert node.evaluate_point(x) == (float(rows[i]), float(cost[i])), (
                node.fingerprint(),
                x,
            )


def _corners(degree: int) -> np.ndarray:
    return np.array(list(itertools.product((0.0, 1.0), repeat=degree)))


def _spill_straddles(space: PlanSpace) -> np.ndarray:
    """For each harvested hash join whose build side crosses
    ``hash_memory_rows`` somewhere in the cube, two normalized points a
    bisection apart, one on each side of the threshold."""
    mapping = _mapping(space)
    probes = np.random.default_rng(11).uniform(0.0, 1.0, (512, space.dimensions))
    straddles = []
    for node in _unique_nodes(space):
        if not isinstance(node, HashJoin):
            continue
        limit = node.model.hash_memory_rows

        def spills(points: np.ndarray, node: HashJoin = node, limit=limit) -> np.ndarray:
            rows, __ = node.inner.evaluate(mapping.to_selectivity(points))
            return rows > limit

        flags = spills(probes)
        if flags.all() or not flags.any():
            continue
        below, above = probes[np.argmin(flags)], probes[np.argmax(flags)]
        for __ in range(60):
            middle = (below + above) / 2.0
            if spills(middle)[0]:
                above = middle
            else:
                below = middle
        assert not spills(below)[0] and spills(above)[0]
        straddles.extend([below, above])
    return np.array(straddles).reshape(-1, space.dimensions)


@pytest.fixture(scope="module", params=TEMPLATE_NAMES)
def space(request) -> PlanSpace:
    return plan_space_for(request.param)


@pytest.fixture(scope="module")
def probe_points(space) -> np.ndarray:
    """Corners, spill-threshold straddles and uniform draws."""
    uniform = np.random.default_rng(3).uniform(0.0, 1.0, (120, space.dimensions))
    return np.vstack([_corners(space.dimensions), _spill_straddles(space), uniform])


class TestOperatorPointForm:
    def test_every_harvested_subtree_matches_at_probe_points(
        self, space, probe_points
    ):
        selectivities = _mapping(space).to_selectivity(probe_points)
        _assert_point_form_matches(_unique_nodes(space), selectivities)

    def test_probe_points_cross_the_spill_threshold(self):
        # Guard for the test above: the straddle search must find
        # spilling and non-spilling neighbours on real plan spaces.
        assert len(_spill_straddles(plan_space_for("Q0"))) > 0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_every_harvested_subtree_matches_at_drawn_points(self, space, data):
        unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        points = data.draw(
            st.lists(
                st.lists(unit, min_size=space.dimensions, max_size=space.dimensions),
                min_size=1,
                max_size=4,
            )
        )
        selectivities = _mapping(space).to_selectivity(np.array(points))
        _assert_point_form_matches(_unique_nodes(space), selectivities)

    @settings(max_examples=60, deadline=None)
    @given(
        selectivities=st.lists(
            st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
            min_size=2,
            max_size=2,
        )
    )
    def test_sort_clamp_and_hash_spill_on_small_inputs(self, selectivities):
        # No harvested TPC-H plan sorts fewer than two rows, so the
        # ``max(rows, 2.0)`` clamp is driven on a four-row scan here;
        # the hash join's build side straddles ``hash_memory_rows``.
        tiny = SeqScan("t", 4.0, 1.0, (0,), MODEL)
        build = SeqScan("b", 2.0 * MODEL.hash_memory_rows, 800.0, (1,), MODEL)
        nodes = [
            Sort(tiny, "t.k", MODEL),
            Sort(HashJoin(tiny, build, 1e-6, MODEL), "t.k", MODEL),
            HashJoin(tiny, build, 1e-3, MODEL),
        ]
        _assert_point_form_matches(nodes, np.array([selectivities]))

    def test_sort_clamp_is_exercised(self):
        tiny = SeqScan("t", 4.0, 1.0, (0,), MODEL)
        points = np.array([[0.1], [0.4], [0.5], [0.6], [1.0]])
        rows, __ = tiny.evaluate(points)
        assert (rows < 2.0).any() and (rows >= 2.0).any()
        _assert_point_form_matches([Sort(tiny, "t.k", MODEL)], points)


class TestSinglePointOracle:
    def test_single_point_queries_equal_the_batched_column(self, space, probe_points):
        ids, costs = space.label(probe_points)
        matrix = space.cost_matrix(probe_points)
        for i, point in enumerate(probe_points):
            single_ids, single_costs = space.label(point[None, :])
            assert single_ids.dtype == ids.dtype
            assert single_ids.tolist() == [ids[i]]
            assert single_costs.tolist() == [costs[i]]
            assert space.cost_matrix(point).tolist() == matrix[:, i : i + 1].tolist()
            assert space.cost_at(point, None).tolist() == [costs[i]]
            for plan_id in range(space.plan_count):
                assert space.cost_at(point[None, :], plan_id).tolist() == [
                    matrix[plan_id, i]
                ]

    def test_program_shares_subplans(self):
        space = plan_space_for("Q5")
        tree_nodes = sum(_tree_size(plan.root) for plan in space.plans)
        assert len(space._steps) == len(_unique_nodes(space)) < tree_nodes


def _tree_size(node: PlanNode) -> int:
    return 1 + sum(_tree_size(child) for child in node.children)


class TestHarvest:
    @pytest.mark.parametrize("name", ["Q0", "Q1", "Q2", "Q5", "Q8"])
    def test_point_form_harvests_the_tree_evaluators_plans(self, name, monkeypatch):
        point_form = plan_space_for(name)

        def tree_point(node: PlanNode, x: list[float]) -> tuple[float, float]:
            rows, cost = node.evaluate(np.array([x]))
            return float(rows[0]), float(cost[0])

        monkeypatch.setattr(PlanNode, "evaluate_point", tree_point)
        reference = PlanSpace(query_template(name), build_catalog(1.0), seed=0)
        assert [p.fingerprint for p in reference.plans] == [
            p.fingerprint for p in point_form.plans
        ]
