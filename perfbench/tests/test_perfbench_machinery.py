"""Tests for the benchmark's own machinery.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
GENERATORS = {
    "hotspots": lambda rng: inputs.hotspot_points(200, 2, inputs.Q1_HOTSPOTS, rng),
    "wandering": lambda rng: inputs.wandering_points(200, 4, rng),
    "zipf": lambda rng: np.array(
        inputs.zipf_choices(200, inputs.MIX_TEMPLATES, 1.0, rng)
    ),
    "permutation": lambda rng: inputs.drift_permutation(9, rng),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_repeats_for_a_seed(name):
    make = GENERATORS[name]
    first = make(np.random.default_rng(7))
    again = make(np.random.default_rng(7))
    other = make(np.random.default_rng(8))
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_points_stay_in_the_unit_cube():
    rng = np.random.default_rng(3)
    for points in (
        inputs.hotspot_points(500, 3, inputs.Q1_HOTSPOTS, rng),
        inputs.wandering_points(500, 4, rng),
    ):
        assert points.min() >= 0.0 and points.max() <= 1.0


def test_drift_permutation_moves_every_plan():
    for seed in range(20):
        permutation = inputs.drift_permutation(6, np.random.default_rng(seed))
        assert sorted(permutation) == list(range(6))
        assert all(permutation != np.arange(6))


class _Oracle:
    """Three plans with costs x, 1 - x and 0.3 on one axis."""

    plan_count = 3

    def cost_matrix(self, points):
        x = np.asarray(points, dtype=float)[:, 0]
        return np.stack([x, 1.0 - x, np.full_like(x, 0.3)])

    def cost_at(self, points, plan_id):
        return self.cost_matrix(points)[plan_id]


def test_step_drift_switches_cost_surfaces_once_activated():
    permutation = np.array([1, 2, 0])
    space = inputs.StepDriftPlanSpace(_Oracle(), permutation)
    points = np.array([[0.1], [0.9], [0.5]])
    ids, costs = space.label(points)
    assert list(ids) == [0, 1, 2]
    assert np.allclose(costs, [0.1, 0.1, 0.3])
    space.activate()
    ids, costs = space.label(points)
    # Plan p now costs what plan permutation[p] cost before.
    assert list(ids) == [2, 0, 1]
    assert np.allclose(costs, [0.1, 0.1, 0.3])
    assert np.allclose(space.cost_at(points, 2), [0.1, 0.9, 0.5])


# ----------------------------------------------------------------------
# Tail percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("samples", "expected"),
    [(20, (50.0, 10)), (100, (90.0, 10)), (999, (95.0, 49)),
     (1000, (99.0, 10)), (5000, (99.0, 50))],
)
def test_tail_percentile_examples(samples, expected):
    assert measure.tail_percentile(samples) == expected


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for samples in range(20, 3000, 7):
        percentile, beyond = measure.tail_percentile(samples)
        assert beyond >= 10
        assert beyond == int(samples * (100 - percentile) / 100 + 1e-9)
        higher = [p for p in measure.TAIL_LADDER if p > percentile]
        for p in higher:
            assert int(samples * (100 - p) / 100 + 1e-9) < 10


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        measure.tail_percentile(19)


def test_latency_summary_reports_the_rule():
    summary = measure.latency_summary(np.arange(1, 1001))
    assert summary["tail_percentile"] == 99.0
    assert summary["tail_beyond"] == 10
    assert summary["p50"] == pytest.approx(500.5)
    assert summary["tail"] == pytest.approx(np.percentile(np.arange(1, 1001), 99))


# ----------------------------------------------------------------------
# Walls in reference-loop units
# ----------------------------------------------------------------------
def test_relative_walls_divide_out_a_host_slowdown():
    # 400 one-instance calls of 20 loop-units each; the host runs 1.5x
    # slower from call 200 on, and the reference loops slow with it.
    speed = np.where(np.arange(400) < 200, 1.0, 1.5)
    work = np.full(400, 20.0)
    relative = measure.relative_walls(work * speed * 1e-4, speed * 1e-4, [1] * 400)
    assert relative[:170] == pytest.approx(20.0)
    assert relative[230:] == pytest.approx(20.0)
    # Within the window of the step the estimate is between the speeds.
    assert np.all((relative > 20.0 / 1.5 - 1e-9) & (relative < 30.0 + 1e-9))


def test_relative_walls_count_one_loop_per_instance():
    # Batches of 16: each call's reference wall holds 16 loops.
    relative = measure.relative_walls([0.032] * 10, [16 * 0.001] * 10, [16] * 10)
    assert relative == pytest.approx(32.0)


# ----------------------------------------------------------------------
# Self-time accounting
# ----------------------------------------------------------------------
class _TickClock:
    """Advances only when told to: the fake call tree's time source."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def fake_tree():
    """A fake program module: ``root -> a -> (b, c)``, ``root -> b``,
    ``root -> obs -> b`` with known self times."""
    clock = _TickClock()
    module = types.ModuleType("fake_program")

    class Tree:
        def root(self):
            clock.now += 1.0
            self.a()
            self.b()
            self.obs()
            clock.now += 2.0
            return "done"

        def a(self):
            clock.now += 3.0
            self.b()
            self.c()

        def b(self):
            clock.now += 5.0

        def c(self):
            clock.now += 7.0

        def obs(self):
            clock.now += 11.0
            self.b()

    module.Tree = Tree
    sys.modules[module.__name__] = module
    targets = [
        ("fake_program", "Tree", "a", "layer.a"),
        ("fake_program", "Tree", "b", "layer.b"),
        ("fake_program", "Tree", "c", "layer.c"),
        ("fake_program", "Tree", "obs", "obs.trace"),
    ]
    yield clock, Tree, targets
    del sys.modules[module.__name__]


def test_self_times_of_a_nested_call_tree_add_up_to_its_wall(fake_tree):
    clock, Tree, targets = fake_tree
    tracer = layers.LayerTracer(clock=clock)
    tracer.install(targets)
    try:
        tree = Tree()
        assert tracer.call(tree.root) == "done"
    finally:
        tracer.restore()
    self_seconds = dict(tracer.self_seconds)
    assert self_seconds == {
        "layer.a": 3.0,
        "layer.b": 10.0,  # two timed calls; the one under obs is opaque
        "layer.c": 7.0,
        "obs.trace": 16.0,
        layers.ROOT: 3.0,
    }
    assert tracer.wall == 39.0
    assert sum(self_seconds.values()) == tracer.wall
    assert tracer.calls["layer.b"] == 2


def test_attribution_check_compares_with_the_caller_wall(fake_tree):
    clock, Tree, targets = fake_tree
    tracer = layers.LayerTracer(clock=clock)
    tracer.install(targets)
    try:
        tracer.call(Tree().root)
    finally:
        tracer.restore()
    assert layers.attribution_problem(tracer, 39.0) is None
    assert layers.attribution_problem(tracer, 40.0) is None  # 2.5% uncovered
    problem = layers.attribution_problem(tracer, 42.0)  # 7% uncovered
    assert problem is not None and "42.000000s" in problem
    assert layers.attribution_problem(tracer, 36.0) is not None


def test_calls_outside_an_entry_point_are_not_timed(fake_tree):
    clock, Tree, targets = fake_tree
    tracer = layers.LayerTracer(clock=clock)
    tracer.install(targets)
    try:
        Tree().a()
    finally:
        tracer.restore()
    assert tracer.wall == 0.0
    assert not tracer.self_seconds


def test_label_calls_split_on_retry_frames():
    tracer = layers.LayerTracer()
    tracer._stack.append(layers._Frame("resilience.retry"))
    assert tracer._layer_of("optimizer.label") == "optimizer.invoke"
    tracer._stack.clear()
    tracer._stack.append(layers._Frame(layers.ROOT))
    assert tracer._layer_of("optimizer.label") == "optimizer.ground_truth"


# ----------------------------------------------------------------------
# Restoring the program
# ----------------------------------------------------------------------
def _current_targets():
    found = {}
    for module_name, owner_name, attribute, _ in layers.TARGETS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        found[(module_name, owner_name, attribute)] = owner.__dict__[attribute]
    return found


def test_no_patched_attribute_is_left_after_a_traced_run():
    before = _current_targets()
    workload = workloads.WarmQ1()
    workload.warmup = 20
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        during = _current_targets()
        assert all(during[k] is not before[k] for k in before)
        run = workload.prepare(seed=3, count=40)
        tracer.reset()
        outcome = workloads.drive(run, tracer)
    finally:
        tracer.restore()
    assert _current_targets() == before
    assert all(not hasattr(v, "__wrapped__") for v in before.values())
    assert outcome.failed == 0
    assert tracer.calls["optimizer.ground_truth"] == 40
    assert layers.attribution_problem(tracer, sum(outcome.latencies)) is None


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def test_check_flags_a_cost_that_disagrees_with_the_oracle():
    workload = workloads.WarmQ1()
    workload.warmup = 10
    prepared = workload.prepare(seed=5, count=30)
    outcome = workloads.drive(prepared)
    runs = [(prepared, outcome)]
    problems, decisions, quality = workloads.check_and_score(runs)
    assert problems == []
    assert len(decisions) == 30 and quality["instances"] == 30
    prepared.costs[4] = prepared.costs[4] * 2.0
    problems, _, _ = workloads.check_and_score(runs)
    assert any("instance 4" in p for p in problems)


def test_streams_are_scored_as_one_pool():
    workload = workloads.WarmQ1()
    workload.warmup = 10
    runs = []
    for stream in range(2):
        prepared = workload.prepare(seed=(5, stream), count=20)
        runs.append((prepared, workloads.drive(prepared)))
    assert not np.array_equal(runs[0][0].points, runs[1][0].points)
    problems, decisions, quality = workloads.check_and_score(runs)
    alone = [workloads.check_and_score([run]) for run in runs]
    assert problems == [] and quality["instances"] == 40
    assert decisions == alone[0][1] + alone[1][1]
    assert quality["recall"] == pytest.approx(
        (alone[0][2]["recall"] + alone[1][2]["recall"]) / 2
    )
    assert quality["synopsis_kb"] == pytest.approx(
        (alone[0][2]["synopsis_kb"] + alone[1][2]["synopsis_kb"]) / 2
    )


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_q1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
