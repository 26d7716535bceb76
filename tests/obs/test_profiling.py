"""Stage profiler: exact clocks, sampling, parity, rendering."""

import numpy as np
import pytest

from repro.buildinfo import VERSION
from repro.config import PPCConfig, ProfileConfig, TraceConfig
from repro.core.framework import PPCFramework, TemplateSession
from repro.exceptions import ConfigurationError
from repro.obs import names as metric_names
from repro.obs.profiling import StageProfiler, render_profile
from repro.obs.tracing import DecisionTrace, DecisionTracer
from repro.tpch import plan_space_for
from repro.workload import RandomTrajectoryWorkload


class FakeClock:
    """Returns 0.0, 1.0, 2.0, ... — one tick per call."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        now = self.t
        self.t += 1.0
        return now


def _profiled_tracer(
    interval: int = 1, max_paths: int = 256
) -> tuple[DecisionTracer, StageProfiler]:
    """A tracer that never samples on its own, with a profiler sampling
    every ``interval``-th execution, both timed on a :class:`FakeClock`."""
    profiler = StageProfiler(
        ProfileConfig(enabled=True, interval=interval, max_paths=max_paths)
    )
    tracer = DecisionTracer(
        "T",
        config=TraceConfig(enabled=False),
        profiler=profiler,
        clock=FakeClock(),
    )
    return tracer, profiler


def _hot_config(**overrides) -> PPCConfig:
    return PPCConfig(
        confidence_threshold=0.8,
        mean_invocation_probability=0.05,
        drift_response=False,
        **overrides,
    )


class TestProfileConfig:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            ProfileConfig(interval=0)

    def test_rejects_tiny_path_cap(self):
        with pytest.raises(ConfigurationError):
            ProfileConfig(max_paths=4)

    def test_disabled_by_default(self):
        assert ProfileConfig().enabled is False


class TestStageProfilerClock:
    def test_exact_accumulation_under_fake_clock(self):
        # Each clock call ticks 1s: root opens at t=0; stage "a" spans
        # t=1..2 and "b" t=3..4 (1s each); the root closes at t=5.
        tracer, profiler = _profiled_tracer()
        trace = tracer.begin()
        with trace.span("a"):
            pass
        with trace.span("b"):
            pass
        tracer.finish(trace)
        rows = {
            tuple(row["path"]): row
            for row in profiler.report()["templates"]["T"]["stages"]
        }
        assert rows[("decision",)]["cum_seconds"] == 5.0
        assert rows[("decision", "a")]["cum_seconds"] == 1.0
        assert rows[("decision", "b")]["cum_seconds"] == 1.0
        # Self time of the root excludes the two direct children.
        assert rows[("decision",)]["self_seconds"] == 3.0

    def test_nested_spans_split_self_time(self):
        # predict spans t=1..4 (3s) and contains transform t=2..3 (1s).
        tracer, profiler = _profiled_tracer()
        trace = tracer.begin()
        with trace.span("predict"), trace.span("transform"):
            pass
        tracer.finish(trace)
        rows = {
            tuple(row["path"]): row
            for row in profiler.report()["templates"]["T"]["stages"]
        }
        predict = rows[("decision", "predict")]
        assert predict["cum_seconds"] == 3.0
        assert predict["self_seconds"] == 2.0
        assert rows[("decision", "predict", "transform")]["cum_seconds"] == 1.0

    def test_complete_drains_open_spans(self):
        # A raised execution leaves spans open; finishing closes them.
        tracer, profiler = _profiled_tracer()
        trace = tracer.begin()
        trace.open_span("predict")
        tracer.finish(trace, error=RuntimeError("predictor down"))
        rows = {
            tuple(row["path"]): row
            for row in profiler.report()["templates"]["T"]["stages"]
        }
        assert rows[("decision", "predict")]["calls"] == 1


class TestSampling:
    def test_every_interval_th_execution_profiled(self):
        tracer, profiler = _profiled_tracer(interval=3)
        traces = [tracer.begin() for _ in range(9)]
        sampled = [
            i for i, trace in enumerate(traces)
            if isinstance(trace, DecisionTrace)
        ]
        assert sampled == [0, 3, 6]
        for trace in traces:
            tracer.finish(trace)
        payload = profiler.report()["templates"]["T"]
        assert payload["executions_seen"] == 9
        assert payload["executions_profiled"] == 3

    def test_counters_are_per_template(self):
        profiler = StageProfiler(ProfileConfig(enabled=True, interval=2))
        assert profiler.sample("A")
        assert profiler.sample("B")  # B's own counter starts at 0
        assert not profiler.sample("A")

    def test_path_cap_counts_drops(self):
        tracer, profiler = _profiled_tracer(max_paths=8)
        trace = tracer.begin()
        for i in range(16):
            with trace.span(f"stage_{i}"):
                pass
        tracer.finish(trace)
        payload = profiler.report()["templates"]["T"]
        assert payload["paths_dropped"] > 0
        assert len(payload["stages"]) <= 8
        assert "truncated" in render_profile(profiler.report())


class TestDisabledIsFree:
    def test_session_owns_no_profiler_when_disabled(self):
        session = TemplateSession(
            plan_space_for("Q1"), _hot_config(), seed=17
        )
        assert session.profiler is None

    def test_unsampled_executions_reuse_noop_singleton(self):
        # With profiling off and tracing past its head, begin() must
        # return the tracer's one reusable stage trace — no
        # per-execution allocation at all.
        session = TemplateSession(
            plan_space_for("Q1"), _hot_config(), seed=17
        )
        for x in RandomTrajectoryWorkload(2, spread=0.02, seed=5).generate(
            session.config.trace.head + 4
        ):
            session.execute(x)
        unsampled = session.tracer.begin()
        assert unsampled.active is False
        assert session.tracer.begin() is unsampled

    def test_framework_report_is_none_when_disabled(self):
        framework = PPCFramework(_hot_config(), seed=17)
        assert framework.profile_report() is None


class TestLockstepParity:
    def test_profiled_decisions_are_bit_identical(self):
        # The headline invariant: enabling the profiler changes not one
        # bit of any decision over a real workload.
        fields = (
            "predicted",
            "confidence",
            "optimizer_invoked",
            "invocation_reason",
            "executed_plan",
            "execution_cost",
            "optimal_plan",
            "optimal_cost",
        )
        sessions = {
            "off": TemplateSession(
                plan_space_for("Q1"), _hot_config(), seed=17
            ),
            "on": TemplateSession(
                plan_space_for("Q1"),
                _hot_config(
                    profiling=ProfileConfig(enabled=True, interval=1)
                ),
                seed=17,
            ),
        }
        workload = RandomTrajectoryWorkload(2, spread=0.02, seed=5).generate(
            300
        )
        for x in workload:
            records = {
                name: session.execute(x)
                for name, session in sessions.items()
            }
            for field in fields:
                assert getattr(records["on"], field) == getattr(
                    records["off"], field
                ), field
        assert (
            sessions["on"].profiler.report()["templates"]["Q1"][
                "executions_profiled"
            ]
            == 300
        )

    def test_batch_parity_with_profiling(self):
        # The batch path's precomputed vectorized predictions survive:
        # a profiled trace stays inactive, so profiled batch executions
        # decide exactly like unprofiled ones.
        sessions = {
            "off": TemplateSession(
                plan_space_for("Q1"), _hot_config(), seed=17
            ),
            "on": TemplateSession(
                plan_space_for("Q1"),
                _hot_config(
                    profiling=ProfileConfig(enabled=True, interval=1)
                ),
                seed=17,
            ),
        }
        warm = RandomTrajectoryWorkload(2, spread=0.02, seed=5).generate(100)
        for x in warm:
            for session in sessions.values():
                session.execute(x)
        probes = RandomTrajectoryWorkload(2, spread=0.02, seed=6).generate(
            200
        )
        batches = {
            name: session.execute_batch(probes)
            for name, session in sessions.items()
        }
        for off_record, on_record in zip(
            batches["off"], batches["on"], strict=True
        ):
            assert on_record.executed_plan == off_record.executed_plan
            assert on_record.predicted == off_record.predicted
            assert on_record.confidence == off_record.confidence

    def test_profiled_unsampled_trace_is_reused_without_a_tree(self):
        # The tracer keeps one inactive trace for profiled executions it
        # did not sample; each execution restarts it and folds exact
        # walls (FakeClock: one tick per read).
        tracer, profiler = _profiled_tracer()
        first = tracer.begin()  # t0 = 0
        with first.span("predict"), first.span("transform"):  # 1..4, 2..3
            pass
        tracer.finish(first)  # root closes at 5
        second = tracer.begin()  # t0 = 6
        assert second is first
        with second.span("predict"):  # 7..8
            pass
        tracer.finish(second)  # root closes at 9
        assert second.root.children == []
        rows = {
            tuple(row["path"]): row
            for row in profiler.report()["templates"]["T"]["stages"]
        }
        assert rows[("decision",)]["calls"] == 2
        assert rows[("decision",)]["cum_seconds"] == 5.0 + 3.0
        assert rows[("decision", "predict")]["cum_seconds"] == 3.0 + 1.0
        assert rows[("decision", "predict", "transform")]["calls"] == 1

    def test_profile_trace_active_is_false(self):
        tracer, __ = _profiled_tracer()
        trace = tracer.begin()
        assert isinstance(trace, DecisionTrace)
        assert trace.active is False
        with trace.span("predict") as span:
            assert span.set(anything=1) is span


class TestDeepSpansAndOutput:
    def _profiled_session(self) -> TemplateSession:
        return TemplateSession(
            plan_space_for("Q1"),
            _hot_config(
                profiling=ProfileConfig(enabled=True, interval=1),
                trace=TraceConfig(interval=1),
            ),
            seed=17,
        )

    def test_traced_executions_contribute_deep_stages(self):
        session = self._profiled_session()
        for x in RandomTrajectoryWorkload(2, spread=0.02, seed=5).generate(
            150
        ):
            session.execute(x)
        paths = {
            tuple(row["path"])
            for row in session.profiler.report()["templates"]["Q1"]["stages"]
        }
        assert ("decision", "normalize") in paths
        assert ("decision", "predict") in paths
        assert ("decision", "predict", "transform") in paths
        assert ("decision", "predict", "aggregate") in paths
        assert ("decision", "predict", "confidence") in paths

    def test_collapsed_stacks_shape(self):
        session = self._profiled_session()
        for x in RandomTrajectoryWorkload(2, spread=0.02, seed=5).generate(
            60
        ):
            session.execute(x)
        stacks = session.profiler.collapsed()
        assert "Q1;decision" in stacks
        assert "Q1;decision;predict" in stacks
        assert all(value >= 0.0 for value in stacks.values())

    def test_render_profile_tree(self):
        session = self._profiled_session()
        for x in RandomTrajectoryWorkload(2, spread=0.02, seed=5).generate(
            60
        ):
            session.execute(x)
        text = render_profile(session.profiler.report())
        assert "template Q1" in text
        assert "decision" in text
        assert "predict" in text

    def test_render_empty_report(self):
        profiler = StageProfiler(ProfileConfig(enabled=True))
        assert "no executions profiled" in render_profile(profiler.report())

    def test_reset_clears_state(self):
        tracer, profiler = _profiled_tracer()
        tracer.finish(tracer.begin())
        profiler.reset()
        assert profiler.report()["templates"] == {}


class TestFrameworkIntegration:
    def test_shared_profiler_aggregates_templates(self):
        framework = PPCFramework(
            _hot_config(profiling=ProfileConfig(enabled=True, interval=1)),
            seed=17,
        )
        for template in ("Q1", "Q2"):
            framework.register(plan_space_for(template))
            dims = framework.session(template).plan_space.dimensions
            for x in RandomTrajectoryWorkload(
                dims, spread=0.02, seed=5
            ).generate(40):
                framework.execute(template, x)
        report = framework.profile_report()
        assert set(report["templates"]) == {"Q1", "Q2"}
        for payload in report["templates"].values():
            assert payload["executions_profiled"] == 40

    def test_build_info_gauge_registered(self):
        framework = PPCFramework(_hot_config(), seed=17)
        snapshot = framework.metrics.snapshot()
        gauges = snapshot["gauges"][metric_names.BUILD_INFO]
        (entry,) = gauges
        assert entry["labels"]["version"] == VERSION
        assert entry["labels"]["commit"]
        assert entry["value"] == 1.0

    def test_profiled_point_matches_scalar_numpy_payload(self):
        # Guard against dtype drift: profiled execution accepts the
        # same np.ndarray points as the unprofiled path.
        session = TemplateSession(
            plan_space_for("Q1"),
            _hot_config(profiling=ProfileConfig(enabled=True)),
            seed=17,
        )
        record = session.execute(np.array([0.4, 0.6]))
        assert record.executed_plan >= 0
