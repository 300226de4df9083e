"""Unit tests for Algorithm 1 (MixedCriticalityAnalysis)."""

import pytest

from repro.core.analysis import MixedCriticalityAnalysis
from repro.errors import AnalysisError
from repro.hardening.spec import HardeningKind, HardeningPlan, HardeningSpec
from repro.hardening.transform import harden
from repro.model.application import ApplicationSet
from repro.model.mapping import Mapping
from repro.model.task import Channel, Task
from repro.model.taskgraph import TaskGraph


class TestBasics:
    def test_invalid_granularity_rejected(self):
        with pytest.raises(AnalysisError):
            MixedCriticalityAnalysis(granularity="bogus")

    def test_no_hardening_no_transitions(self, apps, architecture):
        hardened = harden(apps, HardeningPlan())
        flat = Mapping({t: "pe0" for t in apps.all_task_names})
        result = MixedCriticalityAnalysis().analyze(hardened, architecture, flat)
        assert result.transitions_analyzed == 0
        for verdict in result.verdicts.values():
            assert verdict.wcrt == verdict.normal_wcrt
            assert verdict.worst_transition is None

    def test_transition_count_job_granularity(self, hardened, architecture, mapping):
        result = MixedCriticalityAnalysis(granularity="job").analyze(
            hardened, architecture, mapping
        )
        # a (re-exec) has 1 instance/hyperperiod; b (passive) has 1 -> 2.
        assert result.transitions_analyzed == 2

    def test_transition_count_task_granularity(self, hardened, architecture, mapping):
        result = MixedCriticalityAnalysis(granularity="task").analyze(
            hardened, architecture, mapping
        )
        assert result.transitions_analyzed == 2

    def test_unknown_graph_lookup_raises(self, hardened, architecture, mapping):
        result = MixedCriticalityAnalysis().analyze(hardened, architecture, mapping)
        with pytest.raises(AnalysisError):
            result.wcrt_of("ghost")

    def test_drop_set_validated(self, hardened, architecture, mapping):
        with pytest.raises(Exception):
            MixedCriticalityAnalysis().analyze(
                hardened, architecture, mapping, dropped=["hi"]
            )


class TestStateAdjustment:
    def test_wcrt_at_least_normal(self, hardened, architecture, mapping):
        result = MixedCriticalityAnalysis().analyze(hardened, architecture, mapping)
        for verdict in result.verdicts.values():
            assert verdict.wcrt >= verdict.normal_wcrt - 1e-9

    def test_reexecution_inflates_wcrt(self, apps, architecture):
        plain = harden(apps, HardeningPlan())
        hardened = harden(apps, HardeningPlan({"a": HardeningSpec.reexecution(2)}))
        flat = Mapping({t: "pe0" for t in apps.all_task_names})
        analysis = MixedCriticalityAnalysis()
        base = analysis.analyze(plain, architecture, flat)
        inflated = analysis.analyze(hardened, architecture, flat)
        assert inflated.wcrt_of("hi") > base.wcrt_of("hi")

    def test_dropping_relieves_critical_app(self, architecture):
        # High-priority droppable shares the PE with a re-executable
        # critical chain: dropping it must not increase (and typically
        # decreases) the critical WCRT.
        critical = TaskGraph(
            "crit",
            tasks=[Task("c0", 2.0, 4.0, detection_overhead=0.5), Task("c1", 2.0, 4.0)],
            channels=[Channel("c0", "c1", 0.0)],
            period=40.0,
            reliability_target=1e-6,
        )
        noisy = TaskGraph(
            "noisy",
            tasks=[Task("n0", 2.0, 5.0)],
            channels=[],
            period=10.0,
            service_value=1.0,
        )
        apps = ApplicationSet([critical, noisy])
        hardened = harden(apps, HardeningPlan({"c0": HardeningSpec.reexecution(2)}))
        flat = Mapping({"c0": "pe0", "c1": "pe0", "n0": "pe0"})
        analysis = MixedCriticalityAnalysis()
        kept = analysis.analyze(hardened, architecture, flat, dropped=())
        dropped = analysis.analyze(hardened, architecture, flat, dropped=("noisy",))
        assert dropped.wcrt_of("crit") <= kept.wcrt_of("crit") + 1e-9

    def test_task_granularity_is_conservative(self, hardened, architecture, mapping):
        job_level = MixedCriticalityAnalysis(granularity="job").analyze(
            hardened, architecture, mapping, dropped=("lo",)
        )
        task_level = MixedCriticalityAnalysis(granularity="task").analyze(
            hardened, architecture, mapping, dropped=("lo",)
        )
        for graph in ("hi",):
            assert task_level.wcrt_of(graph) >= job_level.wcrt_of(graph) - 1e-9

    def test_zero_dropped_bcet_is_more_pessimistic(
        self, hardened, architecture, mapping
    ):
        refined = MixedCriticalityAnalysis(zero_dropped_bcet=False).analyze(
            hardened, architecture, mapping, dropped=("lo",)
        )
        literal = MixedCriticalityAnalysis(zero_dropped_bcet=True).analyze(
            hardened, architecture, mapping, dropped=("lo",)
        )
        assert literal.wcrt_of("hi") >= refined.wcrt_of("hi") - 1e-9

    def test_completion_bounds_cover_all_tasks(self, hardened, architecture, mapping):
        result = MixedCriticalityAnalysis().analyze(hardened, architecture, mapping)
        for task in hardened.applications.all_tasks:
            assert result.task_completion[task.name] >= 0.0

    def test_transition_metadata(self, hardened, architecture, mapping):
        result = MixedCriticalityAnalysis().analyze(hardened, architecture, mapping)
        by_primary = {t.trigger_primary: t for t in result.transitions}
        assert by_primary["a"].trigger_kind is HardeningKind.REEXECUTION
        assert by_primary["b"].trigger_kind is HardeningKind.PASSIVE
        for transition in result.transitions:
            assert transition.min_start <= transition.max_finish


class TestVerdicts:
    def test_deadline_satisfaction(self, hardened, architecture, mapping):
        result = MixedCriticalityAnalysis().analyze(hardened, architecture, mapping)
        for verdict in result.verdicts.values():
            assert verdict.meets_deadline == (
                verdict.wcrt <= verdict.deadline + 1e-9
            )

    def test_dropped_graph_checked_in_normal_state_only(
        self, hardened, architecture, mapping
    ):
        result = MixedCriticalityAnalysis().analyze(
            hardened, architecture, mapping, dropped=("lo",)
        )
        verdict = result.verdicts["lo"]
        assert verdict.dropped
        assert verdict.wcrt == verdict.normal_wcrt

    def test_schedulable_aggregate(self, hardened, architecture, mapping):
        result = MixedCriticalityAnalysis().analyze(hardened, architecture, mapping)
        assert result.schedulable == all(
            v.meets_deadline for v in result.verdicts.values()
        )
