"""Unit tests for the unsafe-probability analysis."""

import math

import pytest

from repro.errors import AnalysisError
from repro.hardening.spec import HardeningPlan, HardeningSpec
from repro.model.application import ApplicationSet
from repro.model.architecture import Processor
from repro.model.mapping import Mapping
from repro.model.task import Task
from repro.model.taskgraph import TaskGraph
from repro.reliability.analysis import (
    _majority_failure_probability,
    graph_failure_rate,
    graph_unsafe_probability,
    per_task_unsafe_budget,
    system_reliability_report,
    task_unsafe_probability,
)


def pe(rate, name="p", speed=1.0):
    return Processor(name=name, fault_rate=rate, speed=speed)


def q(rate, duration):
    return 1 - math.exp(-rate * duration)


class TestTaskUnsafeProbability:
    def test_unhardened(self):
        task = Task("t", 1.0, 100.0)
        expected = q(1e-4, 100.0)
        assert task_unsafe_probability(
            task, HardeningSpec.none(), [pe(1e-4)]
        ) == pytest.approx(expected)

    def test_reexecution_powers_down(self):
        task = Task("t", 1.0, 100.0, detection_overhead=10.0)
        base = q(1e-4, 110.0)
        result = task_unsafe_probability(
            task, HardeningSpec.reexecution(2), [pe(1e-4)]
        )
        assert result == pytest.approx(base**3)

    def test_speed_scales_exposure(self):
        task = Task("t", 1.0, 100.0)
        fast = task_unsafe_probability(
            task, HardeningSpec.none(), [pe(1e-4, speed=2.0)]
        )
        assert fast == pytest.approx(q(1e-4, 50.0))

    def test_triplication_majority(self):
        task = Task("t", 1.0, 100.0)
        prob = q(1e-4, 100.0)
        expected = 3 * prob**2 * (1 - prob) + prob**3
        result = task_unsafe_probability(
            task, HardeningSpec.active(3), [pe(1e-4, name=f"p{i}") for i in range(3)]
        )
        assert result == pytest.approx(expected)

    def test_duplication_needs_both_faulty(self):
        task = Task("t", 1.0, 100.0)
        prob = q(1e-4, 100.0)
        result = task_unsafe_probability(
            task, HardeningSpec.active(2), [pe(1e-4, name=f"p{i}") for i in range(2)]
        )
        assert result == pytest.approx(prob**2)

    def test_passive_counts_all_copies(self):
        task = Task("t", 1.0, 100.0)
        active = task_unsafe_probability(
            task, HardeningSpec.active(3), [pe(1e-4, name=f"p{i}") for i in range(3)]
        )
        passive = task_unsafe_probability(
            task,
            HardeningSpec.passive(3, active=2),
            [pe(1e-4, name=f"p{i}") for i in range(3)],
        )
        assert passive == pytest.approx(active)

    def test_wrong_processor_count_rejected(self):
        task = Task("t", 1.0, 100.0)
        with pytest.raises(AnalysisError):
            task_unsafe_probability(task, HardeningSpec.active(3), [pe(1e-4)])

    def test_hardening_helps(self):
        task = Task("t", 1.0, 100.0)
        plain = task_unsafe_probability(task, HardeningSpec.none(), [pe(1e-4)])
        hardened = task_unsafe_probability(
            task, HardeningSpec.reexecution(1), [pe(1e-4)]
        )
        assert hardened < plain


class TestMajorityFailure:
    def test_exhaustive_three_copies(self):
        probs = [0.1, 0.2, 0.3]
        # unsafe iff >= 2 faulty
        expected = (
            0.1 * 0.2 * 0.7
            + 0.1 * 0.8 * 0.3
            + 0.9 * 0.2 * 0.3
            + 0.1 * 0.2 * 0.3
        )
        assert _majority_failure_probability(probs) == pytest.approx(expected)

    def test_perfect_copies_never_fail(self):
        assert _majority_failure_probability([0.0, 0.0, 0.0]) == 0.0

    def test_all_faulty(self):
        assert _majority_failure_probability([1.0, 1.0, 1.0]) == pytest.approx(1.0)


class TestGraphLevel:
    @pytest.fixture
    def system(self):
        graph = TaskGraph(
            "g",
            tasks=[Task("a", 1.0, 50.0), Task("b", 1.0, 80.0)],
            channels=[],
            period=100.0,
            reliability_target=1e-2,
        )
        apps = ApplicationSet([graph])
        return apps, HardeningPlan({"a": HardeningSpec.reexecution(1)})

    def test_graph_unsafe_probability(self, system, architecture):
        mapping = Mapping({"a": "pe0", "b": "pe1"})
        p_a = q(1e-5, 50.0) ** 2
        p_b = q(1e-5, 80.0)
        expected = 1 - (1 - p_a) * (1 - p_b)
        assert graph_unsafe_probability(
            *system, "g", mapping, architecture
        ) == pytest.approx(expected)

    def test_failure_rate_divides_by_period(self, system, architecture):
        mapping = Mapping({"a": "pe0", "b": "pe1"})
        prob = graph_unsafe_probability(*system, "g", mapping, architecture)
        assert graph_failure_rate(*system, "g", mapping, architecture) == pytest.approx(
            prob / 100.0
        )

    def test_report(self, system, architecture):
        mapping = Mapping({"a": "pe0", "b": "pe1"})
        report = system_reliability_report(*system, mapping, architecture)
        assert set(report) == {"g"}
        entry = report["g"]
        assert entry["satisfied"] == (entry["failure_rate"] <= entry["target"])

    def test_report_skips_droppable(self, apps, plan, mapping, architecture):
        report = system_reliability_report(apps, plan, mapping, architecture)
        assert "lo" not in report
        assert "hi" in report


class TestBudget:
    def test_equal_share(self):
        assert per_task_unsafe_budget(4, 1e-6, 100.0) == pytest.approx(2.5e-5)

    def test_rejects_empty_graph(self):
        with pytest.raises(AnalysisError):
            per_task_unsafe_budget(0, 1e-6, 100.0)
