"""Unit tests for the expected-power model."""

import pytest

from repro.core.power import PowerModel
from repro.errors import AnalysisError
from repro.hardening.spec import HardeningPlan, HardeningSpec
from repro.hardening.transform import harden
from repro.model.application import ApplicationSet
from repro.model.mapping import Mapping
from repro.model.task import Task
from repro.model.taskgraph import TaskGraph


def single_task_apps(wcet=10.0, bcet=4.0, period=100.0, dt=1.0, ve=0.5):
    graph = TaskGraph(
        "g",
        tasks=[Task("t", bcet, wcet, detection_overhead=dt, voting_overhead=ve)],
        channels=[],
        period=period,
        reliability_target=1e-2,
    )
    return ApplicationSet([graph])


class TestExpectedExecution:
    def test_plain_task_uses_average(self, architecture):
        hardened = harden(single_task_apps(), HardeningPlan())
        model = PowerModel(architecture)
        expected = model.expected_execution_time(hardened, "t", "pe0")
        assert expected == pytest.approx(7.0)  # (4 + 10) / 2

    def test_worst_case_mode(self, architecture):
        hardened = harden(single_task_apps(), HardeningPlan())
        model = PowerModel(architecture, use_average_execution=False)
        assert model.expected_execution_time(hardened, "t", "pe0") == pytest.approx(10.0)

    def test_reexec_adds_detection_and_expected_retry(self, architecture):
        hardened = harden(
            single_task_apps(), HardeningPlan({"t": HardeningSpec.reexecution(1)})
        )
        model = PowerModel(architecture)
        expected = model.expected_execution_time(hardened, "t", "pe0")
        # single run = 7 + dt = 8; retries are nearly free at rate 1e-5
        assert expected == pytest.approx(8.0, rel=1e-3)
        assert expected > 8.0  # but strictly more than fault-free

    def test_voter_costs_ve(self, architecture):
        hardened = harden(
            single_task_apps(), HardeningPlan({"t": HardeningSpec.active(2)})
        )
        model = PowerModel(architecture)
        assert model.expected_execution_time(hardened, "t#vote", "pe0") == pytest.approx(0.5)

    def test_passive_copy_nearly_free(self, architecture):
        hardened = harden(
            single_task_apps(), HardeningPlan({"t": HardeningSpec.passive(3, active=2)})
        )
        model = PowerModel(architecture)
        passive_cost = model.expected_execution_time(hardened, "t#p0", "pe0")
        active_cost = model.expected_execution_time(hardened, "t#r1", "pe0")
        assert passive_cost < 0.01 * active_cost


class TestPassiveVsActivePower:
    def test_passive_replication_cheaper_on_average(self, architecture):
        apps = single_task_apps()
        model = PowerModel(architecture)
        active = harden(apps, HardeningPlan({"t": HardeningSpec.active(3)}))
        passive = harden(apps, HardeningPlan({"t": HardeningSpec.passive(3, active=2)}))
        mapping_active = Mapping(
            {"t": "pe0", "t#r1": "pe1", "t#r2": "pe2", "t#vote": "pe0"}
        )
        mapping_passive = Mapping(
            {"t": "pe0", "t#r1": "pe1", "t#p0": "pe2", "t#vote": "pe0"}
        )
        allocation = ("pe0", "pe1", "pe2")
        power_active = model.expected_power(active, mapping_active, allocation)
        power_passive = model.expected_power(passive, mapping_passive, allocation)
        assert power_passive < power_active


class TestPowerObjective:
    def test_static_plus_dynamic(self, architecture):
        hardened = harden(single_task_apps(), HardeningPlan())
        model = PowerModel(architecture)
        power = model.expected_power(hardened, Mapping({"t": "pe0"}), ("pe0",))
        # static 1.0 + dynamic 2.0 * (7/100)
        assert power == pytest.approx(1.0 + 2.0 * 0.07)

    def test_allocated_idle_processor_costs_static(self, architecture):
        hardened = harden(single_task_apps(), HardeningPlan())
        model = PowerModel(architecture)
        one = model.expected_power(hardened, Mapping({"t": "pe0"}), ("pe0",))
        two = model.expected_power(hardened, Mapping({"t": "pe0"}), ("pe0", "pe1"))
        assert two == pytest.approx(one + 1.0)

    def test_unallocated_use_rejected(self, architecture):
        hardened = harden(single_task_apps(), HardeningPlan())
        model = PowerModel(architecture)
        with pytest.raises(AnalysisError):
            model.expected_power(hardened, Mapping({"t": "pe0"}), ("pe1",))

    def test_utilizations(self, hardened, mapping, architecture):
        model = PowerModel(architecture)
        utilizations = model.utilizations(hardened, mapping)
        assert set(utilizations) <= {"pe0", "pe1", "pe2"}
        assert all(u >= 0 for u in utilizations.values())
