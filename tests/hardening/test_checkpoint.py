"""Tests for the checkpointing hardening extension (cf. ref [2])."""

import pytest

from repro.core.analysis import MixedCriticalityAnalysis
from repro.errors import HardeningError
from repro.hardening.reexecution import (
    checkpoint_wcet,
    critical_wcet,
    nominal_bounds,
    recovery_bounds,
    reexecution_wcet,
)
from repro.hardening.spec import HardeningKind, HardeningPlan, HardeningSpec
from repro.hardening.transform import harden
from repro.model.application import ApplicationSet
from repro.model.architecture import homogeneous_architecture
from repro.model.mapping import Mapping
from repro.model.task import Channel, Task
from repro.model.taskgraph import TaskGraph
from repro.reliability.analysis import task_unsafe_probability
from repro.reliability.constraints import strengthen_spec
from repro.sim.engine import Simulator
from repro.sim.faults import FaultProfile, adhoc_profile
from repro.sim.sampler import WorstCaseSampler


class TestSpec:
    def test_constructor(self):
        spec = HardeningSpec.checkpointing(2, segments=4)
        assert spec.kind is HardeningKind.CHECKPOINT
        assert spec.reexecutions == 2
        assert spec.checkpoints == 4
        assert spec.triggers_critical_state
        assert spec.is_time_redundant

    def test_requires_two_segments(self):
        with pytest.raises(HardeningError):
            HardeningSpec.checkpointing(1, segments=1)

    def test_requires_recovery_budget(self):
        with pytest.raises(HardeningError):
            HardeningSpec.checkpointing(0, segments=2)

    def test_segments_exclusive_to_checkpoint(self):
        with pytest.raises(HardeningError):
            HardeningSpec(kind=HardeningKind.REEXECUTION, reexecutions=1, checkpoints=2)

    def test_roundtrip(self):
        spec = HardeningSpec.checkpointing(3, segments=2)
        assert HardeningSpec.from_dict(spec.to_dict()) == spec


class TestTiming:
    def test_formula(self):
        # wcet 10, dt 1, 2 segments, 1 recovery:
        # nominal = 10 + 2*1 = 12; recovery = 10/2 + 1 = 6 -> 18
        assert checkpoint_wcet(10.0, 1.0, 2, 1) == pytest.approx(18.0)

    def test_degenerates_to_eq1(self):
        for k in range(4):
            assert checkpoint_wcet(10.0, 1.0, 1, k) == pytest.approx(
                reexecution_wcet(10.0, 1.0, k)
            )

    def test_more_segments_cheaper_critical_time(self):
        # Checkpointing saves critical time vs full re-execution for the
        # same recovery budget (smaller rollback), at a nominal-time cost.
        task = Task("t", 5.0, 10.0, detection_overhead=0.5)
        reexec = critical_wcet(task, HardeningSpec.reexecution(2))
        checkpointed = critical_wcet(task, HardeningSpec.checkpointing(2, segments=4))
        assert checkpointed < reexec

    def test_nominal_bounds_pay_per_segment(self):
        task = Task("t", 5.0, 10.0, detection_overhead=0.5)
        spec = HardeningSpec.checkpointing(1, segments=4)
        assert nominal_bounds(task, spec) == (7.0, 12.0)

    def test_recovery_bounds(self):
        task = Task("t", 4.0, 8.0, detection_overhead=0.5)
        spec = HardeningSpec.checkpointing(1, segments=4)
        assert recovery_bounds(task, spec) == (1.5, 2.5)

    def test_recovery_bounds_rejects_replication(self):
        task = Task("t", 4.0, 8.0)
        with pytest.raises(HardeningError):
            recovery_bounds(task, HardeningSpec.active(3))


def checkpointed_system(segments=2, k=1):
    graph = TaskGraph(
        "g",
        tasks=[Task("a", 4.0, 4.0, detection_overhead=1.0), Task("b", 2.0, 2.0)],
        channels=[Channel("a", "b", 0.0)],
        period=40.0,
        reliability_target=1e-4,
    )
    apps = ApplicationSet([graph])
    plan = HardeningPlan({"a": HardeningSpec.checkpointing(k, segments=segments)})
    return harden(apps, plan)


class TestTransform:
    def test_topology_unchanged(self):
        hardened = checkpointed_system()
        assert hardened.applications.graph("g").task_names == ("a", "b")

    def test_bookkeeping(self):
        hardened = checkpointed_system(segments=4, k=2)
        assert hardened.is_time_redundant("a")
        assert "a" not in hardened.reexec_counts  # checkpoint, not re-exec
        assert hardened.time_redundancy["a"].checkpoints == 4
        (trigger,) = hardened.triggers()
        assert trigger.kind is HardeningKind.CHECKPOINT

    def test_inflation_ratio(self):
        hardened = checkpointed_system(segments=2, k=1)
        # nominal 4 + 2*1 = 6; critical 6 + (2 + 1) = 9 -> 1.5
        assert hardened.critical_inflation("a") == pytest.approx(1.5)


class TestSimulation:
    def test_fault_recovers_one_segment(self):
        hardened = checkpointed_system(segments=2, k=1)
        arch = homogeneous_architecture(1)
        sim = Simulator(hardened, arch, Mapping({"a": "pe0", "b": "pe0"}))
        clean = sim.run(sampler=WorstCaseSampler())
        # nominal: a = 4 + 2*1 = 6, b = 2 -> 8
        assert clean.graph_response_time("g") == pytest.approx(8.0)
        faulty = sim.run(
            profile=FaultProfile([("a", 0, 0)]), sampler=WorstCaseSampler()
        )
        # recovery adds one segment + dt = 3 -> 11
        assert faulty.graph_response_time("g") == pytest.approx(11.0)
        assert faulty.entered_critical_state

    def test_recovery_cheaper_than_reexecution(self):
        arch = homogeneous_architecture(1)
        flat = Mapping({"a": "pe0", "b": "pe0"})
        # A light detection overhead: four checkpoints cost 1.6 nominal
        # but shrink the rollback from 4.4 to 1.4.
        graph = TaskGraph(
            "g",
            tasks=[Task("a", 4.0, 4.0, detection_overhead=0.4), Task("b", 2.0, 2.0)],
            channels=[Channel("a", "b", 0.0)],
            period=40.0,
            reliability_target=1e-4,
        )
        apps = ApplicationSet([graph])
        profile = FaultProfile([("a", 0, 0)])
        reexec = harden(apps, HardeningPlan({"a": HardeningSpec.reexecution(1)}))
        checkpointed = harden(
            apps, HardeningPlan({"a": HardeningSpec.checkpointing(1, segments=4)})
        )
        r1 = Simulator(reexec, arch, flat).run(
            profile=profile, sampler=WorstCaseSampler()
        )
        r2 = Simulator(checkpointed, arch, flat).run(
            profile=profile, sampler=WorstCaseSampler()
        )
        assert r2.graph_response_time("g") < r1.graph_response_time("g")

    def test_adhoc_profile_covers_checkpointed_tasks(self):
        hardened = checkpointed_system(segments=2, k=2)
        profile = adhoc_profile(hardened)
        assert profile.is_faulty("a", 0, 0)
        assert profile.is_faulty("a", 0, 1)
        assert not profile.is_faulty("a", 0, 2)


class TestAnalysisSafety:
    def test_analysis_bounds_simulation(self):
        hardened = checkpointed_system(segments=2, k=2)
        arch = homogeneous_architecture(1)
        flat = Mapping({"a": "pe0", "b": "pe0"})
        analysis = MixedCriticalityAnalysis().analyze(hardened, arch, flat)
        sim = Simulator(hardened, arch, flat)
        worst = sim.run(
            profile=adhoc_profile(hardened), sampler=WorstCaseSampler()
        )
        assert analysis.wcrt_of("g") >= worst.graph_response_time("g") - 1e-9

    def test_checkpoint_tightens_wcrt(self):
        arch = homogeneous_architecture(1)
        flat = Mapping({"a": "pe0", "b": "pe0"})
        graph = TaskGraph(
            "g",
            tasks=[Task("a", 4.0, 4.0, detection_overhead=0.2), Task("b", 2.0, 2.0)],
            channels=[Channel("a", "b", 0.0)],
            period=40.0,
            reliability_target=1e-4,
        )
        apps = ApplicationSet([graph])
        reexec = harden(apps, HardeningPlan({"a": HardeningSpec.reexecution(2)}))
        checkpointed = harden(
            apps, HardeningPlan({"a": HardeningSpec.checkpointing(2, segments=4)})
        )
        analysis = MixedCriticalityAnalysis()
        r1 = analysis.analyze(reexec, arch, flat)
        r2 = analysis.analyze(checkpointed, arch, flat)
        assert r2.wcrt_of("g") < r1.wcrt_of("g")


class TestReliabilityAndRepair:
    def test_unsafe_probability_is_poisson_tail(self):
        from repro.model.architecture import Processor
        from repro.reliability.faults import poisson_fault_count

        task = Task("t", 1.0, 100.0, detection_overhead=5.0)
        spec = HardeningSpec.checkpointing(1, segments=2)
        pe = Processor("p", fault_rate=1e-3)
        duration = 100.0 + 2 * 5.0
        expected = 1.0 - sum(
            poisson_fault_count(1e-3, duration, i) for i in range(2)
        )
        assert task_unsafe_probability(task, spec, [pe]) == pytest.approx(expected)

    def test_more_recoveries_safer(self):
        from repro.model.architecture import Processor

        task = Task("t", 1.0, 100.0, detection_overhead=5.0)
        pe = Processor("p", fault_rate=1e-3)
        p1 = task_unsafe_probability(task, HardeningSpec.checkpointing(1), [pe])
        p2 = task_unsafe_probability(task, HardeningSpec.checkpointing(3), [pe])
        assert p2 < p1

    def test_strengthen_ladder_handles_checkpoint(self):
        spec = HardeningSpec.checkpointing(1, segments=2)
        stronger = strengthen_spec(spec)
        assert stronger.kind is HardeningKind.CHECKPOINT
        assert stronger.reexecutions == 2
        # and the ladder still terminates
        steps = 0
        while spec is not None:
            spec = strengthen_spec(spec)
            steps += 1
            assert steps < 50
