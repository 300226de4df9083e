"""Unit tests for the hardening graph transformation T -> T'."""

import pytest

from repro.errors import HardeningError
from repro.hardening.spec import HardeningKind, HardeningPlan, HardeningSpec
from repro.hardening.transform import harden
from repro.model.application import ApplicationSet
from repro.model.task import Channel, Task, TaskRole
from repro.model.taskgraph import TaskGraph


def pipeline(name="g", droppable=False):
    """u -> v -> w."""
    return TaskGraph(
        name,
        tasks=[
            Task("u", 1.0, 2.0, voting_overhead=0.3, detection_overhead=0.1),
            Task("v", 2.0, 4.0, voting_overhead=0.5, detection_overhead=0.2),
            Task("w", 1.0, 1.5, voting_overhead=0.2, detection_overhead=0.1),
        ],
        channels=[Channel("u", "v", 10.0), Channel("v", "w", 5.0)],
        period=20.0,
        reliability_target=None if droppable else 1e-6,
        service_value=1.0 if droppable else None,
    )


def apps_with(plan_dict):
    apps = ApplicationSet([pipeline()])
    return harden(apps, HardeningPlan(plan_dict))


class TestReexecution:
    def test_topology_unchanged(self):
        hs = apps_with({"v": HardeningSpec.reexecution(2)})
        graph = hs.applications.graph("g")
        assert graph.task_names == ("u", "v", "w")
        assert len(graph.channels) == 2

    def test_bookkeeping(self):
        hs = apps_with({"v": HardeningSpec.reexecution(2)})
        assert hs.reexec_counts == {"v": 2}

    def test_nominal_bounds_include_detection(self):
        hs = apps_with({"v": HardeningSpec.reexecution(2)})
        assert hs.nominal_bounds("v") == (2.2, 4.2)
        assert hs.nominal_bounds("u") == (1.0, 2.0)

    def test_critical_wcet_is_eq1(self):
        hs = apps_with({"v": HardeningSpec.reexecution(2)})
        assert hs.critical_wcet("v") == pytest.approx((4.0 + 0.2) * 3)

    def test_trigger(self):
        hs = apps_with({"v": HardeningSpec.reexecution(1)})
        (trigger,) = hs.triggers()
        assert trigger.primary == "v"
        assert trigger.kind is HardeningKind.REEXECUTION
        assert trigger.start_anchors == ("v",)
        assert trigger.finish_anchor == "v"


class TestActiveReplication:
    def test_topology(self):
        hs = apps_with({"v": HardeningSpec.active(3)})
        graph = hs.applications.graph("g")
        names = set(graph.task_names)
        assert names == {"u", "v", "v#r1", "v#r2", "v#vote", "w"}
        # replicas receive u's output
        assert set(graph.successors("u")) == {"v", "v#r1", "v#r2"}
        # voter collects all copies and feeds w
        assert set(graph.predecessors("v#vote")) == {"v", "v#r1", "v#r2"}
        assert graph.successors("v#vote") == ["w"]
        # original v no longer feeds w directly
        assert graph.successors("v") == ["v#vote"]

    def test_voter_timing(self):
        hs = apps_with({"v": HardeningSpec.active(3)})
        voter = hs.applications.task("v#vote")
        assert voter.role is TaskRole.VOTER
        assert voter.bcet == voter.wcet == 0.5  # ve_v

    def test_replica_roles(self):
        hs = apps_with({"v": HardeningSpec.active(3)})
        replica = hs.applications.task("v#r1")
        assert replica.role is TaskRole.REPLICA
        assert replica.origin == "v"
        assert replica.wcet == 4.0

    def test_replica_group(self):
        hs = apps_with({"v": HardeningSpec.active(3)})
        assert hs.replica_groups["v"] == ("v", "v#r1", "v#r2")
        assert hs.voters["v"] == "v#vote"
        assert not hs.passive_tasks

    def test_active_does_not_trigger(self):
        hs = apps_with({"v": HardeningSpec.active(3)})
        assert hs.triggers() == []

    def test_channel_sizes_preserved(self):
        hs = apps_with({"v": HardeningSpec.active(3)})
        graph = hs.applications.graph("g")
        assert graph.channel("u", "v#r1").size == 10.0
        assert graph.channel("v#vote", "w").size == 5.0


class TestPassiveReplication:
    def test_topology(self):
        hs = apps_with({"v": HardeningSpec.passive(3, active=2)})
        graph = hs.applications.graph("g")
        assert set(graph.task_names) == {"u", "v", "v#r1", "v#p0", "v#vote", "w"}
        assert hs.passive_tasks == frozenset({"v#p0"})
        assert hs.is_passive("v#p0")
        assert not hs.is_passive("v#r1")

    def test_passive_gets_on_demand_inputs(self):
        hs = apps_with({"v": HardeningSpec.passive(3, active=2)})
        graph = hs.applications.graph("g")
        assert graph.channel("u", "v#p0").on_demand
        assert not graph.channel("u", "v#r1").on_demand

    def test_passive_trigger_edges_from_actives(self):
        hs = apps_with({"v": HardeningSpec.passive(3, active=2)})
        graph = hs.applications.graph("g")
        assert set(graph.predecessors("v#p0")) == {"u", "v", "v#r1"}
        assert graph.channel("v", "v#p0").on_demand
        assert graph.channel("v#r1", "v#p0").on_demand

    def test_passive_feeds_voter_on_demand(self):
        hs = apps_with({"v": HardeningSpec.passive(3, active=2)})
        graph = hs.applications.graph("g")
        assert graph.channel("v#p0", "v#vote").on_demand
        assert not graph.channel("v", "v#vote").on_demand

    def test_passive_trigger_anchors(self):
        hs = apps_with({"v": HardeningSpec.passive(3, active=2)})
        (trigger,) = hs.triggers()
        assert trigger.kind is HardeningKind.PASSIVE
        assert set(trigger.start_anchors) == {"v", "v#r1"}
        assert trigger.finish_anchor == "v#vote"


class TestAdjacentHardening:
    def test_chained_replicated_tasks(self):
        hs = apps_with(
            {
                "u": HardeningSpec.active(2),
                "v": HardeningSpec.active(2),
            }
        )
        graph = hs.applications.graph("g")
        # u's voter feeds both copies of v
        assert set(graph.successors("u#vote")) == {"v", "v#r1"}
        assert set(graph.predecessors("v#r1")) == {"u#vote"}

    def test_reexec_then_replication(self):
        hs = apps_with(
            {
                "u": HardeningSpec.reexecution(1),
                "v": HardeningSpec.passive(3, active=2),
            }
        )
        assert len(hs.triggers()) == 2
        kinds = {t.kind for t in hs.triggers()}
        assert kinds == {HardeningKind.REEXECUTION, HardeningKind.PASSIVE}


class TestErrors:
    def test_unknown_task_rejected(self):
        apps = ApplicationSet([pipeline()])
        with pytest.raises(HardeningError, match="unknown task"):
            harden(apps, HardeningPlan({"ghost": HardeningSpec.reexecution(1)}))

    def test_reserved_separator_rejected(self):
        graph = TaskGraph(
            "g",
            tasks=[Task("bad#name", 1.0, 2.0)],
            channels=[],
            period=10.0,
            service_value=1.0,
        )
        with pytest.raises(HardeningError, match="reserved separator"):
            harden(ApplicationSet([graph]), HardeningPlan())

    def test_empty_plan_is_identity(self):
        apps = ApplicationSet([pipeline()])
        hs = harden(apps, HardeningPlan())
        assert hs.applications.graph("g").task_names == ("u", "v", "w")
        assert hs.triggers() == []

    def test_spec_of_derived_task(self):
        hs = apps_with({"v": HardeningSpec.passive(3, active=2)})
        assert hs.spec_of("v#p0").kind is HardeningKind.PASSIVE
        assert hs.spec_of("u").kind is HardeningKind.NONE
