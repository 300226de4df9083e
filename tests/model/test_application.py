"""Unit tests for application sets."""

import pytest

from repro.errors import ModelError
from repro.model.application import ApplicationSet
from repro.model.task import Channel, Task
from repro.model.taskgraph import TaskGraph


def graph(name, tasks, period=10.0, droppable=True, service=1.0):
    return TaskGraph(
        name,
        tasks=[Task(t, 1.0, 2.0) for t in tasks],
        channels=[],
        period=period,
        reliability_target=None if droppable else 1e-6,
        service_value=service if droppable else None,
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            ApplicationSet([])

    def test_duplicate_graph_rejected(self):
        with pytest.raises(ModelError):
            ApplicationSet([graph("g", ["a"]), graph("g", ["b"])])

    def test_duplicate_task_across_graphs_rejected(self):
        with pytest.raises(ModelError):
            ApplicationSet([graph("g1", ["a"]), graph("g2", ["a"])])

    def test_insertion_order_preserved(self):
        apps = ApplicationSet([graph("z", ["a"]), graph("m", ["b"])])
        assert apps.graph_names == ("z", "m")


class TestAccess:
    def test_lookup(self, apps):
        assert apps.graph("hi").name == "hi"
        with pytest.raises(ModelError):
            apps.graph("nope")

    def test_owner_of(self, apps):
        assert apps.owner_of("a").name == "hi"
        assert apps.owner_of("x").name == "lo"
        with pytest.raises(ModelError):
            apps.owner_of("nope")

    def test_task_lookup(self, apps):
        assert apps.task("b").wcet == 4.0

    def test_all_tasks(self, apps):
        assert set(apps.all_task_names) == {"a", "b", "c", "x", "y"}

    def test_contains_len_iter(self, apps):
        assert "hi" in apps and "nope" not in apps
        assert len(apps) == 2
        assert [g.name for g in apps] == ["hi", "lo"]


class TestCriticalityPartition:
    def test_partition(self, apps):
        assert [g.name for g in apps.critical_graphs] == ["hi"]
        assert [g.name for g in apps.droppable_graphs] == ["lo"]

    def test_service_of(self, apps):
        assert apps.service_of(["lo"]) == 0.0
        assert apps.service_of(()) == 5.0

    def test_service_rejects_nondroppable(self, apps):
        with pytest.raises(ModelError):
            apps.service_of(["hi"])

    def test_validate_drop_set_rejects_unknown(self, apps):
        with pytest.raises(ModelError):
            apps.validate_drop_set(["ghost"])

    def test_validate_drop_set_returns_frozenset(self, apps):
        result = apps.validate_drop_set(["lo"])
        assert result == frozenset({"lo"})


class TestTiming:
    def test_hyperperiod(self, apps):
        assert apps.hyperperiod == 20.0

    def test_hyperperiod_nonharmonic(self):
        apps = ApplicationSet([graph("g1", ["a"], period=6.0), graph("g2", ["b"], period=10.0)])
        assert apps.hyperperiod == 30.0

    def test_total_utilization(self, apps):
        expected = 7.5 / 20.0 + 5.0 / 10.0
        assert sum(g.utilization() for g in apps.graphs) == pytest.approx(expected)


class TestReplacing:
    def test_replacing_swaps_graph(self, apps):
        replacement = graph("lo", ["x2", "y2"], period=10.0)
        updated = apps.replacing(replacement)
        assert set(updated.graph("lo").task_names) == {"x2", "y2"}
        # original untouched
        assert set(apps.graph("lo").task_names) == {"x", "y"}

    def test_replacing_unknown_rejected(self, apps):
        with pytest.raises(ModelError):
            apps.replacing(graph("ghost", ["q"]))

    def test_replacing_preserves_order(self, apps):
        updated = apps.replacing(graph("hi", ["a2"], droppable=False))
        assert updated.graph_names == apps.graph_names
