"""Unit tests for task graphs."""

import math

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.model.task import Channel, Task
from repro.model.taskgraph import Criticality, TaskGraph
from tests.model.nx_oracle import to_digraph


def diamond_graph(**kwargs):
    """a -> {b, c} -> d."""
    defaults = dict(period=10.0, service_value=1.0)
    defaults.update(kwargs)
    return TaskGraph(
        "g",
        tasks=[
            Task("a", 1.0, 2.0),
            Task("b", 1.0, 3.0),
            Task("c", 2.0, 2.5),
            Task("d", 0.5, 1.0),
        ],
        channels=[
            Channel("a", "b", 1.0),
            Channel("a", "c", 1.0),
            Channel("b", "d", 1.0),
            Channel("c", "d", 1.0),
        ],
        **defaults,
    )


class TestConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph("", [Task("a", 1, 2)], [], period=10, service_value=1.0)

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph("g", [Task("a", 1, 2)], [], period=0, service_value=1.0)

    def test_empty_task_set_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph("g", [], [], period=10, service_value=1.0)

    def test_duplicate_task_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g",
                [Task("a", 1, 2), Task("a", 1, 2)],
                [],
                period=10,
                service_value=1.0,
            )

    def test_unknown_channel_endpoint_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g",
                [Task("a", 1, 2)],
                [Channel("a", "zz", 1.0)],
                period=10,
                service_value=1.0,
            )

    def test_duplicate_channel_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g",
                [Task("a", 1, 2), Task("b", 1, 2)],
                [Channel("a", "b", 1.0), Channel("a", "b", 2.0)],
                period=10,
                service_value=1.0,
            )

    def test_cycle_rejected(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g",
                [Task("a", 1, 2), Task("b", 1, 2)],
                [Channel("a", "b", 1.0), Channel("b", "a", 1.0)],
                period=10,
                service_value=1.0,
            )

    def test_cycle_error_names_the_cycle(self):
        with pytest.raises(ModelError) as caught:
            TaskGraph(
                "g",
                [Task("a", 1, 2), Task("b", 1, 2), Task("c", 1, 2), Task("s", 1, 2)],
                [
                    Channel("s", "a", 1.0),
                    Channel("a", "b", 1.0),
                    Channel("b", "c", 1.0),
                    Channel("c", "a", 1.0),
                ],
                period=10,
                service_value=1.0,
            )
        message = str(caught.value)
        assert "contains a cycle" in message
        assert "('a', 'b')" in message
        assert "('b', 'c')" in message
        assert "('c', 'a')" in message
        assert "'s'" not in message

    def test_deadline_defaults_to_period(self):
        graph = diamond_graph()
        assert graph.deadline == graph.period

    def test_explicit_deadline(self):
        graph = diamond_graph(deadline=7.5)
        assert graph.deadline == 7.5

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ModelError):
            diamond_graph(deadline=0.0)


class TestCriticality:
    def test_droppable_requires_service_value(self):
        with pytest.raises(ModelError):
            TaskGraph("g", [Task("a", 1, 2)], [], period=10)

    def test_droppable_rejects_infinite_service(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g", [Task("a", 1, 2)], [], period=10, service_value=math.inf
            )

    def test_droppable_rejects_negative_service(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g", [Task("a", 1, 2)], [], period=10, service_value=-1.0
            )

    def test_nondroppable_has_infinite_service(self):
        graph = TaskGraph(
            "g", [Task("a", 1, 2)], [], period=10, reliability_target=0.5
        )
        assert graph.service_value == math.inf
        assert not graph.droppable
        assert graph.criticality is Criticality.HIGH

    def test_nondroppable_rejects_finite_service(self):
        with pytest.raises(ModelError):
            TaskGraph(
                "g",
                [Task("a", 1, 2)],
                [],
                period=10,
                reliability_target=0.5,
                service_value=3.0,
            )

    def test_reliability_target_bounds(self):
        with pytest.raises(ModelError):
            TaskGraph("g", [Task("a", 1, 2)], [], period=10, reliability_target=0.0)
        with pytest.raises(ModelError):
            TaskGraph("g", [Task("a", 1, 2)], [], period=10, reliability_target=1.5)

    def test_droppable_graph_is_low_criticality(self):
        assert diamond_graph().criticality is Criticality.LOW


class TestStructure:
    def test_len_contains_iter(self):
        graph = diamond_graph()
        assert len(graph) == 4
        assert "a" in graph and "zz" not in graph
        assert [t.name for t in graph] == list(graph.task_names)

    def test_task_lookup(self):
        graph = diamond_graph()
        assert graph.task("b").wcet == 3.0
        with pytest.raises(ModelError):
            graph.task("zz")

    def test_channel_lookup(self):
        graph = diamond_graph()
        assert graph.channel("a", "b").size == 1.0
        with pytest.raises(ModelError):
            graph.channel("b", "a")

    def test_predecessors_successors(self):
        graph = diamond_graph()
        assert graph.predecessors("d") == ["b", "c"]
        assert graph.successors("a") == ["b", "c"]
        assert graph.predecessors("a") == []

    def test_in_out_channels(self):
        graph = diamond_graph()
        assert {c.src for c in graph.in_channels("d")} == {"b", "c"}
        assert {c.dst for c in graph.channels if c.src == "a"} == {"b", "c"}

    def test_sources_sinks(self):
        graph = diamond_graph()
        assert graph.sources == ["a"]
        assert graph.sinks == ["d"]

    def test_topological_order_is_consistent(self):
        graph = diamond_graph()
        order = graph.topological_order()
        position = {name: i for i, name in enumerate(order)}
        for channel in graph.channels:
            assert position[channel.src] < position[channel.dst]

    def test_depth(self):
        graph = diamond_graph()
        assert graph.depth("a") == 0
        assert graph.depth("b") == 1
        assert graph.depth("d") == 2

    @given(st.integers(min_value=1, max_value=14), st.data())
    @settings(max_examples=80, deadline=None)
    def test_topological_order_matches_networkx(self, size, data):
        names = data.draw(
            st.lists(
                st.text("abcxyz", min_size=1, max_size=3),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        # Edges go from earlier to later positions of a shuffled name list,
        # so the graph is a DAG whose order differs from the name order.
        ranked = data.draw(st.permutations(names))
        edges = data.draw(
            st.sets(
                st.tuples(
                    st.integers(0, size - 1), st.integers(0, size - 1)
                ).filter(lambda pair: pair[0] < pair[1]),
                max_size=3 * size,
            )
        )
        graph = TaskGraph(
            "g",
            [Task(name, 1, 2) for name in names],
            [Channel(ranked[i], ranked[j], 1.0) for i, j in edges],
            period=10,
            service_value=1.0,
        )
        expected = tuple(nx.lexicographical_topological_sort(to_digraph(graph)))
        assert graph.topological_order() == expected

    def test_to_networkx(self):
        nxg = to_digraph(diamond_graph())
        assert isinstance(nxg, nx.DiGraph)
        assert set(nxg.nodes) == {"a", "b", "c", "d"}
        assert nxg.nodes["a"]["task"].wcet == 2.0
        assert nxg.edges["a", "b"]["channel"].size == 1.0


class TestAggregates:
    def test_total_wcet(self):
        assert diamond_graph().total_wcet() == pytest.approx(8.5)

    def test_critical_path(self):
        # a(2) -> b(3) -> d(1) = 6 beats a -> c(2.5) -> d = 5.5
        assert diamond_graph().critical_path_wcet() == pytest.approx(6.0)

    def test_critical_path_at_most_total(self):
        graph = diamond_graph()
        assert graph.critical_path_wcet() <= graph.total_wcet()

    def test_utilization(self):
        assert diamond_graph().utilization() == pytest.approx(0.85)


class TestDerive:
    def test_derive_preserves_attributes(self):
        graph = diamond_graph()
        derived = graph.derive(tasks=[Task("only", 1.0, 2.0)], channels=[])
        assert derived.period == graph.period
        assert derived.service_value == graph.service_value
        assert len(derived) == 1

    def test_derive_keeps_reliability_target(self):
        graph = TaskGraph(
            "g", [Task("a", 1, 2)], [], period=10, reliability_target=0.25
        )
        derived = graph.derive(tasks=[Task("b", 1, 2)], channels=[])
        assert derived.reliability_target == 0.25

    def test_equality(self):
        assert diamond_graph() == diamond_graph()
        assert diamond_graph() != diamond_graph(period=20.0)
