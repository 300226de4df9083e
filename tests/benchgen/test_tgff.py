"""Unit tests for the TGFF-style benchmark generator."""

import hashlib
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.tgff import (
    GraphShape,
    TgffConfig,
    comm_dominated_problem,
    generate_application_set,
    generate_architecture,
    generate_problem,
    generate_task_graph,
)
from repro.errors import ModelError
from repro.model.serialization import application_set_to_dict, architecture_to_dict
from tests.model.nx_oracle import to_digraph


class TestConfigValidation:
    def test_bad_task_range(self):
        with pytest.raises(ModelError):
            GraphShape(min_tasks=5, max_tasks=2)

    def test_bad_edge_probability(self):
        with pytest.raises(ModelError):
            GraphShape(extra_edge_probability=1.5)

    def test_bad_wcet_range(self):
        with pytest.raises(ModelError):
            TgffConfig(wcet_range=(10.0, 5.0))

    def test_bad_bcet_factors(self):
        with pytest.raises(ModelError):
            TgffConfig(bcet_factor_range=(0.9, 0.4))

    def test_bad_quantum(self):
        with pytest.raises(ModelError):
            TgffConfig(period_quantum=0.0)


class TestGraphGeneration:
    def test_deterministic_per_seed(self):
        a = generate_task_graph("g", random.Random(42))
        b = generate_task_graph("g", random.Random(42))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_task_graph("g", random.Random(1))
        b = generate_task_graph("g", random.Random(2))
        assert a != b

    def test_connectivity(self):
        for seed in range(10):
            graph = generate_task_graph("g", random.Random(seed))
            if len(graph) == 1:
                continue
            undirected = to_digraph(graph).to_undirected()
            assert nx.is_connected(undirected)

    def test_every_nonsource_has_predecessor(self):
        for seed in range(10):
            graph = generate_task_graph("g", random.Random(seed))
            sources = set(graph.sources)
            for name in graph.task_names:
                if name not in sources:
                    assert graph.predecessors(name)

    def test_period_is_power_of_two_quantum(self):
        config = TgffConfig(period_quantum=50.0)
        for seed in range(10):
            graph = generate_task_graph("g", random.Random(seed), config)
            ratio = graph.period / 50.0
            assert ratio == 2 ** round(__import__("math").log2(ratio))

    def test_period_has_slack(self):
        config = TgffConfig(period_slack_range=(2.0, 4.0))
        for seed in range(10):
            graph = generate_task_graph("g", random.Random(seed), config)
            assert graph.period >= graph.critical_path_wcet() * 2.0

    def test_droppable_flag(self):
        droppable = generate_task_graph("g", random.Random(0), droppable=True)
        critical = generate_task_graph("g", random.Random(0), droppable=False)
        assert droppable.droppable
        assert not critical.droppable
        assert critical.reliability_target == TgffConfig().reliability_target

    def test_task_prefix(self):
        graph = generate_task_graph("g", random.Random(0), task_prefix="pfx")
        assert all(t.name.startswith("pfx_") for t in graph.tasks)


class TestSetGeneration:
    def test_application_set_mix(self):
        apps = generate_application_set(
            random.Random(5), critical_graphs=2, droppable_graphs=3
        )
        assert len(apps.critical_graphs) == 2
        assert len(apps.droppable_graphs) == 3

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            generate_application_set(random.Random(0), 0, 0)

    def test_architecture_generation(self):
        arch = generate_architecture(random.Random(0), processors=5, types=2)
        assert len(arch) == 5
        assert {p.ptype for p in arch} == {"type0", "type1"}
        for p in arch:
            assert p.fault_rate > 0

    def test_architecture_rejects_bad_counts(self):
        with pytest.raises(ModelError):
            generate_architecture(random.Random(0), processors=0)
        with pytest.raises(ModelError):
            generate_architecture(random.Random(0), processors=2, types=0)

    def test_problem_generation(self):
        problem = generate_problem(seed=9, critical_graphs=1, droppable_graphs=1)
        assert len(problem.applications) == 2
        assert len(problem.architecture) == 4
        # hyperperiod stays bounded thanks to power-of-two periods
        periods = [g.period for g in problem.applications.graphs]
        assert problem.applications.hyperperiod == max(periods)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_generated_problems_are_always_valid(seed):
    problem = generate_problem(
        seed=seed, critical_graphs=1, droppable_graphs=1, processors=3
    )
    apps = problem.applications
    assert apps.hyperperiod == max(g.period for g in apps.graphs)
    for graph in apps.graphs:
        assert graph.critical_path_wcet() <= graph.period


def _problem_digest(problem) -> str:
    payload = {
        "applications": application_set_to_dict(problem.applications),
        "architecture": architecture_to_dict(problem.architecture),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


#: Flat shapes leave several weakly-connected components per graph, so the
#: order in which they are stitched (one channel-size draw each) shows.
_FLAT = GraphShape(
    min_tasks=3, max_tasks=8, min_layers=1, max_layers=2, extra_edge_probability=0.0
)


class TestGeneratedBytes:
    """``generate_problem`` output pinned byte for byte (sha256 of the
    sorted-key JSON of applications and architecture)."""

    @pytest.mark.parametrize(
        "args, config, digest",
        [
            ((1, 2, 2, 4), None,
             "6b9ba7d3fdd14cd9ecfa16b7e8772ebc0b39305e7eb06fdeaca0dbfac4a27764"),
            ((11, 4, 4, 4), None,
             "56b08676046ffdb708d7796b2867ee45ebc0871e8a5d361dc46a2d5293577ae2"),
            ((11, 10, 10, 8), None,
             "b4e3becde423b56cba796f53102e224b37680ce6abb8734daa0a9e9275f5af6c"),
            ((23, 1, 5, 3), None,
             "70d56523859278a0b1156a44c819087b7954a24fce8b50add1c6f317f5b01a66"),
            ((2, 3, 3, 4), TgffConfig(shape=_FLAT),
             "c28a90839d164d5b7be369c74771ff5d4b1aaf2a46592426b2d27649de524085"),
            ((9, 3, 3, 4), TgffConfig(shape=_FLAT),
             "41b5c4fd7454b1d287bba872a38c16eef8853b5b1782bc71e6361b6f94882b01"),
        ],
    )
    def test_generate_problem_bytes(self, args, config, digest):
        assert _problem_digest(generate_problem(*args, config=config)) == digest

    def test_comm_dominated_problem_bytes(self):
        assert _problem_digest(comm_dominated_problem()) == (
            "3f22f7bc47c55af443686441ce38f224f14cef449ca6f0d99e28016cdce759ff"
        )
