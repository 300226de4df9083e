"""Property-based tests of the hardening transformation."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardening.spec import HardeningKind, HardeningPlan, HardeningSpec
from repro.hardening.transform import harden
from repro.model.application import ApplicationSet
from repro.model.task import Channel, Task, TaskRole
from repro.model.taskgraph import TaskGraph
from tests.model.nx_oracle import to_digraph


@st.composite
def systems_with_plans(draw):
    """A random chain application plus a random hardening plan."""
    length = draw(st.integers(min_value=1, max_value=5))
    tasks = []
    channels = []
    for index in range(length):
        wcet = draw(st.floats(min_value=0.5, max_value=20.0))
        tasks.append(
            Task(
                f"t{index}",
                bcet=round(wcet * draw(st.floats(min_value=0.1, max_value=1.0)), 6),
                wcet=round(wcet, 6),
                detection_overhead=round(
                    draw(st.floats(min_value=0.0, max_value=2.0)), 6
                ),
                voting_overhead=round(
                    draw(st.floats(min_value=0.0, max_value=2.0)), 6
                ),
            )
        )
        if index:
            channels.append(Channel(f"t{index-1}", f"t{index}", 8.0))
    apps = ApplicationSet(
        [TaskGraph("g", tasks, channels, period=500.0, reliability_target=1e-6)]
    )

    specs = {}
    for task in tasks:
        choice = draw(st.integers(min_value=0, max_value=4))
        if choice == 1:
            specs[task.name] = HardeningSpec.reexecution(
                draw(st.integers(min_value=1, max_value=3))
            )
        elif choice == 2:
            specs[task.name] = HardeningSpec.active(
                draw(st.integers(min_value=2, max_value=4))
            )
        elif choice == 3:
            specs[task.name] = HardeningSpec.passive(
                3 + draw(st.integers(min_value=0, max_value=1)), active=2
            )
        elif choice == 4:
            specs[task.name] = HardeningSpec.checkpointing(
                draw(st.integers(min_value=1, max_value=3)),
                segments=draw(st.integers(min_value=2, max_value=4)),
            )
    return apps, HardeningPlan(specs)


@given(systems_with_plans())
@settings(max_examples=60, deadline=None)
def test_hardened_graph_is_acyclic_dag(system):
    apps, plan = system
    hardened = harden(apps, plan)
    nxg = to_digraph(hardened.applications.graph("g"))
    assert nx.is_directed_acyclic_graph(nxg)


@given(systems_with_plans())
@settings(max_examples=60, deadline=None)
def test_replica_group_sizes_match_specs(system):
    apps, plan = system
    hardened = harden(apps, plan)
    for primary, spec in plan.items():
        if spec.is_replicated:
            group = hardened.replica_groups[primary]
            assert len(group) == spec.replicas
            passives = [n for n in group if hardened.is_passive(n)]
            assert len(passives) == spec.passive_replicas
            assert primary in group
            assert hardened.voters[primary] in hardened.applications.graph("g")
        else:
            assert primary not in hardened.replica_groups


@given(systems_with_plans())
@settings(max_examples=60, deadline=None)
def test_trigger_set_matches_plan(system):
    apps, plan = system
    hardened = harden(apps, plan)
    expected = {
        name for name, spec in plan.items() if spec.triggers_critical_state
    }
    assert {t.primary for t in hardened.triggers()} == expected


@given(systems_with_plans())
@settings(max_examples=60, deadline=None)
def test_critical_wcet_dominates_nominal(system):
    apps, plan = system
    hardened = harden(apps, plan)
    for task in hardened.applications.all_tasks:
        nominal_bcet, nominal_wcet = hardened.nominal_bounds(task.name)
        assert nominal_bcet <= nominal_wcet
        assert hardened.critical_wcet(task.name) >= nominal_wcet - 1e-9
        assert hardened.critical_inflation(task.name) >= 1.0 - 1e-12


@given(systems_with_plans())
@settings(max_examples=60, deadline=None)
def test_provenance_is_complete(system):
    apps, plan = system
    hardened = harden(apps, plan)
    for task in hardened.applications.all_tasks:
        primary = hardened.derived_to_primary[task.name]
        assert primary in apps.all_task_names
        if task.role is TaskRole.PRIMARY:
            assert primary == task.name


@given(systems_with_plans())
@settings(max_examples=60, deadline=None)
def test_external_interface_preserved(system):
    """Hardening must not change what the graph consumes and produces."""
    apps, plan = system
    hardened = harden(apps, plan)
    graph = hardened.applications.graph("g")
    source_graph = apps.graph("g")
    # Every original task still exists (re-exec/checkpoint keep it; for
    # replication the primary stays as copy 0).
    for name in source_graph.task_names:
        assert name in graph
