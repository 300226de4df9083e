"""Reference reliability computation over the hardened system ``T'``.

This is the computation :mod:`repro.reliability` made before it stopped
building ``T'``: each primary task's copies are read from
``HardenedSystem.replica_groups``.  The direct functions must agree with
it exactly (``==``).
"""

from typing import List, Tuple

from repro.hardening.transform import HardenedSystem
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.reliability.analysis import task_unsafe_probability


def reference_failure_rate(
    hardened: HardenedSystem,
    graph_name: str,
    mapping: Mapping,
    architecture: Architecture,
) -> float:
    """Expected unsafe executions per unit time of one application."""
    source_graph = hardened.source.graph(graph_name)
    safe = 1.0
    for task in source_graph.tasks:
        spec = hardened.plan.spec_of(task.name)
        copy_names = hardened.replica_groups.get(task.name, (task.name,))
        processors = [architecture.processor(mapping[name]) for name in copy_names]
        safe *= 1.0 - task_unsafe_probability(task, spec, processors)
    return (1.0 - safe) / source_graph.period


def reference_violations(
    hardened: HardenedSystem, mapping: Mapping, architecture: Architecture
) -> List[Tuple[str, float, float]]:
    """``(graph, failure rate, target)`` of every violated constraint."""
    violations = []
    for graph in hardened.source.critical_graphs:
        rate = reference_failure_rate(hardened, graph.name, mapping, architecture)
        if rate > graph.reliability_target:
            violations.append((graph.name, rate, graph.reliability_target))
    return violations
