"""Unsafe-execution probability of hardened tasks and applications.

A task execution is *unsafe* when it delivers a faulty result that the
hardening in place fails to detect or mask:

* unhardened task — any fault is unsafe;
* re-execution (k) — unsafe only if the original execution *and* all ``k``
  re-executions are faulty (detection itself is assumed perfect);
* checkpointing (n segments, k recoveries) — unsafe when more than ``k``
  faults hit one (overhead-inflated) execution, i.e. a Poisson tail;
* replication (n copies) — unsafe when a majority of copies is faulty and
  out-votes the correct ones; with exactly two copies the voter can only
  detect, so unsafe means both copies faulty.

Voters and the fault-detection logic are assumed reliable, which is the
usual assumption in the referenced hardening literature ([2], [3], [6]).
Passive copies are counted like active ones: reliability-wise the schemes
differ only in *when* copies run, not in how many opinions the voter sees.
"""

from itertools import product
from typing import Dict, Sequence

from repro.errors import AnalysisError
from repro.hardening.spec import HardeningKind, HardeningPlan, HardeningSpec
from repro.hardening.transform import copy_names
from repro.model.application import ApplicationSet
from repro.model.architecture import Architecture, Processor
from repro.model.mapping import Mapping
from repro.model.task import Task
from repro.reliability.faults import execution_fault_probability, poisson_fault_count


def task_unsafe_probability(
    task: Task,
    spec: HardeningSpec,
    copy_processors: Sequence[Processor],
) -> float:
    """Probability that one instance of the task ends unsafely.

    ``copy_processors`` lists the processor of each copy of the task —
    a single processor for unhardened and re-executed tasks, ``replicas``
    processors for replicated ones (primary first).
    """
    expected = spec.replicas if spec.is_replicated else 1
    if len(copy_processors) != expected:
        raise AnalysisError(
            f"task {task.name!r}: expected {expected} copy processor(s), "
            f"got {len(copy_processors)}"
        )

    if spec.kind is HardeningKind.NONE:
        processor = copy_processors[0]
        return execution_fault_probability(
            processor.fault_rate, processor.scale_time(task.wcet)
        )

    if spec.kind is HardeningKind.REEXECUTION:
        processor = copy_processors[0]
        duration = processor.scale_time(task.wcet + task.detection_overhead)
        per_execution = execution_fault_probability(processor.fault_rate, duration)
        return per_execution ** (spec.reexecutions + 1)

    if spec.kind is HardeningKind.CHECKPOINT:
        # Unsafe when more faults strike than recoveries are budgeted:
        # P[#faults > k] over the (overhead-inflated) execution.
        processor = copy_processors[0]
        duration = processor.scale_time(
            task.wcet + spec.checkpoints * task.detection_overhead
        )
        covered = sum(
            poisson_fault_count(processor.fault_rate, duration, i)
            for i in range(spec.reexecutions + 1)
        )
        return max(0.0, 1.0 - covered)

    # Replication: enumerate fault patterns over the (few) copies.
    probabilities = [
        execution_fault_probability(p.fault_rate, p.scale_time(task.wcet))
        for p in copy_processors
    ]
    return _majority_failure_probability(probabilities)


def _majority_failure_probability(fault_probabilities: Sequence[float]) -> float:
    """Probability that faulty copies reach a majority among ``n`` copies.

    With ``n = 2`` a mismatch is detectable but not correctable, so the
    unsafe case degenerates to *both* copies faulty.
    """
    n = len(fault_probabilities)
    threshold = n if n == 2 else n // 2 + 1
    unsafe = 0.0
    for pattern in product((False, True), repeat=n):
        faulty = sum(pattern)
        if faulty < threshold:
            continue
        probability = 1.0
        for is_faulty, q in zip(pattern, fault_probabilities):
            probability *= q if is_faulty else (1.0 - q)
        unsafe += probability
    return unsafe


def graph_unsafe_probability(
    applications: ApplicationSet,
    plan: HardeningPlan,
    graph_name: str,
    mapping: Mapping,
    architecture: Architecture,
) -> float:
    """Probability that one instance of an application ends unsafely.

    Task faults are independent, so the instance is safe only if every
    primary task's (hardened) execution is safe.  Only each task's spec
    and the processors of its copies matter, so the hardened system
    ``T'`` is never built: copies are located through the naming scheme
    of :func:`~repro.hardening.transform.copy_names`.
    """
    safe = 1.0
    for task in applications.graph(graph_name).tasks:
        spec = plan.spec_of(task.name)
        processors = [
            architecture.processor(mapping[name])
            for name in copy_names(task.name, spec)
        ]
        safe *= 1.0 - task_unsafe_probability(task, spec, processors)
    return 1.0 - safe


def graph_failure_rate(
    applications: ApplicationSet,
    plan: HardeningPlan,
    graph_name: str,
    mapping: Mapping,
    architecture: Architecture,
) -> float:
    """Expected unsafe executions per unit time (to compare against ``f_t``)."""
    probability = graph_unsafe_probability(
        applications, plan, graph_name, mapping, architecture
    )
    return probability / applications.graph(graph_name).period


def per_task_unsafe_budget(graph_task_count: int, reliability_target: float, period: float) -> float:
    """Equal-share per-task unsafe-probability budget for a graph.

    The graph meets ``f_t`` if every one of its ``n`` tasks keeps its
    per-instance unsafe probability below ``f_t * period / n`` (union
    bound).  Used by the repair heuristics to size hardening locally.
    """
    if graph_task_count <= 0:
        raise AnalysisError("graph task count must be positive")
    return reliability_target * period / graph_task_count


def system_reliability_report(
    applications: ApplicationSet,
    plan: HardeningPlan,
    mapping: Mapping,
    architecture: Architecture,
) -> Dict[str, Dict[str, float]]:
    """Per-application reliability summary.

    Returns ``{graph: {unsafe_probability, failure_rate, target, satisfied}}``
    for every non-droppable application (droppable graphs carry no target).
    """
    report: Dict[str, Dict[str, float]] = {}
    for graph in applications.critical_graphs:
        probability = graph_unsafe_probability(
            applications, plan, graph.name, mapping, architecture
        )
        rate = probability / graph.period
        target = graph.reliability_target
        report[graph.name] = {
            "unsafe_probability": probability,
            "failure_rate": rate,
            "target": target,
            "satisfied": rate <= target,
        }
    return report
