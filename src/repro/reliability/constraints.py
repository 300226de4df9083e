"""Reliability-constraint checking and hardening sizing.

The DSE repair heuristic (paper §4) escalates hardening on tasks of an
application until the application's reliability constraint ``f_t`` is met;
the helpers here compute how much hardening a single task needs and provide
a deterministic escalation ladder.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import AnalysisError
from repro.hardening.spec import HardeningKind, HardeningPlan, HardeningSpec
from repro.model.application import ApplicationSet
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.reliability.analysis import graph_failure_rate

#: Upper bound on re-execution depth considered by the sizing helpers.
MAX_REEXECUTIONS = 8
#: Upper bound on replica count considered by the sizing helpers.
MAX_REPLICAS = 7


@dataclass(frozen=True)
class ReliabilityViolation:
    """A non-droppable application exceeding its reliability constraint."""

    graph: str
    failure_rate: float
    target: float

    def __str__(self) -> str:
        return (
            f"application {self.graph!r}: failure rate {self.failure_rate:.3e} "
            f"exceeds target {self.target:.3e}"
        )


def check_reliability(
    applications: ApplicationSet,
    plan: HardeningPlan,
    mapping: Mapping,
    architecture: Architecture,
) -> List[ReliabilityViolation]:
    """All reliability violations of a design point (empty when feasible).

    ``applications`` is the source set ``T`` and ``mapping`` covers the
    copies that ``plan`` implies; the hardened ``T'`` is not needed.
    """
    violations: List[ReliabilityViolation] = []
    for graph in applications.critical_graphs:
        rate = graph_failure_rate(
            applications, plan, graph.name, mapping, architecture
        )
        if rate > graph.reliability_target:
            violations.append(
                ReliabilityViolation(
                    graph=graph.name,
                    failure_rate=rate,
                    target=graph.reliability_target,
                )
            )
    return violations


def minimal_reexecutions(per_execution_fault: float, unsafe_budget: float) -> Optional[int]:
    """Smallest ``k`` with ``q^(k+1) <= budget``, or ``None`` if none ``<= MAX``.

    ``q`` is the per-execution fault probability (detection overhead
    included); a fault-free task (``q == 0``) needs no re-execution at all,
    in which case 0 is returned.
    """
    if not 0 <= per_execution_fault <= 1:
        raise AnalysisError(
            f"fault probability must lie in [0, 1], got {per_execution_fault}"
        )
    if unsafe_budget <= 0:
        return None
    if per_execution_fault == 0 or per_execution_fault <= unsafe_budget:
        return 0
    if per_execution_fault >= 1:
        return None
    # q^(k+1) <= b  <=>  k + 1 >= log(b) / log(q)   (log(q) < 0)
    needed = math.ceil(math.log(unsafe_budget) / math.log(per_execution_fault)) - 1
    needed = max(needed, 0)
    # Guard against floating-point edge cases around the ceiling.
    while per_execution_fault ** (needed + 1) > unsafe_budget:
        needed += 1
    return needed if needed <= MAX_REEXECUTIONS else None


def minimal_replicas(per_copy_fault: float, unsafe_budget: float) -> Optional[int]:
    """Smallest replica count whose majority-failure probability meets budget.

    Assumes all copies share the fault probability ``per_copy_fault`` (the
    homogeneous case; heterogeneous platforms are re-checked exactly by
    :func:`repro.reliability.analysis.task_unsafe_probability`).  Returns
    ``None`` when no count up to :data:`MAX_REPLICAS` suffices.
    """
    from repro.reliability.analysis import _majority_failure_probability

    if unsafe_budget <= 0:
        return None
    for count in range(2, MAX_REPLICAS + 1):
        unsafe = _majority_failure_probability([per_copy_fault] * count)
        if unsafe <= unsafe_budget:
            return count
    return None


def strengthen_spec(spec: HardeningSpec) -> Optional[HardeningSpec]:
    """One step up the hardening ladder, or ``None`` at the top.

    The ladder trades time first (deeper re-execution), then space
    (more replicas):

    ``NONE -> re-exec(1) -> re-exec(2) -> active(3) -> passive(4, 2 active)
    -> active(5) -> None``

    Replication specs escalate by adding copies of the same kind.
    """
    if spec.kind is HardeningKind.NONE:
        return HardeningSpec.reexecution(1)
    if spec.kind is HardeningKind.REEXECUTION:
        if spec.reexecutions < 2:
            return HardeningSpec.reexecution(spec.reexecutions + 1)
        return HardeningSpec.active(3)
    if spec.kind is HardeningKind.ACTIVE:
        if spec.replicas == 3:
            return HardeningSpec.passive(4, active=2)
        if spec.replicas + 2 <= MAX_REPLICAS:
            return HardeningSpec.active(spec.replicas + 2)
        return None
    if spec.kind is HardeningKind.PASSIVE:
        if spec.replicas == 4:
            return HardeningSpec.active(5)
        if spec.replicas + 1 <= MAX_REPLICAS:
            return HardeningSpec.passive(spec.replicas + 1, active=spec.effective_active_replicas)
        return None
    if spec.kind is HardeningKind.CHECKPOINT:
        if spec.reexecutions < MAX_REEXECUTIONS:
            return HardeningSpec.checkpointing(
                spec.reexecutions + 1, segments=spec.checkpoints
            )
        return HardeningSpec.active(3)
    raise AnalysisError(f"unknown hardening kind {spec.kind!r}")
