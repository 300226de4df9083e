"""Application of a hardening plan: ``T -> T'`` (paper §2.2, Figure 2).

Replication modifies the task-graph topology: the hardened task is copied,
the copies feed a majority voter, and the voter takes over the task's
outgoing channels.  Passive copies additionally receive *on-demand* trigger
edges from every active copy — they can only start once the active copies
have finished and the voter has requested them — which keeps the graph a
DAG while preserving the sequential detect-then-reexecute semantics of
Figure 2(b).

Re-execution leaves the topology unchanged; its timing effect (Eq. (1)) is
applied by the analyses via :mod:`repro.hardening.reexecution`.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.errors import HardeningError
from repro.hardening.reexecution import critical_wcet as _critical_wcet
from repro.hardening.reexecution import nominal_bounds as _nominal_bounds
from repro.hardening.reexecution import recovery_bounds as _recovery_bounds
from repro.hardening.spec import HardeningKind, HardeningPlan, HardeningSpec
from repro.model.application import ApplicationSet
from repro.model.task import Channel, Task, TaskRole
from repro.model.taskgraph import TaskGraph

#: Separator used in generated replica/voter names.  Primary task names may
#: not contain it, which keeps generated names collision-free.
NAME_SEPARATOR = "#"


def copy_names(primary: str, spec: HardeningSpec) -> Tuple[str, ...]:
    """Names of a task's copies in ``T'``: the primary first, then the
    active replicas ``#r1..``, then the passive copies ``#p0..``.

    A task that is not replicated has one copy, itself.
    """
    if not spec.is_replicated:
        return (primary,)
    active = spec.effective_active_replicas
    return (
        (primary,)
        + tuple(f"{primary}{NAME_SEPARATOR}r{i}" for i in range(1, active))
        + tuple(f"{primary}{NAME_SEPARATOR}p{j}" for j in range(spec.passive_replicas))
    )


def voter_name(primary: str) -> str:
    """Name of the majority voter of a replicated task."""
    return f"{primary}{NAME_SEPARATOR}vote"


@dataclass(frozen=True)
class CriticalTrigger:
    """A task whose first fault switches the system to the critical state.

    Per paper §3 the trigger set consists of the re-executable and the
    passively replicated tasks.  ``start_anchors`` are the tasks whose
    earliest start bounds the first moment a fault can occur
    (``minStart_v`` in Algorithm 1); ``finish_anchor`` is the task whose
    latest normal-state finish bounds the moment from which droppable tasks
    have certainly disappeared (``maxFinish_v``).
    """

    primary: str
    kind: HardeningKind
    start_anchors: Tuple[str, ...]
    finish_anchor: str


@dataclass(frozen=True)
class HardenedSystem:
    """The result of applying a hardening plan.

    Attributes
    ----------
    applications:
        The transformed application set ``T'``.
    source:
        The original application set ``T``.
    plan:
        The plan that was applied.
    replica_groups:
        For each replicated primary task: all copy names, primary first,
        then active replicas, then passive copies.
    voters:
        For each replicated primary task: the voter task name.
    passive_tasks:
        Names of all passive (on-demand) copies in ``T'``.
    reexec_counts:
        ``task -> k`` for every re-executable task.
    time_redundancy:
        ``task -> spec`` for every time-redundant task (re-execution and
        checkpointing alike).
    derived_to_primary:
        Maps every task of ``T'`` to the primary task it descends from
        (primary tasks map to themselves).
    """

    applications: ApplicationSet
    source: ApplicationSet
    plan: HardeningPlan
    replica_groups: Dict[str, Tuple[str, ...]]
    voters: Dict[str, str]
    passive_tasks: FrozenSet[str]
    reexec_counts: Dict[str, int]
    time_redundancy: Dict[str, HardeningSpec]
    derived_to_primary: Dict[str, str]

    def spec_of(self, task_name: str) -> HardeningSpec:
        """Hardening spec of the primary task a ``T'`` task descends from."""
        return self.plan.spec_of(self.derived_to_primary.get(task_name, task_name))

    def is_passive(self, task_name: str) -> bool:
        """Whether a ``T'`` task is an on-demand (passive) copy."""
        return task_name in self.passive_tasks

    def is_time_redundant(self, task_name: str) -> bool:
        """Whether a ``T'`` task recovers via re-execution or checkpointing."""
        return task_name in self.time_redundancy

    def critical_inflation(self, task_name: str) -> float:
        """``critical_wcet / nominal_wcet`` of a time-redundant task.

        1.0 for everything else; processor speed scaling cancels in the
        ratio, so the analyses can inflate scaled job WCETs directly.
        """
        if task_name not in self.time_redundancy:
            return 1.0
        nominal = self.nominal_bounds(task_name)[1]
        if nominal <= 0:
            return 1.0
        return self.critical_wcet(task_name) / nominal

    def recovery_bounds(self, task_name: str) -> Tuple[float, float]:
        """``[bcet, wcet]`` of one fault recovery of a time-redundant task."""
        task = self.applications.task(task_name)
        return _recovery_bounds(task, self.time_redundancy[task_name])

    def nominal_bounds(self, task_name: str) -> Tuple[float, float]:
        """Fault-free ``[bcet, wcet]`` of a ``T'`` task.

        Includes the per-execution detection overhead of re-executable
        tasks; does *not* zero out passive copies — that is Algorithm 1's
        explicit preprocessing step (lines 2–6).
        """
        task = self.applications.task(task_name)
        return _nominal_bounds(task, self._timing_spec(task_name))

    def critical_wcet(self, task_name: str) -> float:
        """Critical-state worst case of a ``T'`` task (Eq. (1) if re-executed)."""
        task = self.applications.task(task_name)
        return _critical_wcet(task, self._timing_spec(task_name))

    def _timing_spec(self, task_name: str) -> HardeningSpec:
        return self.time_redundancy.get(task_name, HardeningSpec.none())

    def triggers(self) -> List[CriticalTrigger]:
        """All tasks that may switch the system to the critical state.

        For a re-executable task the anchors are the task itself: the
        fault is detected at the end of its nominal execution.  For a
        passively replicated task the fault may occur as early as the
        earliest active copy starts, and the transition is complete once
        the voter has finished (it is the voter that detects the mismatch
        and requests the passive copy).
        """
        triggers: List[CriticalTrigger] = []
        for task_name in sorted(self.time_redundancy):
            triggers.append(
                CriticalTrigger(
                    primary=task_name,
                    kind=self.time_redundancy[task_name].kind,
                    start_anchors=(task_name,),
                    finish_anchor=task_name,
                )
            )
        for primary, spec in self.plan.items():
            if spec.kind is not HardeningKind.PASSIVE:
                continue
            group = self.replica_groups[primary]
            active = tuple(
                name for name in group if name not in self.passive_tasks
            )
            triggers.append(
                CriticalTrigger(
                    primary=primary,
                    kind=HardeningKind.PASSIVE,
                    start_anchors=active,
                    finish_anchor=self.voters[primary],
                )
            )
        return triggers


def harden(applications: ApplicationSet, plan: HardeningPlan) -> HardenedSystem:
    """Apply a hardening plan to an application set.

    Raises :class:`~repro.errors.HardeningError` if the plan names unknown
    tasks, targets non-primary tasks, or a task name contains the reserved
    separator ``#``.
    """
    known = set(applications.all_task_names)
    for task_name, _spec in plan.items():
        if task_name not in known:
            raise HardeningError(f"hardening plan names unknown task {task_name!r}")

    replica_groups: Dict[str, Tuple[str, ...]] = {}
    voters: Dict[str, str] = {}
    passive_tasks: List[str] = []
    reexec_counts: Dict[str, int] = {}
    time_redundancy: Dict[str, HardeningSpec] = {}
    derived_to_primary: Dict[str, str] = {}

    new_graphs: List[TaskGraph] = []
    for graph in applications.graphs:
        new_graphs.append(
            _harden_graph(
                graph,
                plan,
                replica_groups,
                voters,
                passive_tasks,
                reexec_counts,
                time_redundancy,
                derived_to_primary,
            )
        )

    return HardenedSystem(
        applications=ApplicationSet(new_graphs),
        source=applications,
        plan=plan,
        replica_groups=replica_groups,
        voters=voters,
        passive_tasks=frozenset(passive_tasks),
        reexec_counts=reexec_counts,
        time_redundancy=time_redundancy,
        derived_to_primary=derived_to_primary,
    )


def _harden_graph(
    graph: TaskGraph,
    plan: HardeningPlan,
    replica_groups: Dict[str, Tuple[str, ...]],
    voters: Dict[str, str],
    passive_tasks: List[str],
    reexec_counts: Dict[str, int],
    time_redundancy: Dict[str, HardeningSpec],
    derived_to_primary: Dict[str, str],
) -> TaskGraph:
    """Transform one task graph according to the plan."""
    tasks: List[Task] = []
    channels: List[Channel] = []
    # The task from which successors of each original task now receive data.
    out_port: Dict[str, str] = {}
    # The copies of each original task that receive its incoming channels,
    # paired with the on-demand flag of the receiving copy.
    receivers: Dict[str, List[Tuple[str, bool]]] = {}

    for task in graph.tasks:
        if task.role is not TaskRole.PRIMARY:
            raise HardeningError(
                f"graph {graph.name!r}: task {task.name!r} is already derived "
                f"({task.role.value}); hardening applies to primary graphs only"
            )
        if NAME_SEPARATOR in task.name:
            raise HardeningError(
                f"task name {task.name!r} contains the reserved separator "
                f"{NAME_SEPARATOR!r}"
            )
        spec = plan.spec_of(task.name)
        derived_to_primary[task.name] = task.name

        if spec.is_time_redundant:
            if spec.kind is HardeningKind.REEXECUTION:
                reexec_counts[task.name] = spec.reexecutions
            time_redundancy[task.name] = spec
            tasks.append(task)
            out_port[task.name] = task.name
            receivers[task.name] = [(task.name, False)]
        elif spec.is_replicated:
            group, voter, group_channels, group_passive = _replicate(task, spec)
            tasks.extend(group)
            tasks.append(voter)
            channels.extend(group_channels)
            passive_tasks.extend(group_passive)
            for copy in group:
                derived_to_primary[copy.name] = task.name
            derived_to_primary[voter.name] = task.name
            replica_groups[task.name] = tuple(copy.name for copy in group)
            voters[task.name] = voter.name
            out_port[task.name] = voter.name
            passive_set = set(group_passive)
            receivers[task.name] = [
                (copy.name, copy.name in passive_set) for copy in group
            ]
        else:
            tasks.append(task)
            out_port[task.name] = task.name
            receivers[task.name] = [(task.name, False)]

    for channel in graph.channels:
        source = out_port[channel.src]
        for receiver, on_demand in receivers[channel.dst]:
            channels.append(
                Channel(
                    src=source,
                    dst=receiver,
                    size=channel.size,
                    on_demand=on_demand or channel.on_demand,
                )
            )

    return graph.derive(tasks=tasks, channels=channels)


def _replicate(
    task: Task, spec: HardeningSpec
) -> Tuple[List[Task], Task, List[Channel], List[str]]:
    """Build the copies, voter and internal channels for one task."""
    names = copy_names(task.name, spec)
    active_names = list(names[: spec.effective_active_replicas])
    passive_names = list(names[spec.effective_active_replicas:])
    # Primary keeps its name and acts as copy 0.
    copies: List[Task] = [task]
    for index, name in enumerate(names[1:], start=1):
        copies.append(
            Task(
                name=name,
                bcet=task.bcet,
                wcet=task.wcet,
                voting_overhead=task.voting_overhead,
                detection_overhead=task.detection_overhead,
                role=TaskRole.REPLICA,
                origin=task.name,
                replica_index=index,
            )
        )

    voter = Task(
        name=voter_name(task.name),
        bcet=task.voting_overhead,
        wcet=task.voting_overhead,
        role=TaskRole.VOTER,
        origin=task.name,
    )

    channels: List[Channel] = []
    for copy in copies:
        channels.append(
            Channel(
                src=copy.name,
                dst=voter.name,
                size=0.0,
                on_demand=copy.name in passive_names,
            )
        )
    # Passive copies start only after every active copy finished (the voter
    # then has the information to request them): on-demand trigger edges.
    for passive in passive_names:
        for active in active_names:
            channels.append(
                Channel(src=active, dst=passive, size=0.0, on_demand=True)
            )
    return copies, voter, channels, passive_names
