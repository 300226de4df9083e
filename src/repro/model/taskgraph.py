"""Periodic task graphs with mixed criticality (paper §2.1).

A task graph ``t = (V_t, E_t, pr_t, f_t, sv_t)`` is a DAG of tasks released
every ``pr_t`` time units.  *Non-droppable* graphs carry a reliability
constraint ``f_t in (0, 1]`` — the maximum allowed unsafe executions per
unit time — and an infinite service value.  *Droppable* graphs carry a
finite service value ``sv_t`` (their contribution to the quality of service
when they are not dropped) and no reliability constraint; the paper encodes
this as ``f_t = -1``, here it is ``reliability_target=None``.
"""

import enum
import heapq
import math
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ModelError
from repro.model.task import Channel, Task, require_finite


class Criticality(enum.Enum):
    """Criticality level of a task graph, derived from its droppability."""

    #: Non-droppable: must stay schedulable even under faults.
    HIGH = "high"
    #: Droppable: may be dropped by the scheduler in the critical state.
    LOW = "low"


class TaskGraph:
    """An immutable periodic task graph.

    Parameters
    ----------
    name:
        Unique application identifier.
    tasks:
        The task set ``V_t``.
    channels:
        The channel set ``E_t``; endpoints must name tasks from ``tasks``
        and the induced directed graph must be acyclic.
    period:
        Invocation period ``pr_t`` (an instance is released every
        ``period`` time units).
    deadline:
        Relative deadline of each instance; defaults to ``period``.
    reliability_target:
        ``f_t`` — maximum allowed unsafe executions per unit time.  ``None``
        marks the graph as droppable (the paper writes ``f_t = -1``).
    service_value:
        ``sv_t`` — relative importance of the graph's service.  Must be a
        finite positive number for droppable graphs; forced to ``math.inf``
        for non-droppable graphs (they may never be dropped).
    """

    def __init__(
        self,
        name: str,
        tasks: Iterable[Task],
        channels: Iterable[Channel],
        period: float,
        deadline: Optional[float] = None,
        reliability_target: Optional[float] = None,
        service_value: Optional[float] = None,
    ):
        if not name:
            raise ModelError("task graph name must be a non-empty string")
        require_finite(
            f"graph {name!r}",
            period=period,
            deadline=period if deadline is None else deadline,
        )
        if period <= 0:
            raise ModelError(f"graph {name!r}: period must be positive, got {period}")
        self._name = name
        self._period = float(period)
        self._deadline = float(period if deadline is None else deadline)
        if self._deadline <= 0:
            raise ModelError(f"graph {name!r}: deadline must be positive")

        self._tasks: Dict[str, Task] = {}
        for task in tasks:
            if task.name in self._tasks:
                raise ModelError(f"graph {name!r}: duplicate task {task.name!r}")
            self._tasks[task.name] = task
        if not self._tasks:
            raise ModelError(f"graph {name!r}: must contain at least one task")

        self._channels: Dict[Tuple[str, str], Channel] = {}
        preds: Dict[str, List[str]] = {task: [] for task in self._tasks}
        succs: Dict[str, List[str]] = {task: [] for task in self._tasks}
        for channel in channels:
            for endpoint in (channel.src, channel.dst):
                if endpoint not in self._tasks:
                    raise ModelError(
                        f"graph {name!r}: channel references unknown task {endpoint!r}"
                    )
            if channel.key in self._channels:
                raise ModelError(
                    f"graph {name!r}: duplicate channel {channel.src!r} -> {channel.dst!r}"
                )
            self._channels[channel.key] = channel
            preds[channel.dst].append(channel.src)
            succs[channel.src].append(channel.dst)
        #: Direct predecessors / successors of every task, sorted by name.
        self._preds = {task: tuple(sorted(names)) for task, names in preds.items()}
        self._succs = {task: tuple(sorted(names)) for task, names in succs.items()}
        self._topo: Tuple[str, ...] = self._lexicographic_order()

        if reliability_target is not None:
            if not 0 < reliability_target <= 1:
                raise ModelError(
                    f"graph {name!r}: reliability target must lie in (0, 1], "
                    f"got {reliability_target}"
                )
            if service_value is not None and math.isfinite(service_value):
                raise ModelError(
                    f"graph {name!r}: non-droppable graphs cannot carry a finite "
                    f"service value"
                )
            self._reliability_target: Optional[float] = float(reliability_target)
            self._service_value = math.inf
        else:
            if service_value is None or not math.isfinite(service_value):
                raise ModelError(
                    f"graph {name!r}: droppable graphs (no reliability target) "
                    f"require a finite service value"
                )
            if service_value < 0:
                raise ModelError(f"graph {name!r}: service value must be >= 0")
            self._reliability_target = None
            self._service_value = float(service_value)

        #: Longest-predecessor-chain lengths, computed on first use.
        self._depths: Optional[Dict[str, int]] = None

    def _lexicographic_order(self) -> Tuple[str, ...]:
        """Kahn's algorithm, always emitting the smallest ready name.

        Raises :class:`~repro.errors.ModelError` naming a cycle when some
        task never becomes ready.
        """
        waiting = {task: len(preds) for task, preds in self._preds.items()}
        ready = [task for task, count in waiting.items() if count == 0]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            task = heapq.heappop(ready)
            order.append(task)
            for successor in self._succs[task]:
                waiting[successor] -= 1
                if waiting[successor] == 0:
                    heapq.heappush(ready, successor)
        if len(order) < len(waiting):
            raise ModelError(
                f"graph {self._name!r}: contains a cycle {self._find_cycle(waiting)}"
            )
        return tuple(order)

    def _find_cycle(self, waiting: Dict[str, int]) -> List[Tuple[str, str]]:
        """Edges of one cycle among the tasks Kahn's algorithm left over.

        Every left-over task has a left-over predecessor, so walking
        predecessors from any of them must revisit a task.
        """
        task = next(t for t, count in waiting.items() if count)
        path: List[str] = []
        seen: Dict[str, int] = {}
        while task not in seen:
            seen[task] = len(path)
            path.append(task)
            task = next(p for p in self._preds[task] if waiting[p])
        loop = path[seen[task]:][::-1]
        return [(src, dst) for src, dst in zip(loop, loop[1:] + loop[:1])]

    # ------------------------------------------------------------------
    # Identity and scalar attributes
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Application identifier."""
        return self._name

    @property
    def period(self) -> float:
        """Invocation period ``pr_t``."""
        return self._period

    @property
    def deadline(self) -> float:
        """Relative deadline of every instance."""
        return self._deadline

    @property
    def reliability_target(self) -> Optional[float]:
        """``f_t`` for non-droppable graphs, ``None`` for droppable ones."""
        return self._reliability_target

    @property
    def service_value(self) -> float:
        """``sv_t``; ``math.inf`` for non-droppable graphs."""
        return self._service_value

    @property
    def droppable(self) -> bool:
        """Whether the scheduler may drop this graph in the critical state."""
        return self._reliability_target is None

    @property
    def criticality(self) -> Criticality:
        """Criticality level derived from droppability."""
        return Criticality.LOW if self.droppable else Criticality.HIGH

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------

    @property
    def tasks(self) -> Tuple[Task, ...]:
        """All tasks, in deterministic (topological) order."""
        return tuple(self._tasks[name] for name in self._topo)

    @property
    def task_names(self) -> Tuple[str, ...]:
        """Task names in topological order."""
        return self._topo

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """All channels, in deterministic order."""
        return tuple(self._channels[key] for key in sorted(self._channels))

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_name: str) -> bool:
        return task_name in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def task(self, name: str) -> Task:
        """Look up a task by name."""
        try:
            return self._tasks[name]
        except KeyError:
            raise ModelError(f"graph {self._name!r}: no task named {name!r}") from None

    def channel(self, src: str, dst: str) -> Channel:
        """Look up a channel by its endpoints."""
        try:
            return self._channels[(src, dst)]
        except KeyError:
            raise ModelError(
                f"graph {self._name!r}: no channel {src!r} -> {dst!r}"
            ) from None

    def predecessors(self, task_name: str) -> List[str]:
        """Direct predecessors of a task, sorted by name."""
        self.task(task_name)
        return list(self._preds[task_name])

    def successors(self, task_name: str) -> List[str]:
        """Direct successors of a task, sorted by name."""
        self.task(task_name)
        return list(self._succs[task_name])

    def in_channels(self, task_name: str) -> List[Channel]:
        """Channels entering a task."""
        return [self._channels[(p, task_name)] for p in self.predecessors(task_name)]

    @property
    def sources(self) -> List[str]:
        """Tasks without predecessors."""
        return sorted(n for n, preds in self._preds.items() if not preds)

    @property
    def sinks(self) -> List[str]:
        """Tasks without successors."""
        return sorted(n for n, succs in self._succs.items() if not succs)

    def topological_order(self) -> Tuple[str, ...]:
        """Deterministic topological ordering of the task names."""
        return self._topo

    def depth(self, task_name: str) -> int:
        """Length of the longest predecessor chain ending at the task."""
        self.task(task_name)
        if self._depths is None:
            depths: Dict[str, int] = {}
            for name in self._topo:
                depths[name] = 1 + max(
                    (depths[p] for p in self._preds[name]), default=-1
                )
            self._depths = depths
        return self._depths[task_name]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def total_wcet(self) -> float:
        """Sum of worst-case execution times over all tasks."""
        return sum(task.wcet for task in self._tasks.values())

    def critical_path_wcet(self) -> float:
        """Longest path through the graph weighted by task WCETs.

        This is a lower bound on the makespan of one instance on any number
        of processors (ignoring communication).
        """
        finish: Dict[str, float] = {}
        for name in self._topo:
            start = max((finish[p] for p in self._preds[name]), default=0.0)
            finish[name] = start + self._tasks[name].wcet
        return max(finish.values())

    def utilization(self) -> float:
        """WCET utilization of one instance, ``total_wcet / period``."""
        return self.total_wcet() / self._period

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def derive(
        self,
        tasks: Optional[Iterable[Task]] = None,
        channels: Optional[Iterable[Channel]] = None,
        name: Optional[str] = None,
    ) -> "TaskGraph":
        """Return a new graph sharing this graph's scalar attributes.

        Used by hardening transformations to rebuild the topology while
        keeping period, deadline, criticality and service value.
        """
        return TaskGraph(
            name=self._name if name is None else name,
            tasks=self.tasks if tasks is None else tasks,
            channels=self.channels if channels is None else channels,
            period=self._period,
            deadline=self._deadline,
            reliability_target=self._reliability_target,
            service_value=None if self._reliability_target is not None else self._service_value,
        )

    def __repr__(self) -> str:
        kind = "droppable" if self.droppable else "non-droppable"
        return (
            f"TaskGraph({self._name!r}, |V|={len(self._tasks)}, "
            f"|E|={len(self._channels)}, period={self._period}, {kind})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TaskGraph):
            return NotImplemented
        return (
            self._name == other._name
            and self._period == other._period
            and self._deadline == other._deadline
            and self._reliability_target == other._reliability_target
            and self._service_value == other._service_value
            and self._tasks == other._tasks
            and self._channels == other._channels
        )

    def __hash__(self) -> int:
        return hash((self._name, self._period, len(self._tasks), len(self._channels)))
