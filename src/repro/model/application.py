"""The application set ``T`` (paper §2.1).

Multiple task graphs with different criticality levels share the MPSoC.
The :class:`ApplicationSet` is the container handed to analyses and to the
design-space exploration; it enforces globally unique task names so that a
mapping can be expressed as a flat ``task name -> processor`` dictionary.
"""

from typing import Dict, FrozenSet, Iterable, Iterator, Tuple

from repro._timing import hyperperiod
from repro.errors import ModelError
from repro.model.task import Task
from repro.model.taskgraph import TaskGraph


class ApplicationSet:
    """An immutable collection of task graphs sharing the platform."""

    def __init__(self, graphs: Iterable[TaskGraph]):
        self._graphs: Dict[str, TaskGraph] = {}
        self._owner: Dict[str, str] = {}
        for graph in graphs:
            if graph.name in self._graphs:
                raise ModelError(f"duplicate task graph {graph.name!r}")
            for task in graph.tasks:
                if task.name in self._owner:
                    raise ModelError(
                        f"task name {task.name!r} appears in graphs "
                        f"{self._owner[task.name]!r} and {graph.name!r}; task "
                        f"names must be globally unique"
                    )
                self._owner[task.name] = graph.name
            self._graphs[graph.name] = graph
        if not self._graphs:
            raise ModelError("application set must contain at least one graph")
        self._order: Tuple[str, ...] = tuple(self._graphs)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def graphs(self) -> Tuple[TaskGraph, ...]:
        """All task graphs, in insertion order."""
        return tuple(self._graphs[name] for name in self._order)

    @property
    def graph_names(self) -> Tuple[str, ...]:
        """Names of all task graphs, in insertion order."""
        return self._order

    def __len__(self) -> int:
        return len(self._graphs)

    def __iter__(self) -> Iterator[TaskGraph]:
        return iter(self.graphs)

    def __contains__(self, graph_name: str) -> bool:
        return graph_name in self._graphs

    def graph(self, name: str) -> TaskGraph:
        """Look up a task graph by name."""
        try:
            return self._graphs[name]
        except KeyError:
            raise ModelError(f"no task graph named {name!r}") from None

    def owner_of(self, task_name: str) -> TaskGraph:
        """Return the graph containing the named task."""
        try:
            return self._graphs[self._owner[task_name]]
        except KeyError:
            raise ModelError(f"no task named {task_name!r} in any graph") from None

    def task(self, task_name: str) -> Task:
        """Look up a task by (globally unique) name."""
        return self.owner_of(task_name).task(task_name)

    @property
    def all_tasks(self) -> Tuple[Task, ...]:
        """Every task of every graph, grouped by graph in insertion order."""
        return tuple(task for graph in self.graphs for task in graph.tasks)

    @property
    def all_task_names(self) -> Tuple[str, ...]:
        """Names of every task of every graph."""
        return tuple(task.name for task in self.all_tasks)

    # ------------------------------------------------------------------
    # Criticality partition
    # ------------------------------------------------------------------

    @property
    def droppable_graphs(self) -> Tuple[TaskGraph, ...]:
        """Graphs the scheduler may drop in the critical state."""
        return tuple(g for g in self.graphs if g.droppable)

    @property
    def critical_graphs(self) -> Tuple[TaskGraph, ...]:
        """Non-droppable graphs (carry reliability constraints)."""
        return tuple(g for g in self.graphs if not g.droppable)

    def service_of(self, dropped: Iterable[str] = ()) -> float:
        """Quality of service after dropping the named graphs (paper §2.3).

        The quality of service is the sum of service values of the *alive*
        droppable graphs.  Dropping a non-droppable graph is a model error.
        """
        dropped_set = self.validate_drop_set(dropped)
        return sum(
            g.service_value
            for g in self.droppable_graphs
            if g.name not in dropped_set
        )

    def validate_drop_set(self, dropped: Iterable[str]) -> FrozenSet[str]:
        """Check a candidate drop set ``T_d`` and return it as a frozenset.

        Every element must name a *droppable* graph of this set (the paper
        requires ``sv_t != inf`` for every ``t in T_d``).
        """
        dropped_set = frozenset(dropped)
        for name in dropped_set:
            graph = self.graph(name)
            if not graph.droppable:
                raise ModelError(
                    f"graph {name!r} is non-droppable and cannot be in the "
                    f"dropped set"
                )
        return dropped_set

    # ------------------------------------------------------------------
    # Timing aggregates
    # ------------------------------------------------------------------

    @property
    def hyperperiod(self) -> float:
        """Least common multiple of all graph periods."""
        return hyperperiod(g.period for g in self.graphs)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def replacing(self, *graphs: TaskGraph) -> "ApplicationSet":
        """Return a new set where the named graphs replace their originals.

        Used by hardening: ``apps.replacing(hardened_graph)`` swaps in the
        transformed topology while leaving other applications untouched.
        """
        replacements = {g.name: g for g in graphs}
        unknown = set(replacements) - set(self._graphs)
        if unknown:
            raise ModelError(f"cannot replace unknown graphs: {sorted(unknown)}")
        return ApplicationSet(
            replacements.get(name, self._graphs[name]) for name in self._order
        )

    def __repr__(self) -> str:
        return (
            f"ApplicationSet({len(self._graphs)} graphs, "
            f"{len(self._owner)} tasks, hyperperiod={self.hyperperiod})"
        )
