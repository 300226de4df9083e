"""Task-to-processor mapping ``map : V -> P`` (paper §2.3)."""

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping as TMapping, Optional, Tuple

from repro.errors import MappingError
from repro.model.application import ApplicationSet
from repro.model.architecture import Architecture


class Mapping:
    """An immutable assignment of tasks to processors.

    A mapping is a plain ``task name -> processor name`` association.  Use
    :meth:`validate` to check it against an application set, an architecture
    and (optionally) the allocated-processor set of a design point.
    """

    def __init__(self, assignment: TMapping[str, str]):
        self._assignment: Dict[str, str] = dict(assignment)
        for task, processor in self._assignment.items():
            if not task or not processor:
                raise MappingError(
                    f"mapping entries must be non-empty names, got "
                    f"{task!r} -> {processor!r}"
                )

    # ------------------------------------------------------------------
    # Dictionary-like access
    # ------------------------------------------------------------------

    def __getitem__(self, task_name: str) -> str:
        try:
            return self._assignment[task_name]
        except KeyError:
            raise MappingError(f"no mapping for task {task_name!r}") from None

    def get(self, task_name: str, default: Optional[str] = None) -> Optional[str]:
        """Processor of a task, or ``default`` when unmapped."""
        return self._assignment.get(task_name, default)

    def __contains__(self, task_name: str) -> bool:
        return task_name in self._assignment

    def __len__(self) -> int:
        return len(self._assignment)

    def __iter__(self) -> Iterator[str]:
        return iter(self._assignment)

    def items(self) -> Iterable[Tuple[str, str]]:
        """``(task, processor)`` pairs."""
        return self._assignment.items()

    def as_dict(self) -> Dict[str, str]:
        """A defensive copy of the underlying dictionary."""
        return dict(self._assignment)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def used_processors(self) -> FrozenSet[str]:
        """Processors that host at least one task."""
        return frozenset(self._assignment.values())

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def with_assignment(self, task_name: str, processor_name: str) -> "Mapping":
        """Return a copy with one task reassigned (or newly assigned)."""
        updated = dict(self._assignment)
        updated[task_name] = processor_name
        return Mapping(updated)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(
        self,
        applications: ApplicationSet,
        architecture: Architecture,
        allocated: Optional[Iterable[str]] = None,
    ) -> None:
        """Raise :class:`~repro.errors.MappingError` unless the mapping is
        total over the application's tasks, names only known processors and
        uses only allocated processors.

        Parameters
        ----------
        allocated:
            Processor names switched on by the design point (the allocation
            section of the paper's chromosome).  ``None`` means every
            processor of the architecture is available.
        """
        allocated_set = (
            set(architecture.processor_names) if allocated is None else set(allocated)
        )
        unknown_pes = allocated_set - set(architecture.processor_names)
        if unknown_pes:
            raise MappingError(f"unknown allocated processors: {sorted(unknown_pes)}")

        missing = [
            task.name for task in applications.all_tasks
            if task.name not in self._assignment
        ]
        if missing:
            raise MappingError(f"unmapped tasks: {missing}")

        for task, processor in self._assignment.items():
            if processor not in architecture:
                raise MappingError(
                    f"task {task!r} mapped on unknown processor {processor!r}"
                )
            if processor not in allocated_set:
                raise MappingError(
                    f"task {task!r} mapped on unallocated processor {processor!r}"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        return hash(frozenset(self._assignment.items()))

    def __repr__(self) -> str:
        return f"Mapping({len(self._assignment)} tasks on {len(self.used_processors)} processors)"
