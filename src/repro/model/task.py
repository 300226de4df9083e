"""Tasks and channels (paper §2.1).

Each task ``v`` is characterised by ``(bcet_v, wcet_v, ve_v, dt_v)``: its
best/worst-case execution time, the voting overhead ``ve`` incurred by a
voter merging replicas of ``v``, and the detection overhead ``dt`` covering
fault detection, context save/restore and roll-back for re-execution.

Tasks are immutable value objects; hardening transformations produce *new*
tasks (replicas and voters) whose :attr:`Task.role` and :attr:`Task.origin`
record their provenance.
"""

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ModelError


def require_finite(owner: str, **values: float) -> None:
    """Raise :class:`ModelError` naming the first non-finite (NaN or
    infinite) field of ``owner``."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ModelError(f"{owner}: {name} must be a finite number, got {value!r}")


class TaskRole(enum.Enum):
    """Provenance of a task in a (possibly hardened) task graph."""

    #: An application task as specified by the designer.
    PRIMARY = "primary"
    #: A replica created by active or passive replication.
    REPLICA = "replica"
    #: A majority voter merging replica outputs.
    VOTER = "voter"


@dataclass(frozen=True)
class Task:
    """A single task of a task graph.

    Parameters
    ----------
    name:
        Identifier, unique within the enclosing :class:`~repro.model.taskgraph.TaskGraph`
        (and, by convention of the benchmark builders, globally unique).
    bcet, wcet:
        Best-/worst-case execution time on a reference processor
        (milliseconds).  ``0 <= bcet <= wcet`` is enforced.
    voting_overhead:
        Execution time of a voter over this task's replicas (``ve_v``).
    detection_overhead:
        Fault detection + roll-back overhead added per (re-)execution
        (``dt_v``).
    role, origin, replica_index:
        Provenance metadata filled in by :mod:`repro.hardening`.  For
        :attr:`TaskRole.PRIMARY` tasks ``origin`` is ``None``; replicas and
        voters name the primary task they derive from.
    """

    name: str
    bcet: float
    wcet: float
    voting_overhead: float = 0.0
    detection_overhead: float = 0.0
    role: TaskRole = TaskRole.PRIMARY
    origin: Optional[str] = None
    replica_index: int = 0

    def __post_init__(self):
        if not self.name:
            raise ModelError("task name must be a non-empty string")
        require_finite(
            f"task {self.name!r}",
            bcet=self.bcet,
            wcet=self.wcet,
            voting_overhead=self.voting_overhead,
            detection_overhead=self.detection_overhead,
        )
        if self.bcet < 0:
            raise ModelError(f"task {self.name!r}: bcet must be >= 0, got {self.bcet}")
        if self.wcet < self.bcet:
            raise ModelError(
                f"task {self.name!r}: wcet ({self.wcet}) must be >= bcet ({self.bcet})"
            )
        if self.voting_overhead < 0:
            raise ModelError(f"task {self.name!r}: voting overhead must be >= 0")
        if self.detection_overhead < 0:
            raise ModelError(f"task {self.name!r}: detection overhead must be >= 0")
        if self.role is TaskRole.PRIMARY and self.origin is not None:
            raise ModelError(f"task {self.name!r}: primary tasks must not set origin")
        if self.role is not TaskRole.PRIMARY and not self.origin:
            raise ModelError(f"task {self.name!r}: {self.role.value} tasks require origin")

    def with_times(self, bcet: float, wcet: float) -> "Task":
        """Return a copy with new execution-time bounds."""
        return replace(self, bcet=bcet, wcet=wcet)


@dataclass(frozen=True)
class Channel:
    """A directed data dependency between two tasks (paper §2.1).

    Each transmission over the channel transfers ``size`` bytes.  Channels
    between tasks mapped on the same processor cost nothing; between
    processors the interconnect model of
    :class:`~repro.model.architecture.Interconnect` applies.
    """

    src: str
    dst: str
    size: float = 0.0
    #: ``True`` for the voter-request edges of passive replication: the
    #: transfer (and the downstream task) only happens after the voter has
    #: detected a fault.
    on_demand: bool = field(default=False)

    def __post_init__(self):
        if not self.src or not self.dst:
            raise ModelError("channel endpoints must be non-empty task names")
        if self.src == self.dst:
            raise ModelError(f"channel {self.src!r} -> {self.dst!r} is a self-loop")
        require_finite(f"channel {self.src!r} -> {self.dst!r}", size=self.size)
        if self.size < 0:
            raise ModelError(
                f"channel {self.src!r} -> {self.dst!r}: size must be >= 0"
            )

    @property
    def key(self):
        """``(src, dst)`` pair identifying the channel within its graph."""
        return (self.src, self.dst)
