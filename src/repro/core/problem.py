"""Problem and design-point containers (paper §2.3).

Given the architecture ``A`` and applications ``T``, a *design point*
fixes everything the optimization decides: the allocated processors, the
hardening plan (which yields ``T'``), the task-to-processor mapping over
``T'``, and the dropped application set ``T_d``.
"""

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.comm import CommBackend
from repro.errors import ModelError
from repro.hardening.spec import HardeningPlan
from repro.model.application import ApplicationSet
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping


@dataclass(frozen=True)
class Problem:
    """An optimization problem instance: applications plus platform.

    ``comm`` customises the channel-latency regime; when ``None`` the
    uncontended latency model of the platform interconnect is used.
    """

    applications: ApplicationSet
    architecture: Architecture
    comm: Optional[CommBackend] = None

    def comm_model(self) -> CommBackend:
        """The effective communication model.

        Defaults to the unbound backend the architecture's interconnect
        names in ``comm_backend`` (bound at unroll time, see
        :mod:`repro.comm`).
        """
        if self.comm is not None:
            return self.comm
        from repro.comm import default_comm

        return default_comm(self.architecture)


@dataclass(frozen=True)
class DesignPoint:
    """One candidate solution of the design space.

    Attributes
    ----------
    allocation:
        Names of the processors switched on.
    dropped:
        The dropped application set ``T_d``: droppable graphs that the
        scheduler detaches when the system enters the critical state.
        Droppable graphs *not* listed here stay alive in every mode.
    plan:
        Per-task hardening decisions, producing ``T' = harden(T, plan)``.
    mapping:
        Task-to-processor mapping over the tasks of ``T'`` (including
        replicas and voters).
    """

    allocation: FrozenSet[str]
    dropped: FrozenSet[str]
    plan: HardeningPlan
    mapping: Mapping

    def __post_init__(self):
        if not self.allocation:
            raise ModelError("design point must allocate at least one processor")

    def without_dropping(self) -> "DesignPoint":
        """The same design with task dropping disabled (``T_d`` empty).

        Used by the §5.2 experiment that measures how many explored
        solutions are feasible only thanks to task dropping.
        """
        if not self.dropped:
            return self
        return DesignPoint(
            allocation=self.allocation,
            dropped=frozenset(),
            plan=self.plan,
            mapping=self.mapping,
        )

    def to_dict(self) -> dict:
        """Serialize to a JSON-friendly dictionary."""
        return {
            "allocation": sorted(self.allocation),
            "dropped": sorted(self.dropped),
            "plan": self.plan.to_dict(),
            "mapping": self.mapping.as_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "DesignPoint":
        """Deserialize from :meth:`to_dict` output."""
        return DesignPoint(
            allocation=frozenset(data["allocation"]),
            dropped=frozenset(data.get("dropped", ())),
            plan=HardeningPlan.from_dict(data.get("plan", {})),
            mapping=Mapping(data["mapping"]),
        )
