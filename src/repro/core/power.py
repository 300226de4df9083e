"""Expected power consumption of a design point (paper §2.3).

The objective minimised by the DSE is

    ``sum_{p in allocation} (stat_p + dyn_p * u_p)``

where ``u_p`` is the *average* utilization of processor ``p``, considering
all possible fault cases:

* a re-executable task contributes its nominal time plus the expected
  re-execution time (faults are rare, so this term is tiny);
* active replicas and voters contribute on every instance;
* passive replicas contribute only with the probability that the voter
  requests them — this is exactly why passive replication "is
  particularly beneficial when the system is to be optimized to minimize
  the average utilization or the average power dissipation" (§2.2);
* droppable applications contribute fully: dropping only happens in the
  rare critical state, so the *average* behaviour is the normal mode.
"""

from typing import Dict, Iterable

from repro.errors import AnalysisError
from repro.hardening.spec import HardeningKind
from repro.hardening.transform import HardenedSystem
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.model.task import TaskRole
from repro.reliability.faults import execution_fault_probability


class PowerModel:
    """Computes expected utilizations and the expected-power objective.

    Parameters
    ----------
    architecture:
        The platform (provides per-processor power and fault parameters).
    use_average_execution:
        When ``True`` (default) the average of ``bcet`` and ``wcet`` is
        used as the expected execution time of one run; when ``False`` the
        conservative ``wcet`` is charged.
    """

    def __init__(self, architecture: Architecture, use_average_execution: bool = True):
        self._architecture = architecture
        self._use_average = use_average_execution

    def expected_execution_time(
        self, hardened: HardenedSystem, task_name: str, processor_name: str
    ) -> float:
        """Expected busy time one instance of a ``T'`` task costs its PE."""
        task = hardened.applications.task(task_name)
        processor = self._architecture.processor(processor_name)
        primary = hardened.derived_to_primary.get(task_name, task_name)
        spec = hardened.plan.spec_of(primary)

        if task.role is TaskRole.VOTER:
            return processor.scale_time(task.wcet)

        if hardened.is_time_redundant(task_name):
            redundancy = hardened.time_redundancy[task_name]
            nominal_bcet, nominal_wcet = hardened.nominal_bounds(task_name)
            single = processor.scale_time(
                self._base_time(nominal_bcet, nominal_wcet)
            )
            fault = execution_fault_probability(
                processor.fault_rate, processor.scale_time(nominal_wcet)
            )
            recovery_bcet, recovery_wcet = hardened.recovery_bounds(task_name)
            recovery = processor.scale_time(
                self._base_time(recovery_bcet, recovery_wcet)
            )
            expected_recoveries = sum(
                fault**i for i in range(1, redundancy.reexecutions + 1)
            )
            return single + expected_recoveries * recovery

        base = processor.scale_time(self._base_time(task.bcet, task.wcet))
        if hardened.is_passive(task_name):
            return base * self._passive_trigger_probability(hardened, primary)
        return base

    def utilizations(
        self, hardened: HardenedSystem, mapping: Mapping
    ) -> Dict[str, float]:
        """Average utilization ``u_p`` of every processor hosting tasks."""
        load: Dict[str, float] = {}
        for graph in hardened.applications.graphs:
            for task in graph.tasks:
                processor_name = mapping[task.name]
                expected = self.expected_execution_time(
                    hardened, task.name, processor_name
                )
                load[processor_name] = (
                    load.get(processor_name, 0.0) + expected / graph.period
                )
        return load

    def expected_power(
        self,
        hardened: HardenedSystem,
        mapping: Mapping,
        allocation: Iterable[str],
    ) -> float:
        """The DSE power objective over the allocated processors."""
        allocated = frozenset(allocation)
        used = mapping.used_processors
        missing = used - allocated
        if missing:
            raise AnalysisError(
                f"tasks are mapped on unallocated processors: {sorted(missing)}"
            )
        utilizations = self.utilizations(hardened, mapping)
        total = 0.0
        # Sorted so the float summation order (and thus the exact result
        # bits) is independent of set iteration order / hash seed — runs
        # must be reproducible across processes for checkpoint/resume.
        for name in sorted(allocated):
            processor = self._architecture.processor(name)
            total += processor.static_power
            total += processor.dynamic_power * utilizations.get(name, 0.0)
        return total

    def _base_time(self, bcet: float, wcet: float) -> float:
        if self._use_average:
            return 0.5 * (bcet + wcet)
        return wcet

    def _passive_trigger_probability(
        self, hardened: HardenedSystem, primary: str
    ) -> float:
        """Probability that a passive copy of ``primary`` is requested.

        The voter requests passives when at least one active copy delivered
        a faulty value.  Uses the fault rate of each active copy's
        processor; because the mapping is needed, the actives' processors
        are resolved lazily from the hardened system's replica group and
        the worst (highest) fault rate is charged for robustness when the
        mapping is unavailable here — the exact per-PE computation happens
        in :meth:`utilizations` via this method's caller supplying the
        group context.
        """
        spec = hardened.plan.spec_of(primary)
        if spec.kind is not HardeningKind.PASSIVE:
            return 1.0
        task = hardened.applications.task(primary)
        worst_rate = max(p.fault_rate for p in self._architecture.processors)
        per_copy = execution_fault_probability(worst_rate, task.wcet)
        actives = spec.effective_active_replicas
        return 1.0 - (1.0 - per_copy) ** actives
