"""The ``Naive`` baseline analysis (paper §3, §5.1).

Task dropping can be handled statically by giving every droppable task the
execution-time range ``[0, wcet]`` — it may or may not run — and charging
every hardened task its critical-state worst case in a single analysis
run.  This is safe but very pessimistic: it ignores the chronological
structure of state changes (no re-execution or dropping can happen before
the first fault), which is exactly the information Algorithm 1 exploits.
"""

from typing import Dict, Iterable, Optional, Tuple

from repro.core.analysis import GraphVerdict, MCAnalysisResult
from repro.hardening.transform import HardenedSystem
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.comm import CommBackend, default_comm
from repro.sched.jobs import unroll
from repro.sched.priority import assign_priorities
from repro.sched.wcrt import SchedBackend, WindowAnalysisBackend


class NaiveAnalysis:
    """Single-run static analysis with pessimistic execution-time ranges.

    Bounds per task:

    * droppable task of a graph in ``T_d`` — ``[0, wcet]``;
    * re-executable task — ``[bcet + dt, Eq. (1)]``;
    * passive copy — ``[0, wcet]`` (it may always be requested);
    * everything else — ``[bcet, wcet]``.
    """

    def __init__(
        self,
        backend: Optional[SchedBackend] = None,
        comm: Optional[CommBackend] = None,
        policy: str = "fp",
    ):
        self._backend: SchedBackend = backend or WindowAnalysisBackend()
        self._comm = comm
        self._policy = policy

    def analyze(
        self,
        hardened: HardenedSystem,
        architecture: Architecture,
        mapping: Mapping,
        dropped: Iterable[str] = (),
    ) -> MCAnalysisResult:
        """Run the naive analysis; result mirrors Algorithm 1's shape."""
        dropped_set = hardened.source.validate_drop_set(dropped)

        bounds: Dict[str, Tuple[float, float]] = {}
        for graph in hardened.applications.graphs:
            statically_droppable = graph.name in dropped_set
            for task in graph.tasks:
                nominal_bcet, _nominal_wcet = hardened.nominal_bounds(task.name)
                worst = hardened.critical_wcet(task.name)
                if statically_droppable:
                    bounds[task.name] = (0.0, worst)
                elif hardened.is_passive(task.name):
                    bounds[task.name] = (0.0, task.wcet)
                else:
                    bounds[task.name] = (nominal_bcet, worst)

        comm = self._comm if self._comm is not None else default_comm(architecture)
        priorities = assign_priorities(hardened.applications)
        jobset = unroll(
            hardened.applications,
            mapping,
            architecture,
            comm=comm,
            priorities=priorities,
            bounds=bounds,
            policy=self._policy,
        )
        result = self._backend.analyze(jobset)

        verdicts = {}
        for graph in hardened.applications.graphs:
            wcrt = result.graph_wcrt(graph.name)
            verdicts[graph.name] = GraphVerdict(
                graph=graph.name,
                wcrt=wcrt,
                normal_wcrt=wcrt,
                deadline=graph.deadline,
                dropped=graph.name in dropped_set,
                worst_transition="static",
            )
        task_completion = {
            task.name: result.task_max_finish(task.name)
            for task in hardened.applications.all_tasks
        }
        return MCAnalysisResult(
            verdicts=verdicts,
            transitions=(),
            task_completion=task_completion,
            granularity="static",
        )
