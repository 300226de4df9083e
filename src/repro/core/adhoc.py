"""The ``Adhoc`` baseline (paper §5.1).

An artificial worst-case scheduling trace: the system enters the critical
state at the beginning of the hyperperiod, every re-executable task is
maximally re-executed (``wcet'`` of Eq. (1)), every passively replicated
group is triggered, and all applications of ``T_d`` are dropped from the
start.  The observed response times of this single deterministic trace
are recorded as the estimate.

Because it is one trace out of many possible interleavings, Adhoc is *not*
safe — the paper observes it falling below the Monte-Carlo maximum in some
mappings, which is the motivation for a real worst-case analysis.
"""

from typing import Dict, Iterable, Optional

from repro.comm import CommBackend
from repro.core.analysis import GraphVerdict, MCAnalysisResult
from repro.hardening.transform import HardenedSystem
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.sim.engine import Simulator
from repro.sim.faults import adhoc_profile
from repro.sim.sampler import WorstCaseSampler


class AdhocAnalysis:
    """Deterministic worst-trace estimation of response times."""

    def __init__(self, comm: Optional[CommBackend] = None, policy: str = "fp"):
        self._comm = comm
        self._policy = policy

    def analyze(
        self,
        hardened: HardenedSystem,
        architecture: Architecture,
        mapping: Mapping,
        dropped: Iterable[str] = (),
    ) -> MCAnalysisResult:
        """Simulate the ad-hoc worst trace; result mirrors Algorithm 1's shape.

        Applications of ``T_d`` are dropped from time zero and therefore
        carry no response time: their verdict reports a WCRT of 0 and is
        marked dropped.
        """
        dropped_set = hardened.source.validate_drop_set(dropped)
        simulator = Simulator(
            hardened,
            architecture,
            mapping,
            dropped=tuple(dropped_set),
            comm=self._comm,
            policy=self._policy,
        )
        result = simulator.run(
            profile=adhoc_profile(hardened),
            sampler=WorstCaseSampler(),
            hyperperiods=1,
            drop_from_start=True,
        )

        verdicts: Dict[str, GraphVerdict] = {}
        task_completion: Dict[str, float] = {}
        for graph in hardened.applications.graphs:
            observed = result.graph_response_time(graph.name)
            wcrt = 0.0 if observed is None else observed
            verdicts[graph.name] = GraphVerdict(
                graph=graph.name,
                wcrt=wcrt,
                normal_wcrt=wcrt,
                deadline=graph.deadline,
                dropped=graph.name in dropped_set,
                worst_transition="adhoc-trace",
            )
        return MCAnalysisResult(
            verdicts=verdicts,
            transitions=(),
            task_completion=task_completion,
            granularity="adhoc",
        )
