"""Design-point evaluation: feasibility and objectives (paper §2.3, §4).

A design point is *feasible* when

1. its mapping is total over ``T'`` and uses only allocated processors;
2. replicas of the same task sit on pairwise different processors
   (otherwise a single processor's fault correlates the copies);
3. every non-droppable application meets its reliability constraint;
4. every application that stays alive in the critical state meets its
   deadline under the mixed-criticality WCRT analysis, and every dropped
   application meets its deadline in the normal state.

Feasible points are scored with the two paper objectives: minimise the
expected power, maximise the post-drop quality of service.
"""

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.analysis import MCAnalysisResult, MixedCriticalityAnalysis
from repro.core.power import PowerModel
from repro.core.problem import DesignPoint, Problem
from repro.errors import MappingError, ReproError
from repro.hardening.transform import HardenedSystem, harden
from repro.obs.metrics import metrics
from repro.obs.trace import event, span as trace_span
from repro.reliability.constraints import check_reliability


@dataclass
class EvaluationResult:
    """Outcome of evaluating one design point."""

    #: ``None`` when the candidate never decoded into a design point
    #: (chromosomes undecodable even after repair are hard-penalized).
    design: Optional[DesignPoint]
    feasible: bool
    violations: List[str] = field(default_factory=list)
    #: Expected power (objective 1, minimise); ``None`` when the design is
    #: too broken to compute it (e.g. invalid mapping).
    power: Optional[float] = None
    #: Post-drop quality of service (objective 2, maximise).
    service: Optional[float] = None
    #: The WCRT analysis result, when the analysis stage was reached.
    analysis: Optional[MCAnalysisResult] = None
    #: The hardened system, when hardening succeeded.
    hardened: Optional[HardenedSystem] = None
    #: Aggregate magnitude of the constraint violations (0 when feasible).
    severity: float = 0.0
    #: Name of the degraded backend that produced this result, when the
    #: evaluation guard fell back (``None`` for primary-backend results).
    fallback: Optional[str] = None
    #: ``"ExcType: message"`` of the exception the evaluation guard
    #: absorbed when this result is a guarded failure.
    guard_error: Optional[str] = None

    @property
    def objectives(self) -> Tuple[float, float]:
        """(power, -service) — both to minimise.

        Infeasible designs return a penalty vector far above any feasible
        one (§4: "we penalize the solution with an exceedingly bad fitness
        value"), graded by violation severity so that the selection
        pressure still points towards feasibility.
        """
        if not self.feasible or self.power is None or self.service is None:
            penalty = 1e9 + 1e6 * (len(self.violations) + self.severity)
            return (penalty, penalty)
        return (self.power, -self.service)


class Evaluator:
    """Evaluates design points for a fixed problem instance."""

    def __init__(
        self,
        problem: Problem,
        analysis: Optional[MixedCriticalityAnalysis] = None,
        power_model: Optional[PowerModel] = None,
    ):
        self._problem = problem
        if analysis is None:
            # DSE hot path: per-task trigger granularity (conservative,
            # one back-end run per hardened task) with the full fast path —
            # GA candidates that decode to previously-seen job sets hit the
            # memo cache, and dominated transitions are pruned before the
            # back-end runs.
            from repro.core.fastpath import FastPathConfig

            analysis = MixedCriticalityAnalysis(
                granularity="task",
                comm=problem.comm_model(),
                fast_path=FastPathConfig.for_dse(),
            )
        self._analysis = analysis
        self._power = power_model or PowerModel(problem.architecture)

    @property
    def problem(self) -> Problem:
        """The problem instance this evaluator serves."""
        return self._problem

    def evaluate(self, design: DesignPoint) -> EvaluationResult:
        """Check feasibility and compute the objectives of a design point."""
        started = time.perf_counter()
        result = self._evaluate(design)
        seconds = time.perf_counter() - started

        registry = metrics()
        registry.counter("eval.evaluations").inc()
        registry.counter(
            "eval.feasible" if result.feasible else "eval.infeasible"
        ).inc()
        registry.timer("eval.seconds").observe(seconds)
        event(
            "evaluation-done",
            feasible=result.feasible,
            power=result.power,
            service=result.service,
            violations=len(result.violations),
            seconds=seconds,
        )
        return result

    def _evaluate(self, design: DesignPoint) -> EvaluationResult:
        violations: List[str] = []

        try:
            with trace_span("hardening.harden"):
                hardened = harden(self._problem.applications, design.plan)
        except ReproError as error:
            return EvaluationResult(
                design=design,
                feasible=False,
                violations=[f"hardening: {error}"],
            )

        try:
            design.mapping.validate(
                hardened.applications,
                self._problem.architecture,
                allocated=design.allocation,
            )
        except MappingError as error:
            return EvaluationResult(
                design=design,
                feasible=False,
                violations=[f"mapping: {error}"],
                hardened=hardened,
            )

        severity = 0.0
        placement = self._replica_placement_violations(hardened, design)
        violations.extend(placement)
        severity += 10.0 * len(placement)
        for violation in check_reliability(
            self._problem.applications,
            design.plan,
            design.mapping,
            self._problem.architecture,
        ):
            violations.append(f"reliability: {violation}")
            severity += min(
                20.0, math.log10(max(violation.failure_rate / violation.target, 1.0))
            )

        try:
            dropped = hardened.source.validate_drop_set(design.dropped)
        except ReproError as error:
            violations.append(f"drop set: {error}")
            dropped = frozenset()

        analysis = self._analysis.analyze(
            hardened,
            self._problem.architecture,
            design.mapping,
            dropped=dropped,
        )
        for verdict in analysis.verdicts.values():
            if not verdict.meets_deadline:
                violations.append(
                    f"deadline: application {verdict.graph!r} WCRT "
                    f"{verdict.wcrt:.3f} exceeds deadline {verdict.deadline:.3f}"
                )
                severity += (verdict.wcrt - verdict.deadline) / verdict.deadline

        power = self._power.expected_power(
            hardened, design.mapping, design.allocation
        )
        service = self._problem.applications.service_of(dropped)
        return EvaluationResult(
            design=design,
            feasible=not violations,
            violations=violations,
            power=power,
            service=service,
            analysis=analysis,
            hardened=hardened,
            severity=severity,
        )

    def _replica_placement_violations(
        self, hardened: HardenedSystem, design: DesignPoint
    ) -> List[str]:
        """Replicas of one task must sit on pairwise different processors."""
        violations: List[str] = []
        for primary, group in sorted(hardened.replica_groups.items()):
            processors = [design.mapping.get(name) for name in group]
            if len(set(processors)) != len(processors):
                violations.append(
                    f"replication: copies of task {primary!r} share a "
                    f"processor ({processors})"
                )
        return violations
