"""Monte-Carlo worst-case estimation — the ``WC-Sim`` baseline (§5.1).

Repeats the simulation over many random failure profiles (the paper used
10,000) and records the maximum observed response time per application.
Simulation can only *under*-estimate the true worst case — the paper's
Table 2 shows exactly this: ``WC-Sim`` is sometimes below the ad-hoc
trace, confirming that simulation coverage is not sufficient for WCRT
guarantees.
"""

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import span as trace_span
from repro.sim.engine import Simulator
from repro.sim.faults import no_fault_profile, random_profile
from repro.sim.sampler import BiasedSampler, ExecutionSampler


@dataclass
class MonteCarloResult:
    """Aggregated Monte-Carlo statistics."""

    #: Maximum observed response time per application.
    worst_response: Dict[str, float] = field(default_factory=dict)
    #: Number of simulated profiles.
    profiles: int = 0
    #: How many runs entered the critical state.
    critical_runs: int = 0
    #: How many runs dropped at least one application instance.
    runs_with_drops: int = 0
    #: Observed deadline misses (graph name -> count of runs).
    deadline_miss_runs: Dict[str, int] = field(default_factory=dict)
    #: Every observed response time per application (for percentiles).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: The seed the campaign ran under (``None`` when an external RNG was
    #: injected — its state cannot be named by a single integer).
    seed: Optional[int] = None
    #: Canonical spec of the execution-time sampler (``sampler.describe()``).
    sampler_spec: Dict[str, Any] = field(default_factory=dict)
    #: Upper bound on faults per random profile.
    max_faults: int = 0
    #: Whether the deterministic fault-free run was prepended.
    include_fault_free: bool = True
    #: Simulated horizon in hyperperiods.
    hyperperiods: int = 1

    def wcrt_of(self, graph_name: str) -> Optional[float]:
        """Maximum observed response time of one application."""
        return self.worst_response.get(graph_name)

    def percentile(self, graph_name: str, q: float) -> Optional[float]:
        """The ``q``-quantile (0..1) of the observed response times.

        Illustrates why simulation coverage is insufficient for WCRT
        guarantees: even the 99th percentile typically sits well below
        the worst observed value, let alone the true worst case.
        """
        values = sorted(self.samples.get(graph_name, ()))
        if not values:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        index = min(len(values) - 1, int(q * len(values)))
        return values[index]

    def mean_response(self, graph_name: str) -> Optional[float]:
        """Mean observed response time of one application."""
        values = self.samples.get(graph_name, ())
        if not values:
            return None
        return sum(values) / len(values)


def montecarlo_result_to_dict(result: MonteCarloResult) -> Dict[str, Any]:
    """A :class:`MonteCarloResult` as a JSON-friendly summary.

    Raw per-profile samples stay on the server (they can be tens of
    thousands of floats); the summary carries the quantiles the CLI
    prints.
    """
    graphs = sorted(result.worst_response)
    return {
        "kind": "simulation",
        "profiles": result.profiles,
        "critical_runs": result.critical_runs,
        "runs_with_drops": result.runs_with_drops,
        "deadline_miss_runs": dict(result.deadline_miss_runs),
        "worst_response": dict(result.worst_response),
        "p99_response": {g: result.percentile(g, 0.99) for g in graphs},
        "mean_response": {g: result.mean_response(g) for g in graphs},
    }


class MonteCarloEstimator:
    """Runs a simulation campaign over random failure profiles."""

    def __init__(
        self,
        simulator: Simulator,
        sampler: Optional[ExecutionSampler] = None,
        max_faults: int = 3,
        include_fault_free: bool = True,
    ):
        self._simulator = simulator
        self._sampler = sampler or BiasedSampler(0.5)
        self._max_faults = max_faults
        self._include_fault_free = include_fault_free

    def estimate(
        self,
        profiles: int,
        seed: int = 0,
        hyperperiods: int = 1,
        rng: Optional[random.Random] = None,
    ) -> MonteCarloResult:
        """Simulate ``profiles`` random failure profiles.

        A deterministic fault-free worst-case-execution run is prepended
        when ``include_fault_free`` is set, so the estimate is never below
        the plain normal-state trace.

        ``rng`` injects an externally owned generator (e.g. one shared by
        a larger verification campaign); it takes precedence over ``seed``
        and the result then records ``seed=None``.  The result always
        records the sampler spec and fault settings so campaign reports
        and reproducers are self-describing.
        """
        if rng is not None:
            recorded_seed: Optional[int] = None
        else:
            rng = random.Random(seed)
            recorded_seed = seed
        hardened = self._simulator._hardened
        describe = getattr(
            self._sampler, "describe", lambda: {"kind": type(self._sampler).__name__}
        )
        result = MonteCarloResult(
            seed=recorded_seed,
            sampler_spec=describe(),
            max_faults=self._max_faults,
            include_fault_free=self._include_fault_free,
            hyperperiods=hyperperiods,
        )

        runs = []
        if self._include_fault_free:
            runs.append(no_fault_profile())
        runs.extend(
            random_profile(
                hardened,
                rng,
                max_faults=self._max_faults,
                hyperperiods=hyperperiods,
            )
            for _ in range(profiles)
        )

        with trace_span(
            "sim.campaign",
            profiles=len(runs),
            max_faults=self._max_faults,
        ) as campaign_span:
            for profile in runs:
                sim_result = self._simulator.run(
                    profile=profile,
                    sampler=self._sampler,
                    rng=random.Random(rng.getrandbits(32)),
                    hyperperiods=hyperperiods,
                )
                result.profiles += 1
                if sim_result.entered_critical_state:
                    result.critical_runs += 1
                if sim_result.dropped_instances():
                    result.runs_with_drops += 1
                for graph, response in sim_result.response_times().items():
                    if response is None:
                        continue
                    result.samples.setdefault(graph, []).append(response)
                    best = result.worst_response.get(graph)
                    if best is None or response > best:
                        result.worst_response[graph] = response
                for outcome in sim_result.deadline_misses():
                    result.deadline_miss_runs[outcome.graph] = (
                        result.deadline_miss_runs.get(outcome.graph, 0) + 1
                    )
            campaign_span.set_attributes(
                critical_runs=result.critical_runs,
                runs_with_drops=result.runs_with_drops,
            )
        return result
