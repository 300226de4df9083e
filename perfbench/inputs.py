"""Workload inputs: fixed input pools, ordered and paired by the seed.

The systems and their heuristic designs form fixed pools, so runs on
different seeds measure the same work and differ only by noise; designs
alone move a call's cost several-fold, and a few hundred draws per run do
not average that out.  The seed decides the order in which the pools are
driven, which requests repeat earlier ones, and the order of the
exploration rounds.  The same seed always yields the same inputs; the program
only ever sees the generated bundles, drop sets and requests.
"""

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.benchgen.tgff import comm_dominated_problem, generate_problem
from repro.core.problem import Problem
from repro.dse.chromosome import heuristic_chromosome
from repro.model.serialization import SystemBundle
from repro.suites import get_benchmark

#: The paper's five suites (the small set and the served requests).
PAPER_SUITES = ("cruise", "dt-med", "dt-large", "synth-1", "synth-2")
#: Small-set size: designs are dealt to the six systems in turn.  With an
#: odd count the median over the inputs is one input's own time; with an
#: even count it falls in the gap between the three fast and the three slow
#: systems and jumps with noise.
SMALL_INPUTS = 25
#: The large set: ``(label, generator seed, critical graphs, droppable
#: graphs, processors)``.
LARGE_SYSTEMS = (
    ("tgff-60", 11, 4, 4, 4),
    ("tgff-130", 11, 10, 10, 8),
)
LARGE_DESIGN_SEED = 5
#: DT-large exploration budget (population 32, fixed generations).
EXPLORE_SUITE = "dt-large"
EXPLORE_POPULATION = 32
EXPLORE_GENERATIONS = 2


@dataclass(frozen=True)
class AnalyzeInput:
    """One mapped system plus the drop set it is analyzed under."""

    label: str
    bundle: SystemBundle
    dropped: Tuple[str, ...]

    @property
    def tasks(self) -> int:
        return sum(len(g.tasks) for g in self.bundle.applications.graphs)


def seeded_design(
    label: str, problem: Problem, rng: random.Random
) -> AnalyzeInput:
    """A round-robin heuristic design with a seeded drop set."""
    droppable = [g.name for g in problem.applications.droppable_graphs]
    dropped = tuple(sorted(rng.sample(droppable, rng.randrange(len(droppable) + 1))))
    design = heuristic_chromosome(problem, rng, dropped=dropped).decode(problem)
    bundle = SystemBundle(
        problem.applications, problem.architecture, design.mapping, design.plan
    )
    return AnalyzeInput(label, bundle, tuple(sorted(design.dropped)))


def small_problems() -> List[Tuple[str, Problem]]:
    """The paper suites plus the shared-bus comm-dominated tgff system."""
    systems = [(name, get_benchmark(name).problem) for name in PAPER_SUITES]
    systems.append(("comm-bus", comm_dominated_problem()))
    return systems


def small_inputs(count: int = SMALL_INPUTS) -> List[AnalyzeInput]:
    rng = random.Random("analyze-small")
    systems = small_problems()
    inputs = []
    for index in range(count):
        name, problem = systems[index % len(systems)]
        inputs.append(seeded_design(f"{name}#{index}", problem, rng))
    return inputs


def large_inputs(limit: Optional[int] = None) -> List[AnalyzeInput]:
    inputs = []
    for label, gen_seed, critical, droppable, processors in LARGE_SYSTEMS[:limit]:
        problem = generate_problem(
            seed=gen_seed,
            critical_graphs=critical,
            droppable_graphs=droppable,
            processors=processors,
            name_prefix=label.replace("-", ""),
        )
        inputs.append(
            seeded_design(label, problem, random.Random(LARGE_DESIGN_SEED))
        )
    return inputs


@dataclass(frozen=True)
class ServeRequest:
    """One ``POST /v1/analyze`` of the open-loop stream."""

    index: int
    #: Index of the earlier request this one repeats exactly, if any.
    repeat_of: Optional[int]
    item: AnalyzeInput
    payload: dict
    #: Due together with the request before it (an in-flight duplicate).
    with_previous: bool = False


#: Every ``REPEAT_EVERY``-th request repeats an earlier one exactly;
#: alternately the request just before it (sent together with it: in-flight
#: dedup) and a random earlier one (completed: shared schedule cache).
REPEAT_EVERY = 5


def _design_pool(phase: str, count: int) -> List[AnalyzeInput]:
    """``count`` fixed designs, paper suites in turn (prefix-stable)."""
    rng = random.Random(f"serve-pool:{phase}")
    problems = [(name, get_benchmark(name).problem) for name in PAPER_SUITES]
    pool = []
    for index in range(count):
        name, problem = problems[index % len(problems)]
        pool.append(seeded_design(f"{name}@{phase}{index}", problem, rng))
    return pool


def serve_requests(seed: int, per_phase: int) -> List[ServeRequest]:
    """The low phase's ``per_phase`` requests, then the high phase's.

    Each phase draws its unique requests from its own fixed design pool
    in a seeded order, so both phases carry the same work for every seed.
    """
    from repro.serve.encoding import bundle_to_payload

    requests: List[ServeRequest] = []
    for phase in ("lo", "hi"):
        rng = random.Random(f"serve:{seed}:{phase}")
        pool = _design_pool(phase, per_phase - per_phase // REPEAT_EVERY)
        rng.shuffle(pool)
        fresh = iter(pool)
        for position in range(per_phase):
            index = len(requests)
            if position % REPEAT_EVERY == REPEAT_EVERY - 1:
                late = (position // REPEAT_EVERY) % 2 == 1
                source = requests[rng.randrange(index) if late else index - 1]
                origin = (
                    source.index if source.repeat_of is None else source.repeat_of
                )
                requests.append(ServeRequest(
                    index, origin, source.item, source.payload,
                    with_previous=not late,
                ))
                continue
            item = next(fresh)
            requests.append(
                ServeRequest(index, None, item, bundle_to_payload(item.bundle))
            )
    return requests
