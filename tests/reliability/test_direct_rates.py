"""The direct reliability rates equal the harden-based reference exactly."""

import random

import pytest

from repro.benchgen.tgff import generate_problem
from repro.dse.chromosome import random_chromosome
from repro.dse.operators import mutate
from repro.dse.repair import repair
from repro.hardening.spec import HardeningKind
from repro.hardening.transform import harden
from repro.reliability.analysis import graph_failure_rate
from repro.reliability.constraints import check_reliability
from repro.suites import get_benchmark
from tests.reliability.reference import reference_failure_rate, reference_violations

#: Every kind a plan can name (unhardened tasks are absent from plans).
KINDS = {
    HardeningKind.REEXECUTION,
    HardeningKind.CHECKPOINT,
    HardeningKind.ACTIVE,
    HardeningKind.PASSIVE,
}


def _problem(name):
    if name == "tgff":
        return generate_problem(seed=5, critical_graphs=3, droppable_graphs=2)
    return get_benchmark(name).problem


def _designs(problem, seed, count):
    """Decoded designs of random, mutated and repaired chromosomes.

    Mutation adds checkpointing and passive copies; repair then escalates
    hardening, as it does for every GA candidate.
    """
    rng = random.Random(seed)
    for _ in range(count):
        chromosome = random_chromosome(problem, rng, hardening_probability=0.5)
        chromosome = mutate(chromosome, problem, rng, gene_rate=0.5)
        chromosome = repair(chromosome, problem, rng)
        yield chromosome.decode(problem)


@pytest.mark.parametrize("name", ["dt-large", "dt-med", "cruise", "tgff"])
def test_direct_rates_equal_hardened_reference(name):
    problem = _problem(name)
    applications, architecture = problem.applications, problem.architecture
    kinds = set()
    for design in _designs(problem, seed=name, count=40):
        hardened = harden(applications, design.plan)
        for graph in applications.critical_graphs:
            assert graph_failure_rate(
                applications, design.plan, graph.name, design.mapping, architecture
            ) == reference_failure_rate(
                hardened, graph.name, design.mapping, architecture
            )
        violations = check_reliability(
            applications, design.plan, design.mapping, architecture
        )
        assert [
            (v.graph, v.failure_rate, v.target) for v in violations
        ] == reference_violations(hardened, design.mapping, architecture)
        kinds.update(design.plan.kind_histogram())
    assert kinds == KINDS
