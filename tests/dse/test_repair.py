"""Unit tests for the randomized repair heuristics."""

import random

import pytest

from repro.dse.chromosome import Chromosome, TaskGene, random_chromosome
from repro.dse.repair import repair
from repro.hardening.transform import harden
from repro.reliability.constraints import check_reliability


def build(problem, **overrides):
    rng = random.Random(0)
    chromosome = random_chromosome(problem, rng)
    genes = dict(chromosome.genes)
    genes.update(overrides.pop("genes", {}))
    return Chromosome(
        allocation=overrides.pop("allocation", chromosome.allocation),
        keep_alive=overrides.pop("keep_alive", chromosome.keep_alive),
        genes=genes,
    )


class TestStructuralRepair:
    def test_empty_allocation_fixed(self, problem):
        broken = build(problem, allocation=(False, False, False))
        repaired = repair(broken, problem, random.Random(1))
        assert any(repaired.allocation)

    def test_unallocated_mapping_fixed(self, problem):
        broken = build(
            problem,
            allocation=(True, True, False),
            genes={"a": TaskGene(processor="pe2")},
        )
        repaired = repair(broken, problem, random.Random(1))
        allocated = set(repaired.allocated_processors(problem))
        for gene in repaired.genes.values():
            assert gene.processor in allocated

    def test_orphan_passive_fixed(self, problem):
        broken = build(
            problem,
            genes={"a": TaskGene(processor="pe0", passive_replicas=("pe1", "pe2"))},
        )
        repaired = repair(broken, problem, random.Random(2))
        gene = repaired.genes["a"]
        if gene.is_replicated:
            gene.spec()  # must not raise

    def test_colocated_replicas_spread(self, problem):
        broken = build(
            problem,
            allocation=(True, True, True),
            genes={
                "a": TaskGene(
                    processor="pe0",
                    active_replicas=("pe0", "pe0"),
                    voter_processor="pe0",
                )
            },
        )
        repaired = repair(broken, problem, random.Random(3))
        gene = repaired.genes["a"]
        if gene.is_replicated:
            copies = (gene.processor,) + gene.active_replicas + gene.passive_replicas
            assert len(set(copies)) == len(copies)

    def test_oversized_group_collapses_to_reexecution(self, problem):
        broken = build(
            problem,
            allocation=(True, False, False),
            genes={
                "a": TaskGene(
                    processor="pe0",
                    active_replicas=("pe0", "pe0", "pe0"),
                    voter_processor="pe0",
                )
            },
        )
        repaired = repair(broken, problem, random.Random(4))
        gene = repaired.genes["a"]
        assert not gene.is_replicated
        assert gene.reexecutions >= 1

    def test_repaired_chromosome_decodes(self, problem):
        rng = random.Random(5)
        for _ in range(20):
            chromosome = repair(random_chromosome(problem, rng), problem, rng)
            design = chromosome.decode(problem)  # must not raise
            design.mapping.validate(
                harden(problem.applications, design.plan).applications,
                problem.architecture,
                allocated=design.allocation,
            )


class TestReliabilityRepair:
    def test_escalates_until_constraint_holds(self, problem):
        rng = random.Random(6)
        # Strip all hardening: the 1e-6 target of "hi" will be violated.
        base = random_chromosome(problem, rng, hardening_probability=0.0)
        repaired = repair(base, problem, rng, reliability_rounds=64)
        design = repaired.decode(problem)
        assert check_reliability(
            problem.applications, design.plan, design.mapping, problem.architecture
        ) == []

    def test_bounded_rounds(self, problem):
        rng = random.Random(7)
        base = random_chromosome(problem, rng, hardening_probability=0.0)
        # Zero rounds: repair must return without reliability fixes.
        repaired = repair(base, problem, rng, reliability_rounds=0)
        assert repaired.decode(problem) is not None
