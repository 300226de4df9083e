"""Randomized repair heuristics (paper §4).

"Infeasibility may come from an abnormal mapping or hardening decision.
In such a case, we repair the candidate according to a randomized
heuristic that is designed depending on the violation."

Repairs applied, in order:

1. **allocation** — at least one processor must be on;
2. **invalid mapping** — tasks, replicas and voters sitting on
   unallocated processors are reassigned to random allocated ones;
3. **replica shape** — passive replicas without an active partner get
   one; replica groups larger than the allocated-processor count are
   shrunk; co-located copies are spread over distinct processors when
   possible, otherwise replication collapses to re-execution;
4. **reliability** — while a non-droppable application misses its
   constraint, a random task of that application gets a random hardening
   escalation (deeper re-execution, active or passive replication).
"""

import random
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.problem import Problem
from repro.dse.chromosome import Chromosome, TaskGene
from repro.errors import ReproError
from repro.obs.trace import span as trace_span
from repro.reliability.constraints import check_reliability

#: Cap on reliability-escalation rounds per repair call.
MAX_RELIABILITY_ROUNDS = 32


def repair(
    chromosome: Chromosome,
    problem: Problem,
    rng: random.Random,
    reliability_rounds: int = MAX_RELIABILITY_ROUNDS,
) -> Chromosome:
    """Return a repaired copy of a chromosome (best effort).

    The result is guaranteed to decode into a structurally valid design
    point (valid mapping, well-formed hardening specs); reliability repair
    is best-effort within ``reliability_rounds`` escalations — candidates
    still violating afterwards are left to the fitness penalty.
    """
    with trace_span("dse.repair") as repair_span:
        chromosome = _repair_allocation(chromosome, rng)
        allocated = list(chromosome.allocated_processors(problem))
        chromosome = _repair_mappings(chromosome, allocated, rng)
        chromosome = _repair_replica_shapes(chromosome, allocated, rng)
        chromosome, escalations = _repair_reliability(
            chromosome, problem, allocated, rng, reliability_rounds
        )
        # Every escalation follows a failed check; one more check ends the
        # loop unless the round budget ran out first.
        repair_span.set_attributes(
            rounds=min(escalations + 1, reliability_rounds),
            escalations=escalations,
        )
    return chromosome


def _repair_allocation(chromosome: Chromosome, rng: random.Random) -> Chromosome:
    if any(chromosome.allocation):
        return chromosome
    forced = rng.randrange(len(chromosome.allocation))
    return chromosome.with_allocation(
        tuple(index == forced for index in range(len(chromosome.allocation)))
    )


def _repair_mappings(
    chromosome: Chromosome, allocated: List[str], rng: random.Random
) -> Chromosome:
    """Reassign every entity mapped on an unallocated processor."""
    allowed = set(allocated)

    def fix(processor: Optional[str]) -> str:
        if processor in allowed:
            return processor
        return rng.choice(allocated)

    genes: Dict[str, TaskGene] = {}
    changed = False
    for name, gene in chromosome.genes.items():
        new_gene = gene
        if gene.processor not in allowed:
            new_gene = replace(new_gene, processor=fix(gene.processor))
        if any(p not in allowed for p in gene.active_replicas):
            new_gene = replace(
                new_gene,
                active_replicas=tuple(fix(p) for p in gene.active_replicas),
            )
        if any(p not in allowed for p in gene.passive_replicas):
            new_gene = replace(
                new_gene,
                passive_replicas=tuple(fix(p) for p in gene.passive_replicas),
            )
        if gene.is_replicated and (
            gene.voter_processor is None or gene.voter_processor not in allowed
        ):
            new_gene = replace(new_gene, voter_processor=fix(gene.voter_processor))
        if new_gene is not gene:
            changed = True
        genes[name] = new_gene
    if not changed:
        return chromosome
    return Chromosome(
        allocation=chromosome.allocation,
        keep_alive=chromosome.keep_alive,
        genes=genes,
    )


def _repair_replica_shapes(
    chromosome: Chromosome, allocated: List[str], rng: random.Random
) -> Chromosome:
    """Normalise replica groups so that a hardening spec exists and copies
    occupy pairwise distinct processors."""
    genes: Dict[str, TaskGene] = {}
    changed = False
    for name, gene in chromosome.genes.items():
        new_gene = gene
        if new_gene.is_replicated:
            # Passive replication needs >= 2 active copies.
            if new_gene.passive_replicas and not new_gene.active_replicas:
                promoted = new_gene.passive_replicas[0]
                new_gene = replace(
                    new_gene,
                    active_replicas=(promoted,),
                    passive_replicas=new_gene.passive_replicas[1:],
                )
            total = 1 + len(new_gene.active_replicas) + len(new_gene.passive_replicas)
            if total > len(allocated):
                # Not enough processors for disjoint copies: collapse to
                # re-execution, the resource-free hardening.
                new_gene = TaskGene(
                    processor=new_gene.processor,
                    reexecutions=max(1, new_gene.reexecutions),
                )
            else:
                new_gene = _spread_copies(new_gene, allocated, rng)
            if new_gene.is_replicated and new_gene.voter_processor is None:
                new_gene = replace(new_gene, voter_processor=rng.choice(allocated))
            if new_gene.is_replicated and new_gene.reexecutions:
                new_gene = replace(new_gene, reexecutions=0)
        if new_gene != gene:
            changed = True
        genes[name] = new_gene
    if not changed:
        return chromosome
    return Chromosome(
        allocation=chromosome.allocation,
        keep_alive=chromosome.keep_alive,
        genes=genes,
    )


def _spread_copies(
    gene: TaskGene, allocated: List[str], rng: random.Random
) -> TaskGene:
    """Place all copies of a replicated task on distinct processors."""
    used = [gene.processor]
    actives: List[str] = []
    passives: List[str] = []
    for source, target in (
        (gene.active_replicas, actives),
        (gene.passive_replicas, passives),
    ):
        for processor in source:
            if processor not in used:
                target.append(processor)
                used.append(processor)
            else:
                candidates = [p for p in allocated if p not in used]
                chosen = rng.choice(candidates)
                target.append(chosen)
                used.append(chosen)
    if tuple(actives) == gene.active_replicas and tuple(passives) == gene.passive_replicas:
        return gene
    return replace(
        gene,
        active_replicas=tuple(actives),
        passive_replicas=tuple(passives),
    )


def _repair_reliability(
    chromosome: Chromosome,
    problem: Problem,
    allocated: List[str],
    rng: random.Random,
    rounds: int,
) -> Tuple[Chromosome, int]:
    """Escalate random hardening until the reliability constraints hold.

    Returns the chromosome and the number of escalations applied.
    """
    for escalations in range(rounds):
        try:
            design = chromosome.decode(problem)
            violations = check_reliability(
                problem.applications,
                design.plan,
                design.mapping,
                problem.architecture,
            )
        except ReproError:
            return chromosome, escalations  # structurally broken beyond this repair
        if not violations:
            return chromosome, escalations
        violation = rng.choice(violations)
        graph = problem.applications.graph(violation.graph)
        task = rng.choice(graph.tasks)
        gene = chromosome.genes[task.name]
        chromosome = chromosome.with_gene(
            task.name, _escalate(gene, allocated, rng)
        )
        chromosome = _repair_replica_shapes(chromosome, allocated, rng)
    return chromosome, rounds


def _escalate(
    gene: TaskGene, allocated: List[str], rng: random.Random
) -> TaskGene:
    """One random hardening escalation (re-execution / active / passive)."""
    choices = ["reexecution"]
    if len(allocated) >= 3:
        choices.extend(["active", "passive"])
    elif len(allocated) >= 2:
        choices.append("active")
    choice = rng.choice(choices)

    if choice == "reexecution":
        if gene.is_replicated:
            # Deepen the group instead: one more active copy if possible.
            if 1 + len(gene.active_replicas) + len(gene.passive_replicas) < len(allocated):
                return replace(
                    gene,
                    active_replicas=gene.active_replicas + (rng.choice(allocated),),
                )
            return gene
        return replace(gene, reexecutions=min(8, gene.reexecutions + 1))

    if choice == "active":
        if gene.is_replicated:
            if 1 + len(gene.active_replicas) + len(gene.passive_replicas) < len(allocated):
                return replace(
                    gene,
                    reexecutions=0,
                    active_replicas=gene.active_replicas + (rng.choice(allocated),),
                )
            return gene
        return TaskGene(
            processor=gene.processor,
            active_replicas=(rng.choice(allocated), rng.choice(allocated)),
            voter_processor=rng.choice(allocated),
        )

    # passive replication: 2 active copies + 1 on-demand copy
    return TaskGene(
        processor=gene.processor,
        active_replicas=(rng.choice(allocated),),
        passive_replicas=(rng.choice(allocated),),
        voter_processor=rng.choice(allocated),
    )
