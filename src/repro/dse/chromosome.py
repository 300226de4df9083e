"""The GA genotype and its translation to a phenotype (paper Figure 4).

A chromosome has three sections:

1. **allocation** — one bit per processor of the architecture;
2. **keep-alive** — one bit per *droppable* application; a set bit means
   the application is never dropped, a cleared bit puts it in ``T_d``;
3. **task genes** — per primary task: the processor of the task itself,
   the degree of re-execution, the processors of active and passive
   replicas, and the processor of the voter.

Decoding a chromosome produces a :class:`~repro.core.problem.DesignPoint`:
the hardening plan follows from the gene shape (replica lists present →
replication; otherwise a positive re-execution degree → re-execution),
the mapping covers the derived replica/voter tasks using the hardening
transform's naming scheme.
"""

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.problem import DesignPoint, Problem
from repro.errors import ExplorationError
from repro.hardening.spec import HardeningPlan, HardeningSpec
from repro.hardening.transform import copy_names, voter_name
from repro.model.mapping import Mapping


@dataclass(frozen=True)
class TaskGene:
    """Mapping and hardening decisions for one primary task."""

    processor: str
    reexecutions: int = 0
    #: Processors of the active replicas beyond the primary copy.
    active_replicas: Tuple[str, ...] = ()
    #: Processors of the passive (on-demand) replicas.
    passive_replicas: Tuple[str, ...] = ()
    voter_processor: Optional[str] = None
    #: Checkpoint segments (>= 2 turns re-execution into checkpointing).
    checkpoints: int = 0

    @property
    def is_replicated(self) -> bool:
        """Whether the gene encodes replication (which overrides re-execution)."""
        return bool(self.active_replicas) or bool(self.passive_replicas)

    def spec(self) -> HardeningSpec:
        """The hardening spec this gene encodes.

        Raises :class:`~repro.errors.ExplorationError` for shapes no spec
        can express (e.g. passive replicas without an active partner); the
        repair heuristics normalise genes before decoding.
        """
        if self.is_replicated:
            actives = 1 + len(self.active_replicas)
            passives = len(self.passive_replicas)
            total = actives + passives
            if passives:
                if actives < 2:
                    raise ExplorationError(
                        "passive replication requires at least two active copies"
                    )
                return HardeningSpec.passive(total, active=actives)
            return HardeningSpec.active(total)
        if self.reexecutions > 0:
            if self.checkpoints >= 2:
                return HardeningSpec.checkpointing(
                    self.reexecutions, segments=self.checkpoints
                )
            return HardeningSpec.reexecution(self.reexecutions)
        return HardeningSpec.none()

    def to_dict(self) -> dict:
        """Serialize to a JSON-friendly dictionary."""
        return {
            "processor": self.processor,
            "reexecutions": self.reexecutions,
            "active_replicas": list(self.active_replicas),
            "passive_replicas": list(self.passive_replicas),
            "voter_processor": self.voter_processor,
            "checkpoints": self.checkpoints,
        }

    @staticmethod
    def from_dict(data: dict) -> "TaskGene":
        """Deserialize from :meth:`to_dict` output."""
        return TaskGene(
            processor=data["processor"],
            reexecutions=data.get("reexecutions", 0),
            active_replicas=tuple(data.get("active_replicas", ())),
            passive_replicas=tuple(data.get("passive_replicas", ())),
            voter_processor=data.get("voter_processor"),
            checkpoints=data.get("checkpoints", 0),
        )


@dataclass(frozen=True)
class Chromosome:
    """A complete genotype (all three sections of Figure 4)."""

    #: Allocation bit per processor, in architecture order.
    allocation: Tuple[bool, ...]
    #: Keep-alive bit per droppable application, in application order.
    keep_alive: Tuple[bool, ...]
    #: One gene per primary task, keyed by task name.
    genes: Dict[str, TaskGene] = field(default_factory=dict)

    def key(self) -> Tuple:
        """A hashable identity used for evaluation caching."""
        return (
            self.allocation,
            self.keep_alive,
            tuple(sorted(self.genes.items(), key=lambda item: item[0])),
        )

    def allocated_processors(self, problem: Problem) -> Tuple[str, ...]:
        """Names of the processors switched on by the allocation section."""
        names = problem.architecture.processor_names
        return tuple(
            name for name, bit in zip(names, self.allocation) if bit
        )

    def dropped_graphs(self, problem: Problem) -> Tuple[str, ...]:
        """Names of the droppable applications placed in ``T_d``."""
        droppable = [g.name for g in problem.applications.droppable_graphs]
        return tuple(
            name for name, bit in zip(droppable, self.keep_alive) if not bit
        )

    def decode(self, problem: Problem) -> DesignPoint:
        """Translate the genotype into a phenotype (Figure 4, right side)."""
        names = problem.architecture.processor_names
        if len(self.allocation) != len(names):
            raise ExplorationError(
                f"allocation section has {len(self.allocation)} bits for "
                f"{len(names)} processors"
            )
        droppable = problem.applications.droppable_graphs
        if len(self.keep_alive) != len(droppable):
            raise ExplorationError(
                f"keep-alive section has {len(self.keep_alive)} bits for "
                f"{len(droppable)} droppable applications"
            )

        plan_specs: Dict[str, HardeningSpec] = {}
        assignment: Dict[str, str] = {}
        for task in problem.applications.all_tasks:
            gene = self.genes.get(task.name)
            if gene is None:
                raise ExplorationError(f"no gene for task {task.name!r}")
            spec = gene.spec()
            plan_specs[task.name] = spec
            assignment[task.name] = gene.processor
            if spec.is_replicated:
                processors = (
                    (gene.processor,) + gene.active_replicas + gene.passive_replicas
                )
                assignment.update(zip(copy_names(task.name, spec), processors))
                voter = gene.voter_processor or gene.processor
                assignment[voter_name(task.name)] = voter

        allocation = frozenset(self.allocated_processors(problem))
        if not allocation:
            raise ExplorationError("chromosome allocates no processor")
        return DesignPoint(
            allocation=allocation,
            dropped=frozenset(self.dropped_graphs(problem)),
            plan=HardeningPlan(plan_specs),
            mapping=Mapping(assignment),
        )

    # ------------------------------------------------------------------
    # Serialization (checkpoint/resume and quarantine records)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize to a JSON-friendly dictionary.

        Gene insertion order is preserved — it determines RNG consumption
        in the variation operators, so round-tripping must not reorder.
        Genes are therefore encoded as a *list* of ``[name, gene]`` pairs:
        a JSON object would survive ``json.dumps(sort_keys=True)`` with
        its keys silently re-sorted.
        """
        return {
            "allocation": list(self.allocation),
            "keep_alive": list(self.keep_alive),
            "genes": [
                [name, gene.to_dict()] for name, gene in self.genes.items()
            ],
        }

    @staticmethod
    def from_dict(data: dict) -> "Chromosome":
        """Deserialize from :meth:`to_dict` output."""
        return Chromosome(
            allocation=tuple(bool(b) for b in data["allocation"]),
            keep_alive=tuple(bool(b) for b in data["keep_alive"]),
            genes={
                name: TaskGene.from_dict(gene)
                for name, gene in data["genes"]
            },
        )

    # ------------------------------------------------------------------
    # Functional updates (used by operators and repair)
    # ------------------------------------------------------------------

    def with_gene(self, task_name: str, gene: TaskGene) -> "Chromosome":
        """Copy with one task gene replaced."""
        genes = dict(self.genes)
        genes[task_name] = gene
        return replace(self, genes=genes)

    def with_allocation(self, allocation: Tuple[bool, ...]) -> "Chromosome":
        """Copy with a new allocation section."""
        return replace(self, allocation=allocation)

    def with_keep_alive(self, keep_alive: Tuple[bool, ...]) -> "Chromosome":
        """Copy with a new keep-alive section."""
        return replace(self, keep_alive=keep_alive)


def random_chromosome(
    problem: Problem,
    rng: random.Random,
    allocation_bias: float = 0.7,
    keep_alive_bias: float = 0.5,
    hardening_probability: float = 0.3,
) -> Chromosome:
    """Sample a random (not yet repaired) chromosome.

    ``allocation_bias`` is the probability of switching each processor on;
    ``hardening_probability`` the chance of giving a critical task some
    initial hardening (the repair heuristic escalates as needed anyway).
    """
    processor_names = problem.architecture.processor_names
    allocation = tuple(
        rng.random() < allocation_bias for _ in processor_names
    )
    if not any(allocation):
        forced = rng.randrange(len(processor_names))
        allocation = tuple(
            index == forced for index in range(len(processor_names))
        )
    allocated = [
        name for name, bit in zip(processor_names, allocation) if bit
    ]
    keep_alive = tuple(
        rng.random() < keep_alive_bias
        for _ in problem.applications.droppable_graphs
    )

    genes: Dict[str, TaskGene] = {}
    for graph in problem.applications.graphs:
        for task in graph.tasks:
            gene = TaskGene(processor=rng.choice(allocated))
            if not graph.droppable and rng.random() < hardening_probability:
                gene = _random_hardening(gene, allocated, rng)
            genes[task.name] = gene
    return Chromosome(allocation=allocation, keep_alive=keep_alive, genes=genes)


def heuristic_chromosome(
    problem: Problem,
    rng: random.Random,
    dropped: Tuple[str, ...] = (),
    reexecutions: int = 1,
) -> Chromosome:
    """A constructive seed: all processors on, round-robin mapping,
    uniform re-execution on critical tasks, and a chosen drop set.

    Small-budget explorations converge much faster when a few of these
    (one per candidate drop set) are mixed into the initial population;
    the GA still has to discover allocation shrinking, replication and
    better placements on its own.
    """
    processor_names = problem.architecture.processor_names
    allocation = tuple(True for _ in processor_names)
    dropped_set = set(dropped)
    keep_alive = tuple(
        graph.name not in dropped_set
        for graph in problem.applications.droppable_graphs
    )
    genes: Dict[str, TaskGene] = {}
    index = rng.randrange(len(processor_names))
    for graph in problem.applications.graphs:
        for task in graph.tasks:
            processor = processor_names[index % len(processor_names)]
            index += 1
            if graph.droppable or reexecutions == 0:
                genes[task.name] = TaskGene(processor=processor)
            else:
                genes[task.name] = TaskGene(
                    processor=processor, reexecutions=reexecutions
                )
    return Chromosome(allocation=allocation, keep_alive=keep_alive, genes=genes)


def partition_chromosome(
    problem: Problem,
    rng: random.Random,
    dropped: Tuple[str, ...] = (),
    reexecutions: int = 1,
) -> Chromosome:
    """A locality-first seed: whole graphs packed onto single processors.

    Graphs are placed greedily (heaviest utilization first) onto the
    least-loaded processor, which eliminates intra-graph communication and
    cross-graph interference — the natural constructive heuristic for
    chain-shaped workloads.
    """
    processor_names = list(problem.architecture.processor_names)
    load = {name: 0.0 for name in processor_names}
    placement: Dict[str, str] = {}
    graphs = sorted(
        problem.applications.graphs,
        key=lambda g: g.utilization(),
        reverse=True,
    )
    for graph in graphs:
        target = min(processor_names, key=lambda name: load[name])
        placement[graph.name] = target
        load[target] += graph.utilization()

    dropped_set = set(dropped)
    keep_alive = tuple(
        graph.name not in dropped_set
        for graph in problem.applications.droppable_graphs
    )
    genes: Dict[str, TaskGene] = {}
    for graph in problem.applications.graphs:
        processor = placement[graph.name]
        for task in graph.tasks:
            if graph.droppable or reexecutions == 0:
                genes[task.name] = TaskGene(processor=processor)
            else:
                genes[task.name] = TaskGene(
                    processor=processor, reexecutions=reexecutions
                )
    return Chromosome(
        allocation=tuple(True for _ in processor_names),
        keep_alive=keep_alive,
        genes=genes,
    )


def _random_hardening(
    gene: TaskGene, allocated: List[str], rng: random.Random
) -> TaskGene:
    """Give a gene one random initial hardening decision."""
    choice = rng.randrange(3)
    if choice == 0 or len(allocated) < 2:
        return replace(gene, reexecutions=rng.randint(1, 2))
    others = [p for p in allocated if len(allocated) == 1 or True]
    if choice == 1 and len(allocated) >= 3:
        replicas = tuple(rng.choice(others) for _ in range(2))
        return replace(
            gene,
            active_replicas=replicas,
            voter_processor=rng.choice(allocated),
        )
    return replace(
        gene,
        active_replicas=(rng.choice(others),),
        passive_replicas=(rng.choice(others),),
        voter_processor=rng.choice(allocated),
    )
