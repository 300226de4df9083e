"""Layered random task-graph generation (TGFF style).

Graphs are built layer by layer: every non-source task draws at least one
predecessor from an earlier layer, every non-sink task feeds at least one
successor, and extra edges are added with a configurable probability.
Periods are derived from the generated critical path through a slack
factor, so deadline tightness is a first-class generation knob — §5.2 of
the paper observes that task dropping helps most "when the deadline is
close to the scheduling make-span".
"""

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.problem import Problem
from repro.errors import ModelError
from repro.model.application import ApplicationSet
from repro.model.architecture import (
    Architecture,
    Interconnect,
    InterconnectKind,
    Processor,
)
from repro.model.task import Channel, Task
from repro.model.taskgraph import TaskGraph


@dataclass(frozen=True)
class GraphShape:
    """Structural knobs of one generated task graph."""

    min_tasks: int = 4
    max_tasks: int = 10
    min_layers: int = 2
    max_layers: int = 5
    #: Probability of adding an extra edge between compatible layers.
    extra_edge_probability: float = 0.2

    def __post_init__(self):
        if not 1 <= self.min_tasks <= self.max_tasks:
            raise ModelError("invalid task count range")
        if not 1 <= self.min_layers <= self.max_layers:
            raise ModelError("invalid layer count range")
        if not 0.0 <= self.extra_edge_probability <= 1.0:
            raise ModelError("edge probability must lie in [0, 1]")


@dataclass(frozen=True)
class TgffConfig:
    """Timing/criticality knobs of a generated benchmark."""

    shape: GraphShape = field(default_factory=GraphShape)
    wcet_range: Tuple[float, float] = (5.0, 40.0)
    #: bcet is wcet times a factor drawn from this range.
    bcet_factor_range: Tuple[float, float] = (0.4, 0.9)
    detection_overhead_factor: float = 0.05
    voting_overhead_factor: float = 0.05
    comm_size_range: Tuple[float, float] = (16.0, 256.0)
    #: Channel payload distribution: ``uniform`` draws every size from
    #: ``comm_size_range`` (the historical behaviour, draw-for-draw);
    #: ``bimodal`` models control-vs-bulk traffic — most channels stay
    #: in ``comm_size_range`` (control), a seeded fraction draw from
    #: ``comm_bulk_range`` (bulk DMA-style transfers).
    comm_size_distribution: str = "uniform"
    comm_bulk_range: Tuple[float, float] = (2048.0, 8192.0)
    #: Probability that a ``bimodal`` channel is a bulk transfer.
    comm_bulk_probability: float = 0.25
    #: Period = critical-path WCET times a factor from this range; small
    #: factors make deadlines tight.
    period_slack_range: Tuple[float, float] = (2.0, 4.0)
    #: Periods are rounded up to a multiple of this quantum, which keeps
    #: hyperperiods small.
    period_quantum: float = 50.0
    reliability_target: float = 1e-7
    service_value_range: Tuple[float, float] = (1.0, 10.0)

    def __post_init__(self):
        if self.wcet_range[0] <= 0 or self.wcet_range[0] > self.wcet_range[1]:
            raise ModelError("invalid wcet range")
        if not 0 < self.bcet_factor_range[0] <= self.bcet_factor_range[1] <= 1:
            raise ModelError("invalid bcet factor range")
        if self.period_quantum <= 0:
            raise ModelError("period quantum must be positive")
        if self.comm_size_distribution not in ("uniform", "bimodal"):
            raise ModelError(
                "comm_size_distribution must be 'uniform' or 'bimodal', "
                f"got {self.comm_size_distribution!r}"
            )
        if (
            self.comm_bulk_range[0] <= 0
            or self.comm_bulk_range[0] > self.comm_bulk_range[1]
        ):
            raise ModelError("invalid comm bulk range")
        if not 0.0 <= self.comm_bulk_probability <= 1.0:
            raise ModelError("comm bulk probability must lie in [0, 1]")


def _draw_channel_size(rng: random.Random, config: TgffConfig) -> float:
    """One channel payload draw under the configured distribution.

    ``uniform`` consumes exactly one ``rng.uniform`` call, preserving the
    historical draw sequence — seeds generated before the distribution
    knob existed keep producing byte-identical systems.
    """
    if config.comm_size_distribution == "uniform":
        return round(rng.uniform(*config.comm_size_range), 1)
    if rng.random() < config.comm_bulk_probability:
        return round(rng.uniform(*config.comm_bulk_range), 1)
    return round(rng.uniform(*config.comm_size_range), 1)


def _weak_components(
    names: List[str], edges: Iterable[Tuple[str, str]]
) -> List[Set[str]]:
    """Weakly-connected components, ordered by their first name in ``names``."""
    parent = {name: name for name in names}

    def root(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for src, dst in edges:
        parent[root(src)] = root(dst)
    components: Dict[str, Set[str]] = {}
    for name in names:
        components.setdefault(root(name), set()).add(name)
    return list(components.values())


def generate_task_graph(
    name: str,
    rng: random.Random,
    config: Optional[TgffConfig] = None,
    droppable: bool = False,
    task_prefix: Optional[str] = None,
) -> TaskGraph:
    """Generate one random layered task graph.

    ``task_prefix`` defaults to ``name`` and guarantees globally unique
    task names when graphs are combined into an application set.
    """
    config = config or TgffConfig()
    shape = config.shape
    prefix = task_prefix if task_prefix is not None else name

    task_count = rng.randint(shape.min_tasks, shape.max_tasks)
    layer_count = min(rng.randint(shape.min_layers, shape.max_layers), task_count)
    # Distribute tasks over layers: every layer gets at least one.
    layers: List[List[str]] = [[] for _ in range(layer_count)]
    tasks: List[Task] = []
    for index in range(task_count):
        layer = index if index < layer_count else rng.randrange(layer_count)
        task_name = f"{prefix}_t{index}"
        wcet = rng.uniform(*config.wcet_range)
        bcet = wcet * rng.uniform(*config.bcet_factor_range)
        tasks.append(
            Task(
                name=task_name,
                bcet=round(bcet, 3),
                wcet=round(wcet, 3),
                detection_overhead=round(wcet * config.detection_overhead_factor, 3),
                voting_overhead=round(wcet * config.voting_overhead_factor, 3),
            )
        )
        layers[layer].append(task_name)
    layers = [layer for layer in layers if layer]

    channels: List[Channel] = []
    existing = set()

    def add_channel(src: str, dst: str) -> None:
        if (src, dst) in existing:
            return
        existing.add((src, dst))
        channels.append(
            Channel(src=src, dst=dst, size=_draw_channel_size(rng, config))
        )

    # Mandatory connectivity.
    for layer_index in range(1, len(layers)):
        earlier = [t for layer in layers[:layer_index] for t in layer]
        for task_name in layers[layer_index]:
            add_channel(rng.choice(earlier), task_name)
    for layer_index in range(len(layers) - 1):
        later = [t for layer in layers[layer_index + 1:] for t in layer]
        for task_name in layers[layer_index]:
            if not any(src == task_name for src, _dst in existing):
                add_channel(task_name, rng.choice(later))
    # Optional extra edges.
    for src_index in range(len(layers) - 1):
        for src in layers[src_index]:
            for dst_layer in layers[src_index + 1:]:
                for dst in dst_layer:
                    if rng.random() < shape.extra_edge_probability:
                        add_channel(src, dst)

    # Stitch weakly-connected components together: grafting an edge from
    # the first layer-0 task to another component's source keeps the graph
    # a DAG and mirrors how TGFF emits single-component graphs.
    components = _weak_components([t.name for t in tasks], existing)
    if len(components) > 1:
        anchor = layers[0][0]
        for component in components:
            if anchor in component:
                continue
            target = sorted(component)[0]
            if (anchor, target) not in existing:
                add_channel(anchor, target)

    # Period from the critical path (need a draft graph to measure it).
    draft = TaskGraph(
        name=name,
        tasks=tasks,
        channels=channels,
        period=1.0,
        service_value=1.0,
    )
    slack = rng.uniform(*config.period_slack_range)
    raw_period = draft.critical_path_wcet() * slack
    # Snap to quantum * 2^k so that mixed periods stay harmonic and the
    # hyperperiod never exceeds the largest period.
    quantum = config.period_quantum
    period = quantum
    while period < raw_period:
        period *= 2

    if droppable:
        return TaskGraph(
            name=name,
            tasks=tasks,
            channels=channels,
            period=period,
            service_value=round(rng.uniform(*config.service_value_range), 2),
        )
    return TaskGraph(
        name=name,
        tasks=tasks,
        channels=channels,
        period=period,
        reliability_target=config.reliability_target,
    )


def generate_application_set(
    rng: random.Random,
    critical_graphs: int,
    droppable_graphs: int,
    config: Optional[TgffConfig] = None,
    name_prefix: str = "synth",
) -> ApplicationSet:
    """Generate a mixed-criticality application set."""
    if critical_graphs < 0 or droppable_graphs < 0 or not (
        critical_graphs + droppable_graphs
    ):
        raise ModelError("need at least one graph to generate")
    graphs = []
    for index in range(critical_graphs):
        graphs.append(
            generate_task_graph(
                f"{name_prefix}_hi{index}", rng, config, droppable=False
            )
        )
    for index in range(droppable_graphs):
        graphs.append(
            generate_task_graph(
                f"{name_prefix}_lo{index}", rng, config, droppable=True
            )
        )
    return ApplicationSet(graphs)


def generate_architecture(
    rng: random.Random,
    processors: int,
    types: int = 2,
    static_power_range: Tuple[float, float] = (0.5, 2.0),
    dynamic_power_range: Tuple[float, float] = (2.0, 6.0),
    fault_rate_range: Tuple[float, float] = (1e-6, 1e-4),
    bandwidth: float = 1_000.0,
    base_latency: float = 0.1,
    comm_backend: str = "flat",
    arq_retries: int = 0,
    arq_timeout: float = 0.0,
) -> Architecture:
    """Generate a random heterogeneous platform.

    ``comm_backend``/``arq_retries``/``arq_timeout`` configure the
    fabric's contention model (see :mod:`repro.comm`); the defaults keep
    the historical flat fabric and byte-identical serialized output.
    """
    if processors < 1:
        raise ModelError("need at least one processor")
    if types < 1:
        raise ModelError("need at least one processor type")
    pes = []
    for index in range(processors):
        ptype = f"type{index % types}"
        pes.append(
            Processor(
                name=f"pe{index}",
                ptype=ptype,
                static_power=round(rng.uniform(*static_power_range), 3),
                dynamic_power=round(rng.uniform(*dynamic_power_range), 3),
                fault_rate=rng.uniform(*fault_rate_range),
            )
        )
    interconnect = Interconnect(
        bandwidth=bandwidth,
        base_latency=base_latency,
        kind=InterconnectKind.SHARED_BUS,
        comm_backend=comm_backend,
        arq_retries=arq_retries,
        arq_timeout=arq_timeout,
    )
    return Architecture(pes, interconnect)


def generate_problem(
    seed: int,
    critical_graphs: int = 2,
    droppable_graphs: int = 2,
    processors: int = 4,
    config: Optional[TgffConfig] = None,
    name_prefix: str = "synth",
) -> Problem:
    """Generate a complete random problem instance from one seed."""
    rng = random.Random(seed)
    applications = generate_application_set(
        rng,
        critical_graphs,
        droppable_graphs,
        config=config,
        name_prefix=name_prefix,
    )
    architecture = generate_architecture(rng, processors)
    return Problem(applications=applications, architecture=architecture)


def comm_dominated_problem(
    seed: int = 7,
    comm_backend: str = "shared-bus",
    arq_retries: int = 2,
    arq_timeout: float = 0.5,
    processors: int = 4,
) -> Problem:
    """A comm-dominated instance: bulk payloads over a slow small fabric.

    Bimodal channel sizes skewed toward bulk transfers, paired with a
    low-bandwidth four-PE platform, make communication (not computation)
    the response-time driver — the workload class the contention-aware
    backends in :mod:`repro.comm` exist for.  Deterministic in ``seed``.
    """
    config = TgffConfig(
        comm_size_distribution="bimodal",
        comm_bulk_probability=0.6,
    )
    rng = random.Random(seed)
    applications = generate_application_set(
        rng, critical_graphs=2, droppable_graphs=2, config=config
    )
    architecture = generate_architecture(
        rng,
        processors,
        bandwidth=200.0,
        base_latency=0.5,
        comm_backend=comm_backend,
        arq_retries=arq_retries,
        arq_timeout=arq_timeout,
    )
    return Problem(applications=applications, architecture=architecture)
