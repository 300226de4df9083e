"""Hyperperiod unrolling: task graphs to job sets.

Every task graph instance released in the analysis horizon becomes a set of
*jobs* (one per task) linked by the instance's channels.  The horizon spans
**two** hyperperiods: jobs of the first hyperperiod are the analysis
subjects, jobs of the second only contribute interference so that bounds
near the boundary remain safe.

Per paper §3, the system returns to the normal state at the end of the
hyperperiod; second-hyperperiod jobs therefore always keep their nominal
execution-time bounds, even when Algorithm 1 explores a critical-state
transition in the first hyperperiod.

Layout.  Every instance of a graph unrolls to the same jobs, so
:func:`unroll` builds each graph's one-instance :class:`GraphTemplate`
once (processors, scaled bounds, channel latencies, precedence edges,
ancestors and batch split pattern) and tiles it over the instances into
the per-job and per-edge arrays of :class:`JobColumns`.  Jobs are numbered
graph by graph, instance by instance, in template order, which is a
topological order.  The interference pairs and batches the back-ends
need are derived from the columns with vector operations, once per
structure; :class:`Job` and :class:`Batch` records are views built only
for callers that read :attr:`JobSet.jobs` or :meth:`JobSet.batches`.
"""

import hashlib
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Mapping as TMapping, Optional, Sequence, Tuple

import numpy as np

from repro.comm.base import CommBackend
from repro.comm.busjobs import BusJobsBound
from repro.comm.flat import FlatBackend
from repro.errors import AnalysisError
from repro.model.application import ApplicationSet
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.model.taskgraph import TaskGraph
from repro.obs.trace import span as trace_span
from repro.sched.priority import assign_priorities

#: A job is identified by its task name and the instance index of its graph.
JobId = Tuple[str, int]

#: Name of the virtual processor hosting message jobs (see :func:`unroll`
#: and the ``bus-jobs`` comm backend).
BUS_RESOURCE = "__bus__"


@dataclass(frozen=True)
class Batch:
    """All jobs of one graph instance on one processor (see
    :meth:`JobSet.batches`)."""

    #: Dense indices of the member jobs.
    members: Tuple[int, ...]
    #: ``(pred index, worst-case comm)`` for every out-of-batch dependency.
    external_preds: Tuple[Tuple[int, float], ...]
    #: Latest member release.
    release: float
    #: Same-processor jobs with higher priority than the weakest member.
    interferers: Tuple[int, ...]


@dataclass(frozen=True)
class Job:
    """One execution of a task within the analysis horizon."""

    index: int
    task_name: str
    graph_name: str
    instance: int
    release: float
    abs_deadline: float
    processor: str
    priority: int
    bcet: float
    wcet: float
    #: ``(predecessor job index, best-case comm, worst-case comm, on_demand)``
    #: tuples; ``on_demand`` marks passive-replication request edges.
    preds: Tuple[Tuple[int, float, float, bool], ...]
    #: Whether the job belongs to the first hyperperiod (analysis subject).
    analyzed: bool
    #: Whether the job's graph is droppable.
    droppable: bool

    @property
    def job_id(self) -> JobId:
        """The ``(task, instance)`` identifier."""
        return (self.task_name, self.instance)


class GraphTemplate:
    """One instance of a task graph, unrolled at local job indices.

    Local order is the graph's topological order with every message job
    placed directly before its consumer, so predecessors come first.
    Channel latencies keep the values the comm model returned.
    """

    def __init__(self, graph: TaskGraph):
        self.graph = graph
        #: Per local job: name, processor name, scaled bounds, topological
        #: level, and ancestors as a bitset (bit ``a`` set: ``a`` precedes).
        self.names: List[str] = []
        self.processors: List[str] = []
        self.bcet: List[float] = []
        self.wcet: List[float] = []
        self.level: List[int] = []
        self.ancestors: List[int] = []
        #: The task whose priority key the job takes: itself, or the
        #: producer of a message; ``sub`` orders a task's jobs (0 for the
        #: task, then its messages by name).
        self.producer: List[int] = []
        self.sub: List[int] = []
        #: Longest predecessor chain of each task (EDF tie-break).
        self.depth: List[int] = []
        #: ``(src, dst, best, worst, on_demand)`` in consumer order.
        self.edges: List[Tuple[int, int, float, float, bool]] = []
        #: Batches, by processor name, then split: processor and bitset of
        #: members and their ancestors per batch; members and external
        #: ``(src, worst)`` inputs, batch by batch, with their batch.
        self.batch_processors: List[str] = []
        self.batch_excluded: List[int] = []
        self.members: List[int] = []
        self.member_batch: List[int] = []
        self.external: List[Tuple[int, float]] = []
        self.external_batch: List[int] = []

    def add(self, name, processor, bcet, wcet, producer, depth, inputs) -> int:
        """Append a local job fed by ``(src, best, worst, on_demand)`` inputs."""
        local = len(self.names)
        ancestors = 0
        level = 0
        for src, best, worst, on_demand in inputs:
            self.edges.append((src, local, best, worst, on_demand))
            ancestors |= self.ancestors[src] | (1 << src)
            level = max(level, self.level[src] + 1)
        self.names.append(name)
        self.processors.append(processor)
        self.bcet.append(bcet)
        self.wcet.append(wcet)
        self.level.append(level)
        self.ancestors.append(ancestors)
        self.producer.append(local if producer is None else producer)
        self.sub.append(0)
        self.depth.append(depth)
        return local

    def finish(self) -> None:
        """Order message jobs per producer and split the batches."""
        messages: Dict[int, List[int]] = {}
        for local, producer in enumerate(self.producer):
            if producer != local:
                messages.setdefault(producer, []).append(local)
        for group in messages.values():
            for position, local in enumerate(sorted(group, key=self.names.__getitem__)):
                self.sub[local] = position + 1

        preds: List[List[Tuple[int, float]]] = [[] for _ in self.names]
        for src, dst, _best, worst, _on_demand in self.edges:
            preds[dst].append((src, worst))
        by_pe: Dict[str, List[int]] = {}
        for local, processor in enumerate(self.processors):
            by_pe.setdefault(processor, []).append(local)
        for processor in sorted(by_pe):
            # Split the group at re-entrant points: if a member's external
            # input transitively depends on an earlier member (e.g. a
            # voter waiting for an off-processor replica of a co-located
            # task), the batch arrival would depend on its own members and
            # the bound would self-inflate.  Cutting there keeps every
            # sub-batch's external inputs independent of its members.
            current: List[int] = []
            bits = 0
            for local in by_pe[processor]:
                if any(
                    not bits >> src & 1 and self.ancestors[src] & bits
                    for src, _worst in preds[local]
                ):
                    self._add_batch(processor, current, bits, preds)
                    current, bits = [], 0
                current.append(local)
                bits |= 1 << local
            self._add_batch(processor, current, bits, preds)

    def _add_batch(self, processor, members, bits, preds) -> None:
        batch = len(self.batch_processors)
        # An ancestor of any member completes no later than the batch
        # arrival (its effect travels through some external input), so it
        # can never execute inside the batch's busy interval.
        excluded = bits
        for local in members:
            excluded |= self.ancestors[local]
            for src, worst in preds[local]:
                if not bits >> src & 1:
                    self.external.append((src, worst))
                    self.external_batch.append(batch)
        self.batch_processors.append(processor)
        self.batch_excluded.append(excluded)
        self.members += members
        self.member_batch += [batch] * len(members)


class JobColumns:
    """The structure of a :class:`JobSet` as read-only arrays.

    Per job (dense index): ``task`` (index into :attr:`task_names`, one
    entry per template job), ``graph``, ``instance``, ``local`` (template
    index), ``release``, ``deadline``, ``processor`` (index into the
    sorted :attr:`processor_names`), ``priority`` (rank, smaller is
    higher), ``level``, ``analyzed`` and the nominal ``bcet``/``wcet``;
    per graph ``graph_droppable``.  Per precedence edge, in consumer order:
    ``pred_src``, ``pred_dst``, ``pred_best``, ``pred_worst`` and
    ``pred_edge`` (the template edge it tiles).
    """

    def __init__(
        self,
        templates: Sequence[GraphTemplate],
        counts: Sequence[int],
        hyperperiod: float,
        policy: str,
        priorities: TMapping[str, int],
    ):
        self.templates = tuple(templates)
        graphs = [template.graph for template in templates]
        self.graph_names = tuple(graph.name for graph in graphs)
        self.graph_droppable = tuple(graph.droppable for graph in graphs)
        self.task_names = tuple(name for t in templates for name in t.names)
        self.task_index = {name: i for i, name in enumerate(self.task_names)}
        self.processor_names = tuple(sorted({p for t in templates for p in t.processors}))
        self.sizes = _ints([len(t.names) for t in templates])
        self.counts = _ints(counts)
        task_start = _starts(self.sizes)
        self.job_start = _starts(self.sizes * self.counts)
        self.edge_values = [
            (best, worst, on_demand)
            for t in templates
            for _src, _dst, best, worst, on_demand in t.edges
        ]

        # Flat template arrays, graph by graph.
        code = {name: i for i, name in enumerate(self.processor_names)}
        producer = _ints(
            [start + p for t, start in zip(templates, task_start.tolist()) for p in t.producer]
        )
        t_graph = np.repeat(np.arange(len(templates)), self.sizes)
        t_processor = _ints([code[p] for t in templates for p in t.processors])
        t_level = _ints([level for t in templates for level in t.level])
        t_sub = _ints([sub for t in templates for sub in t.sub])
        edge_counts = _ints([len(t.edges) for t in templates])
        e_src = _ints([src for t in templates for src, *_rest in t.edges])
        e_dst = _ints([edge[1] for t in templates for edge in t.edges])
        e_best = np.array([best for best, _worst, _od in self.edge_values], dtype=float)
        e_worst = np.array([worst for _best, worst, _od in self.edge_values], dtype=float)
        #: ``ancestors[t, l]``: local job ``l`` precedes template job ``t``
        #: in its instance (one row per template job, template-local
        #: columns).
        self.ancestors = _bit_matrix(
            [bits for t in templates for bits in t.ancestors], int(self.sizes.max())
        )
        t_local = np.arange(len(t_graph)) - task_start[t_graph]
        #: Per template job: ``(index of its instance-0 job, template
        #: size, instance count)``; instance ``i`` is at ``first + i * size``.
        self.task_slots = list(
            zip(
                (self.job_start[t_graph] + t_local).tolist(),
                self.sizes[t_graph].tolist(),
                self.counts[t_graph].tolist(),
            )
        )

        # Tile: one block per (graph, instance), graph by graph.
        block_graph = np.repeat(np.arange(len(templates)), self.counts)
        block_instance = np.arange(len(block_graph)) - np.repeat(
            _starts(self.counts), self.counts
        )
        block_size = self.sizes[block_graph]
        block_job = _starts(block_size)
        period = np.array([graph.period for graph in graphs])
        block_release = block_instance * period[block_graph]
        block_deadline = block_release + np.array([g.deadline for g in graphs])[block_graph]

        task, block = _tile(block_size, task_start[block_graph])
        #: Per (graph, instance) block, graph by graph.
        self.block_graph = block_graph
        self.block_instance = block_instance
        self.block_release = block_release
        self.block_deadline = block_deadline
        self.task = task
        self.block = block
        self.graph = t_graph[task]
        self.instance = block_instance[block]
        self.local = t_local[task]
        self.release = block_release[block]
        self.deadline = block_deadline[block]
        self.processor = t_processor[task]
        self.level = t_level[task]
        self.block_analyzed = block_release < hyperperiod
        self.analyzed = self.block_analyzed[block]
        self.bcet = np.array([b for t in templates for b in t.bcet], dtype=float)[task]
        self.wcet = np.array([w for t in templates for w in t.wcet], dtype=float)[task]

        edge, edge_block = _tile(edge_counts[block_graph], _starts(edge_counts)[block_graph])
        self.pred_edge = edge
        self.pred_src = block_job[edge_block] + e_src[edge]
        self.pred_dst = block_job[edge_block] + e_dst[edge]
        self.pred_best = e_best[edge]
        self.pred_worst = e_worst[edge]

        # Unique ranks: (task priority, release, name) for fixed priority;
        # (absolute deadline, depth, name) for EDF, with topological depth
        # breaking deadline ties so pipelines drain in order.  A message
        # job takes its producer's key and ranks right after it.
        owner = producer[task]
        name_code = {name: i for i, name in enumerate(sorted(self.task_names))}
        names = [self.task_names[p] for p in producer.tolist()]
        owner_name = _ints([name_code[name] for name in names])[task]
        if policy == "edf":
            depth = np.array([d for t in templates for d in t.depth], dtype=float)
            primary, secondary = self.deadline, depth[owner]
        else:
            static = np.array([float(priorities[name]) for name in names])
            primary, secondary = static[task], self.release
        order = np.lexsort((t_sub[task], self.instance, owner_name, secondary, primary))
        self.priority = np.empty(len(task), dtype=np.int64)
        self.priority[order] = np.arange(len(task))

        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __len__(self) -> int:
        return len(self.task)

    def related(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Whether jobs ``a[k]`` and ``b[k]`` are precedence-related.

        Precedence never crosses an instance, so only pairs of one graph
        instance can be related; the template's ancestor matrix decides.
        """
        ancestors = self.ancestors
        return (self.block[a] == self.block[b]) & (
            ancestors[self.task[a], self.local[b]] | ancestors[self.task[b], self.local[a]]
        )

    @cached_property
    def ranked(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, position, first)``: jobs sorted by processor, then
        rank; each job's position in that order; and the position of the
        first job of each processor."""
        order = np.lexsort((self.priority, self.processor))
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        counts = np.bincount(self.processor, minlength=len(self.processor_names))
        return _frozen(order), _frozen(position), _frozen(_starts(counts))


@dataclass(frozen=True)
class BatchColumns:
    """The batches of a job set as index arrays (see :meth:`JobSet.batches`).

    Members are listed batch by batch; external predecessors and
    interferers are listed batch by batch, each group in batch order.
    """

    release: np.ndarray
    member_batch: np.ndarray
    member_flat: np.ndarray
    #: First position in ``member_flat`` of every batch.
    batch_starts: np.ndarray
    #: The batch of every job.
    job_batch: np.ndarray
    ext_batch: np.ndarray
    ext_src: np.ndarray
    ext_comm: np.ndarray
    int_batch: np.ndarray
    int_other: np.ndarray


class JobSet:
    """An immutable indexed collection of jobs plus platform context.

    The structure lives in shared :class:`JobColumns`; execution-time
    bounds live in two float arrays (:attr:`bcet`, :attr:`wcet`), the only
    part :meth:`with_bound_arrays` clones replace.  Derived structure
    (interference pairs, batches, index groups, digest, and the
    :class:`Job`/:class:`Batch` views) is built on first use and shared
    with every clone.
    """

    def __init__(
        self,
        columns: JobColumns,
        hyperperiod: float,
        applications: ApplicationSet,
        mapping: Mapping,
        hyperperiods: int = 2,
        comm_token: str = "",
    ):
        self._columns = columns
        self._jobs: Optional[Tuple[Job, ...]] = None
        self._bcet = columns.bcet
        self._wcet = columns.wcet
        self._hyperperiod = hyperperiod
        self._hyperperiods = hyperperiods
        self._applications = applications
        self._mapping = mapping
        self._comm_token = comm_token
        self._topo_order: Tuple[int, ...] = tuple(range(len(columns)))
        #: Lazily derived structure, shared by reference with every clone.
        self._derived: Dict[str, object] = {}

    @property
    def columns(self) -> JobColumns:
        """The per-job and per-edge structure arrays."""
        return self._columns

    def batches(self) -> Tuple["Batch", ...]:
        """Work-conserving batches: same graph instance, same processor.

        All jobs of one graph instance mapped on one processor form a
        *batch*: every dependency of a member is either another member
        (and thus served on the same processor without idling) or
        external.  Once every member has been released and every external
        input has arrived, the processor finishes the whole batch after
        ``sum(member wcet)`` plus each interfering higher-priority job at
        most once — a bound that avoids charging the same interferer at
        every stage of a co-located chain.  Batches are ordered by graph
        name, instance and processor name; groups with re-entrant inputs
        are split (see :meth:`GraphTemplate.finish`).  The batch structure
        does not depend on execution-time bounds, so it is computed once
        and shared across :meth:`with_bounds` clones.
        """
        return self.derived("batch_records", self._batch_records)

    def batch_columns(self) -> BatchColumns:
        """The batches as index arrays (the back-end's view)."""
        return self.derived("batches", lambda: _batch_columns(self._columns))

    def interference_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(victim, interferer)`` index arrays of every same-processor,
        higher-priority pair not related by precedence; victims ascending,
        each victim's interferers in rank order.

        A job's ancestors always complete before it arrives and its
        descendants cannot start before it completes, so neither can ever
        be *pending* concurrently with it — they are soundly excluded
        from the same-processor interference sets.
        """
        return self.derived("hp", lambda: _interference_pairs(self._columns))

    def _batch_records(self) -> Tuple["Batch", ...]:
        columns = self.batch_columns()
        count = len(columns.release)
        members = _groups(columns.member_batch, columns.member_flat.tolist(), count)
        external = _groups(
            columns.ext_batch,
            list(zip(columns.ext_src.tolist(), columns.ext_comm.tolist())),
            count,
        )
        interferers = _groups(columns.int_batch, columns.int_other.tolist(), count)
        return tuple(
            Batch(
                members=tuple(members[b]),
                external_preds=tuple(external[b]),
                release=release,
                interferers=tuple(interferers[b]),
            )
            for b, release in enumerate(columns.release.tolist())
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def jobs(self) -> Tuple[Job, ...]:
        """All jobs, indexed densely from 0 (built on first read)."""
        jobs = self._jobs
        if jobs is None:
            jobs = tuple(
                job
                if job.bcet == bcet and job.wcet == wcet
                else replace(job, bcet=bcet, wcet=wcet)
                for job, bcet, wcet in zip(
                    self.derived("jobs", self._job_records),
                    self._bcet.tolist(),
                    self._wcet.tolist(),
                )
            )
            self._jobs = jobs
        return jobs

    def _job_records(self) -> Tuple[Job, ...]:
        """The jobs with their nominal bounds."""
        c = self._columns
        preds = _groups(
            c.pred_dst,
            [
                (src,) + c.edge_values[edge]
                for src, edge in zip(c.pred_src.tolist(), c.pred_edge.tolist())
            ],
            len(c),
        )
        return tuple(
            Job(
                index=index,
                task_name=c.task_names[task],
                graph_name=c.graph_names[graph],
                instance=instance,
                release=release,
                abs_deadline=deadline,
                processor=c.processor_names[processor],
                priority=priority,
                bcet=bcet,
                wcet=wcet,
                preds=tuple(preds[index]),
                analyzed=analyzed,
                droppable=c.graph_droppable[graph],
            )
            for index, (
                task, graph, instance, release, deadline, processor, priority,
                bcet, wcet, analyzed,
            ) in enumerate(
                zip(
                    *(
                        array.tolist()
                        for array in (
                            c.task, c.graph, c.instance, c.release, c.deadline,
                            c.processor, c.priority, c.bcet, c.wcet, c.analyzed,
                        )
                    )
                )
            )
        )

    @property
    def bcet(self) -> np.ndarray:
        """Per-job best-case execution times (read-only)."""
        return self._bcet

    @property
    def wcet(self) -> np.ndarray:
        """Per-job worst-case execution times (read-only)."""
        return self._wcet

    @property
    def release(self) -> np.ndarray:
        """Per-job release times (read-only)."""
        return self._columns.release

    @property
    def analyzed_mask(self) -> np.ndarray:
        """Per-job first-hyperperiod flags (read-only)."""
        return self._columns.analyzed

    def analyzed_groups(self, key: str) -> "IndexGroups":
        """First-hyperperiod jobs grouped by ``"graph_name"`` or
        ``"task_name"``, for one ``ufunc.reduceat`` per aggregate.

        Groups follow first appearance in job order (instance 0 of every
        graph is released at 0, so every name has a group); members
        ascend."""
        if key not in ("graph_name", "task_name"):
            raise AnalysisError(f"cannot group jobs by {key!r}")

        def build() -> IndexGroups:
            c = self._columns
            members = np.flatnonzero(c.analyzed)
            if key == "graph_name":
                labels, names = c.graph[members], c.graph_names
            else:
                labels, names = c.task[members], c.task_names
            return IndexGroups(
                names=names,
                order=members[np.argsort(labels, kind="stable")],
                starts=_starts(np.bincount(labels, minlength=len(names))),
                positions={name: k for k, name in enumerate(names)},
            )

        return self.derived(f"groups:{key}", build)

    def derived(self, name: str, build):
        """``build()``, computed once per structure and shared with every
        clone; threads racing on a first build share the first stored
        value.  ``build`` must depend on the structure only, never on the
        execution-time bounds."""
        value = self._derived.get(name)
        if value is None:
            with trace_span("sched.jobset.build", part=name, jobs=len(self)):
                value = self._derived.setdefault(name, build())
        return value

    @property
    def hyperperiod(self) -> float:
        """Hyperperiod of the application set."""
        return self._hyperperiod

    @property
    def horizon(self) -> float:
        """Length of the unrolled horizon."""
        return self._hyperperiods * self._hyperperiod

    @property
    def applications(self) -> ApplicationSet:
        """The (hardened) application set the jobs derive from."""
        return self._applications

    @property
    def mapping(self) -> Mapping:
        """The task-to-processor mapping in force."""
        return self._mapping

    @property
    def topo_order(self) -> Tuple[int, ...]:
        """Job indices in a precedence-compatible order."""
        return self._topo_order

    @property
    def comm_token(self) -> str:
        """Canonical identity of the comm model the set was unrolled with.

        Empty for the legacy flat model (fingerprints stay byte-stable);
        non-empty tokens enter :meth:`fingerprint` so two systems
        differing only in their comm configuration can never collide in
        the ScheduleCache.
        """
        return self._comm_token

    def __len__(self) -> int:
        return len(self._columns)

    def _find(self, job_id: JobId) -> Optional[int]:
        c = self._columns
        try:
            name, instance = job_id
            task = c.task_index.get(name)
            instance = operator.index(instance)
        except (TypeError, ValueError):
            return None
        if task is None:
            return None
        first, size, count = c.task_slots[task]
        return first + instance * size if 0 <= instance < count else None

    def index_of(self, job_id: JobId) -> int:
        """Dense index of a job given by ``(task, instance)``."""
        index = self._find(job_id)
        if index is None:
            raise AnalysisError(f"no job {job_id!r} in the job set")
        return index

    def job(self, job_id: JobId) -> Job:
        """Look up a job by ``(task, instance)``."""
        return self.jobs[self.index_of(job_id)]

    def jobs_of_task(self, task_name: str) -> List[Job]:
        """All jobs of a task across the horizon."""
        task = self._columns.task_index.get(task_name)
        if task is None:
            return []
        first, size, count = self._columns.task_slots[task]
        jobs = self.jobs
        return [jobs[i] for i in range(first, first + size * count, size)]

    @property
    def analyzed_jobs(self) -> List[Job]:
        """All first-hyperperiod jobs."""
        return [job for job in self.jobs if job.analyzed]

    def higher_priority_on_same_pe(self, job_index: int) -> Tuple[int, ...]:
        """Indices of higher-priority jobs sharing the job's processor."""

        def build() -> List[Tuple[int, ...]]:
            victim, other = self.interference_pairs()
            return [tuple(group) for group in _groups(victim, other.tolist(), len(self))]

        return self.derived("hp_lists", build)[job_index]

    # ------------------------------------------------------------------
    # Canonical identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Canonical digest of the analysis input.

        Two job sets with equal fingerprints are indistinguishable to any
        :class:`~repro.sched.wcrt.SchedBackend`: same jobs (names, graph
        membership, releases, deadlines, processors, priorities, flags),
        same precedence edges with the same channel latencies, same
        iteration order, and same per-job ``[bcet, wcet]`` bounds — so a
        :class:`~repro.sched.wcrt.ScheduleBounds` computed for one is
        valid verbatim for the other.  Floats enter the digest via their
        exact hex encoding; no rounding is involved.

        The structural part (everything except the execution-time bounds)
        is hashed once and shared across :meth:`with_bounds` clones, so a
        fingerprint costs one pass over the packed bcet/wcet arrays on the
        Algorithm-1 hot path.  The arrays enter as little-endian
        ``(bcet, wcet)`` double pairs, job by job.
        """
        digest = hashlib.sha256(self._structure())
        pairs = np.column_stack((self._bcet, self._wcet))
        digest.update(pairs.astype("<f8", copy=False).tobytes())
        return digest.hexdigest()

    def _structure(self) -> bytes:
        return self.derived("digest", self._structure_digest)

    def _structure_digest(self) -> bytes:
        """sha256 over one ``repr`` line per job, job by job.

        Each template job's line is a ``%`` format with only the
        per-instance values left open, filled from Python values
        (``tolist``) so no numpy scalar repr can reach the digest."""
        c = self._columns
        parts: List[str] = [
            repr((self._hyperperiod.hex(), self._hyperperiods)),
            repr(self._topo_order),
        ]
        if self._comm_token:
            parts.append(f"comm={self._comm_token}")
        lines = [line for template in c.templates for line in _digest_formats(template)]
        release = [repr(value.hex()) for value in c.block_release.tolist()]
        deadline = [repr(value.hex()) for value in c.block_deadline.tolist()]
        analyzed = [repr(value) for value in c.block_analyzed.tolist()]
        sources = _groups(c.pred_dst, c.pred_src.tolist(), len(c))
        for task, block, instance, priority, preds in zip(
            c.task.tolist(), c.block.tolist(), c.instance.tolist(),
            c.priority.tolist(), sources,
        ):
            parts.append(
                lines[task]
                % (instance, release[block], deadline[block], priority, analyzed[block], *preds)
            )
        return hashlib.sha256("\n".join(parts).encode("utf-8")).digest()

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def with_bounds(self, overrides: TMapping[JobId, Tuple[float, float]]) -> "JobSet":
        """A copy where the listed jobs carry new ``(bcet, wcet)`` bounds.

        Only first-hyperperiod jobs may be overridden: the system is back
        to the normal state in the second hyperperiod (paper §3).
        """
        if not overrides:
            return self
        bcet = np.array(self._bcet)
        wcet = np.array(self._wcet)
        for job_id, (low, high) in overrides.items():
            index = self._find(job_id)
            if index is None:
                raise AnalysisError(f"cannot override unknown job {job_id!r}")
            bcet[index], wcet[index] = low, high
        return self.with_bound_arrays(bcet, wcet)

    def with_bound_arrays(self, bcet: np.ndarray, wcet: np.ndarray) -> "JobSet":
        """A copy carrying the given per-job ``(bcet, wcet)`` arrays.

        The array form of :meth:`with_bounds`, under the same rules; it
        returns ``self`` when no entry differs.  Clones share this set's
        structure and derived caches.
        """
        if len(bcet) != len(self) or len(wcet) != len(self):
            raise AnalysisError(f"bounds arrays must have {len(self)} entries")
        changed = (bcet != self._bcet) | (wcet != self._wcet)
        if not changed.any():
            return self
        bad = changed & (~self.analyzed_mask | (bcet < 0) | (wcet < bcet))
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            c = self._columns
            job_id = (c.task_names[int(c.task[index])], int(c.instance[index]))
            if not c.analyzed[index]:
                raise AnalysisError(
                    f"job {job_id!r} lies in the second hyperperiod and "
                    f"must keep nominal bounds"
                )
            raise AnalysisError(
                f"invalid bounds override for {job_id!r}: "
                f"[{bcet[index]}, {wcet[index]}]"
            )
        clone = object.__new__(JobSet)
        clone.__dict__.update(self.__dict__)
        clone._jobs = None
        clone._bcet = read_only_array(bcet)
        clone._wcet = read_only_array(wcet)
        return clone


@dataclass(frozen=True)
class IndexGroups:
    """Job indices grouped by name (see :meth:`JobSet.analyzed_groups`).

    ``order`` lists the indices group by group; group ``k`` is
    ``order[starts[k]:starts[k + 1]]`` and is named ``names[k]``.
    """

    names: Tuple[str, ...]
    order: np.ndarray
    starts: np.ndarray
    #: Group position of every name.
    positions: Dict[str, int]

    def members(self, name: str) -> np.ndarray:
        """The indices of one group (empty for an unknown name)."""
        position = self.positions.get(name)
        if position is None:
            return self.order[:0]
        end = self.starts[position + 1] if position + 1 < len(self.names) else None
        return self.order[self.starts[position]:end]


def read_only_array(values, dtype=float) -> np.ndarray:
    """A read-only array copy of ``values`` (safe to share between clones
    and cached results)."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _interference_pairs(c: JobColumns) -> Tuple[np.ndarray, np.ndarray]:
    """Per processor, every (victim, higher-ranked job) pair not related
    by precedence; see :meth:`JobSet.interference_pairs`.

    In the (processor, rank) order, a job's higher-ranked neighbours are
    the run from its processor's first job up to itself, so one tiling
    lists them, victim by victim in index order."""
    order, position, first = c.ranked
    start = first[c.processor]
    entry, victim = _tile(position - start, start)
    other = order[entry]
    keep = ~c.related(victim, other)
    return _frozen(victim[keep]), _frozen(other[keep])


def _batch_columns(c: JobColumns) -> BatchColumns:
    """Tile each template's batch split pattern over its instances, graphs
    in name order (see :meth:`JobSet.batches`)."""
    templates = c.templates
    code = {name: i for i, name in enumerate(c.processor_names)}
    batch_counts = _ints([len(t.batch_processors) for t in templates])
    member_counts = _ints([len(t.members) for t in templates])
    ext_counts = _ints([len(t.external) for t in templates])
    t_processor = _ints([code[p] for t in templates for p in t.batch_processors])
    m_local = _ints([m for t in templates for m in t.members])
    m_sub = _ints([b for t in templates for b in t.member_batch])
    x_src = _ints([src for t in templates for src, _worst in t.external])
    x_sub = _ints([b for t in templates for b in t.external_batch])
    x_comm = np.array([w for t in templates for _src, w in t.external], dtype=float)
    #: ``excluded[b, l]``: local job ``l`` is a member of template batch
    #: ``b`` or an ancestor of one.
    excluded = _bit_matrix(
        [bits for t in templates for bits in t.batch_excluded], int(c.sizes.max())
    )
    batch_start = _starts(batch_counts)

    # One block per (graph, instance), graphs by name.
    by_name = sorted(range(len(templates)), key=c.graph_names.__getitem__)
    name_rank = np.empty(len(templates), dtype=np.int64)
    name_rank[by_name] = np.arange(len(templates))
    job_block = np.argsort(name_rank[c.block_graph], kind="stable")
    block_graph = c.block_graph[job_block]
    block_job = c.job_start[block_graph] + c.block_instance[job_block] * c.sizes[block_graph]

    sub, batch_block = _tile(batch_counts[block_graph], batch_start[block_graph])
    block_batch = _starts(batch_counts[block_graph])
    member, member_block = _tile(
        member_counts[block_graph], _starts(member_counts)[block_graph]
    )
    member_flat = block_job[member_block] + m_local[member]
    member_batch = block_batch[member_block] + m_sub[member]
    batch_starts = _ints(np.flatnonzero(np.diff(member_batch, prepend=-1)))
    job_batch = np.zeros(len(c), dtype=np.int64)
    job_batch[member_flat] = member_batch
    ext, ext_block = _tile(ext_counts[block_graph], _starts(ext_counts)[block_graph])

    # Interferers: the run of the batch processor's jobs ranked above its
    # weakest member, minus the members and their ancestors, by index.
    order, _position, first = c.ranked
    weakest = np.maximum.reduceat(c.priority[member_flat], batch_starts)
    processor = t_processor[sub]
    key = c.processor[order] * len(c) + c.priority[order]
    start = first[processor]
    entry, int_batch = _tile(
        np.searchsorted(key, processor * len(c) + weakest) - start, start
    )
    int_other = order[entry]
    keep = ~(
        (c.block[int_other] == job_block[batch_block][int_batch])
        & excluded[sub[int_batch], c.local[int_other]]
    )
    int_batch, int_other = int_batch[keep], int_other[keep]
    by_batch = np.lexsort((int_other, int_batch))

    return BatchColumns(
        release=_frozen(c.block_release[job_block][batch_block]),
        member_batch=_frozen(member_batch),
        member_flat=_frozen(member_flat),
        batch_starts=_frozen(batch_starts),
        job_batch=_frozen(job_batch),
        ext_batch=_frozen(block_batch[ext_block] + x_sub[ext]),
        ext_src=_frozen(block_job[ext_block] + x_src[ext]),
        ext_comm=_frozen(x_comm[ext]),
        int_batch=_frozen(int_batch[by_batch]),
        int_other=_frozen(int_other[by_batch]),
    )


def unroll(
    applications: ApplicationSet,
    mapping: Mapping,
    architecture: Architecture,
    comm: Optional[CommBackend] = None,
    priorities: Optional[Dict[str, int]] = None,
    bounds: Optional[TMapping[str, Tuple[float, float]]] = None,
    hyperperiods: int = 2,
    policy: str = "fp",
) -> JobSet:
    """Unroll an application set into a :class:`JobSet` over two hyperperiods.

    Parameters
    ----------
    applications:
        The (typically hardened) application set ``T'``.
    mapping:
        Total task-to-processor mapping over ``T'``.
    architecture:
        The platform; provides processor speeds and the interconnect.
    comm:
        Channel latency model; defaults to the ``flat`` fabric of the
        platform interconnect with no ARQ budget.  A
        :class:`repro.comm.CommBackend` is bound here against the
        hardened application set, so replica and voter channels
        participate in its contention analysis (an already bound model
        binds to itself).  The bound model's ``channel_bounds`` is
        queried once per channel and its ``fingerprint_token`` enters
        the job-set fingerprint.  The ``bus-jobs`` model
        (:class:`repro.comm.busjobs.BusJobsBound`) turns every sized
        cross-processor channel into a *message job* on the virtual
        processor :data:`BUS_RESOURCE` with its ``message_bounds``,
        ranked directly after its producer, so concurrent transfers
        interfere instead of enjoying reserved bandwidth.
    priorities:
        Task priorities (smaller = higher); defaults to
        :func:`repro.sched.priority.assign_priorities`.
    bounds:
        Optional per-task ``(bcet, wcet)`` overrides applied to *all*
        instances, e.g. the nominal bounds of a hardened system (detection
        overheads included).  Tasks not listed use their model values.
    hyperperiods:
        Number of hyperperiods to unroll.  The default of 2 is what the
        analyses need (the second hyperperiod shields the first from
        boundary effects); the simulator unrolls exactly what it runs.
    policy:
        Per-processor scheduling policy: ``"fp"`` (fixed priority from
        ``priorities``, default) or ``"edf"`` (earliest absolute deadline
        first).  Jobs execute exactly once, so a static per-job rank by
        absolute deadline *is* preemptive EDF — both the analysis and the
        simulator follow the resulting job priorities.
    """
    if policy not in ("fp", "edf"):
        raise AnalysisError(f"policy must be 'fp' or 'edf', got {policy!r}")
    mapping.validate(applications, architecture)
    if comm is None:
        comm = FlatBackend(arq_retries=0)
    comm = comm.bind(applications, mapping, architecture)
    comm_token = comm.fingerprint_token
    if priorities is None:
        priorities = assign_priorities(applications)
    if hyperperiods < 1:
        raise AnalysisError(f"hyperperiods must be >= 1, got {hyperperiods}")

    hyperperiod = applications.hyperperiod
    horizon = hyperperiods * hyperperiod
    counts = [
        _instance_count(horizon, graph.period, graph.name)
        for graph in applications.graphs
    ]
    with trace_span("sched.jobset.build", part="unroll"):
        templates = [
            _template(graph, mapping, architecture, comm, bounds)
            for graph in applications.graphs
        ]
        names = [name for template in templates for name in template.names]
        if len(set(names)) != len(names):
            raise AnalysisError(
                "job identifier collision — with message jobs (comm backend "
                "'bus-jobs'), task names must not collide with generated "
                "message names ('src>dst')"
            )
        columns = JobColumns(templates, counts, hyperperiod, policy, priorities)
    return JobSet(
        columns,
        hyperperiod,
        applications,
        mapping,
        hyperperiods,
        comm_token=comm_token,
    )


def _template(graph, mapping, architecture, comm, bounds) -> GraphTemplate:
    """Unroll one instance of ``graph`` (see :class:`GraphTemplate`)."""
    message_jobs = isinstance(comm, BusJobsBound)
    template = GraphTemplate(graph)
    local_of: Dict[str, int] = {}
    depth: Dict[str, int] = {}
    for task_name in graph.topological_order():
        pe = mapping[task_name]
        channels = graph.in_channels(task_name)
        inputs = []
        for channel in channels:
            src = local_of[channel.src]
            same_pe = mapping[channel.src] == pe
            if message_jobs and channel.size > 0 and not same_pe:
                # Materialise the transfer as a bus job.
                low, high = comm.message_bounds(channel.size)
                message = template.add(
                    _message_name(channel.src, task_name), BUS_RESOURCE,
                    low, high, src, 0, [(src, 0.0, 0.0, False)],
                )
                inputs.append((message, 0.0, 0.0, channel.on_demand))
                continue
            best, worst = comm.channel_bounds(channel.src, task_name, channel.size, same_pe)
            inputs.append((src, best, worst, channel.on_demand))
        if bounds is not None and task_name in bounds:
            low, high = bounds[task_name]
        else:
            task = graph.task(task_name)
            low, high = task.bcet, task.wcet
        depth[task_name] = 1 + max((depth[channel.src] for channel in channels), default=-1)
        processor = architecture.processor(pe)
        local_of[task_name] = template.add(
            task_name, pe, processor.scale_time(low), processor.scale_time(high),
            None, depth[task_name], inputs,
        )
    template.finish()
    return template


def _ints(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: the first position of every block."""
    starts = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts


def _tile(sizes: np.ndarray, sources: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Blocks laid end to end, block ``k`` copying ``sizes[k]`` consecutive
    template entries from ``sources[k]``: ``(template entry, block)`` of
    every position."""
    block = np.repeat(np.arange(len(sizes)), sizes)
    return (sources - _starts(sizes))[block] + np.arange(len(block)), block


def _bit_matrix(bits: Sequence[int], width: int) -> np.ndarray:
    """``len(bits) x width`` booleans: row ``r`` holds the bits of ``bits[r]``."""
    nbytes = (width + 7) // 8 or 1
    raw = np.frombuffer(
        b"".join(value.to_bytes(nbytes, "little") for value in bits), dtype=np.uint8
    ).reshape(len(bits), nbytes)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :width].astype(bool)


def _digest_formats(template: GraphTemplate) -> List[str]:
    """Per template job, the ``repr`` of its digest tuple ``(task, graph,
    instance, release hex, deadline hex, processor, priority, analyzed,
    droppable, ((pred, best hex, worst hex, on_demand), ...))`` as a ``%``
    format over instance, release, deadline, priority, analyzed and the
    pred indices (``%`` in a name is doubled)."""
    preds: List[List[str]] = [[] for _ in template.names]
    for _src, dst, best, worst, on_demand in template.edges:
        preds[dst].append(f"(%d, {best.hex()!r}, {worst.hex()!r}, {on_demand!r})")
    graph = repr(template.graph.name).replace("%", "%%")
    droppable = repr(template.graph.droppable)
    formats = []
    for name, processor, inputs in zip(template.names, template.processors, preds):
        edges = ", ".join(inputs) + ("," if len(inputs) == 1 else "")
        formats.append(
            f"({repr(name).replace('%', '%%')}, {graph}, %d, %s, %s, "
            f"{repr(processor).replace('%', '%%')}, %d, %s, {droppable}, ({edges}))"
        )
    return formats


def _groups(keys: np.ndarray, values: list, count: int) -> List[list]:
    """``values`` split by their ascending ``keys`` into ``count`` lists."""
    bounds = np.searchsorted(keys, np.arange(count + 1)).tolist()
    return [values[bounds[k]:bounds[k + 1]] for k in range(count)]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _message_name(src: str, dst: str) -> str:
    """Synthetic task name of the bus job for channel ``src -> dst``."""
    return f"{src}>{dst}"


def _instance_count(horizon: float, period: float, graph_name: str) -> int:
    """Number of instances of a graph released in the horizon."""
    count = horizon / period
    rounded = round(count)
    if abs(count - rounded) > 1e-9:
        raise AnalysisError(
            f"graph {graph_name!r}: horizon {horizon} is not an integral "
            f"multiple of period {period}"
        )
    return int(rounded)
