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
"""

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping as TMapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.model.application import ApplicationSet
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.sched.comm import CommModel
from repro.sched.priority import assign_priorities

#: A job is identified by its task name and the instance index of its graph.
JobId = Tuple[str, int]

#: Name of the virtual processor hosting message jobs when the
#: contention-aware bus model is enabled (see :func:`unroll`).
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


class JobSet:
    """An immutable indexed collection of jobs plus platform context.

    Execution-time bounds live in two float arrays (:attr:`bcet`,
    :attr:`wcet`); everything else is structure that
    :meth:`with_bound_arrays` clones share with the set they derive
    from.  A clone builds its :class:`Job` records only when a caller
    reads :attr:`jobs`.
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        hyperperiod: float,
        applications: ApplicationSet,
        mapping: Mapping,
        topo_order: Sequence[int],
        hyperperiods: int = 2,
        comm_token: str = "",
    ):
        jobs = tuple(jobs)
        self._jobs: Optional[Tuple[Job, ...]] = jobs
        #: The unrolled jobs; their structural fields (everything except
        #: bcet/wcet) hold for every clone.
        self._proto: Tuple[Job, ...] = jobs
        self._bcet = read_only_array([job.bcet for job in jobs])
        self._wcet = read_only_array([job.wcet for job in jobs])
        self._hyperperiod = hyperperiod
        self._hyperperiods = hyperperiods
        self._applications = applications
        self._mapping = mapping
        self._comm_token = comm_token
        self._topo_order: Tuple[int, ...] = tuple(topo_order)
        self._by_id: Dict[JobId, int] = {job.job_id: job.index for job in jobs}
        self._by_task: Dict[str, List[int]] = {}
        for job in jobs:
            self._by_task.setdefault(job.task_name, []).append(job.index)
        #: Lazily derived structure (batches, digest, index groups),
        #: shared by reference with every clone.
        self._derived: Dict[str, object] = {}
        # Same-processor, higher-priority job indices, precomputed for the
        # interference iteration.
        self._by_pe: Dict[str, List[int]] = {}
        for job in jobs:
            self._by_pe.setdefault(job.processor, []).append(job.index)
        related = self._precedence_related()
        self._higher_priority: List[Tuple[int, ...]] = [()] * len(jobs)
        for indices in self._by_pe.values():
            ranked = sorted(indices, key=lambda i: jobs[i].priority)
            for position, job_index in enumerate(ranked):
                self._higher_priority[job_index] = tuple(
                    other
                    for other in ranked[:position]
                    if other not in related[job_index]
                )

    def batches(self) -> Tuple["Batch", ...]:
        """Work-conserving batches: same graph instance, same processor.

        All jobs of one graph instance mapped on one processor form a
        *batch*: every dependency of a member is either another member
        (and thus served on the same processor without idling) or
        external.  Once every member has been released and every external
        input has arrived, the processor finishes the whole batch after
        ``sum(member wcet)`` plus each interfering higher-priority job at
        most once — a bound that avoids charging the same interferer at
        every stage of a co-located chain.  The batch structure does not
        depend on execution-time bounds, so it is computed once and shared
        across :meth:`with_bounds` clones.
        """
        return self._derive("batches", self._build_batches)

    def _build_batches(self) -> Tuple["Batch", ...]:
        groups: Dict[Tuple[str, int, str], List[int]] = {}
        for job in self._proto:
            key = (job.graph_name, job.instance, job.processor)
            groups.setdefault(key, []).append(job.index)
        batches: List[Batch] = []
        for key in sorted(groups):
            # Split the group at re-entrant points: if a member's external
            # input transitively depends on an earlier member (e.g. a
            # voter waiting for an off-processor replica of a co-located
            # task), the batch arrival would depend on its own members and
            # the bound would self-inflate.  Cutting there keeps every
            # sub-batch's external inputs independent of its members.
            members = groups[key]
            current: List[int] = []
            for index in members:
                reentrant = False
                current_set = set(current)
                for pred_index, _best, _worst, _on_demand in self._proto[index].preds:
                    if pred_index in current_set:
                        continue
                    if self._ancestors[pred_index] & current_set:
                        reentrant = True
                        break
                if reentrant and current:
                    batches.append(self._make_batch(current, key[2]))
                    current = []
                current.append(index)
            if current:
                batches.append(self._make_batch(current, key[2]))
        return tuple(batches)

    def _make_batch(self, members: List[int], processor: str) -> "Batch":
        jobs = self._proto
        member_set = set(members)
        external: List[Tuple[int, float]] = []
        for index in members:
            for pred_index, _best, worst, _on_demand in jobs[index].preds:
                if pred_index not in member_set:
                    external.append((pred_index, worst))
        release = max(jobs[i].release for i in members)
        weakest = max(jobs[i].priority for i in members)
        # An ancestor of any member completes no later than the batch
        # arrival (its effect travels through some external input), so it
        # can never execute inside the batch's busy interval.
        ancestors: Set[int] = set()
        for index in members:
            ancestors |= self._ancestors[index]
        candidates = tuple(
            other
            for other in self._by_pe[processor]
            if other not in member_set
            and other not in ancestors
            and jobs[other].priority < weakest
        )
        return Batch(
            members=tuple(members),
            external_preds=tuple(external),
            release=release,
            interferers=candidates,
        )

    def _precedence_related(self) -> List[Set[int]]:
        """Ancestors ∪ descendants of every job within its graph instance.

        A job's ancestors always complete before it arrives and its
        descendants cannot start before it completes, so neither can ever
        be *pending* concurrently with it — they are soundly excluded
        from the same-processor interference sets.
        """
        ancestors: List[Set[int]] = [set() for _ in self._proto]
        for job in self._proto:  # construction order is topological per instance
            mine = ancestors[job.index]
            for pred_index, _best, _worst, _on_demand in job.preds:
                mine.add(pred_index)
                mine.update(ancestors[pred_index])
        self._ancestors: List[Set[int]] = ancestors
        related: List[Set[int]] = [set(a) for a in ancestors]
        for job in self._proto:
            for ancestor in ancestors[job.index]:
                related[ancestor].add(job.index)
        return related

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def jobs(self) -> Tuple[Job, ...]:
        """All jobs, indexed densely from 0 (built on first read in a clone)."""
        jobs = self._jobs
        if jobs is None:
            jobs = tuple(
                job
                if job.bcet == bcet and job.wcet == wcet
                else replace(job, bcet=bcet, wcet=wcet)
                for job, bcet, wcet in zip(
                    self._proto, self._bcet.tolist(), self._wcet.tolist()
                )
            )
            self._jobs = jobs
        return jobs

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
        return self._derive(
            "release", lambda: read_only_array([job.release for job in self._proto])
        )

    @property
    def analyzed_mask(self) -> np.ndarray:
        """Per-job first-hyperperiod flags (read-only)."""
        return self._derive(
            "analyzed",
            lambda: read_only_array([job.analyzed for job in self._proto], dtype=bool),
        )

    def analyzed_groups(self, key: str) -> "IndexGroups":
        """First-hyperperiod jobs grouped by ``"graph_name"`` or
        ``"task_name"``, for one ``ufunc.reduceat`` per aggregate."""
        if key not in ("graph_name", "task_name"):
            raise AnalysisError(f"cannot group jobs by {key!r}")

        def build() -> IndexGroups:
            members: Dict[str, List[int]] = {}
            for job in self._proto:
                if job.analyzed:
                    members.setdefault(getattr(job, key), []).append(job.index)
            names = tuple(members)
            order = [index for name in names for index in members[name]]
            starts = np.cumsum([0] + [len(members[n]) for n in names[:-1]])
            return IndexGroups(
                names=names,
                order=np.array(order, dtype=np.int64),
                starts=starts.astype(np.int64),
            )

        return self._derive(f"groups:{key}", build)

    def _derive(self, name: str, build):
        """``build()``, computed once and shared with every clone."""
        value = self._derived.get(name)
        if value is None:
            value = build()
            self._derived[name] = value
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
        return len(self._proto)

    def index_of(self, job_id: JobId) -> int:
        """Dense index of a job given by ``(task, instance)``."""
        try:
            return self._by_id[job_id]
        except KeyError:
            raise AnalysisError(f"no job {job_id!r} in the job set") from None

    def job(self, job_id: JobId) -> Job:
        """Look up a job by ``(task, instance)``."""
        return self.jobs[self.index_of(job_id)]

    def jobs_of_task(self, task_name: str) -> List[Job]:
        """All jobs of a task across the horizon."""
        jobs = self.jobs
        return [jobs[i] for i in self._by_task.get(task_name, [])]

    def analyzed_jobs_of_task(self, task_name: str) -> List[Job]:
        """First-hyperperiod jobs of a task."""
        return [job for job in self.jobs_of_task(task_name) if job.analyzed]

    @property
    def analyzed_jobs(self) -> List[Job]:
        """All first-hyperperiod jobs."""
        return [job for job in self.jobs if job.analyzed]

    def higher_priority_on_same_pe(self, job_index: int) -> Tuple[int, ...]:
        """Indices of higher-priority jobs sharing the job's processor."""
        return self._higher_priority[job_index]

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
        return self._derive("digest", self._structure_digest)

    def _structure_digest(self) -> bytes:
        parts: List[str] = [
            repr((self._hyperperiod.hex(), self._hyperperiods)),
            repr(self._topo_order),
        ]
        if self._comm_token:
            parts.append(f"comm={self._comm_token}")
        for job in self._proto:
            parts.append(
                repr(
                    (
                        job.task_name,
                        job.graph_name,
                        job.instance,
                        job.release.hex(),
                        job.abs_deadline.hex(),
                        job.processor,
                        job.priority,
                        job.analyzed,
                        job.droppable,
                        tuple(
                            (pred, best.hex(), worst.hex(), on_demand)
                            for pred, best, worst, on_demand in job.preds
                        ),
                    )
                )
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
            index = self._by_id.get(job_id)
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
            job = self._proto[int(np.flatnonzero(bad)[0])]
            if not job.analyzed:
                raise AnalysisError(
                    f"job {job.job_id!r} lies in the second hyperperiod and "
                    f"must keep nominal bounds"
                )
            raise AnalysisError(
                f"invalid bounds override for {job.job_id!r}: "
                f"[{bcet[job.index]}, {wcet[job.index]}]"
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


def read_only_array(values, dtype=float) -> np.ndarray:
    """A read-only array copy of ``values`` (safe to share between clones
    and cached results)."""
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def unroll(
    applications: ApplicationSet,
    mapping: Mapping,
    architecture: Architecture,
    comm: Optional[CommModel] = None,
    priorities: Optional[Dict[str, int]] = None,
    bounds: Optional[TMapping[str, Tuple[float, float]]] = None,
    hyperperiods: int = 2,
    policy: str = "fp",
    bus_contention: bool = False,
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
        Channel latency model; defaults to the uncontended latency model of
        the platform interconnect.  An *unbound*
        :class:`repro.comm.CommBackend` (anything exposing ``bind``) is
        bound here against the hardened application set, so replica and
        voter channels participate in its contention analysis; bound
        models answering ``channel_bounds`` are queried per channel and
        their ``fingerprint_token`` enters the job-set fingerprint.
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
    bus_contention:
        When ``True``, every sized cross-processor transfer becomes a
        *message job* on a virtual bus resource named
        :data:`BUS_RESOURCE`, arbitrated by the priority of its producer:
        concurrent transfers then interfere with each other instead of
        enjoying reserved bandwidth.  Analysis-only — the simulator keeps
        the reservation (latency) model, which the contention-aware
        bounds safely dominate.
    """
    if policy not in ("fp", "edf"):
        raise AnalysisError(f"policy must be 'fp' or 'edf', got {policy!r}")
    mapping.validate(applications, architecture)
    if comm is None:
        comm = CommModel(architecture.interconnect)
    elif hasattr(comm, "bind"):
        comm = comm.bind(applications, mapping, architecture)
    channel_bounds = getattr(comm, "channel_bounds", None)
    comm_token = getattr(comm, "fingerprint_token", "")
    if priorities is None:
        priorities = assign_priorities(applications)
    if hyperperiods < 1:
        raise AnalysisError(f"hyperperiods must be >= 1, got {hyperperiods}")

    hyperperiod = applications.hyperperiod
    horizon = hyperperiods * hyperperiod

    jobs: List[Job] = []
    topo_order: List[int] = []
    index_of: Dict[JobId, int] = {}

    # Unique per-job priorities: (task priority, release, name) rank for
    # fixed priority; (absolute deadline, depth, name) rank for EDF, with
    # topological depth breaking deadline ties so pipelines drain in order.
    prio_keys: List[Tuple[float, float, str, JobId]] = []
    for graph in applications.graphs:
        instance_count = _instance_count(horizon, graph.period, graph.name)
        for instance in range(instance_count):
            release = instance * graph.period
            for task in graph.tasks:
                if policy == "edf":
                    key = (
                        release + graph.deadline,
                        float(graph.depth(task.name)),
                        task.name,
                        (task.name, instance),
                    )
                else:
                    key = (
                        float(priorities[task.name]),
                        release,
                        task.name,
                        (task.name, instance),
                    )
                prio_keys.append(key)
    prio_keys.sort()
    task_rank = {key[3]: rank for rank, key in enumerate(prio_keys)}

    def needs_message(channel, dst_name: str) -> bool:
        return (
            bus_contention
            and channel.size > 0
            and mapping[channel.src] != mapping[dst_name]
        )

    # Final dense ranks, interleaving message jobs directly after the
    # producing task job (a message inherits its producer's urgency).
    combined_keys: List[Tuple[int, int, str, JobId]] = []
    for graph in applications.graphs:
        instance_count = _instance_count(horizon, graph.period, graph.name)
        for instance in range(instance_count):
            for task_name in graph.topological_order():
                combined_keys.append(
                    (task_rank[(task_name, instance)], 0, task_name,
                     (task_name, instance))
                )
                for channel in graph.out_channels(task_name):
                    if needs_message(channel, channel.dst):
                        message = _message_name(channel.src, channel.dst)
                        combined_keys.append(
                            (task_rank[(task_name, instance)], 1, message,
                             (message, instance))
                        )
    combined_keys.sort()
    if len({key[3] for key in combined_keys}) != len(combined_keys):
        raise AnalysisError(
            "job identifier collision — with bus_contention enabled, task "
            "names must not collide with generated message names "
            "('src>dst')"
        )
    job_priority = {key[3]: rank for rank, key in enumerate(combined_keys)}

    for graph in applications.graphs:
        instance_count = _instance_count(horizon, graph.period, graph.name)
        for instance in range(instance_count):
            release = instance * graph.period
            analyzed = release < hyperperiod
            for task_name in graph.topological_order():
                task = graph.task(task_name)
                processor = architecture.processor(mapping[task_name])
                if bounds is not None and task_name in bounds:
                    bcet, wcet = bounds[task_name]
                else:
                    bcet, wcet = task.bcet, task.wcet
                preds: List[Tuple[int, float, float, bool]] = []
                for channel in graph.in_channels(task_name):
                    pred_id = (channel.src, instance)
                    if needs_message(channel, task_name):
                        # Materialise the transfer as a bus job.
                        transfer = architecture.interconnect.transfer_time(
                            channel.size
                        )
                        message = _message_name(channel.src, task_name)
                        message_job = Job(
                            index=len(jobs),
                            task_name=message,
                            graph_name=graph.name,
                            instance=instance,
                            release=release,
                            abs_deadline=release + graph.deadline,
                            processor=BUS_RESOURCE,
                            priority=job_priority[(message, instance)],
                            bcet=transfer,
                            wcet=transfer,
                            preds=((index_of[pred_id], 0.0, 0.0, False),),
                            analyzed=analyzed,
                            droppable=graph.droppable,
                        )
                        index_of[message_job.job_id] = message_job.index
                        jobs.append(message_job)
                        topo_order.append(message_job.index)
                        preds.append(
                            (message_job.index, 0.0, 0.0, channel.on_demand)
                        )
                        continue
                    same_pe = mapping[channel.src] == mapping[task_name]
                    if channel_bounds is not None:
                        best, worst = channel_bounds(
                            channel.src, task_name, channel.size, same_pe
                        )
                    else:
                        best = comm.best_case(channel.size, same_pe)
                        worst = comm.worst_case(channel.size, same_pe)
                    preds.append(
                        (index_of[pred_id], best, worst, channel.on_demand)
                    )
                job = Job(
                    index=len(jobs),
                    task_name=task_name,
                    graph_name=graph.name,
                    instance=instance,
                    release=release,
                    abs_deadline=release + graph.deadline,
                    processor=processor.name,
                    priority=job_priority[(task_name, instance)],
                    bcet=processor.scale_time(bcet),
                    wcet=processor.scale_time(wcet),
                    preds=tuple(preds),
                    analyzed=analyzed,
                    droppable=graph.droppable,
                )
                index_of[job.job_id] = job.index
                jobs.append(job)
                topo_order.append(job.index)

    return JobSet(
        jobs,
        hyperperiod,
        applications,
        mapping,
        topo_order,
        hyperperiods,
        comm_token=comm_token,
    )


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
