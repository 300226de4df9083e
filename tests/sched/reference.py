"""Test-only references: the scalar Jacobi loop and the per-job structure build.

:class:`ReferenceWindowBackend` computes the same bounds as
:class:`repro.sched.wcrt.WindowAnalysisBackend` one job at a time, in
plain Python, straight from the :class:`~repro.sched.jobs.Job` records.
It shares no code with the numpy implementation, so agreement between
the two is evidence that the vectorised index arrays, the per-level
passes and the reductions are right.

Every floating-point value is produced by the same operations in the
same order as in the production back-end, so results are compared with
``==``:

* best case and initialisation are longest-path passes in topological
  order (a max is exact in any order);
* each sweep is Jacobi: every candidate is computed from the previous
  sweep's state, interference is summed in interferer order, and every
  value is raised to ``max(old, candidate)``; the loop stops at the
  first sweep in which no value grows by more than ``1e-12``;
* the non-convergence fallback runs two Gauss-Seidel passes in
  topological order that charge every higher-priority job on the
  processor, summed in interferer order.

:func:`reference_jobs` and :class:`ReferenceStructure` build the job-set
structure record by record: the unrolling loop over
:class:`~repro.sched.jobs.Job` records, per-job ancestor sets, the
per-processor interference scan, the batch split and the window
back-end's index-array assembly.  ``tests/sched/test_structure_oracle.py``
requires the array-native build in :mod:`repro.sched.jobs` to equal them.
"""

import hashlib

import numpy as np

from repro.comm.flat import FlatBackend
from repro.errors import AnalysisError
from repro.sched.jobs import BUS_RESOURCE, Batch, Job, JobSet
from repro.sched.priority import assign_priorities
from repro.sched.wcrt import ScheduleBounds


class ReferenceWindowBackend:
    """Scalar window analysis (see module docs)."""

    def __init__(self, max_sweeps: int = 200):
        if max_sweeps < 1:
            raise AnalysisError("max_sweeps must be >= 1")
        self._max_sweeps = max_sweeps

    def analyze(self, jobset: JobSet) -> ScheduleBounds:
        jobs = jobset.jobs
        count = len(jobs)
        order = jobset.topo_order

        min_start = [0.0] * count
        min_finish = [0.0] * count
        for index in order:
            job = jobs[index]
            earliest = job.release
            for pred_index, comm_best, _comm_worst, _on_demand in job.preds:
                arrival = min_finish[pred_index] + comm_best
                if arrival > earliest:
                    earliest = arrival
            min_start[index] = earliest
            min_finish[index] = earliest + job.bcet

        max_finish = [0.0] * count
        for index in order:
            job = jobs[index]
            max_finish[index] = self._arrival(job, max_finish) + job.wcet

        batches = jobset.batches()
        converged = False
        sweeps = 0
        for sweeps in range(1, self._max_sweeps + 1):
            batch_cap = [float("inf")] * count
            for batch in batches:
                arrival = batch.release
                for pred_index, comm_worst in batch.external_preds:
                    candidate = max_finish[pred_index] + comm_worst
                    if candidate > arrival:
                        arrival = candidate
                window_start = min(min_start[i] for i in batch.members)
                window_end = max(max_finish[i] for i in batch.members)
                total = 0.0
                for i in batch.members:
                    total += jobs[i].wcet
                interference = 0.0
                for other in batch.interferers:
                    if (
                        min_start[other] < window_end
                        and max_finish[other] > window_start
                    ):
                        interference += jobs[other].wcet
                bound = arrival + total + interference
                for member in batch.members:
                    batch_cap[member] = bound

            new_finish = list(max_finish)
            grew = False
            for index in order:
                job = jobs[index]
                latest = self._arrival(job, max_finish)
                current = max_finish[index]
                interference = 0.0
                for other in jobset.higher_priority_on_same_pe(index):
                    if (
                        min_start[other] < current
                        and max_finish[other] > min_start[index]
                    ):
                        interference += jobs[other].wcet
                candidate = min(latest + job.wcet + interference, batch_cap[index])
                if candidate > current:
                    new_finish[index] = candidate
                    if candidate > current + 1e-12:
                        grew = True
            if not grew:
                converged = True
                break
            max_finish = new_finish

        if not converged:
            for _ in range(2):
                for index in order:
                    job = jobs[index]
                    total = 0.0
                    for other in jobset.higher_priority_on_same_pe(index):
                        total += jobs[other].wcet
                    max_finish[index] = (
                        self._arrival(job, max_finish) + job.wcet + total
                    )

        max_start = [max_finish[i] - jobs[i].wcet for i in range(count)]
        return ScheduleBounds(
            jobset, min_start, min_finish, max_start, max_finish, converged, sweeps
        )

    @staticmethod
    def _arrival(job, max_finish) -> float:
        latest = job.release
        for pred_index, _comm_best, comm_worst, _on_demand in job.preds:
            arrival = max_finish[pred_index] + comm_worst
            if arrival > latest:
                latest = arrival
        return latest


# ----------------------------------------------------------------------
# The per-job structure build, as an oracle for the array-native one
# ----------------------------------------------------------------------


def reference_jobs(
    applications,
    mapping,
    architecture,
    comm=None,
    priorities=None,
    bounds=None,
    hyperperiods=2,
    policy="fp",
    message_jobs=False,
):
    """The unrolled jobs, built one :class:`Job` record at a time."""
    mapping.validate(applications, architecture)
    if comm is None:
        comm = FlatBackend(arq_retries=0)
    comm = comm.bind(applications, mapping, architecture)
    arq_retries = comm.arq_retries
    arq_timeout = comm.arq_timeout
    if priorities is None:
        priorities = assign_priorities(applications)
    hyperperiod = applications.hyperperiod
    horizon = hyperperiods * hyperperiod

    def instances(graph):
        return range(int(round(horizon / graph.period)))

    prio_keys = []
    for graph in applications.graphs:
        for instance in instances(graph):
            release = instance * graph.period
            for task in graph.tasks:
                if policy == "edf":
                    key = (release + graph.deadline, float(graph.depth(task.name)))
                else:
                    key = (float(priorities[task.name]), release)
                prio_keys.append(key + (task.name, (task.name, instance)))
    prio_keys.sort()
    task_rank = {key[3]: rank for rank, key in enumerate(prio_keys)}

    def needs_message(channel, dst_name):
        return (
            message_jobs
            and channel.size > 0
            and mapping[channel.src] != mapping[dst_name]
        )

    combined_keys = []
    for graph in applications.graphs:
        for instance in instances(graph):
            for task_name in graph.topological_order():
                rank = task_rank[(task_name, instance)]
                combined_keys.append((rank, 0, task_name, (task_name, instance)))
                for channel in graph.channels:
                    if channel.src == task_name and needs_message(channel, channel.dst):
                        message = f"{channel.src}>{channel.dst}"
                        combined_keys.append((rank, 1, message, (message, instance)))
    combined_keys.sort()
    job_priority = {key[3]: rank for rank, key in enumerate(combined_keys)}

    jobs = []
    index_of = {}

    def add(**fields):
        job = Job(index=len(jobs), **fields)
        index_of[job.job_id] = job.index
        jobs.append(job)
        return job.index

    for graph in applications.graphs:
        for instance in instances(graph):
            release = instance * graph.period
            common = dict(
                graph_name=graph.name,
                instance=instance,
                release=release,
                abs_deadline=release + graph.deadline,
                analyzed=release < hyperperiod,
                droppable=graph.droppable,
            )
            for task_name in graph.topological_order():
                task = graph.task(task_name)
                processor = architecture.processor(mapping[task_name])
                bcet, wcet = (
                    bounds[task_name]
                    if bounds is not None and task_name in bounds
                    else (task.bcet, task.wcet)
                )
                preds = []
                for channel in graph.in_channels(task_name):
                    pred = index_of[(channel.src, instance)]
                    if needs_message(channel, task_name):
                        transfer = architecture.interconnect.transfer_time(channel.size)
                        if arq_retries:
                            worst = (
                                (arq_retries + 1) * transfer
                                + arq_retries * arq_timeout
                            )
                        else:
                            worst = transfer
                        message = f"{channel.src}>{task_name}"
                        message_index = add(
                            task_name=message,
                            processor=BUS_RESOURCE,
                            priority=job_priority[(message, instance)],
                            bcet=transfer,
                            wcet=worst,
                            preds=((pred, 0.0, 0.0, False),),
                            **common,
                        )
                        preds.append((message_index, 0.0, 0.0, channel.on_demand))
                        continue
                    same_pe = mapping[channel.src] == mapping[task_name]
                    best, worst = comm.channel_bounds(
                        channel.src, task_name, channel.size, same_pe
                    )
                    preds.append((pred, best, worst, channel.on_demand))
                add(
                    task_name=task_name,
                    processor=processor.name,
                    priority=job_priority[(task_name, instance)],
                    bcet=processor.scale_time(bcet),
                    wcet=processor.scale_time(wcet),
                    preds=tuple(preds),
                    **common,
                )
    return jobs


class ReferenceStructure:
    """Ancestors, interference lists, batches and the window back-end's
    index arrays, computed from :class:`Job` records by per-job scans."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.by_pe = {}
        for job in jobs:
            self.by_pe.setdefault(job.processor, []).append(job.index)
        related = self._precedence_related()
        self.higher_priority = [()] * len(jobs)
        for indices in self.by_pe.values():
            ranked = sorted(indices, key=lambda i: jobs[i].priority)
            for position, job_index in enumerate(ranked):
                self.higher_priority[job_index] = tuple(
                    other
                    for other in ranked[:position]
                    if other not in related[job_index]
                )
        self.batches = self._build_batches()

    def _precedence_related(self):
        """Ancestors ∪ descendants of every job within its graph instance."""
        ancestors = [set() for _ in self.jobs]
        for job in self.jobs:  # construction order is topological per instance
            for pred_index, _best, _worst, _on_demand in job.preds:
                ancestors[job.index].add(pred_index)
                ancestors[job.index].update(ancestors[pred_index])
        self.ancestors = ancestors
        related = [set(a) for a in ancestors]
        for job in self.jobs:
            for ancestor in ancestors[job.index]:
                related[ancestor].add(job.index)
        return related

    def _build_batches(self):
        groups = {}
        for job in self.jobs:
            key = (job.graph_name, job.instance, job.processor)
            groups.setdefault(key, []).append(job.index)
        batches = []
        for key in sorted(groups):
            current = []
            for index in groups[key]:
                current_set = set(current)
                reentrant = any(
                    pred not in current_set and self.ancestors[pred] & current_set
                    for pred, _best, _worst, _on_demand in self.jobs[index].preds
                )
                if reentrant and current:
                    batches.append(self._make_batch(current, key[2]))
                    current = []
                current.append(index)
            if current:
                batches.append(self._make_batch(current, key[2]))
        return tuple(batches)

    def _make_batch(self, members, processor):
        jobs = self.jobs
        member_set = set(members)
        external = tuple(
            (pred, worst)
            for index in members
            for pred, _best, worst, _on_demand in jobs[index].preds
            if pred not in member_set
        )
        weakest = max(jobs[i].priority for i in members)
        ancestors = set()
        for index in members:
            ancestors |= self.ancestors[index]
        interferers = tuple(
            other
            for other in self.by_pe[processor]
            if other not in member_set
            and other not in ancestors
            and jobs[other].priority < weakest
        )
        return Batch(
            members=tuple(members),
            external_preds=external,
            release=max(jobs[i].release for i in members),
            interferers=interferers,
        )

    def precomputed(self):
        """The window back-end's index arrays, by attribute name."""
        jobs = self.jobs
        count = len(jobs)
        level = [0] * count
        for job in jobs:
            for src, _best, _worst, _on_demand in job.preds:
                level[job.index] = max(level[job.index], level[src] + 1)
        by_level = [[] for _ in range(max(level, default=-1) + 1)]
        for job in jobs:
            by_level[level[job.index]].append(job.index)
        edges = []
        levels = []
        for members in by_level:
            first = len(edges)
            edges += [
                (src, index, best, worst)
                for index in members
                for src, best, worst, _on_demand in jobs[index].preds
            ]
            levels.append((_ints(members), slice(first, len(edges))))
        arrays = {"count": count, "levels": levels}
        arrays["release"] = np.array([job.release for job in jobs])
        (
            arrays["pred_src"],
            arrays["pred_dst"],
            arrays["pred_comm_best"],
            arrays["pred_comm_worst"],
        ) = _columns(edges, (np.int64, np.int64, float, float))
        arrays["hp_victim"], arrays["hp_other"] = _columns(
            [
                (index, other)
                for index in range(count)
                for other in self.higher_priority[index]
            ],
            (np.int64, np.int64),
        )
        batches = self.batches
        arrays["batch_count"] = len(batches)
        arrays["batch_release"] = np.array([b.release for b in batches], dtype=float)
        arrays["member_batch"], arrays["member_flat"] = _columns(
            [(b, m) for b, batch in enumerate(batches) for m in batch.members],
            (np.int64, np.int64),
        )
        arrays["batch_starts"] = _ints(
            np.flatnonzero(np.diff(arrays["member_batch"], prepend=-1))
        )
        job_batch = np.zeros(count, dtype=np.int64)
        job_batch[arrays["member_flat"]] = arrays["member_batch"]
        arrays["job_batch"] = job_batch
        arrays["ext_batch"], arrays["ext_src"], arrays["ext_comm"] = _columns(
            [
                (b, src, comm)
                for b, batch in enumerate(batches)
                for src, comm in batch.external_preds
            ],
            (np.int64, np.int64, float),
        )
        arrays["int_batch"], arrays["int_other"] = _columns(
            [(b, o) for b, batch in enumerate(batches) for o in batch.interferers],
            (np.int64, np.int64),
        )
        return arrays


def reference_structure_digest(jobs, hyperperiod, hyperperiods, comm_token=""):
    """The structural part of :meth:`JobSet.fingerprint`, job record by
    job record."""
    parts = [
        repr((hyperperiod.hex(), hyperperiods)),
        repr(tuple(range(len(jobs)))),
    ]
    if comm_token:
        parts.append(f"comm={comm_token}")
    for job in jobs:
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


def _ints(values):
    return np.asarray(values, dtype=np.int64)


def _columns(rows, dtypes):
    """One array per tuple position of ``rows`` (empty arrays if none)."""
    if not rows:
        return [np.zeros(0, dtype=dtype) for dtype in dtypes]
    return [np.array(column, dtype=dtype) for column, dtype in zip(zip(*rows), dtypes)]
