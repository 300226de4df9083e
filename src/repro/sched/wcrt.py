"""Window-based best-/worst-case schedulability analysis.

This module is the ``sched`` back-end used by the paper's Algorithm 1.  It
computes, for every job of a :class:`~repro.sched.jobs.JobSet`:

* ``min_start`` / ``min_finish`` — safe lower bounds, obtained by a
  longest-path pass with best-case execution and communication times and
  no interference (no work-conserving scheduler can run a job earlier);
* ``max_start`` / ``max_finish`` — safe upper bounds, obtained by a
  monotone fixed-point iteration: a job's worst-case finish is its latest
  data/release arrival plus its own WCET plus the WCETs of all
  higher-priority jobs on the same processor whose execution windows may
  overlap its pending interval.

The iteration starts from the interference-free solution and grows
windows monotonically; if it does not stabilise within ``max_sweeps``
sweeps it falls back to the trivially safe bound that charges every
higher-priority job on the processor, which is itself a fixed point.

Safety argument (sketch): order actual executions by completion time.  A
job's actual arrival is bounded by its predecessors' ``max_finish`` plus
worst-case channel latency; any higher-priority job that actually delays
it must be pending during the job's pending interval, and its actual
window lies within the computed ``[min_start, max_finish]`` windows by
induction — so it is a member of the computed interference set.  The
fixed point therefore dominates every actual schedule.
"""

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.obs.trace import span as trace_span
from repro.sched.jobs import JobId, JobSet, read_only_array


@dataclass(frozen=True)
class JobBounds:
    """Safe execution-window bounds of one job."""

    min_start: float
    min_finish: float
    max_start: float
    max_finish: float

    @property
    def window(self) -> Tuple[float, float]:
        """``[min_start, max_finish]`` — the interval the job may occupy."""
        return (self.min_start, self.max_finish)


class ScheduleBounds:
    """Per-job analysis results with task- and graph-level aggregation.

    The four bound vectors are stored as read-only float arrays indexed
    by dense job index.  Task and graph aggregates are one
    ``ufunc.reduceat`` each over the job set's precomputed index groups,
    computed on first use and kept (:meth:`aggregate`).
    """

    def __init__(
        self,
        jobset: JobSet,
        min_start: Sequence[float],
        min_finish: Sequence[float],
        max_start: Sequence[float],
        max_finish: Sequence[float],
        converged: bool,
        sweeps: int,
    ):
        self._jobset = jobset
        #: Per-job bounds, as read-only arrays.
        self.min_start = read_only_array(min_start)
        self.min_finish = read_only_array(min_finish)
        self.max_start = read_only_array(max_start)
        self.max_finish = read_only_array(max_finish)
        self._aggregates: Dict[str, np.ndarray] = {}
        #: Whether the fixed point stabilised before the sweep limit.
        self.converged = converged
        #: Number of sweeps the iteration took.
        self.sweeps = sweeps

    @property
    def jobset(self) -> JobSet:
        """The analyzed job set."""
        return self._jobset

    # ------------------------------------------------------------------
    # Job-level access
    # ------------------------------------------------------------------

    def job_bounds(self, job_id: JobId) -> JobBounds:
        """Bounds of one job."""
        return self.bounds_at(self._jobset.index_of(job_id))

    def bounds_at(self, index: int) -> JobBounds:
        """Bounds of the job with the given dense index."""
        return JobBounds(
            min_start=float(self.min_start[index]),
            min_finish=float(self.min_finish[index]),
            max_start=float(self.max_start[index]),
            max_finish=float(self.max_finish[index]),
        )

    # ------------------------------------------------------------------
    # Task-level aggregation (Algorithm 1 interface)
    # ------------------------------------------------------------------

    def task_min_start(self, task_name: str) -> float:
        """``minStart`` over the task's first-hyperperiod jobs."""
        return self._lookup("task_min_start", task_name, "task")

    def task_max_finish(self, task_name: str) -> float:
        """``maxFinish`` over the task's first-hyperperiod jobs."""
        return self._lookup("task_max_finish", task_name, "task")

    # ------------------------------------------------------------------
    # Graph-level response times
    # ------------------------------------------------------------------

    def graph_wcrt(self, graph_name: str) -> float:
        """Worst-case response time of an application.

        The response time of an instance is the latest completion of any
        of its jobs relative to the instance release; the WCRT maximises
        over the instances of the first hyperperiod.
        """
        return self._lookup("graph_wcrt", graph_name, "graph")

    def deadline_misses(self, include_graphs: Optional[Iterable[str]] = None) -> List[JobId]:
        """First-hyperperiod jobs whose worst-case finish exceeds the deadline."""
        included = None if include_graphs is None else set(include_graphs)
        misses: List[JobId] = []
        for job in self._jobset.analyzed_jobs:
            if included is not None and job.graph_name not in included:
                continue
            if self.max_finish[job.index] > job.abs_deadline + 1e-9:
                misses.append(job.job_id)
        return misses

    def aggregate(self, aggregate: str) -> np.ndarray:
        """``"graph_wcrt"``, ``"task_max_finish"`` or ``"task_min_start"``
        for every group of the job set's :meth:`~repro.sched.jobs.JobSet.
        analyzed_groups` (graph or task groups), in group order."""
        values = self._aggregates.get(aggregate)
        if values is None:
            if aggregate == "graph_wcrt":
                groups = self._jobset.analyzed_groups("graph_name")
                source = self.max_finish - self._jobset.release
                reduce = np.maximum.reduceat
            else:
                groups = self._jobset.analyzed_groups("task_name")
                if aggregate == "task_max_finish":
                    source, reduce = self.max_finish, np.maximum.reduceat
                else:
                    source, reduce = self.min_start, np.minimum.reduceat
            values = reduce(source[groups.order], groups.starts)
            values.flags.writeable = False
            self._aggregates[aggregate] = values
        return values

    def _lookup(self, aggregate: str, name: str, kind: str) -> float:
        groups = self._jobset.analyzed_groups(
            "graph_name" if kind == "graph" else "task_name"
        )
        position = groups.positions.get(name)
        if position is None:
            raise AnalysisError(f"{kind} {name!r} has no analyzed jobs")
        return float(self.aggregate(aggregate)[position])


class SchedBackend(Protocol):
    """Interface of a schedulability back-end usable by Algorithm 1.

    Any analysis that returns safe lower bounds on start times and safe
    upper bounds on finish times per job can serve as the ``sched``
    function (paper §3 explicitly allows swapping the back-end).
    """

    def analyze(self, jobset: JobSet) -> ScheduleBounds:
        """Compute safe execution-window bounds for every job."""
        ...


class _PairSpace:
    """Reusable arrays over one list of (victim, interferer) pairs.

    ``wcet``, ``min_start`` and ``window_start`` hold each analysis's
    per-pair inputs; ``scratch``, ``early`` and ``late`` are the sweep
    temporaries, views of buffers shared with the structure's other pair
    list.  Each thread keeps its own (:meth:`_Precomputed.workspace`):
    with ~20k pairs a float array is just over glibc's 128 KiB mmap and
    trim thresholds, so fresh arrays per analysis and per sweep would be
    mapped, faulted in and unmapped again and again.
    """

    def __init__(self, pairs: int, temporaries: Tuple[np.ndarray, ...]):
        self.wcet = np.empty(pairs)
        self.min_start = np.empty(pairs)
        self.window_start = np.empty(pairs)
        self.scratch, self.early, self.late = (
            buffer[:pairs] for buffer in temporaries
        )

    def load(
        self,
        wcet: np.ndarray,
        min_start: np.ndarray,
        other: np.ndarray,
        window_start: np.ndarray,
        window_index: np.ndarray,
    ) -> None:
        """Gather one analysis's per-pair interferer WCETs and earliest
        starts (``other``) and window starts (``window_index``)."""
        wcet.take(other, out=self.wcet, mode="clip")
        min_start.take(other, out=self.min_start, mode="clip")
        window_start.take(window_index, out=self.window_start, mode="clip")

    def overlap_weights(
        self,
        window_end: np.ndarray,
        end_index: np.ndarray,
        finish: np.ndarray,
        other: np.ndarray,
    ) -> np.ndarray:
        """``wcet`` where the interferer window ``[min_start, finish[other]]``
        overlaps ``[window_start, window_end[end_index]]``, else 0.0.

        Gathers (here and in :meth:`load`) use ``mode="clip"``: the
        indices are in range by construction, and the default mode buffers
        internally.  The mask is applied as a product, exact because WCETs
        are finite and non-negative.
        """
        scratch, early, late = self.scratch, self.early, self.late
        window_end.take(end_index, out=scratch, mode="clip")
        np.less(self.min_start, scratch, out=early)
        finish.take(other, out=scratch, mode="clip")
        np.greater(scratch, self.window_start, out=late)
        early &= late
        return np.multiply(self.wcet, early, out=scratch)


class _Precomputed:
    """Index arrays shared by every analysis of structurally-equal job sets."""

    def __init__(self, jobset: JobSet):
        #: Per-thread workspace, built on a thread's first use.
        self._local = threading.local()
        columns = jobset.columns
        count = self.count = len(jobset)
        self.release = np.array(columns.release)

        # Topological levels: a job's level exceeds each predecessor's,
        # so one pass over the levels visits predecessors first.  Jobs
        # and predecessor edges are grouped by (consumer) level, each
        # group in job order; a level keeps its member array and the
        # slice of edges into its members.
        with trace_span("sched.jobset.build", part="levels", jobs=count):
            level = columns.level
            by_level = np.argsort(level, kind="stable")
            edges = np.argsort(level[columns.pred_dst], kind="stable")
            self.pred_src = columns.pred_src[edges]
            self.pred_dst = columns.pred_dst[edges]
            self.pred_comm_best = columns.pred_best[edges]
            self.pred_comm_worst = columns.pred_worst[edges]
            steps = np.arange(int(level.max()) + 2)
            member_cuts = np.searchsorted(level[by_level], steps).tolist()
            edge_cuts = np.searchsorted(level[self.pred_dst], steps).tolist()
            self.levels: List[Tuple[np.ndarray, slice]] = [
                (by_level[member_cuts[k]:member_cuts[k + 1]],
                 slice(edge_cuts[k], edge_cuts[k + 1]))
                for k in range(len(steps) - 1)
            ]

        # Interference pairs: victims ascending, interferers in rank order.
        self.hp_victim, self.hp_other = jobset.interference_pairs()

        # Batches partition the jobs, so members are listed batch by
        # batch and every job has exactly one batch.
        batches = jobset.batch_columns()
        self.batch_count = len(batches.release)
        self.batch_release = batches.release
        self.member_batch = batches.member_batch
        self.member_flat = batches.member_flat
        self.batch_starts = batches.batch_starts
        self.job_batch = batches.job_batch
        self.ext_batch = batches.ext_batch
        self.ext_src = batches.ext_src
        self.ext_comm = batches.ext_comm
        self.int_batch = batches.int_batch
        self.int_other = batches.int_other

    def workspace(self) -> Tuple[_PairSpace, _PairSpace]:
        """The calling thread's pair spaces for this structure: over the
        interference pairs and over the batch-interferer pairs."""
        spaces = getattr(self._local, "spaces", None)
        if spaces is None:
            # A sweep consumes one space's temporaries before it fills the
            # other's, so the two share them.
            size = max(len(self.hp_victim), len(self.int_batch))
            temporaries = (np.empty(size), np.empty(size, bool), np.empty(size, bool))
            spaces = self._local.spaces = (
                _PairSpace(len(self.hp_victim), temporaries),
                _PairSpace(len(self.int_batch), temporaries),
            )
        return spaces

    def forward(
        self,
        finish: np.ndarray,
        comm: np.ndarray,
        duration: np.ndarray,
        extra: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One longest-path pass in topological-level order.

        Sets ``finish = start + duration (+ extra)`` level by level, where
        ``start`` is the latest of the release and every predecessor's
        ``finish`` plus the edge's ``comm``; returns ``start``.
        """
        start = self.release.copy()
        for members, edges in self.levels:
            np.maximum.at(
                start, self.pred_dst[edges], finish[self.pred_src[edges]] + comm[edges]
            )
            finish[members] = start[members] + duration[members]
            if extra is not None:
                finish[members] += extra[members]
        return start


def _sums(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Per-slot sums of ``weights``, each added in array order from 0.0."""
    return np.bincount(index, weights=weights, minlength=size)


class WindowAnalysisBackend:
    """The window-based interference analysis (see module docs).

    Every pass is a numpy operation over index arrays precomputed once
    per job-set structure:

    * the best-case, initialisation and fallback passes walk the
      topological levels, one vector step per level;
    * each fixed-point sweep is Jacobi: every bound is computed from the
      previous sweep's state, with interference summed in interferer
      order, and every value rises to ``max(old, candidate)``.  The loop
      stops at the first sweep in which no value grows by more than
      ``1e-12``.
    """

    def __init__(self, max_sweeps: int = 200):
        if max_sweeps < 1:
            raise AnalysisError("max_sweeps must be >= 1")
        self._max_sweeps = max_sweeps
        #: ``(structure key, index arrays)`` of the last job set seen;
        #: one attribute, so concurrent callers never pair a key with
        #: another structure's arrays.
        self._structure: Optional[Tuple[object, _Precomputed]] = None

    def analyze(self, jobset: JobSet) -> ScheduleBounds:
        """Compute bounds for every job of the set."""
        pre = self._precomputed(jobset)
        count = pre.count
        bcet = jobset.bcet
        wcet = jobset.wcet

        # ---- best case: longest path, no interference ----
        min_finish = np.zeros(count)
        min_start = pre.forward(min_finish, pre.pred_comm_best, bcet)

        # ---- worst case: interference-free initialisation ----
        max_finish = np.zeros(count)
        pre.forward(max_finish, pre.pred_comm_worst, wcet)

        # Batch window starts and work depend only on min_start / wcet.
        batch_window_start = np.minimum.reduceat(
            min_start[pre.member_flat], pre.batch_starts
        )
        batch_work = _sums(pre.member_batch, wcet[pre.member_flat], pre.batch_count)
        hp, batch = pre.workspace()
        hp.load(wcet, min_start, pre.hp_other, min_start, pre.hp_victim)
        batch.load(wcet, min_start, pre.int_other, batch_window_start, pre.int_batch)

        # ---- worst case: monotone Jacobi iteration ----
        # Two sound bounds per job: the per-job interference bound and the
        # per-batch work-conservation bound.  Each sweep raises every
        # value to max(old, min(job bound, batch bound)); the sequence is
        # nondecreasing and bounded, and at the fixed point every value
        # dominates the smaller of two safe bounds.
        converged = False
        sweeps = 0
        with trace_span("sched.window.fixed_point", jobs=count) as fp_span:
            for sweeps in range(1, self._max_sweeps + 1):
                batch_arrival = pre.batch_release.copy()
                np.maximum.at(
                    batch_arrival, pre.ext_batch, max_finish[pre.ext_src] + pre.ext_comm
                )
                batch_window_end = np.maximum.reduceat(
                    max_finish[pre.member_flat], pre.batch_starts
                )
                batch_interference = _sums(
                    pre.int_batch,
                    batch.overlap_weights(
                        batch_window_end, pre.int_batch, max_finish, pre.int_other
                    ),
                    pre.batch_count,
                )
                batch_bound = batch_arrival + batch_work + batch_interference
                batch_cap = batch_bound[pre.job_batch]

                arrival = pre.release.copy()
                np.maximum.at(
                    arrival,
                    pre.pred_dst,
                    max_finish[pre.pred_src] + pre.pred_comm_worst,
                )

                interference = _sums(
                    pre.hp_victim,
                    hp.overlap_weights(
                        max_finish, pre.hp_victim, max_finish, pre.hp_other
                    ),
                    count,
                )

                candidate = np.minimum(arrival + wcet + interference, batch_cap)
                new_finish = np.maximum(max_finish, candidate)
                if not (new_finish > max_finish + 1e-12).any():
                    converged = True
                    break
                max_finish = new_finish
            fp_span.set_attributes(sweeps=sweeps, converged=converged)

        if not converged:
            # Trivially safe fallback: charge every higher-priority job on
            # the processor, independent of windows.  One level-ordered
            # pass computes each value from already-final predecessors,
            # so it is its own fixed point.
            hp_total = _sums(pre.hp_victim, hp.wcet, count)
            pre.forward(max_finish, pre.pred_comm_worst, wcet, hp_total)

        return ScheduleBounds(
            jobset,
            min_start,
            min_finish,
            max_finish - wcet,
            max_finish,
            converged,
            sweeps,
        )

    def _precomputed(self, jobset: JobSet) -> _Precomputed:
        """Share index arrays across ``with_bounds`` clones.

        Clones keep the same precedence/priority structure (only bcet and
        wcet change), identified here by the shared ``topo_order`` tuple —
        compared by identity, with the key object held so it cannot be
        recycled.  At most one structure is cached (the Algorithm-1 access
        pattern re-analyses many clones of one base job set).  The pair
        is read once and replaced whole, so threads sharing the back-end
        each analyse with arrays that match their own job set.
        """
        key = jobset.topo_order
        cached = self._structure
        if cached is None or cached[0] is not key:
            cached = (key, _Precomputed(jobset))
            self._structure = cached
        return cached[1]
