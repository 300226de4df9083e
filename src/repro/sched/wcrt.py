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
from repro.obs.trace import annotate, span as trace_span
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

    A back-end may also offer ``analyze_many(jobsets)`` for clones of one
    job set, returning one result per set, in order;
    :class:`~repro.core.analysis.MixedCriticalityAnalysis` then hands it
    every transition of an analysis in one call, and otherwise calls
    ``analyze`` once per transition.
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
    """Index arrays shared by every analysis of structurally-equal job sets.

    :meth:`tiled` stacks ``rows`` disjoint copies of the structure, so one
    fixed point solves several ``(bcet, wcet)`` rows at once.
    """

    def __init__(self, jobset: JobSet):
        #: Per-thread workspace, built on a thread's first use.
        self._local = threading.local()
        #: Stacked copies of this structure, by row count.
        self._tiles: Dict[int, "_Precomputed"] = {}
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
            self._by_level = by_level
            self._member_cuts = np.searchsorted(level[by_level], steps).tolist()
            self._edge_cuts = np.searchsorted(level[self.pred_dst], steps).tolist()
            self.levels = _levels(by_level, self._member_cuts, self._edge_cuts)

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

    @property
    def pairs(self) -> int:
        """Interference pairs plus batch interferers."""
        return len(self.hp_victim) + len(self.int_batch)

    def tiled(self, rows: int) -> "_Precomputed":
        """``rows`` disjoint copies of this structure, built once per row
        count and kept.

        Copy ``r`` holds jobs ``r·n … r·n + n − 1`` and batches
        ``r·b … r·b + b − 1``.  Every index array lists row 0's entries,
        then row 1's, and so on, so ``bincount`` adds each slot's weights
        in the single-row order; level ``k`` keeps one contiguous edge
        slice over all rows.
        """
        if rows == 1:
            return self
        tiled = self._tiles.get(rows)
        if tiled is None:
            tiled = self._tiles.setdefault(rows, self._tile(rows))
        return tiled

    def _tile(self, rows: int) -> "_Precomputed":
        tiled = object.__new__(_Precomputed)
        tiled._local = threading.local()
        count, batch_count = self.count, self.batch_count
        copy = np.arange(rows)[:, None]

        def shifted(index: np.ndarray, step: int) -> np.ndarray:
            return (index + step * copy).ravel()

        tiled.count = rows * count
        tiled.batch_count = rows * batch_count
        tiled.release = np.tile(self.release, rows)
        edge, edge_copy = _grouped_copies(self._edge_cuts, rows)
        tiled.pred_src = self.pred_src[edge] + count * edge_copy
        tiled.pred_dst = self.pred_dst[edge] + count * edge_copy
        tiled.pred_comm_best = self.pred_comm_best[edge]
        tiled.pred_comm_worst = self.pred_comm_worst[edge]
        member, member_copy = _grouped_copies(self._member_cuts, rows)
        tiled.levels = _levels(
            self._by_level[member] + count * member_copy,
            [rows * cut for cut in self._member_cuts],
            [rows * cut for cut in self._edge_cuts],
        )
        tiled.hp_victim = shifted(self.hp_victim, count)
        tiled.hp_other = shifted(self.hp_other, count)
        tiled.batch_release = np.tile(self.batch_release, rows)
        tiled.member_batch = shifted(self.member_batch, batch_count)
        tiled.member_flat = shifted(self.member_flat, count)
        tiled.batch_starts = shifted(self.batch_starts, len(self.member_flat))
        tiled.job_batch = shifted(self.job_batch, batch_count)
        tiled.ext_batch = shifted(self.ext_batch, batch_count)
        tiled.ext_src = shifted(self.ext_src, count)
        tiled.ext_comm = np.tile(self.ext_comm, rows)
        tiled.int_batch = shifted(self.int_batch, batch_count)
        tiled.int_other = shifted(self.int_other, count)
        return tiled

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


def _levels(
    by_level: np.ndarray, member_cuts: List[int], edge_cuts: List[int]
) -> List[Tuple[np.ndarray, slice]]:
    """Each level's member array and slice of (level-sorted) edges."""
    return [
        (by_level[member_cuts[k]:member_cuts[k + 1]], slice(edge_cuts[k], edge_cuts[k + 1]))
        for k in range(len(member_cuts) - 1)
    ]


def _grouped_copies(cuts: List[int], rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(item, copy)`` of ``rows`` copies of items grouped at ``cuts``,
    listed group by group, each group copy by copy, items in order."""
    size = cuts[-1]
    group = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    item = np.tile(np.arange(size), rows)
    copy = np.repeat(np.arange(rows), size)
    order = np.argsort(group[item] * rows + copy, kind="stable")
    return item[order], copy[order]


def _sums(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Per-slot sums of ``weights``, each added in array order from 0.0."""
    return np.bincount(index, weights=weights, minlength=size)


#: A row has converged at the first sweep in which none of its values
#: grows by more than this; that sweep's growth is discarded.
_TOLERANCE = 1e-12

#: Pair budget of one stacked fixed point.  Rows are solved in chunks of
#: ``max(1, _CHUNK_PAIRS // pairs)``, where ``pairs`` counts one row's
#: interference pairs and batch interferers: stacking every row of a
#: large structure at once makes each sweep's pair arrays too large to
#: stay cache-resident and runs slower than a few rows at a time.
_CHUNK_PAIRS = 1 << 17


class WindowAnalysisBackend:
    """The window-based interference analysis (see module docs).

    Every pass is a numpy operation over index arrays precomputed once
    per job-set structure:

    * the best-case, initialisation and fallback passes walk the
      topological levels, one vector step per level;
    * each fixed-point sweep is Jacobi: every bound is computed from the
      previous sweep's state, with interference summed in interferer
      order, and every value rises to ``max(old, candidate)``.  A row
      stops at its first sweep in which none of its values grows by more
      than ``1e-12``.

    :meth:`analyze_many` solves several clones of one structure in one
    fixed point over stacked disjoint copies; :meth:`analyze` is its
    one-row case.  Each row's bounds equal those of analysing it alone.
    """

    def __init__(self, max_sweeps: int = 200):
        if max_sweeps < 1:
            raise AnalysisError("max_sweeps must be >= 1")
        self._max_sweeps = max_sweeps

    def analyze(self, jobset: JobSet) -> ScheduleBounds:
        """Compute bounds for every job of the set."""
        return self.analyze_many([jobset])[0]

    def analyze_many(self, jobsets: Sequence[JobSet]) -> List[ScheduleBounds]:
        """Bounds of job sets sharing one structure (``with_bound_arrays``
        clones of one base), in order, each ``==`` to :meth:`analyze` of
        that set alone.

        The rows go through the stacked fixed point in chunks sized by the
        structure's pair count (``_CHUNK_PAIRS``); the number of chunks is
        annotated on the caller's span as ``chunks``.
        """
        if not jobsets:
            return []
        first = jobsets[0]
        if any(jobset.topo_order is not first.topo_order for jobset in jobsets):
            raise AnalysisError("analyze_many needs clones of one job set")
        base = first.derived("window", lambda: _Precomputed(first))
        step = max(1, _CHUNK_PAIRS // max(1, base.pairs))
        starts = range(0, len(jobsets), step)
        results: List[ScheduleBounds] = []
        for start in starts:
            results += self._solve(base, jobsets[start:start + step])
        annotate(chunks=len(starts))
        return results

    def _solve(
        self, base: _Precomputed, jobsets: Sequence[JobSet]
    ) -> List[ScheduleBounds]:
        """One fixed point over ``len(jobsets)`` stacked copies of ``base``."""
        rows = len(jobsets)
        pre = base.tiled(rows)
        count = pre.count
        if rows == 1:
            bcet, wcet = jobsets[0].bcet, jobsets[0].wcet
        else:
            bcet = np.concatenate([jobset.bcet for jobset in jobsets])
            wcet = np.concatenate([jobset.wcet for jobset in jobsets])

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
        # dominates the smaller of two safe bounds.  A converged row is
        # frozen: its values keep the state it converged at while the
        # other rows sweep on (rows never read each other's jobs).
        converged = np.zeros(rows, dtype=bool)
        sweeps = np.full(rows, self._max_sweeps)
        live = None  # per-job mask of unconverged rows, once one converges
        with trace_span(
            "sched.window.fixed_point", jobs=count, rows=rows
        ) as fp_span:
            for sweep in range(1, self._max_sweeps + 1):
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
                grew = new_finish > max_finish + _TOLERANCE
                grew = grew.reshape(rows, -1).any(axis=1)
                done = ~grew & ~converged
                if done.any():
                    converged |= done
                    sweeps[done] = sweep
                    if converged.all():
                        break
                    live = np.repeat(~converged, base.count)
                if live is not None:
                    new_finish = np.where(live, new_finish, max_finish)
                max_finish = new_finish
            fp_span.set_attributes(sweeps=sweep, converged=bool(converged.all()))

        if not converged.all():
            # Trivially safe fallback: charge every higher-priority job on
            # the processor, independent of windows.  One level-ordered
            # pass computes each value from already-final predecessors,
            # so it is its own fixed point.
            hp_total = _sums(pre.hp_victim, hp.wcet, count)
            fallback = np.zeros(count)
            pre.forward(fallback, pre.pred_comm_worst, wcet, hp_total)
            max_finish = np.where(
                np.repeat(~converged, base.count), fallback, max_finish
            )

        # Each row is copied out of the stacked arrays (ScheduleBounds
        # copies), so cached bounds never pin a chunk's buffers.
        arrays = [
            values.reshape(rows, -1)
            for values in (min_start, min_finish, max_finish - wcet, max_finish)
        ]
        return [
            ScheduleBounds(jobset, *(values[row] for values in arrays), ok, used)
            for row, (jobset, ok, used) in enumerate(
                zip(jobsets, converged.tolist(), sweeps.tolist())
            )
        ]
