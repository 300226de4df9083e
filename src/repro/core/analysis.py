"""The proposed mixed-criticality WCRT analysis — Algorithm 1 of the paper.

The hardening techniques make worst-case analysis hard for three reasons
(paper §3): passive replicas only run when the voter requests them,
re-execution releases a variable number of jobs, and entering the critical
state detaches droppable tasks from the scheduler.  Naively widening every
execution-time range is safe but very pessimistic.

Algorithm 1 instead performs one schedulability run per *possible state
transition*: for every task ``v`` that may trigger the critical state (a
re-executable or passively replicated task experiencing its first fault in
the hyperperiod), all other tasks ``w`` are classified using the
normal-state windows ``[minStart, maxFinish]``:

* ``maxFinish_w < minStart_v`` — ``w`` certainly completed before the
  fault: it keeps its normal bounds (passive copies stay ``[0, 0]``);
* otherwise ``w`` may be affected:

  * droppable ``w`` starting after ``maxFinish_v`` is certainly dropped —
    bounds ``[0, 0]``;
  * droppable ``w`` overlapping the transition may either run or be
    dropped — bounds ``[0, wcet_w]``;
  * non-droppable re-executable ``w`` gets Eq. (1) as its worst case;
  * non-droppable passive copies get ``[0, wcet_w]`` (they may be
    requested by a later fault).

The triggering task itself takes its critical-state bounds: Eq. (1) for
re-execution, activated replicas (``[0, wcet]``) for passive replication.

The per-processor ``sched`` back-end is pluggable
(:class:`~repro.sched.wcrt.SchedBackend`); the default is the
window-based analysis of :class:`~repro.sched.wcrt.WindowAnalysisBackend`.

Multiple faults per hyperperiod are covered even though transitions are
enumerated one trigger at a time: whichever fault happens *first*
anchors the timeline classification, and under that trigger every other
re-executable task already carries its Eq. (1) worst case (it may fault
later), passive copies may be requested, and droppables past the
transition stay dropped regardless of further faults — so each
enumerated transition soundly bounds all executions whose first fault is
that trigger.
"""

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.fastpath import FastPathConfig, TransitionPruner
from repro.errors import AnalysisError
from repro.hardening.spec import HardeningKind
from repro.hardening.transform import CriticalTrigger, HardenedSystem
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.obs.metrics import metrics
from repro.obs.trace import annotate, event, span as trace_span
from repro.comm import CommBackend, default_comm
from repro.sched.jobs import JobSet, unroll
from repro.sched.priority import assign_priorities
from repro.sched.wcrt import ScheduleBounds, SchedBackend, WindowAnalysisBackend

#: How state transitions are enumerated: one analysis per trigger *job*
#: (faithful to "the first fault in the hyperperiod") or one per trigger
#: *task* with anchors aggregated over its instances (coarser, strictly
#: more conservative, and cheaper — used by the DSE inner loop).
TRIGGER_GRANULARITIES = ("job", "task")


@dataclass(frozen=True)
class TransitionInfo:
    """One analyzed normal-to-critical transition."""

    trigger_primary: str
    trigger_kind: HardeningKind
    #: Instance index of the trigger, or ``None`` at task granularity.
    instance: Optional[int]
    #: ``minStart_v`` — earliest moment the first fault can occur.
    min_start: float
    #: ``maxFinish_v`` — moment from which droppables certainly vanished.
    max_finish: float
    #: Per-graph WCRT under this transition (non-dropped graphs only).
    wcrt: Dict[str, float]


@dataclass(frozen=True)
class GraphVerdict:
    """Analysis outcome for one application."""

    graph: str
    #: WCRT over the normal state and every transition the graph survives.
    wcrt: float
    #: WCRT in the fault-free normal state.
    normal_wcrt: float
    deadline: float
    #: Whether the graph belongs to the dropped set ``T_d``.
    dropped: bool
    #: Transition yielding the WCRT (``None`` when the normal state does).
    worst_transition: Optional[str]

    @property
    def meets_deadline(self) -> bool:
        """Deadline satisfaction (dropped graphs: normal state only)."""
        return self.wcrt <= self.deadline + 1e-9


@dataclass(frozen=True)
class MCAnalysisResult:
    """Complete result of the mixed-criticality analysis."""

    verdicts: Dict[str, GraphVerdict]
    transitions: Tuple[TransitionInfo, ...]
    #: Safe upper bound on the completion time of every task (the return
    #: value of the paper's Algorithm 1, for every ``v_in`` at once).
    task_completion: Dict[str, float]
    granularity: str
    #: Transitions skipped as dominated by an analyzed one (fast path
    #: with pruning enabled only; always 0 otherwise).
    transitions_pruned: int = 0

    @property
    def schedulable(self) -> bool:
        """Whether every application meets its deadline."""
        return all(v.meets_deadline for v in self.verdicts.values())

    @property
    def transitions_analyzed(self) -> int:
        """Number of state transitions the analysis enumerated."""
        return len(self.transitions)

    def wcrt_of(self, graph_name: str) -> float:
        """WCRT of one application."""
        try:
            return self.verdicts[graph_name].wcrt
        except KeyError:
            raise AnalysisError(f"no verdict for graph {graph_name!r}") from None


def _transition_to_dict(transition: TransitionInfo) -> Dict[str, Any]:
    return {
        "trigger_primary": transition.trigger_primary,
        "trigger_kind": transition.trigger_kind.value,
        "instance": transition.instance,
        "min_start": transition.min_start,
        "max_finish": transition.max_finish,
        "wcrt": dict(transition.wcrt),
    }


def analysis_result_to_dict(result: MCAnalysisResult) -> Dict[str, Any]:
    """A :class:`MCAnalysisResult` as a JSON-friendly dict.

    Transition order is preserved as a list (it carries the fold order of
    Algorithm 1); everything keyed by name sorts deterministically
    through the canonical encoder.
    """
    return {
        "kind": "analysis",
        "schedulable": result.schedulable,
        "granularity": result.granularity,
        "transitions_analyzed": result.transitions_analyzed,
        "transitions_pruned": result.transitions_pruned,
        "verdicts": {
            name: {
                "wcrt": verdict.wcrt,
                "normal_wcrt": verdict.normal_wcrt,
                "deadline": verdict.deadline,
                "dropped": verdict.dropped,
                "meets_deadline": verdict.meets_deadline,
                "worst_transition": verdict.worst_transition,
            }
            for name, verdict in result.verdicts.items()
        },
        "transitions": [_transition_to_dict(t) for t in result.transitions],
        "task_completion": dict(result.task_completion),
    }


class MixedCriticalityAnalysis:
    """Algorithm 1: WCRT analysis under hardening and task dropping.

    Parameters
    ----------
    backend:
        The ``sched`` function; defaults to
        :class:`~repro.sched.wcrt.WindowAnalysisBackend`.
    granularity:
        ``"job"`` (default, faithful) or ``"task"`` (conservative, cheap).
    comm:
        Channel-latency model override.
    policy:
        Per-processor scheduling policy: ``"fp"`` (default) or ``"edf"``.
    fast_path:
        Optional :class:`~repro.core.fastpath.FastPathConfig` enabling
        ``sched()`` memoization, warm-started fixed points, and dominated-
        transition pruning.  ``None`` (default) preserves the historical
        one-back-end-run-per-transition behavior exactly.
    """

    def __init__(
        self,
        backend: Optional[SchedBackend] = None,
        granularity: str = "job",
        comm: Optional[CommBackend] = None,
        zero_dropped_bcet: bool = False,
        policy: str = "fp",
        fast_path: Optional[FastPathConfig] = None,
    ):
        if granularity not in TRIGGER_GRANULARITIES:
            raise AnalysisError(
                f"granularity must be one of {TRIGGER_GRANULARITIES}, "
                f"got {granularity!r}"
            )
        self._backend: SchedBackend = backend or WindowAnalysisBackend()
        self._granularity = granularity
        self._comm = comm
        #: Per-processor scheduling policy ("fp" or "edf"), forwarded to
        #: the job unrolling; the simulator accepts the same option.
        self._policy = policy
        # Algorithm 1's line 23 writes the transition-mode bounds as
        # ``[0, wcet]``.  With a window back-end, zeroing the bcet *widens*
        # the execution windows of maybe-dropped jobs and therefore
        # inflates interference on the surviving tasks — the opposite of
        # what dropping achieves.  Keeping the nominal bcet is sound for
        # the transition runs: the normal-state, interference-free
        # earliest-start bounds remain valid lower bounds in every
        # critical-state scenario (a job that runs at all runs no earlier
        # than its fault-free best case).  Set ``zero_dropped_bcet=True``
        # for the literal (more pessimistic) reading of the algorithm.
        self._zero_dropped_bcet = zero_dropped_bcet
        self._fast_path = fast_path

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def analyze(
        self,
        hardened: HardenedSystem,
        architecture: Architecture,
        mapping: Mapping,
        dropped: Iterable[str] = (),
    ) -> MCAnalysisResult:
        """Run Algorithm 1 for a hardened system under a drop set ``T_d``."""
        with trace_span("analysis.run", granularity=self._granularity) as sp:
            result = self._analyze_impl(hardened, architecture, mapping, dropped)
            sp.set_attributes(
                transitions=result.transitions_analyzed,
                transitions_pruned=result.transitions_pruned,
                schedulable=result.schedulable,
            )
            return result

    def _analyze_impl(
        self,
        hardened: HardenedSystem,
        architecture: Architecture,
        mapping: Mapping,
        dropped: Iterable[str] = (),
    ) -> MCAnalysisResult:
        registry = metrics()
        registry.counter("analysis.runs").inc()
        dropped_set = hardened.source.validate_drop_set(dropped)
        base = self._base_jobset(hardened, architecture, mapping)
        with trace_span("analysis.normal"):
            (normal,), hits = self._sched([base])
            annotate(cache_hit=bool(hits), sweeps=normal.sweeps)

        graph_names = [graph.name for graph in hardened.applications.graphs]
        task_names = [task.name for task in hardened.applications.all_tasks]
        graph_groups = base.analyzed_groups("graph_name")
        task_groups = base.analyzed_groups("task_name")
        graph_at = np.array([graph_groups.positions[n] for n in graph_names], dtype=np.int64)
        task_at = np.array([task_groups.positions[n] for n in task_names], dtype=np.int64)
        # Running maxima over the normal state and every transition, in
        # graph and task order; a transition takes a graph's label only
        # when it is strictly worse than everything before it.
        normal_wcrt = normal.aggregate("graph_wcrt")[graph_at]
        graph_wcrt = normal_wcrt.copy()
        worst_transition: List[Optional[str]] = [None] * len(graph_names)
        task_completion = normal.aggregate("task_max_finish")[task_at]

        fast = self._fast_path
        warm_seed = normal if fast is not None and fast.warm_start else None
        pruner = (
            TransitionPruner(base) if fast is not None and fast.prune else None
        )
        plan = _TransitionPlan(
            hardened,
            architecture,
            mapping,
            base,
            normal,
            dropped_set,
            self._zero_dropped_bcet,
        )
        surviving_graphs = np.flatnonzero(
            [name not in dropped_set for name in graph_names]
        )
        surviving_names = [graph_names[k] for k in surviving_graphs.tolist()]
        surviving_tasks = np.flatnonzero(
            [
                hardened.source.owner_of(hardened.derived_to_primary[name]).name
                not in dropped_set
                for name in task_names
            ]
        )
        surviving_graph_at = graph_at[surviving_graphs]
        surviving_task_at = task_at[surviving_tasks]
        # Every transition first; then the pruner keeps rows, the cache
        # answers what it can, one back-end call solves the rest, and the
        # results fold in enumeration order, so the first strictly worse
        # transition keeps each label.
        enumerated, windows = self._enumerate_transitions(hardened, base, normal)
        bcet_rows, wcet_rows = plan.rows(enumerated, windows)
        labels = [
            trigger.primary if instance is None else f"{trigger.primary}@{instance}"
            for trigger, instance in enumerated
        ]
        with trace_span("analysis.transitions", chunks=0) as phase:
            kept: List[int] = []
            for row, (bcet, wcet) in enumerate(zip(bcet_rows, wcet_rows)):
                if pruner is not None:
                    if pruner.is_dominated(bcet, wcet):
                        continue
                    pruner.record(bcet, wcet)
                kept.append(row)
            results, hits = self._sched(
                [base.with_bound_arrays(bcet_rows[row], wcet_rows[row]) for row in kept],
                seed=warm_seed,
            )
            transitions_pruned = len(enumerated) - len(kept)
            phase.set_attributes(
                transitions=len(kept),
                pruned=transitions_pruned,
                cache_hits=hits,
                rows=len(kept) - hits,
            )
        transitions: List[TransitionInfo] = []
        for row, bounds in zip(kept, results):
            label = labels[row]
            wcrt = bounds.aggregate("graph_wcrt")[surviving_graph_at]
            worse = wcrt > graph_wcrt[surviving_graphs]
            for k in surviving_graphs[worse].tolist():
                worst_transition[k] = label
            graph_wcrt[surviving_graphs[worse]] = wcrt[worse]
            finish = bounds.aggregate("task_max_finish")[surviving_task_at]
            later = finish > task_completion[surviving_tasks]
            task_completion[surviving_tasks[later]] = finish[later]
            trigger, instance = enumerated[row]
            transitions.append(
                TransitionInfo(
                    trigger_primary=trigger.primary,
                    trigger_kind=trigger.kind,
                    instance=instance,
                    min_start=windows[0][row],
                    max_finish=windows[1][row],
                    wcrt=dict(zip(surviving_names, wcrt.tolist())),
                )
            )
            event(
                "scenario-analyzed",
                trigger=label,
                granularity=self._granularity,
                sweeps=bounds.sweeps,
            )
        registry.counter("analysis.transitions").inc(len(transitions))
        if pruner is not None:
            registry.counter("analysis.prune.skipped").inc(transitions_pruned)

        verdicts = {
            graph.name: GraphVerdict(
                graph=graph.name,
                wcrt=wcrt,
                normal_wcrt=nominal,
                deadline=graph.deadline,
                dropped=graph.name in dropped_set,
                worst_transition=label,
            )
            for graph, wcrt, nominal, label in zip(
                hardened.applications.graphs,
                graph_wcrt.tolist(),
                normal_wcrt.tolist(),
                worst_transition,
            )
        }
        return MCAnalysisResult(
            verdicts=verdicts,
            transitions=tuple(transitions),
            task_completion=dict(zip(task_names, task_completion.tolist())),
            granularity=self._granularity,
            transitions_pruned=transitions_pruned,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _sched(
        self, jobsets: Sequence[JobSet], seed: Optional[ScheduleBounds] = None
    ) -> Tuple[List[ScheduleBounds], int]:
        """``sched()`` for every job set, in order, with telemetry; returns
        the bounds and the number of cache hits.

        With a memoizing fast path, a job set whose canonical fingerprint
        matches a cached entry, or an earlier set of the same call, reuses
        those bounds without touching the back-end (and without counting
        as an invocation — the ``sched.sweeps``/``sched.invocations``
        pairing stays exact).  The remaining sets go to the back-end in one
        :meth:`_solve`; their bounds enter the cache in order, and each
        repeat then reads its bounds back from the cache, as it would
        have had the sets been solved one at a time.
        """
        registry = metrics()
        fast = self._fast_path
        memo = fast is not None and fast.memoize
        results: List[Optional[ScheduleBounds]] = [None] * len(jobsets)
        keys: List[str] = []
        solver: Dict[str, int] = {}  # fingerprint -> the row solving it
        misses: List[int] = []
        hits = 0
        for row, jobset in enumerate(jobsets):
            if memo:
                key = jobset.fingerprint()
                keys.append(key)
                if key in solver:
                    hits += 1
                    continue
                results[row] = fast.cache.get(key, jobset)
                if results[row] is not None:
                    hits += 1
                    continue
                solver[key] = row
            misses.append(row)
        if memo and hits:
            registry.counter("analysis.cache.hits").inc(hits)
        if memo and misses:
            registry.counter("analysis.cache.misses").inc(len(misses))
        if misses:
            registry.counter("sched.invocations").inc(len(misses))
            with registry.timer("sched.seconds").time():
                solved = self._solve([jobsets[row] for row in misses], seed)
            sweeps = registry.histogram("sched.sweeps")
            for row, bounds in zip(misses, solved):
                sweeps.observe(bounds.sweeps)
                results[row] = bounds
        if memo:
            for row, key in enumerate(keys):
                if solver.get(key) == row:
                    fast.cache.put(key, results[row])
                elif results[row] is None:
                    cached = fast.cache.get(key, jobsets[row])
                    results[row] = cached if cached is not None else results[solver[key]]
            if misses:
                registry.gauge("analysis.cache.size").set(len(fast.cache))
        return results, hits

    def _solve(
        self, jobsets: List[JobSet], seed: Optional[ScheduleBounds]
    ) -> List[ScheduleBounds]:
        """One back-end call for every job set: the batch entry
        ``analyze_many`` where the back-end has one, else ``analyze`` per
        set (with the warm-start seed where supported)."""
        backend = self._backend
        many = getattr(backend, "analyze_many", None)
        if many is not None:
            return many(jobsets)
        annotate(chunks=len(jobsets))
        if seed is not None and getattr(backend, "supports_warm_start", False):
            return [backend.analyze(jobset, seed=seed) for jobset in jobsets]
        return [backend.analyze(jobset) for jobset in jobsets]

    def _base_jobset(
        self,
        hardened: HardenedSystem,
        architecture: Architecture,
        mapping: Mapping,
    ) -> JobSet:
        """Unroll ``T'`` with normal-state bounds (Algorithm 1 lines 2–9)."""
        bounds: Dict[str, Tuple[float, float]] = {}
        for task in hardened.applications.all_tasks:
            bounds[task.name] = hardened.nominal_bounds(task.name)
        for passive in hardened.passive_tasks:
            bounds[passive] = (0.0, 0.0)
        comm = self._comm if self._comm is not None else default_comm(architecture)
        priorities = assign_priorities(hardened.applications)
        return unroll(
            hardened.applications,
            mapping,
            architecture,
            comm=comm,
            priorities=priorities,
            bounds=bounds,
            policy=self._policy,
        )

    def _enumerate_transitions(
        self,
        hardened: HardenedSystem,
        base: JobSet,
        normal: ScheduleBounds,
    ) -> Tuple[List[Tuple[CriticalTrigger, Optional[int]]], Tuple[List[float], List[float]]]:
        """Every transition as ``(trigger, instance)``, with the windows
        ``(minStart_v, maxFinish_v)`` as two lists in the same order."""
        enumerated: List[Tuple[CriticalTrigger, Optional[int]]] = []
        starts: List[float] = []
        finishes: List[float] = []
        slots = base.columns.task_slots
        task_index = base.columns.task_index
        groups = base.analyzed_groups("task_name")
        for trigger in hardened.triggers():
            if self._granularity == "task":
                enumerated.append((trigger, None))
                starts.append(
                    min(normal.task_min_start(anchor) for anchor in trigger.start_anchors)
                )
                finishes.append(normal.task_max_finish(trigger.finish_anchor))
                continue
            # The analyzed instances are a prefix 0..k-1; instance i of a
            # task is at ``first + i * size`` (JobColumns.task_slots).
            instances = np.arange(len(groups.members(trigger.finish_anchor)))

            def jobs(task_name: str) -> np.ndarray:
                first, size, _count = slots[task_index[task_name]]
                return first + instances * size

            starts += np.minimum.reduce(
                [normal.min_start[jobs(anchor)] for anchor in trigger.start_anchors]
            ).tolist()
            finishes += normal.max_finish[jobs(trigger.finish_anchor)].tolist()
            enumerated += [(trigger, instance) for instance in instances.tolist()]
        return enumerated, (starts, finishes)


class _TransitionPlan:
    """Per-job arrays from which Algorithm 1 builds each transition's bounds.

    Everything that does not depend on the transition — each job's
    category (dropped graph, time-redundant, passive copy), its Eq. (1)
    worst case and its activated-copy WCET — is computed once per
    analysis; :meth:`rows` then classifies all jobs of every transition
    at once with a handful of (transitions × jobs) vector operations
    (lines 12–30 of Algorithm 1).
    """

    def __init__(
        self,
        hardened: HardenedSystem,
        architecture: Architecture,
        mapping: Mapping,
        base: JobSet,
        normal: ScheduleBounds,
        dropped_set: FrozenSet[str],
        zero_dropped_bcet: bool,
    ):
        columns = base.columns
        count = len(base)
        self._bcet = base.bcet
        self._wcet = base.wcet
        self._normal_min_start = normal.min_start
        self._normal_max_finish = normal.max_finish
        self._hardened = hardened
        self._task_groups = base.analyzed_groups("task_name")
        self._instance = columns.instance

        # Per template job (task or message name), then per job.
        names = columns.task_names
        redundant = np.array([hardened.is_time_redundant(n) for n in names], dtype=bool)
        passive = np.array([hardened.is_passive(n) for n in names], dtype=bool)
        inflation = np.array(
            [hardened.critical_inflation(n) if r else 1.0 for n, r in zip(names, redundant)]
        )
        activated = np.array(
            [
                _activated_wcet(hardened, architecture, mapping, n) if p else 0.0
                for n, p in zip(names, passive)
            ]
        )
        analyzed = columns.analyzed
        task = columns.task
        in_dropped = analyzed & np.array(
            [name in dropped_set for name in columns.graph_names], dtype=bool
        )[columns.graph]
        redundant = analyzed & redundant[task]
        passive = analyzed & passive[task]
        #: Critical-state WCET of time-redundant jobs (Eq. (1)).
        self._inflated = np.array(self._wcet)
        self._inflated[redundant] = self._wcet[redundant] * inflation[task[redundant]]
        #: WCET of passive copies once requested.
        self._activated = np.zeros(count)
        self._activated[passive] = activated[task[passive]]
        self._dropped = in_dropped
        self._redundant = redundant & ~in_dropped
        self._passive = passive & ~redundant & ~in_dropped
        low = np.zeros(count) if zero_dropped_bcet else self._bcet
        self._dropped_low = np.minimum(low, self._wcet)

    def rows(
        self,
        enumerated: Sequence[Tuple[CriticalTrigger, Optional[int]]],
        windows: Tuple[Sequence[float], Sequence[float]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(bcet, wcet)`` matrices with one row per transition, classified
        as in the module docs; jobs finishing before ``minStart_v`` keep
        their nominal bounds (passive copies are ``[0, 0]`` in ``base``).

        The categories are mutually exclusive, so each matrix is one
        selection over (transitions × jobs) masks; the trigger's own jobs
        are then patched row by row."""
        min_start_v = np.array(windows[0], dtype=float)[:, None]
        max_finish_v = np.array(windows[1], dtype=float)[:, None]
        affected = ~(self._normal_max_finish < min_start_v)
        dropped = affected & self._dropped
        gone = dropped & (self._normal_min_start > max_finish_v)
        maybe = dropped & ~gone
        redundant = affected & self._redundant
        passive = affected & self._passive
        bcet = np.where(
            gone | passive, 0.0, np.where(maybe, self._dropped_low, self._bcet)
        )
        wcet = np.where(
            gone,
            0.0,
            np.where(
                redundant,
                self._inflated,
                np.where(passive, self._activated, self._wcet),
            ),
        )

        # The trigger's own jobs: a time-redundant trigger takes Eq. (1);
        # passive replication activates the requested copies.
        own_rows, own_jobs, own_passive = [], [], []
        for row, (trigger, instance) in enumerate(enumerated):
            passive_trigger = trigger.kind is HardeningKind.PASSIVE
            names = (
                [n for n in self._hardened.replica_groups[trigger.primary]
                 if self._hardened.is_passive(n)]
                if passive_trigger
                else [trigger.primary]
            )
            for name in names:
                own = self._jobs_of(name, instance)
                own_rows.append(np.full(len(own), row))
                own_jobs.append(own)
                own_passive.append(np.full(len(own), passive_trigger))
        if own_jobs:
            rows, jobs = np.concatenate(own_rows), np.concatenate(own_jobs)
            activated = np.concatenate(own_passive)
            bcet[rows, jobs] = np.where(activated, 0.0, self._bcet[jobs])
            wcet[rows, jobs] = np.where(
                activated, self._activated[jobs], self._inflated[jobs]
            )
        return bcet, wcet

    def _jobs_of(self, task_name: str, instance: Optional[int]) -> np.ndarray:
        """Indices of the task's first-hyperperiod jobs (one instance)."""
        members = self._task_groups.members(task_name)
        if instance is None:
            return members
        return members[self._instance[members] == instance]


def _activated_wcet(
    hardened: HardenedSystem,
    architecture: Architecture,
    mapping: Mapping,
    task_name: str,
) -> float:
    """Processor-scaled WCET of a passive copy when it is requested."""
    task = hardened.applications.task(task_name)
    processor = architecture.processor(mapping[task_name])
    return processor.scale_time(task.wcet)
