"""The discrete-event simulation engine.

Each processor runs a fixed-priority preemptive scheduler (the same
priorities the analyses assume).  Jobs become ready when their graph
instance has been released and all gating inputs have arrived; channel
transfers take their worst-case single-attempt latency (the bound comm
model of :mod:`repro.comm`).

Semantics of the hardening constructs (mirroring the analysis model):

* a re-executable task's every attempt includes the detection overhead
  (the unrolled job bounds already contain it); a faulty attempt triggers
  the critical state and is retried up to ``k`` times on the same PE;
* active replicas always run; the voter fires once all proactive copies
  have delivered and masks minority faults without any state change;
* when an active copy of a *passively* replicated task is faulty, the
  voter requests the passive copies (critical-state trigger), waits for
  them, and votes once — mismatch detection itself is free, the voting
  overhead ``ve`` is paid exactly once per decision;
* entering the critical state drops every job of the ``T_d`` applications
  released in the current hyperperiod (waiting, queued and running jobs
  alike); the system restores to normal at the hyperperiod boundary.
"""

import heapq
import random
from typing import Dict, List, Optional, Set, Tuple

from repro.comm import CommBackend, default_comm
from repro.errors import SimulationError
from repro.hardening.transform import HardenedSystem
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.obs.metrics import metrics
from repro.obs.trace import event
from repro.sched.jobs import JobSet, unroll
from repro.sched.priority import assign_priorities
from repro.sim.faults import FaultProfile, no_fault_profile
from repro.sim.sampler import ExecutionSampler, WorstCaseSampler
from repro.sim.trace import InstanceOutcome, SimulationResult, TraceEvent

# Job lifecycle states.
_WAITING = 0
_READY = 1
_RUNNING = 2
_DONE = 3
_DROPPED = 4

_EVENT_LIMIT = 2_000_000


class Simulator:
    """Simulates a hardened system under a failure profile.

    Parameters
    ----------
    hardened:
        The hardened system ``T'`` with its bookkeeping.
    architecture, mapping:
        Platform and task placement (over ``T'``).
    dropped:
        The dropped application set ``T_d``.
    comm:
        Channel latency model or unbound :class:`repro.comm.CommBackend`
        (defaults to whatever the platform's interconnect configuration
        selects).  Backends are bound against the hardened task set; the
        engine unrolls with single-attempt (no-ARQ) channel bounds and
        charges each injected message loss an explicit retransmission
        delay, so simulated latencies stay below the analysis's folded
        ARQ worst case.
    collect_trace:
        When ``True`` every scheduler event is recorded in the result's
        ``trace`` list (slower; off by default).
    policy:
        Per-processor scheduling policy: ``"fp"`` (default) or ``"edf"``;
        must match the policy the analysis assumed.
    """

    def __init__(
        self,
        hardened: HardenedSystem,
        architecture: Architecture,
        mapping: Mapping,
        dropped: Tuple[str, ...] = (),
        comm: Optional[CommBackend] = None,
        collect_trace: bool = False,
        policy: str = "fp",
    ):
        self._hardened = hardened
        self._architecture = architecture
        self._mapping = mapping
        self._dropped = hardened.source.validate_drop_set(dropped)
        comm = comm if comm is not None else default_comm(architecture)
        comm = comm.bind(hardened.applications, mapping, architecture)
        # The analysis folds the full ARQ margin into channel bounds; the
        # engine instead unrolls single-attempt bounds and pays each
        # injected loss explicitly, so fault-free runs see no margin.
        self._arq_retries = comm.arq_retries
        self._arq_timeout = comm.arq_timeout
        self._comm = comm.without_arq()
        self._collect_trace = collect_trace
        self._policy = policy
        self._priorities = assign_priorities(hardened.applications)

        # Nominal per-task bounds: detection overhead folded into
        # re-executable tasks, passive copies keep their real durations
        # (they are gated by activation, not by zeroed bounds).
        self._bounds = {
            task.name: hardened.nominal_bounds(task.name)
            for task in hardened.applications.all_tasks
        }

        apps = hardened.applications
        self._roles = {task.name: task.role for task in apps.all_tasks}
        self._is_passive = {
            task.name: hardened.is_passive(task.name) for task in apps.all_tasks
        }
        # voter task -> (primary, active copy names, passive copy names)
        self._voter_groups: Dict[str, Tuple[str, Tuple[str, ...], Tuple[str, ...]]] = {}
        for primary, voter in hardened.voters.items():
            group = hardened.replica_groups[primary]
            actives = tuple(n for n in group if not hardened.is_passive(n))
            passives = tuple(n for n in group if hardened.is_passive(n))
            self._voter_groups[voter] = (primary, actives, passives)
        # passive copy -> primary
        self._passive_primary = {
            name: hardened.derived_to_primary[name]
            for name in hardened.passive_tasks
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        profile: Optional[FaultProfile] = None,
        sampler: Optional[ExecutionSampler] = None,
        rng: Optional[random.Random] = None,
        hyperperiods: int = 1,
        drop_from_start: bool = False,
    ) -> SimulationResult:
        """Simulate ``hyperperiods`` hyperperiods under a failure profile.

        ``drop_from_start`` forces the critical state from the beginning
        of every hyperperiod (the ``Adhoc`` trace of §5.1).
        """
        profile = profile or no_fault_profile()
        sampler = sampler or WorstCaseSampler()
        rng = rng or random.Random(0)

        jobset = unroll(
            self._hardened.applications,
            self._mapping,
            self._architecture,
            comm=self._comm,
            priorities=self._priorities,
            bounds=self._bounds,
            hyperperiods=hyperperiods,
            policy=self._policy,
        )
        state = _RunState(self, jobset, profile, sampler, rng)
        if drop_from_start:
            state.force_drop_every_hyperperiod()
        state.run()
        return state.result()


class _RunState:
    """Mutable state of one simulation run."""

    def __init__(
        self,
        sim: Simulator,
        jobset: JobSet,
        profile: FaultProfile,
        sampler: ExecutionSampler,
        rng: random.Random,
    ):
        self.sim = sim
        self.jobset = jobset
        self.profile = profile
        self.sampler = sampler
        self.rng = rng
        self.hyperperiod = jobset.hyperperiod
        self.horizon = jobset.horizon

        count = len(jobset)
        jobs = jobset.jobs
        self.status = [_WAITING] * count
        self.released = [False] * count
        self.delivered: List[Set[int]] = [set() for _ in range(count)]
        self.remaining = [None] * count  # type: List[Optional[float]]
        self.attempt = [0] * count
        self.epoch = [0] * count
        self.seg_start = [0.0] * count
        self.finish_time: List[Optional[float]] = [None] * count
        self.faulty_output = [False] * count

        # Gating sets.
        self.required_now: List[int] = []
        self.required_all: List[int] = []
        for job in jobs:
            non_demand = sum(1 for p in job.preds if not p[3])
            self.required_now.append(non_demand)
            self.required_all.append(len(job.preds))

        # Successor adjacency; cross-PE edges are the ones an injected
        # message fault can hit.
        self.succs: List[List[Tuple[int, float, bool]]] = [
            [] for _ in range(count)
        ]
        for job in jobs:
            for pred_index, _best, worst, _on_demand in job.preds:
                cross_pe = jobs[pred_index].processor != job.processor
                self.succs[pred_index].append((job.index, worst, cross_pe))

        # Per-PE ready heaps and running job.
        self.ready: Dict[str, List[Tuple[int, int, int]]] = {}
        self.running: Dict[str, Optional[int]] = {}
        for processor in sim._architecture.processors:
            self.ready[processor.name] = []
            self.running[processor.name] = None

        # Voter bookkeeping per (voter task, instance).
        self.voter_active_seen: Dict[Tuple[str, int], Set[str]] = {}
        self.voter_fault_seen: Dict[Tuple[str, int], bool] = {}
        self.activated: Dict[Tuple[str, int], bool] = {}

        # Critical-state bookkeeping.
        self.critical_until = -1.0
        self.forced_hyperperiods: Set[int] = set()

        # Event queue: (time, sequence, kind, a, b).
        self.queue: List[Tuple[float, int, str, int, int]] = []
        self.sequence = 0
        self.events_processed = 0

        # Results.
        self.trace: List[TraceEvent] = []
        self.transitions: List[Tuple[float, str]] = []
        self.unsafe: List[Tuple[str, int]] = []
        self.faults_observed = 0

        for job in jobs:
            self.push(job.release, "release", job.index, 0)
        for boundary in range(1, int(round(self.horizon / self.hyperperiod)) + 1):
            self.push(boundary * self.hyperperiod, "boundary", boundary, 0)

    # ------------------------------------------------------------------
    # Event machinery
    # ------------------------------------------------------------------

    def push(self, time: float, kind: str, a: int, b: int) -> None:
        self.sequence += 1
        heapq.heappush(self.queue, (time, self.sequence, kind, a, b))

    def record(self, time: float, kind: str, job_index: int = -1, detail: str = "") -> None:
        if not self.sim._collect_trace:
            return
        if job_index >= 0:
            job = self.jobset.jobs[job_index]
            self.trace.append(
                TraceEvent(
                    time=time,
                    kind=kind,
                    task=job.task_name,
                    instance=job.instance,
                    processor=job.processor,
                    detail=detail,
                )
            )
        else:
            self.trace.append(TraceEvent(time=time, kind=kind, detail=detail))

    def force_drop_every_hyperperiod(self) -> None:
        """Mark every hyperperiod to start in the critical state."""
        count = int(round(self.horizon / self.hyperperiod))
        self.forced_hyperperiods = set(range(count))
        self.trigger_critical(0.0, "forced")

    def run(self) -> None:
        """Main event loop."""
        while self.queue:
            self.events_processed += 1
            if self.events_processed > _EVENT_LIMIT:
                raise SimulationError(
                    "event limit exceeded — the simulation diverged"
                )
            time, _seq, kind, a, b = heapq.heappop(self.queue)
            if kind == "release":
                self.on_release(time, a)
            elif kind == "arrival":
                self.on_arrival(time, a, b)
            elif kind == "complete":
                self.on_complete(time, a, b)
            elif kind == "boundary":
                self.on_boundary(time, a)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind!r}")

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def on_release(self, time: float, index: int) -> None:
        if self.status[index] == _DROPPED:
            return
        self.released[index] = True
        self.record(time, "release", index)
        self.check_ready(time, index)

    def on_arrival(self, time: float, dst: int, src: int) -> None:
        self.delivered[dst].add(src)
        jobs = self.jobset.jobs
        dst_task = jobs[dst].task_name
        if dst_task in self.sim._voter_groups:
            self.update_voter(time, dst)
        if self.status[dst] == _DROPPED:
            return
        self.check_ready(time, dst)

    def on_boundary(self, time: float, boundary_index: int) -> None:
        if self.critical_until <= time + 1e-12 and self.critical_until > 0:
            self.record(time, "restore")
        if boundary_index in self.forced_hyperperiods:
            self.trigger_critical(time, "forced")

    def on_complete(self, time: float, index: int, epoch: int) -> None:
        if epoch != self.epoch[index] or self.status[index] != _RUNNING:
            return  # stale completion (preempted or dropped meanwhile)
        jobs = self.jobset.jobs
        job = jobs[index]
        processor = job.processor
        task_name = job.task_name
        faulty = self.profile.is_faulty(task_name, job.instance, self.attempt[index])
        if faulty:
            self.faults_observed += 1
            event(
                "fault-injected",
                time=time,
                task=task_name,
                instance=job.instance,
                attempt=self.attempt[index],
            )

        if self.sim._hardened.is_time_redundant(task_name) and faulty:
            self.record(time, "fault", index)
            self.trigger_critical(time, task_name)
            k = self.sim._hardened.time_redundancy[task_name].reexecutions
            if self.attempt[index] < k:
                # Roll back and run again (same processor); checkpointed
                # tasks only repeat the current segment.
                self.attempt[index] += 1
                self.remaining[index] = self.sample_recovery(index)
                self.status[index] = _READY
                self.running[processor] = None
                heapq.heappush(
                    self.ready[processor], (job.priority, self.next_seq(), index)
                )
                self.record(time, "reexecute", index)
                self.schedule(time, processor)
                return
            # Out of retries: the faulty result propagates (unsafe).
            self.faulty_output[index] = True
            self.unsafe.append((task_name, job.instance))
            self.record(time, "unsafe", index)
        elif faulty:
            self.faulty_output[index] = True
            self.record(time, "fault", index)

        # Finalise completion.
        self.status[index] = _DONE
        self.finish_time[index] = time
        self.running[processor] = None
        self.record(time, "finish", index)

        if task_name in self.sim._voter_groups:
            self.finish_voter(time, index)

        for dst, comm_worst, cross_pe in self.succs[index]:
            delay = comm_worst
            if cross_pe and self.profile.has_message_faults:
                delay = self.message_delay(time, index, dst, comm_worst)
            self.push(time + delay, "arrival", dst, index)
        self.schedule(time, processor)

    def message_delay(
        self, time: float, src_index: int, dst_index: int, worst: float
    ) -> float:
        """Channel latency of one delivery under injected message losses.

        Each lost transmission costs one more worst-case attempt plus the
        ARQ timeout.  A channel whose entire budget (original send plus
        ``k`` retransmissions) is lost still *delivers* — at the full
        ``(k+1) * worst + k * timeout`` cost, matching the analysis fold —
        but the payload is corrupt, recorded as an unsafe event (the
        communication analog of exhausted re-execution).
        """
        jobs = self.jobset.jobs
        src = jobs[src_index]
        dst = jobs[dst_index]
        budget = self.sim._arq_retries
        timeout = self.sim._arq_timeout
        losses = 0
        while losses <= budget and self.profile.is_message_lost(
            src.task_name, dst.task_name, src.instance, losses
        ):
            losses += 1
        if losses == 0:
            return worst
        self.faults_observed += losses
        self.record(
            time,
            "msg-loss",
            src_index,
            detail=f"{src.task_name}>{dst.task_name} x{losses}",
        )
        if losses > budget:
            # ARQ exhausted: corrupt delivery at the folded worst case.
            self.unsafe.append(
                (f"{src.task_name}>{dst.task_name}", src.instance)
            )
            self.record(time, "msg-unsafe", src_index)
            return (budget + 1) * worst + budget * timeout
        return (losses + 1) * worst + losses * timeout

    # ------------------------------------------------------------------
    # Readiness and scheduling
    # ------------------------------------------------------------------

    def gates_satisfied(self, index: int) -> bool:
        jobs = self.jobset.jobs
        job = jobs[index]
        task_name = job.task_name
        delivered = len(self.delivered[index])
        if self.sim._is_passive.get(task_name, False):
            primary = self.sim._passive_primary[task_name]
            if not self.activated.get((primary, job.instance), False):
                return False
            return delivered >= self.required_all[index]
        if task_name in self.sim._voter_groups:
            primary = self.sim._voter_groups[task_name][0]
            if self.activated.get((primary, job.instance), False):
                return delivered >= self.required_all[index]
            return self.count_non_demand(index) >= self.required_now[index]
        return delivered >= self.required_now[index]

    def count_non_demand(self, index: int) -> int:
        job = self.jobset.jobs[index]
        non_demand_preds = {p[0] for p in job.preds if not p[3]}
        return len(self.delivered[index] & non_demand_preds)

    def check_ready(self, time: float, index: int) -> None:
        if self.status[index] != _WAITING or not self.released[index]:
            return
        if not self.gates_satisfied(index):
            return
        job = self.jobset.jobs[index]
        self.status[index] = _READY
        heapq.heappush(self.ready[job.processor], (job.priority, self.next_seq(), index))
        self.schedule(time, job.processor)

    def next_seq(self) -> int:
        self.sequence += 1
        return self.sequence

    def peek_ready(self, processor: str) -> Optional[int]:
        heap = self.ready[processor]
        while heap:
            _prio, _seq, index = heap[0]
            if self.status[index] == _READY:
                return index
            heapq.heappop(heap)  # stale (dropped or restarted)
        return None

    def schedule(self, time: float, processor: str) -> None:
        top = self.peek_ready(processor)
        if top is None:
            return
        current = self.running[processor]
        jobs = self.jobset.jobs
        if current is None:
            self.start(time, processor, top)
            return
        if jobs[top].priority < jobs[current].priority:
            # Preempt the running job.
            elapsed = time - self.seg_start[current]
            self.remaining[current] = max(
                0.0, (self.remaining[current] or 0.0) - elapsed
            )
            self.epoch[current] += 1
            self.status[current] = _READY
            heapq.heappush(
                self.ready[processor],
                (jobs[current].priority, self.next_seq(), current),
            )
            self.record(time, "preempt", current)
            self.running[processor] = None
            self.start(time, processor, top)

    def start(self, time: float, processor: str, index: int) -> None:
        heap = self.ready[processor]
        while heap and heap[0][2] != index:
            heapq.heappop(heap)
        if heap:
            heapq.heappop(heap)
        if self.remaining[index] is None:
            self.remaining[index] = self.sample_duration(index)
        self.status[index] = _RUNNING
        self.running[processor] = index
        self.seg_start[index] = time
        self.epoch[index] += 1
        self.push(time + self.remaining[index], "complete", index, self.epoch[index])
        self.record(time, "start", index)

    def sample_duration(self, index: int) -> float:
        job = self.jobset.jobs[index]
        return self.sampler.sample(job.bcet, job.wcet, self.rng)

    def sample_recovery(self, index: int) -> float:
        """Duration of one fault recovery (full re-run or one segment)."""
        job = self.jobset.jobs[index]
        low, high = self.sim._hardened.recovery_bounds(job.task_name)
        processor = self.sim._architecture.processor(job.processor)
        return self.sampler.sample(
            processor.scale_time(low), processor.scale_time(high), self.rng
        )

    # ------------------------------------------------------------------
    # Voting and passive activation
    # ------------------------------------------------------------------

    def update_voter(self, time: float, voter_index: int) -> None:
        jobs = self.jobset.jobs
        voter_job = jobs[voter_index]
        voter_task = voter_job.task_name
        primary, actives, passives = self.sim._voter_groups[voter_task]
        key = (voter_task, voter_job.instance)
        seen = self.voter_active_seen.setdefault(key, set())
        fault_seen = self.voter_fault_seen.get(key, False)
        for pred_index, _best, _worst, _on_demand in voter_job.preds:
            pred = jobs[pred_index]
            if pred.task_name in actives and pred_index in self.delivered[voter_index]:
                if pred.task_name not in seen:
                    seen.add(pred.task_name)
                    if self.faulty_output[pred_index]:
                        fault_seen = True
        self.voter_fault_seen[key] = fault_seen
        if len(seen) == len(actives) and fault_seen and passives:
            group_key = (primary, voter_job.instance)
            if not self.activated.get(group_key, False):
                self.activated[group_key] = True
                self.record(time, "activate", voter_index, detail=primary)
                self.trigger_critical(time, primary)
                for passive_name in passives:
                    passive_job = self.find_job(passive_name, voter_job.instance)
                    if passive_job is not None:
                        self.check_ready(time, passive_job)

    def finish_voter(self, time: float, voter_index: int) -> None:
        """Majority decision once the voter's execution completes."""
        jobs = self.jobset.jobs
        voter_job = jobs[voter_index]
        voter_task = voter_job.task_name
        primary, actives, passives = self.sim._voter_groups[voter_task]
        considered: List[int] = []
        for pred_index, _best, _worst, _on_demand in voter_job.preds:
            pred = jobs[pred_index]
            if pred.task_name in actives:
                considered.append(pred_index)
            elif pred.task_name in passives and self.activated.get(
                (primary, voter_job.instance), False
            ):
                considered.append(pred_index)
        faulty = sum(1 for i in considered if self.faulty_output[i])
        correct = len(considered) - faulty
        if len(considered) == 2:
            decision_faulty = faulty == 2
        else:
            decision_faulty = faulty > correct
        self.faulty_output[voter_index] = decision_faulty
        if decision_faulty:
            self.unsafe.append((voter_task, voter_job.instance))
            self.record(time, "unsafe", voter_index)

    def find_job(self, task_name: str, instance: int) -> Optional[int]:
        for job in self.jobset.jobs_of_task(task_name):
            if job.instance == instance:
                return job.index
        return None

    # ------------------------------------------------------------------
    # Critical state and dropping
    # ------------------------------------------------------------------

    def trigger_critical(self, time: float, trigger: str) -> None:
        self.transitions.append((time, trigger))
        boundary = (int(time // self.hyperperiod) + 1) * self.hyperperiod
        already_critical = self.critical_until >= boundary - 1e-12
        self.critical_until = max(self.critical_until, boundary)
        if already_critical:
            return
        self.record(time, "critical", detail=trigger)
        if not self.sim._dropped:
            return
        window_start = boundary - self.hyperperiod
        jobs = self.jobset.jobs
        for job in jobs:
            if job.graph_name not in self.sim._dropped:
                continue
            if not (window_start - 1e-12 <= job.release < boundary - 1e-12):
                continue
            status = self.status[job.index]
            if status in (_DONE, _DROPPED):
                continue
            if status == _RUNNING:
                self.epoch[job.index] += 1
                self.running[job.processor] = None
                self.status[job.index] = _DROPPED
                self.record(time, "drop", job.index)
                self.schedule(time, job.processor)
            else:
                self.status[job.index] = _DROPPED
                self.record(time, "drop", job.index)

    # ------------------------------------------------------------------
    # Result aggregation
    # ------------------------------------------------------------------

    def result(self) -> SimulationResult:
        jobs = self.jobset.jobs
        outcomes: Dict[Tuple[str, int], InstanceOutcome] = {}
        apps = self.sim._hardened.applications
        for job in jobs:
            key = (job.graph_name, job.instance)
            outcome = outcomes.get(key)
            if outcome is None:
                graph = apps.graph(job.graph_name)
                outcome = InstanceOutcome(
                    graph=job.graph_name,
                    instance=job.instance,
                    release=job.release,
                    deadline=graph.deadline,
                )
                outcomes[key] = outcome
            status = self.status[job.index]
            if status == _DROPPED:
                outcome.dropped = True
            elif status == _DONE:
                finish = self.finish_time[job.index]
                if outcome.finish is None or finish > outcome.finish:
                    outcome.finish = finish
            elif status in (_WAITING, _READY, _RUNNING):
                task_name = job.task_name
                is_idle_passive = self.sim._is_passive.get(
                    task_name, False
                ) and not self.activated.get(
                    (self.sim._passive_primary.get(task_name, ""), job.instance),
                    False,
                )
                if not is_idle_passive:
                    if outcome.dropped or job.graph_name in self.sim._dropped:
                        outcome.dropped = True
                    else:
                        raise SimulationError(
                            f"job {job.job_id!r} never completed "
                            f"(status {status}) — inconsistent simulation"
                        )
        ordered = [outcomes[key] for key in sorted(outcomes)]
        for outcome in ordered:
            if outcome.dropped:
                outcome.finish = None

        registry = metrics()
        registry.counter("sim.runs").inc()
        registry.counter("sim.events_processed").inc(self.events_processed)
        registry.counter("sim.faults_injected").inc(self.faults_observed)
        registry.counter("sim.critical_transitions").inc(len(self.transitions))
        registry.counter("sim.jobs_dropped").inc(
            sum(1 for status in self.status if status == _DROPPED)
        )
        misses = [o for o in ordered if o.met_deadline is False]
        if misses:
            registry.counter("sim.deadline_misses").inc(len(misses))
            for outcome in misses:
                event(
                    "deadline-miss",
                    graph=outcome.graph,
                    instance=outcome.instance,
                    response=outcome.response_time,
                    deadline=outcome.deadline,
                )
        return SimulationResult(
            outcomes=ordered,
            trace=self.trace,
            transitions=self.transitions,
            unsafe_events=self.unsafe,
            faults_observed=self.faults_observed,
        )
