"""Async exploration jobs with crash-safe resume.

``POST /v1/explore`` cannot answer synchronously — a real exploration
runs minutes to hours — so it becomes a *job*: accepted immediately,
polled via ``GET /v1/jobs/<id>``, cancellable, and **durable**.  Each
job owns a directory under the server's state dir holding

* ``job.json`` — the job record (atomic write-then-rename, like the DSE
  snapshots), including the full canonical system payload so a restart
  needs no external files;
* ``ckpt/`` — the :mod:`repro.dse.checkpoint` snapshot directory of its
  exploration.

A SIGKILLed server therefore loses nothing it had committed: on
restart, :meth:`JobStore.recover` re-queues every job that was pending
or running, and the explorer resumes from the newest valid snapshot —
replaying the identical trajectory, so the finished front equals an
uninterrupted run (the PR-2 determinism guarantee carried up to the
service layer).

Cancellation is cooperative: the explorer's per-generation progress
callback raises ``KeyboardInterrupt`` when a cancel (or the job's
deadline) is observed, which the explorer converts into a final
checkpoint plus a partial result.

Multi-process coordination (the pre-fork supervisor runs N workers over
one shared state dir) rides on three kinds of marker files per job:

* ``claim`` — created ``O_EXCL`` with the owner's pid before a job
  starts running; :meth:`JobStore.recover` skips records claimed by a
  live process, so a restarted sibling cannot double-run a job.  Claims
  of dead pids are stale and are broken.
* ``cancel`` — dropped by any worker that receives the cancel request;
  the owning worker's progress callback polls it each generation.
* ``.idem/<key>`` — maps a client idempotency key to its job id
  (``O_EXCL``), so a retried ``POST /v1/explore`` coalesces onto the
  first accepted job instead of spawning a duplicate exploration.

Graceful drain (:meth:`JobStore.drain`) interrupts running jobs the
same way a cancel does, but *parks* them: the final checkpoint commits,
the record goes back to ``pending``, and the claim is released — so the
next incarnation's :meth:`~JobStore.recover` resumes the identical
trajectory.
"""

import json
import os
import shutil
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.dse.checkpoint import write_json_durably
from repro.errors import ReproError
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import SpanContext, activate, span as trace_span
from repro.serve.encoding import exploration_result_to_dict

_LOG = get_logger("serve")

__all__ = ["Job", "JobStore", "JOB_STATES"]

#: Lifecycle: pending -> running -> done | failed | cancelled.
#: A drained (parked) job goes back to pending with its checkpoints.
JOB_STATES = ("pending", "running", "done", "failed", "cancelled")

_TERMINAL_STATES = ("done", "failed", "cancelled")


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process we could signal."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


@dataclass
class Job:
    """One exploration job and its durable record."""

    id: str
    params: Dict[str, Any]
    status: str = "pending"
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    generations_run: int = 0
    #: Generation of the newest committed checkpoint (resume point).
    checkpoint_generation: Optional[int] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    #: How often the record was re-queued after a server restart.
    restarts: int = 0
    #: Trace context of the submitting request (``SpanContext.to_dict``
    #: form), persisted so a restarted job continues the same trace.
    trace: Optional[Dict[str, Any]] = None
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: Serializes writes of this job's record file (creator thread and
    #: runner thread may persist concurrently).
    _save_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def to_dict(self, with_result: bool = True) -> Dict[str, Any]:
        """The job record as shipped to clients and to ``job.json``."""
        with self._lock:
            payload = {
                "id": self.id,
                "kind": "shard" if self.params.get("op") else "explore",
                "status": self.status,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "generations_run": self.generations_run,
                "checkpoint_generation": self.checkpoint_generation,
                "cancel_requested": self.cancel_requested,
                "restarts": self.restarts,
                "trace": self.trace,
                "error": self.error,
                "params": self.params,
            }
            if with_result:
                payload["result"] = self.result
            else:
                payload["result"] = None
            return payload

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "Job":
        """Rebuild a job record from ``job.json``."""
        return Job(
            id=payload["id"],
            params=payload["params"],
            status=payload.get("status", "pending"),
            created=payload.get("created", 0.0),
            started=payload.get("started"),
            finished=payload.get("finished"),
            generations_run=payload.get("generations_run", 0),
            checkpoint_generation=payload.get("checkpoint_generation"),
            result=payload.get("result"),
            error=payload.get("error"),
            cancel_requested=payload.get("cancel_requested", False),
            restarts=payload.get("restarts", 0),
            trace=payload.get("trace"),
        )


class JobStore:
    """Runs explore jobs on dedicated threads and persists their state.

    Jobs get their own small executor (default: one thread) so a long
    exploration can never starve the analyze/simulate worker pool.
    """

    def __init__(self, state_dir, workers: int = 1):
        if workers < 1:
            raise ReproError("job store workers must be >= 1")
        self._dir = Path(state_dir)
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ReproError(
                f"cannot create job state directory {self._dir}: {error}"
            ) from error
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._queue: List[str] = []
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._draining = False
        #: Jobs this process's runner has taken from its queue, from the
        #: moment it pops them (their in-memory record is authoritative;
        #: everything else may be refreshed from disk).
        self._owned: set = set()
        self._threads = [
            threading.Thread(
                target=self._runner, name=f"serve-job-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- directories -----------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        """The durable directory of one job."""
        return self._dir / job_id

    def _record_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def checkpoint_dir(self, job_id: str) -> Path:
        """Where the job's exploration snapshots go."""
        return self.job_dir(job_id) / "ckpt"

    def _claim_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "claim"

    def _cancel_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "cancel"

    def _idem_path(self, key: str) -> Path:
        return self._dir / ".idem" / key

    # -- cross-process markers -------------------------------------------

    def _claim_pid(self, job_id: str) -> Optional[int]:
        """The pid recorded in the job's claim file, if any."""
        try:
            return int(self._claim_path(job_id).read_text().strip() or 0)
        except (OSError, ValueError):
            return None

    def _try_claim(self, job_id: str) -> bool:
        """Atomically claim the job for this process (break stale claims)."""
        path = self._claim_path(job_id)
        for _attempt in range(2):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                pid = self._claim_pid(job_id)
                if pid is not None and pid != os.getpid() and _pid_alive(pid):
                    return False
                # Stale (dead owner) or unreadable: break it and retry.
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    return False
                continue
            except OSError:
                return False
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            return True
        return False

    def _release_claim(self, job_id: str) -> None:
        try:
            self._claim_path(job_id).unlink(missing_ok=True)
        except OSError:
            pass

    def _cancel_marked(self, job_id: str) -> bool:
        try:
            return self._cancel_path(job_id).exists()
        except OSError:
            return False

    def _mark_cancel(self, job_id: str) -> None:
        try:
            path = self._cancel_path(job_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.touch()
        except OSError as error:
            _LOG.warning(
                "cannot write cancel marker %s",
                kv(job=job_id, error=str(error)),
            )

    # -- persistence -----------------------------------------------------

    def _save(self, job: Job) -> None:
        path = self._record_path(job.id)
        try:
            with job._save_lock:
                # Snapshot under the save lock: a snapshot taken outside
                # could be written after a newer one, persisting a stale
                # record (e.g. a finished job left on disk as 'running').
                payload = job.to_dict(with_result=True)
                path.parent.mkdir(parents=True, exist_ok=True)
                write_json_durably(path, payload)
        except OSError as error:
            _LOG.warning(
                "cannot persist job record %s",
                kv(job=job.id, error=str(error)),
            )

    def recover(self) -> List[str]:
        """Re-queue every job that was unfinished when the process died.

        Returns the re-queued job ids.  Corrupt records are skipped with
        a warning; finished jobs are loaded for serving but not re-run.
        Records claimed by a live sibling worker are loaded for serving
        but left alone — the owner is still running them; stale claims
        (dead owners) are broken and the job re-queued.
        """
        requeued: List[str] = []
        for record in sorted(self._dir.glob("*/job.json")):
            try:
                payload = json.loads(record.read_text())
                job = Job.from_dict(payload)
            except (OSError, json.JSONDecodeError, KeyError, TypeError) as error:
                _LOG.warning(
                    "skipping unreadable job record %s",
                    kv(path=str(record), error=str(error)),
                )
                continue
            if job.status in ("pending", "running"):
                pid = self._claim_pid(job.id)
                if pid is not None and pid != os.getpid() and _pid_alive(pid):
                    with self._lock:
                        if job.id not in self._jobs:
                            self._jobs[job.id] = job
                    continue
                if pid is not None:
                    self._release_claim(job.id)
            with self._lock:
                if job.id in self._jobs:
                    continue
                self._jobs[job.id] = job
                if job.status in ("pending", "running"):
                    job.status = "pending"
                    job.restarts += 1
                    job.checkpoint_generation = self._latest_checkpoint(job.id)
                    self._queue.append(job.id)
                    self._wakeup.notify()
                    requeued.append(job.id)
            if job.id in requeued:
                self._save(job)
                metrics().counter("serve.jobs.recovered").inc()
                _LOG.info(
                    "recovered job %s",
                    kv(
                        job=job.id,
                        resume_generation=job.checkpoint_generation,
                        restarts=job.restarts,
                    ),
                )
        return requeued

    def _latest_checkpoint(self, job_id: str) -> Optional[int]:
        from repro.dse.checkpoint import latest_snapshot_generation

        return latest_snapshot_generation(self.checkpoint_dir(job_id))

    # -- API -------------------------------------------------------------

    def create(
        self,
        params: Dict[str, Any],
        trace: Optional[Dict[str, Any]] = None,
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Accept a validated explore request as a new pending job.

        With an ``idempotency_key``, a retried submission returns the
        job the first submission created instead of a duplicate: the key
        is bound to the winning job id via an ``O_EXCL`` marker file, so
        the race is settled identically in every worker process.
        """
        if idempotency_key:
            existing = self._idem_lookup(idempotency_key)
            if existing is not None:
                metrics().counter("serve.jobs.idempotent_replays").inc()
                return existing
        job = Job(
            id=f"job-{uuid.uuid4().hex[:12]}",
            params=params,
            created=time.time(),
            trace=trace,
        )
        with self._lock:
            if self._closed:
                raise ReproError("job store is shut down")
            self._jobs[job.id] = job
        # Persist before publishing the idempotency marker, so a marker
        # never points at a job without a durable record.
        self._save(job)
        if idempotency_key:
            winner = self._idem_claim(idempotency_key, job.id)
            if winner != job.id:
                # Lost the race: discard our record, adopt the winner.
                with self._lock:
                    self._jobs.pop(job.id, None)
                shutil.rmtree(self.job_dir(job.id), ignore_errors=True)
                adopted = self.get(winner)
                if adopted is not None:
                    metrics().counter("serve.jobs.idempotent_replays").inc()
                    return adopted
                # Winner's record is unreadable; fall back to running
                # ours (re-register and proceed).
                with self._lock:
                    self._jobs[job.id] = job
                self._save(job)
        with self._lock:
            if self._closed:
                raise ReproError("job store is shut down")
            self._queue.append(job.id)
            self._wakeup.notify()
        metrics().counter("serve.jobs.created").inc()
        return job

    def _idem_lookup(self, key: str) -> Optional[Job]:
        try:
            job_id = self._idem_path(key).read_text().strip()
        except OSError:
            return None
        return self.get(job_id) if job_id else None

    def _idem_claim(self, key: str, job_id: str) -> str:
        """Bind ``key`` to ``job_id``; returns the id that owns the key."""
        path = self._idem_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            try:
                existing = path.read_text().strip()
            except OSError:
                existing = ""
            if existing and self.get(existing) is not None:
                return existing
            # Orphaned marker (job record lost): take it over.
            try:
                path.write_text(job_id)
            except OSError:
                pass
            return job_id
        except OSError:
            return job_id
        with os.fdopen(fd, "w") as handle:
            handle.write(job_id)
        return job_id

    def _load_record(self, job_id: str) -> Optional[Job]:
        """Read a job record straight from disk (no registration)."""
        try:
            payload = json.loads(self._record_path(job_id).read_text())
            return Job.from_dict(payload)
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            return None

    def get(self, job_id: str) -> Optional[Job]:
        """The job record, or ``None`` for an unknown id.

        Records this process owns or that reached a terminal state are
        served from memory; anything else may be progressing in a
        sibling worker, so the on-disk record — the cross-process source
        of truth — is re-read.  A job counts as owned from the moment
        this process's runner takes it from its queue, before it claims
        the job on disk: the runner runs the very object it took, so
        that object must stay the one served.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            owned = job_id in self._owned
        if job is not None and (owned or job.status in _TERMINAL_STATES):
            return job
        loaded = self._load_record(job_id)
        if loaded is None:
            return job
        with self._lock:
            if job_id in self._owned:
                return self._jobs.get(job_id, loaded)
            if job_id in self._jobs:
                # Keep queue membership intact; just swap the record so
                # pollers see the freshest cross-process state.
                self._jobs[job_id] = loaded
        return loaded

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; pending jobs cancel immediately.

        Running jobs observe the flag at their next generation boundary
        and finish as ``cancelled`` with a partial result.  The request
        also drops a durable ``cancel`` marker, so a job running in a
        sibling worker process (or resumed after a restart) observes it
        too.
        """
        job = self.get(job_id)
        if job is None:
            return None
        if job.status in _TERMINAL_STATES:
            return job
        self._mark_cancel(job_id)
        with self._lock:
            known = self._jobs.get(job_id)
        if known is None:
            # Disk-only record owned by a sibling; the marker is the
            # cancellation. Reflect the request in the returned copy.
            job.cancel_requested = True
            metrics().counter("serve.jobs.cancelled").inc()
            return job
        job = known
        finalize = False
        with self._lock:
            job.cancel_requested = True
            if job.status == "pending":
                # Only cancel in place if no sibling has claimed it (a
                # job this runner took is owned before its claim lands,
                # so ask the claim file; our own claim always yields).
                if self._try_claim(job_id):
                    job.status = "cancelled"
                    job.finished = time.time()
                    if job_id in self._queue:
                        self._queue.remove(job_id)
                    finalize = True
        if finalize:
            self._save(job)
            self._release_claim(job_id)
        metrics().counter("serve.jobs.cancelled").inc()
        return job

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (the ``/metrics`` summary)."""
        with self._lock:
            jobs = list(self._jobs.values())
        tally = {state: 0 for state in JOB_STATES}
        for job in jobs:
            tally[job.status] = tally.get(job.status, 0) + 1
        return tally

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until no job is pending or running (tests, shutdown)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            tally = self.counts()
            if tally["pending"] == 0 and tally["running"] == 0:
                return True
            time.sleep(0.02)
        return False

    # -- execution -------------------------------------------------------

    def _runner(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed and not self._draining:
                    self._wakeup.wait()
                if self._draining or (self._closed and not self._queue):
                    # On drain, queued jobs stay durable on disk as
                    # pending — the next incarnation re-queues them.
                    return
                job = self._jobs[self._queue.pop(0)]
                if job.status != "pending":
                    continue
                # Owned from here on, so a concurrent get() cannot swap
                # in a disk copy while this thread holds ``job``.
                self._owned.add(job.id)
            # Claim outside the lock (file I/O); a sibling worker that
            # recovered the same record may be racing us for it.
            if not self._try_claim(job.id):
                with self._lock:
                    self._owned.discard(job.id)
                continue
            fresh = self._load_record(job.id)
            if fresh is not None and fresh.status not in ("pending", "running"):
                # Finished or cancelled elsewhere while queued here.
                with self._lock:
                    self._owned.discard(job.id)
                    self._jobs[job.id] = fresh
                self._release_claim(job.id)
                continue
            with self._lock:
                if job.status != "pending":
                    self._release_claim(job.id)
                    continue
                job.status = "running"
                job.started = time.time()
            self._save(job)
            try:
                self._run_job(job)
            except BaseException as error:  # noqa: BLE001 — recorded
                job.status = "failed"
                job.error = f"{type(error).__name__}: {error}"
                job.finished = time.time()
                metrics().counter("serve.jobs.failed").inc()
                _LOG.warning(
                    "job failed %s", kv(job=job.id, error=job.error)
                )
            self._save(job)
            self._release_claim(job.id)
            if job.status == "pending":
                # Parked by a drain: disown so later polls re-read disk
                # (the next incarnation owns its progress).
                with self._lock:
                    self._owned.discard(job.id)

    def _run_job(self, job: Job) -> None:
        from dataclasses import replace

        from repro.dse.islands import has_island_state, run_explore
        from repro.serve.encoding import explore_request_from_params

        if job.params.get("op"):
            self._run_shard(job)
            return
        params = job.params
        base = explore_request_from_params(params)
        ckpt_dir = self.checkpoint_dir(job.id)
        multi = base.topology.normalized().islands > 1
        config = replace(
            base.config,
            quarantine_path=str(self.job_dir(job.id) / "quarantine.jsonl"),
            checkpoint_dir=str(ckpt_dir),
            # A restarted job continues its recorded trajectory; a fresh
            # one starts clean (no spurious no-snapshot warning).
            resume=(
                has_island_state(ckpt_dir)
                if multi
                else self._latest_checkpoint(job.id) is not None
            ),
        )
        request = replace(base, config=config)
        deadline = (
            time.monotonic() + params["deadline_seconds"]
            if params.get("deadline_seconds") is not None
            else None
        )

        def progress(generation: int, _stats) -> None:
            job.generations_run = generation
            if not job.cancel_requested and self._cancel_marked(job.id):
                # Cancel arrived at a sibling worker (or a previous
                # incarnation); the marker file is the relay.
                job.cancel_requested = True
            if job.cancel_requested:
                raise KeyboardInterrupt
            if self._draining:
                # Drain, not cancel: commit a final checkpoint and park.
                raise KeyboardInterrupt
            if deadline is not None and time.monotonic() > deadline:
                job.cancel_requested = True
                job.error = "deadline exceeded"
                raise KeyboardInterrupt

        timer = metrics().timer("serve.job_seconds")
        # A restarted job carries the submitting request's trace context
        # in its record, so the resumed run continues the original trace
        # instead of starting a fresh root.  Island runs execute inline —
        # the job thread IS the coordinator — and their progress hook
        # fires at migration barriers instead of every generation, which
        # keeps cancel/drain/deadline handling cooperative either way.
        trace_ctx = SpanContext.from_dict(job.trace)
        with activate(trace_ctx), trace_span(
            "serve.job",
            job=job.id,
            resume=config.resume,
            restarts=job.restarts,
        ), timer.time():
            result = run_explore(
                request, execution="inline", progress=progress
            )
        job.generations_run = result.generations_run
        job.checkpoint_generation = self._latest_checkpoint(job.id)
        if (
            result.statistics.interrupted
            and self._draining
            and not job.cancel_requested
        ):
            # Drained mid-run: the explorer committed a final checkpoint,
            # so park the job for the next incarnation to resume the
            # identical trajectory (PR-2 determinism carried through a
            # graceful shutdown, not just a crash).
            job.result = None
            job.started = None
            job.finished = None
            job.status = "pending"
            metrics().counter("serve.jobs.parked").inc()
            _LOG.info(
                "parked job for resume %s",
                kv(job=job.id, checkpoint=job.checkpoint_generation),
            )
            return
        job.result = exploration_result_to_dict(result)
        job.finished = time.time()
        if result.statistics.interrupted and job.cancel_requested:
            job.status = "cancelled"
            metrics().counter("serve.jobs.cancelled").inc()
        else:
            job.status = "done"
            metrics().counter("serve.jobs.done").inc()

    def _run_shard(self, job: Job) -> None:
        """One durable island-coordination step (``POST /v1/shard``).

        A client-side fleet coordinator decomposes an island run into
        ``epoch``/``migrate``/``merge`` jobs sharing a ``run_id``; all
        state lives under ``<state_dir>/islands/<run_id>`` so any worker
        of the fleet can pick up any step.  Steps are idempotent (epochs
        resume from island checkpoints, migration rewrites snapshots
        atomically at the same generation), so retried jobs converge on
        identical state.
        """
        from repro.dse import islands as island_mod
        from repro.serve.encoding import explore_request_from_params

        params = job.params
        request = explore_request_from_params(params)
        state_dir = self._dir / "islands" / params["run_id"]
        op = params["op"]
        timer = metrics().timer("serve.job_seconds")
        trace_ctx = SpanContext.from_dict(job.trace)
        with activate(trace_ctx), trace_span(
            "serve.shard", job=job.id, op=op, run=params["run_id"]
        ), timer.time():
            if op == "epoch":
                island_mod.run_shard_epoch(
                    request, state_dir, params["island"], params["stop"]
                )
                job.generations_run = params["stop"]
                job.result = {
                    "op": op,
                    "island": params["island"],
                    "stop": params["stop"],
                }
            elif op == "migrate":
                moved = island_mod.run_shard_migration(
                    request, state_dir, params["stop"]
                )
                job.generations_run = params["stop"]
                job.result = {"op": op, "stop": params["stop"],
                              "migrants": moved}
            else:  # merge
                result = island_mod.run_shard_merge(request, state_dir)
                job.generations_run = result.generations_run
                job.result = exploration_result_to_dict(result)
        job.finished = time.time()
        job.status = "done"
        metrics().counter("serve.jobs.done").inc()

    def drain(self, timeout: float = 60.0) -> bool:
        """Gracefully stop: park running jobs, keep pending jobs durable.

        Every running job is interrupted at its next generation
        boundary, commits a final checkpoint, and goes back to
        ``pending`` on disk; queued jobs are already durable as
        ``pending``.  After a drain, :meth:`recover` in a fresh process
        resumes every one of them on its recorded trajectory.  Returns
        whether all runner threads stopped within ``timeout``.
        """
        with self._lock:
            self._draining = True
            self._closed = True
            self._wakeup.notify_all()
        deadline = time.monotonic() + timeout
        clean = True
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                clean = False
        if not clean:
            _LOG.warning(
                "drain timed out with runner threads alive %s",
                kv(timeout=timeout),
            )
        return clean

    def shutdown(self) -> None:
        """Stop the runner threads (running jobs keep their checkpoints)."""
        with self._lock:
            self._closed = True
            self._wakeup.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
