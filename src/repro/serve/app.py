"""The ``repro serve`` HTTP service (stdlib only).

JSON over HTTP on :class:`http.server.ThreadingHTTPServer` — one
connection thread per request, all actual work submitted straight into
the bounded strict-priority queue of the
:class:`~repro.serve.pool.WorkerPool`, which also dedups identical
in-flight requests.  One concurrency model (threads) is used end to
end, matching the DSE's thread-pool evaluator; no third-party
dependency is introduced.

Endpoints
---------
``POST /v1/analyze``      synchronous WCRT analysis (deduped)
``POST /v1/simulate``     synchronous Monte-Carlo campaign (ditto)
``POST /v1/explore``      async exploration job -> 202 + job id
``POST /v1/shard``        one island-coordination step (epoch/migrate/
                          merge) as a durable job -> 202 + job id
``GET  /v1/jobs/<id>``    job status/result
``POST /v1/jobs/<id>/cancel``  cooperative cancel (also DELETE)
``GET  /healthz``         liveness + queue depth
``GET  /metrics``         metrics registry + shared-cache stats + jobs
                          (``?format=prometheus`` for text exposition)

Tracing: a ``traceparent`` request header (W3C syntax) makes the
request's spans continue the caller's trace; every response carries the
serving trace ID in ``X-Repro-Trace``.  Trace context rides *headers
only* — request bodies stay untouched, so dedup keys and the
byte-identity guarantee are unaffected.

Error contract: 400 malformed/invalid request, 404 unknown route or
job, 429 + ``Retry-After`` when the admission queue is full, 503 +
``Retry-After`` while draining, 504 when a request's deadline elapsed
in the queue, 500 otherwise.  Every error body is
``{"error": {"type": ..., "message": ...}}``.

Resilience: ``reuse_port=True`` binds with ``SO_REUSEPORT`` so a
pre-fork supervisor (:mod:`repro.serve.supervisor`) can run N worker
processes on one port with kernel load-balancing; ``cache_dir`` installs
the disk-backed :class:`~repro.serve.cachestore.TieredScheduleCache`
process-wide so warm analysis state survives restarts and is shared
across workers; :meth:`ReproServer.drain` is the graceful-shutdown
sequence (stop accepting, shed new compute with 503, finish in-flight
work, park explore jobs on their final checkpoints, exit).
"""

import json
import os
import socket
import sys
import threading
import time
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.errors import ReproError
from repro.model.serialization import SystemBundle
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import (
    RESPONSE_TRACE_HEADER,
    TRACEPARENT_HEADER,
    activate,
    capture_context,
    from_traceparent,
    span as trace_span,
)
from repro.serve.admission import (
    AdmissionContext,
    AdmissionController,
    BrownoutController,
    BrownoutShed,
    ClientQuotas,
    QuotaExceeded,
)
from repro.serve.encoding import (
    analysis_result_to_dict,
    canonical_bytes,
    montecarlo_result_to_dict,
    parse_analyze_request,
    parse_explore_request,
    parse_shard_request,
    parse_simulate_request,
    request_digest,
)
from repro.serve.jobs import JobStore
from repro.serve.pool import DeadlineExceeded, PoolSaturated, WorkerPool

_LOG = get_logger("serve")

__all__ = ["ServeConfig", "ReproServer", "ServiceUnavailable"]

#: Upper bound on accepted request bodies (64 MiB covers DT-large many
#: times over; anything bigger is a client bug, not a workload).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Connection threads waiting on a shared in-flight item give up after
#: this long even without a client deadline (prevents waiter leaks).
DEFAULT_WAIT_SECONDS = 600.0


class ServeConfig:
    """Tuning knobs of one server instance."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8352,
        workers: int = 4,
        queue_size: int = 64,
        state_dir: Optional[str] = None,
        job_workers: int = 1,
        cache_capacity: Optional[int] = None,
        allow_local_paths: bool = False,
        cache_dir: Optional[str] = None,
        reuse_port: bool = False,
        drain_timeout: float = 30.0,
        worker_id: Optional[int] = None,
        supervisor_status_path: Optional[str] = None,
        quota_rps: Optional[float] = None,
        quota_burst: Optional[float] = None,
        brownout: bool = False,
        brownout_enter: float = 0.75,
        brownout_exit: float = 0.25,
        brownout_dwell: float = 2.0,
        aging_seconds: float = 5.0,
    ):
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_size = queue_size
        self.state_dir = state_dir
        self.job_workers = job_workers
        self.cache_capacity = cache_capacity
        #: Whether a request's ``system`` field may name a server-local
        #: file (off by default: clients could read arbitrary paths).
        self.allow_local_paths = allow_local_paths
        #: Directory of the disk-backed schedule-cache tier (shared
        #: across worker processes and restarts); ``None`` keeps the
        #: in-memory LRU only.
        self.cache_dir = cache_dir
        #: Bind with ``SO_REUSEPORT`` (pre-fork workers share the port).
        self.reuse_port = reuse_port
        #: Default budget of :meth:`ReproServer.drain`.
        self.drain_timeout = drain_timeout
        #: Identity under a supervisor (reported in ``/healthz``).
        self.worker_id = worker_id
        #: The supervisor's status file, surfaced in ``/healthz`` and
        #: ``/metrics`` so any worker can report fleet state.
        self.supervisor_status_path = supervisor_status_path
        #: Per-client token-bucket quota (``None`` disables quotas).
        self.quota_rps = quota_rps
        self.quota_burst = quota_burst
        #: Brownout controller (overload shedding/degradation stages).
        self.brownout = brownout
        self.brownout_enter = brownout_enter
        self.brownout_exit = brownout_exit
        self.brownout_dwell = brownout_dwell
        #: Aging floor of the strict-priority admission queue.
        self.aging_seconds = aging_seconds


def _run_in_context(ctx, fn: Callable[..., bytes], params, bundle) -> bytes:
    """Run one request body under the submitting request's trace context.

    The computation executes on a pool worker thread; ``ctx`` was
    captured on the request thread, so activating it here re-roots the
    worker and the ``api.*`` spans join the request's trace.  Deduped
    waiters attach to the first submitter's item, so shared work is
    attributed to the trace that actually ran it.
    """
    with activate(ctx):
        return fn(params, bundle)


def _encode(payload: Dict[str, Any]) -> bytes:
    """The canonical response body, timed as the ``serve.encode`` span."""
    with trace_span("serve.encode"):
        return canonical_bytes(payload)


def _run_analyze(params: Dict[str, Any], bundle: SystemBundle) -> bytes:
    """Execute one analyze request; returns the canonical response body.

    ``bundle`` is the system :func:`parse_analyze_request` built on the
    request thread; ``params`` are its canonical parameters.

    Runs through :func:`repro.api.analyze` with the *shared* fast path:
    memoization + warm starts against the process-wide schedule cache,
    pruning off — so the response is byte-identical to a cold
    ``repro.api.analyze`` (the PR-3 equality guarantee) while repeated
    ``sched()`` runs are amortized across the whole process.
    """
    from repro.api import analyze
    from repro.core.fastpath import FastPathConfig

    result = analyze(
        bundle,
        method=params["method"],
        backend=params["backend"],
        granularity=params["granularity"],
        dropped=tuple(params["dropped"]),
        policy=params["policy"],
        fast_path=(
            FastPathConfig.shared() if params["method"] == "proposed" else None
        ),
    )
    return _encode(analysis_result_to_dict(result))


def _run_analyze_degraded(
    params: Dict[str, Any], bundle: SystemBundle
) -> bytes:
    """Brownout fallback: bounded window analysis, honestly marked.

    Forces the default window back-end with no shared fast path, so a
    degraded run can never write into the schedule cache that backs the
    byte-identity guarantee.  The response carries ``"degraded": true``
    and is keyed under a *separate* dedup digest, so degraded bytes can
    never be replayed to a client that was promised full service.
    """
    from repro.api import analyze
    from repro.core.factory import DEFAULT_BACKEND

    result = analyze(
        bundle,
        method="proposed",
        backend=DEFAULT_BACKEND,
        granularity=params["granularity"],
        dropped=tuple(params["dropped"]),
        policy=params["policy"],
        fast_path=None,
    )
    payload = analysis_result_to_dict(result)
    payload["degraded"] = True
    return _encode(payload)


def _run_simulate(params: Dict[str, Any], bundle: SystemBundle) -> bytes:
    """Execute one simulate request; returns the canonical response body."""
    from repro.api import simulate

    result = simulate(
        bundle,
        profiles=params["profiles"],
        seed=params["seed"],
        dropped=tuple(params["dropped"]),
        policy=params["policy"],
        max_faults=params["max_faults"],
        worst_bias=params["worst_bias"],
    )
    return _encode(montecarlo_result_to_dict(result))


class ReproServer:
    """Owns the HTTP listener and the concurrency machinery behind it."""

    def __init__(self, config: Optional[ServeConfig] = None):
        from repro.core.fastpath import (
            SHARED_CACHE_CAPACITY,
            configure_shared_cache,
            shared_cache,
        )

        self.config = config or ServeConfig()
        if self.config.cache_dir:
            from repro.serve.cachestore import (
                DiskCacheStore,
                TieredScheduleCache,
            )

            store = DiskCacheStore(self.config.cache_dir)
            configure_shared_cache(
                TieredScheduleCache(
                    store,
                    capacity=(
                        self.config.cache_capacity or SHARED_CACHE_CAPACITY
                    ),
                )
            )
        else:
            # Touch the shared cache early so /metrics reports it from
            # the first request and a capacity override applies.
            shared_cache(self.config.cache_capacity)
        self._draining = False
        self._active = 0
        self._active_lock = threading.Lock()
        self.pool = WorkerPool(
            workers=self.config.workers,
            queue_size=self.config.queue_size,
            aging_seconds=self.config.aging_seconds,
        )
        self.admission = AdmissionController(
            self.pool,
            quotas=(
                ClientQuotas(
                    self.config.quota_rps, burst=self.config.quota_burst
                )
                if self.config.quota_rps is not None
                else None
            ),
            brownout=(
                BrownoutController(
                    enter_seconds=self.config.brownout_enter,
                    exit_seconds=self.config.brownout_exit,
                    dwell_seconds=self.config.brownout_dwell,
                )
                if self.config.brownout
                else None
            ),
        )
        self.jobs: Optional[JobStore] = (
            JobStore(self.config.state_dir, workers=self.config.job_workers)
            if self.config.state_dir
            else None
        )
        self.started = time.time()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        if self.jobs is not None:
            recovered = self.jobs.recover()
            if recovered:
                _LOG.info(
                    "resuming %d unfinished job(s) %s",
                    len(recovered),
                    kv(jobs=",".join(recovered)),
                )

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """Bound (host, port) — port resolved after :meth:`start`."""
        if self._httpd is None:
            return (self.config.host, self.config.port)
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Bind and serve on a background thread (non-blocking)."""
        self._bind()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="serve-listener",
            daemon=True,
        )
        self._thread.start()
        _LOG.info("serving %s", kv(url=self.url))

    def serve_forever(self) -> None:
        """Bind and serve on the calling thread (the CLI entry point).

        Returns when the serve loop is interrupted (``KeyboardInterrupt``
        or :meth:`request_stop`); the caller decides between a graceful
        :meth:`drain` and a hard :meth:`close`.
        """
        self._bind()
        _LOG.info("serving %s", kv(url=self.url))
        self._httpd.serve_forever()

    def _bind(self) -> None:
        if self._httpd is not None:
            raise ReproError("server already started")
        server = self

        class Handler(_RequestHandler):
            app = server

        class Listener(ThreadingHTTPServer):
            daemon_threads = True
            # Never join handler threads in server_close: kept-alive
            # client connections sit in readline() until the peer closes
            # and would block shutdown indefinitely.
            block_on_close = False
            # The default accept backlog (5) resets connections under a
            # concurrent burst; admission control belongs to the worker
            # pool, not the TCP listen queue.
            request_queue_size = 128

            def server_bind(self) -> None:
                if server.config.reuse_port:
                    if not hasattr(socket, "SO_REUSEPORT"):
                        raise ReproError(
                            "SO_REUSEPORT is not available on this platform"
                        )
                    self.socket.setsockopt(
                        socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                    )
                super().server_bind()

            def handle_error(self, request, client_address) -> None:
                # Aborted/reset/half-open client connections are a
                # normal hazard of serving (and a staple of the chaos
                # harness) — one log line, not a stack trace.
                kind = sys.exc_info()[0]
                if kind is not None and issubclass(
                    kind, (ConnectionError, TimeoutError, socket.timeout)
                ):
                    metrics().counter("serve.connection_errors").inc()
                    _LOG.debug(
                        "client connection error %s",
                        kv(peer=client_address[0], error=kind.__name__),
                    )
                    return
                super().handle_error(request, client_address)

        self._httpd = Listener((self.config.host, self.config.port), Handler)

    # -- drain bookkeeping -----------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether the server is in its graceful-shutdown window."""
        return self._draining

    def _request_started(self) -> None:
        with self._active_lock:
            self._active += 1

    def _request_finished(self) -> None:
        with self._active_lock:
            self._active -= 1

    @property
    def active_requests(self) -> int:
        """HTTP requests currently inside a handler."""
        with self._active_lock:
            return self._active

    def request_stop(self) -> None:
        """Stop the serve loop from any thread (signal-handler safe).

        Only flips the shutdown flag — never blocks — so it may run
        inside a signal handler while :meth:`serve_forever` owns the
        main thread.  The loop exits at its next poll tick.
        """
        httpd = self._httpd
        if httpd is not None:
            # BaseServer.shutdown() would deadlock called from the
            # serving thread; setting the request flag is enough.
            httpd._BaseServer__shutdown_request = True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting, finish or park, then stop.

        Sequence: (1) mark draining — new compute requests are shed with
        503 + ``Retry-After`` while job polls stay served; (2) stop the
        accept loop; (3) wait for in-flight HTTP requests; (4) drain the
        pool; (5) park running explore jobs on a final
        committed checkpoint (status back to ``pending``) so the next
        incarnation resumes identical trajectories.  Returns whether
        everything stopped within ``timeout`` seconds.
        """
        timeout = self.config.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + timeout
        already = self._draining
        self._draining = True
        if not already:
            metrics().counter("serve.drains").inc()
            _LOG.info("draining %s", kv(timeout=timeout))
        httpd = self._httpd
        if httpd is not None and self._thread is not None:
            # Background-thread mode: stop the accept loop from here.
            httpd.shutdown()
        clean = True
        while True:
            active = self.active_requests
            if active <= 0:
                break
            if time.monotonic() > deadline:
                clean = False
                _LOG.warning(
                    "drain timed out %s", kv(active_requests=active)
                )
                break
            time.sleep(0.02)
        self.pool.shutdown()
        if self.jobs is not None:
            remaining = max(5.0, deadline - time.monotonic())
            clean = self.jobs.drain(timeout=remaining) and clean
        if httpd is not None:
            httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        _LOG.info("drained %s", kv(clean=clean))
        return clean

    def close(self) -> None:
        """Stop the listener and the machinery (hard stop, no drain)."""
        if self._httpd is not None:
            if self._thread is not None:
                self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.pool.shutdown()
        if self.jobs is not None:
            self.jobs.shutdown()

    # -- endpoint bodies -------------------------------------------------

    def _shed_if_draining(self) -> None:
        """Refuse new compute while draining (honest 503 + Retry-After).

        Job polls and health/metrics stay served so clients can observe
        the drain; only work that would extend it is shed.  The hint is
        short: a supervisor restarts workers within its backoff window.
        """
        if self._draining:
            raise ServiceUnavailable("server is draining", retry_after=1)

    def _admit(
        self,
        endpoint: str,
        payload: Dict[str, Any],
        admission: Optional[AdmissionContext],
        parse: Callable[..., Any],
    ) -> Tuple[AdmissionContext, Any]:
        """Admit, then parse; returns the context and the parse.

        Body fields (``criticality``/``client``) are *popped* from the
        payload before canonical parsing, so admission metadata can
        never split the dedup digest of an otherwise identical request.
        ``parse`` resolves the system exactly once, on the request
        thread, so a malformed body gets its 400 before it can take a
        worker.  Raises the typed rejections mapped by ``_dispatch``
        (400 / 429 / 503 / 504).
        """
        ctx = admission if admission is not None else AdmissionContext()
        ctx.absorb_body_fields(payload)
        with trace_span("serve.admit"):
            ctx.decision = self.admission.admit(endpoint, ctx)
        with trace_span("serve.parse"):
            parsed = parse(payload, allow_paths=self.config.allow_local_paths)
        return ctx, parsed

    def handle_analyze(
        self,
        payload: Dict[str, Any],
        admission: Optional[AdmissionContext] = None,
    ) -> Tuple[int, bytes]:
        self._shed_if_draining()
        actx, (params, bundle) = self._admit(
            "analyze", payload, admission, parse_analyze_request
        )
        deadline = actx.merged_deadline(params["deadline_seconds"])
        if actx.decision.degraded:
            # Degraded bytes live under their own digest: they must
            # never be replayed to a request admitted at full service.
            key = request_digest("analyze-degraded", params)
            run = _run_analyze_degraded
        else:
            key = request_digest("analyze", params)
            run = _run_analyze
        ctx = capture_context()
        item = self.pool.submit(
            lambda: _run_in_context(ctx, run, params, bundle),
            key=key,
            deadline_seconds=deadline,
            priority=actx.decision.priority,
        )
        return 200, item.result(deadline or DEFAULT_WAIT_SECONDS)

    def handle_simulate(
        self,
        payload: Dict[str, Any],
        admission: Optional[AdmissionContext] = None,
    ) -> Tuple[int, bytes]:
        self._shed_if_draining()
        actx, (params, bundle) = self._admit(
            "simulate", payload, admission, parse_simulate_request
        )
        deadline = actx.merged_deadline(params["deadline_seconds"])
        ctx = capture_context()
        item = self.pool.submit(
            lambda: _run_in_context(ctx, _run_simulate, params, bundle),
            key=request_digest("simulate", params),
            deadline_seconds=deadline,
            priority=actx.decision.priority,
        )
        return 200, item.result(deadline or DEFAULT_WAIT_SECONDS)

    def handle_explore(
        self,
        payload: Dict[str, Any],
        admission: Optional[AdmissionContext] = None,
    ) -> Tuple[int, bytes]:
        self._shed_if_draining()
        if self.jobs is None:
            raise ReproError(
                "exploration jobs need a durable state dir; "
                "restart the server with --state-dir"
            )
        actx, params = self._admit(
            "explore", payload, admission, parse_explore_request
        )
        deadline = actx.merged_deadline(params["deadline_seconds"])
        if deadline is not None:
            # The merged budget becomes the job's cooperative deadline
            # (jobs check it at generation boundaries).
            params["deadline_seconds"] = deadline
        ctx = capture_context()
        job = self.jobs.create(
            params,
            trace=ctx.to_dict() if ctx is not None else None,
            idempotency_key=params.get("idempotency_key"),
        )
        body = canonical_bytes(
            {"id": job.id, "status": job.status, "url": f"/v1/jobs/{job.id}"}
        )
        return 202, body

    def handle_shard(
        self,
        payload: Dict[str, Any],
        admission: Optional[AdmissionContext] = None,
    ) -> Tuple[int, bytes]:
        """One island-coordination step as a durable job (202 + id).

        The building block of fleet-mode exploration: a client-side
        coordinator posts ``epoch``/``migrate``/``merge`` steps sharing
        a ``run_id`` and deterministic idempotency keys, so a restarted
        coordinator re-attaches to finished steps instead of re-running
        them.
        """
        self._shed_if_draining()
        if self.jobs is None:
            raise ReproError(
                "shard jobs need a durable state dir; "
                "restart the server with --state-dir"
            )
        actx, params = self._admit(
            "shard", payload, admission, parse_shard_request
        )
        deadline = actx.merged_deadline(params["deadline_seconds"])
        if deadline is not None:
            params["deadline_seconds"] = deadline
        ctx = capture_context()
        job = self.jobs.create(
            params,
            trace=ctx.to_dict() if ctx is not None else None,
            idempotency_key=params.get("idempotency_key"),
        )
        body = canonical_bytes(
            {"id": job.id, "status": job.status, "url": f"/v1/jobs/{job.id}"}
        )
        return 202, body

    def handle_job(self, job_id: str) -> Tuple[int, bytes]:
        if self.jobs is None:
            raise _NotFound("no job store configured")
        job = self.jobs.get(job_id)
        if job is None:
            raise _NotFound(f"unknown job {job_id!r}")
        return 200, canonical_bytes(job.to_dict())

    def handle_cancel(self, job_id: str) -> Tuple[int, bytes]:
        if self.jobs is None:
            raise _NotFound("no job store configured")
        job = self.jobs.cancel(job_id)
        if job is None:
            raise _NotFound(f"unknown job {job_id!r}")
        return 200, canonical_bytes(job.to_dict(with_result=False))

    def _supervisor_status(self) -> Optional[Dict[str, Any]]:
        """The supervisor's status-file contents, if one manages us."""
        path = self.config.supervisor_status_path
        if not path:
            return None
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _worker_info(self) -> Dict[str, Any]:
        """This process's identity and health, for ``/healthz``."""
        return {
            "id": self.config.worker_id,
            "pid": os.getpid(),
            "draining": self._draining,
            "active_requests": self.active_requests,
        }

    def handle_healthz(self) -> Tuple[int, bytes]:
        body = canonical_bytes(
            {
                "status": "draining" if self._draining else "ok",
                "uptime_seconds": round(time.time() - self.started, 3),
                "queue_depth": self.pool.queue_depth,
                "brownout_stage": (
                    self.admission.brownout.stage
                    if self.admission.brownout is not None
                    else 0
                ),
                "jobs": self.jobs.counts() if self.jobs is not None else None,
                "worker": self._worker_info(),
                "supervisor": self._supervisor_status(),
            }
        )
        return 200, body

    def handle_metrics(self) -> Tuple[int, bytes]:
        from repro.api import cache_stats

        body = canonical_bytes(
            {
                "uptime_seconds": round(time.time() - self.started, 3),
                "metrics": metrics().snapshot(),
                "admission": self.admission.snapshot(),
                "schedule_cache": cache_stats(),
                "jobs": self.jobs.counts() if self.jobs is not None else None,
                "worker": self._worker_info(),
                "supervisor": self._supervisor_status(),
            }
        )
        return 200, body

    def handle_metrics_prometheus(self) -> Tuple[int, bytes, str]:
        """``GET /metrics?format=prometheus`` — text exposition 0.0.4."""
        lines = list(metrics().prometheus_lines())
        lines.append("# TYPE repro_uptime_seconds gauge")
        lines.append(
            f"repro_uptime_seconds {round(time.time() - self.started, 3)}"
        )
        if self.jobs is not None:
            lines.append("# TYPE repro_jobs gauge")
            for state, count in sorted(self.jobs.counts().items()):
                lines.append(f'repro_jobs{{state="{state}"}} {count}')
        lines.append("# TYPE repro_draining gauge")
        lines.append(f"repro_draining {1 if self._draining else 0}")
        from repro.serve.admission import CLASSES

        admission = self.admission.snapshot()
        registry = metrics()
        lines.append("# TYPE repro_admission_brownout_stage gauge")
        lines.append(
            f"repro_admission_brownout_stage {admission['brownout_stage']}"
        )
        depths = self.pool.class_depths()
        lines.append("# TYPE repro_admission_queue_depth gauge")
        for index, cls in enumerate(CLASSES):
            lines.append(
                f'repro_admission_queue_depth{{class="{cls}"}} '
                f"{depths.get(index, 0)}"
            )
        lines.append("# TYPE repro_admission_shed_total counter")
        for cls in CLASSES:
            lines.append(
                f'repro_admission_shed_total{{class="{cls}"}} '
                f"{admission['shed'][cls]}"
            )
        lines.append("# TYPE repro_admission_degraded_total counter")
        lines.append(
            f"repro_admission_degraded_total {admission['degraded']}"
        )
        lines.append("# TYPE repro_admission_quota_rejected_total counter")
        lines.append(
            "repro_admission_quota_rejected_total "
            f"{admission['quota_rejected']}"
        )
        lines.append("# TYPE repro_admission_expired_total counter")
        lines.append(
            "repro_admission_expired_total "
            f"{registry.counter('serve.admission.expired').value}"
        )
        supervisor = self._supervisor_status()
        if supervisor is not None:
            lines.append("# TYPE repro_supervisor_restarts_total counter")
            lines.append(
                "repro_supervisor_restarts_total "
                f"{supervisor.get('restarts_total', 0)}"
            )
            states: Dict[str, int] = {}
            for worker in supervisor.get("workers", []):
                state = str(worker.get("state", "unknown"))
                states[state] = states.get(state, 0) + 1
            lines.append("# TYPE repro_supervisor_workers gauge")
            for state, count in sorted(states.items()):
                lines.append(
                    f'repro_supervisor_workers{{state="{state}"}} {count}'
                )
        body = ("\n".join(lines) + "\n").encode("utf-8")
        return 200, body, "text/plain; version=0.0.4; charset=utf-8"


class _NotFound(ReproError):
    """Route or resource does not exist (404)."""


class ServiceUnavailable(ReproError):
    """The server is draining; retry after ``retry_after`` seconds (503)."""

    def __init__(self, message: str, retry_after: int = 1):
        super().__init__(message)
        self.retry_after = max(1, int(retry_after))


class _RequestHandler(BaseHTTPRequestHandler):
    """Routes requests into the owning :class:`ReproServer`."""

    app: ReproServer  # bound by the per-server subclass
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    #: Per-socket timeout: a peer that stops sending mid-request (slow
    #: read, half-open connection) cannot pin a handler thread forever —
    #: ``handle_one_request`` turns the timeout into a connection close.
    timeout = 30.0
    #: Per-request trace headers (``X-Repro-Trace``); reset at the top
    #: of every ``do_*`` so kept-alive connections never leak a stale ID.
    _trace_headers: Optional[Dict[str, str]] = None

    # -- plumbing --------------------------------------------------------

    def log_message(self, fmt, *args):  # noqa: A003 — stdlib signature
        _LOG.debug("http %s", fmt % args)

    def _body_length(self) -> int:
        try:
            return int(self.headers.get("Content-Length") or 0)
        except ValueError:
            # Cannot tell where this request's body ends, so the
            # connection cannot be reused safely.
            self.close_connection = True
            raise ReproError("malformed Content-Length header") from None

    def _read_json(self) -> Dict[str, Any]:
        length = self._body_length()
        if length <= 0:
            raise ReproError("request body required")
        if length > MAX_BODY_BYTES:
            # Rejected without reading the body: the unread bytes would
            # be parsed as the next request line on a kept-alive
            # connection, so it must close.
            self.close_connection = True
            raise ReproError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise ReproError(f"malformed JSON body: {error}") from None

    def _discard_body(self) -> None:
        """Consume an unparsed request body so keep-alive stays in sync."""
        try:
            length = self._body_length()
        except ReproError:
            return  # close_connection already set
        if length <= 0:
            return
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            return
        self.rfile.read(length)

    def _send(
        self,
        status: int,
        body: bytes,
        extra_headers: Optional[Dict[str, str]] = None,
        content_type: str = "application/json",
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Tell the client, too — BaseHTTPRequestHandler only stops
            # its own keep-alive loop, it never advertises the close.
            self.send_header("Connection", "close")
        headers = dict(self._trace_headers or {})
        headers.update(extra_headers or {})
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(
        self,
        status: int,
        error: BaseException,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        metrics().counter("serve.errors").inc()
        body = canonical_bytes(
            {
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                }
            }
        )
        self._send(status, body, extra_headers)

    @staticmethod
    def _error_status(
        error: Exception, endpoint: str
    ) -> Tuple[int, Optional[Dict[str, str]]]:
        """The HTTP status (and headers) a handler's error maps to."""
        if isinstance(error, (PoolSaturated, QuotaExceeded)):
            return 429, {"Retry-After": str(error.retry_after)}
        if isinstance(error, (BrownoutShed, ServiceUnavailable)):
            return 503, {"Retry-After": str(error.retry_after)}
        if isinstance(error, DeadlineExceeded):
            return 504, None
        if isinstance(error, _NotFound):
            return 404, None
        if isinstance(error, ReproError):
            return 400, None
        _LOG.warning(
            "internal error %s",
            kv(endpoint=endpoint, error=f"{type(error).__name__}: {error}"),
        )
        return 500, None

    def _dispatch(self, handler, *args) -> None:
        registry = metrics()
        started = time.monotonic()
        endpoint = handler.__name__.replace("handle_", "")
        registry.counter(f"serve.requests.{endpoint}").inc()
        remote_ctx = from_traceparent(self.headers.get(TRACEPARENT_HEADER))
        self.app._request_started()
        try:
            # The request span adopts the caller's traceparent (if any)
            # and covers the handler body — including the wait on the
            # pool item, so queue time is attributed to the request.  It
            # closes before the response is written, so its record is
            # complete by the time the client has the answer; the write
            # is its child span.
            with activate(remote_ctx), trace_span(
                "serve.request", endpoint=endpoint
            ) as request_span:
                trace_id = getattr(request_span, "trace_id", None)
                if trace_id:
                    self._trace_headers = {RESPONSE_TRACE_HEADER: trace_id}
                request_ctx = capture_context()
                try:
                    result = handler(*args)
                except Exception as error:  # noqa: BLE001 — 500 boundary
                    request_span.set_attribute("error", type(error).__name__)
                    status, headers = self._error_status(error, endpoint)
                    send = partial(self._send_error, status, error, headers)
                else:
                    status = result[0]
                    content_type = (
                        result[2] if len(result) > 2 else "application/json"
                    )
                    send = partial(
                        self._send, status, result[1],
                        content_type=content_type,
                    )
            with activate(request_ctx), trace_span(
                "serve.write", status=status
            ):
                send()
        except BrokenPipeError:  # client went away mid-response
            pass
        finally:
            self.app._request_finished()
            registry.timer(f"serve.latency.{endpoint}").observe(
                time.monotonic() - started
            )
            registry.histogram(
                "serve.latency_ms",
                buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
                         5000, 10000),
            ).observe((time.monotonic() - started) * 1000.0)

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        self._trace_headers = None
        raw_path, _, query = self.path.partition("?")
        path = raw_path.rstrip("/") or "/"
        app = self.app
        if path == "/healthz":
            self._dispatch(app.handle_healthz)
        elif path == "/metrics":
            wants = parse_qs(query).get("format", [""])[-1]
            if wants == "prometheus":
                self._dispatch(app.handle_metrics_prometheus)
            else:
                self._dispatch(app.handle_metrics)
        elif path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            if "/" in job_id or not job_id:
                self._send_error(404, _NotFound(f"no such route: {path}"))
            else:
                self._dispatch(app.handle_job, job_id)
        else:
            self._send_error(404, _NotFound(f"no such route: {path}"))

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        self._trace_headers = None
        path = self.path.split("?", 1)[0].rstrip("/")
        app = self.app
        compute = {
            "/v1/analyze": app.handle_analyze,
            "/v1/simulate": app.handle_simulate,
            "/v1/explore": app.handle_explore,
            "/v1/shard": app.handle_shard,
        }
        try:
            if path in compute:
                # Body first, headers second: the body must be consumed
                # before any 400 so a kept-alive connection stays in
                # sync with the request framing.
                payload = self._read_json()
                admission = AdmissionContext.from_headers(self.headers)
                self._dispatch(compute[path], payload, admission)
            elif path.startswith("/v1/jobs/") and path.endswith("/cancel"):
                job_id = path[len("/v1/jobs/"):-len("/cancel")]
                self._discard_body()
                self._dispatch(app.handle_cancel, job_id)
            else:
                self._discard_body()
                self._send_error(404, _NotFound(f"no such route: {path}"))
        except ReproError as error:
            # _read_json failures (body errors) land here.
            self._send_error(400, error)

    def do_DELETE(self) -> None:  # noqa: N802 — stdlib naming
        self._trace_headers = None
        path = self.path.split("?", 1)[0].rstrip("/")
        self._discard_body()
        if path.startswith("/v1/jobs/"):
            job_id = path[len("/v1/jobs/"):]
            self._dispatch(self.app.handle_cancel, job_id)
        else:
            self._send_error(404, _NotFound(f"no such route: {path}"))
