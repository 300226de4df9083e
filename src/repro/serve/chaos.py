"""Fault-injection campaign against a supervised serve fleet.

The serving tier claims three hard properties: **no wrong answers**
(every response a client accepts is byte-identical to a direct
:func:`repro.api.analyze` call), **no lost work** (worker death never
strands an exploration job; a drain parks it resumable on a committed
checkpoint), and **self-healing** (the supervisor restarts crashed
workers, the disk cache re-warms them).  This module earns those claims
instead of asserting them: a seeded campaign runs real clients against
a real multi-process fleet while injecting the faults that production
actually sees —

* **process murder** — SIGKILL of a random worker mid-request (no
  drain, no goodbye);
* **connection mischief** — garbage bytes, half-closed sockets, RST
  via ``SO_LINGER``, byte-at-a-time slow sends, and connect-then-drop,
  all aimed at the accept loop the real clients share;

then ends with a graceful SIGTERM drain and a cold restart, checking:
zero response mismatches, zero client-visible failures (the retrying
:class:`~repro.serve.client.ServeClient` must absorb every injected
fault), supervisor restarts observed for every kill, drain exit code 0,
the long-running exploration job still resumable, and a nonzero disk-
cache hit rate in the restarted worker.

Everything is deterministic per ``seed`` except OS scheduling; the
report says exactly which check failed and why.  Run it via
``repro chaos`` or ``scripts/serve_chaos.py``.
"""

import json
import os
import random
import signal
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.obs.logging import get_logger, kv
from repro.serve.client import RetryPolicy, ServeClient, ServeError
from repro.serve.supervisor import Supervisor, SupervisorConfig

_LOG = get_logger("serve")

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "run_chaos",
    "OverloadConfig",
    "OverloadReport",
    "run_overload",
]


def mapped_system(name: str) -> Dict[str, Any]:
    """A suite inlined with a deterministic round-robin mapping.

    Suites carry no mapping, so one is synthesized the same way on the
    client and the oracle side — the payload the server analyzes is the
    payload the oracle analyzes.
    """
    from repro.api import load
    from repro.model.mapping import Mapping
    from repro.model.serialization import SystemBundle
    from repro.serve.encoding import bundle_to_payload

    bundle = load(name)
    processors = [p.name for p in bundle.architecture.processors]
    tasks = [
        task.name
        for graph in bundle.applications.graphs
        for task in graph.tasks
    ]
    mapping = Mapping({
        task: processors[i % len(processors)]
        for i, task in enumerate(tasks)
    })
    return bundle_to_payload(SystemBundle(
        bundle.applications, bundle.architecture, mapping, None
    ))

def build_workload() -> List[Dict[str, Any]]:
    """The request mix clients replay all campaign long.

    Small systems (one request is fast) with distinct parameter shapes
    (the pool's dedup cannot collapse the campaign into one
    computation).  Suites carry no mapping, so each system is inlined
    with a deterministic round-robin mapping — the same payload the
    oracle analyzes directly.
    """
    cruise = mapped_system("cruise")
    synth = mapped_system("synth-1")
    return [
        {"system": cruise, "method": "proposed", "granularity": "job"},
        {"system": cruise, "method": "proposed", "granularity": "job",
         "dropped": ["info", "diag"]},
        {"system": synth, "method": "proposed", "granularity": "job"},
        {"system": cruise, "method": "naive", "granularity": "job"},
    ]


class ChaosConfig:
    """Campaign shape: fleet size, duration, fault cadence, seed."""

    def __init__(
        self,
        seed: int = 0,
        processes: int = 2,
        duration_seconds: float = 20.0,
        clients: int = 4,
        kill_every_seconds: float = 3.0,
        mischief_every_seconds: float = 0.5,
        state_dir: Optional[str] = None,
        report_path: Optional[str] = None,
        host: str = "127.0.0.1",
        drain_timeout: float = 30.0,
        request_timeout: float = 60.0,
    ):
        if processes < 1:
            raise ReproError("chaos needs >= 1 worker process")
        if duration_seconds <= 0:
            raise ReproError("chaos duration must be positive")
        self.seed = seed
        self.processes = processes
        self.duration_seconds = duration_seconds
        self.clients = clients
        self.kill_every_seconds = kill_every_seconds
        self.mischief_every_seconds = mischief_every_seconds
        self.state_dir = state_dir
        self.report_path = report_path
        self.host = host
        self.drain_timeout = drain_timeout
        self.request_timeout = request_timeout


class ChaosReport:
    """Outcome of one campaign; ``ok`` iff every check passed."""

    def __init__(self, config: ChaosConfig):
        self.seed = config.seed
        self.processes = config.processes
        self.duration_seconds = config.duration_seconds
        self.requests = 0
        self.mismatches: List[Dict[str, Any]] = []
        self.client_failures: List[str] = []
        self.kills = 0
        self.mischief: Dict[str, int] = {}
        self.restarts_observed = 0
        self.drain_exit_code: Optional[int] = None
        self.job_id: Optional[str] = None
        self.job_status_after_drain: Optional[str] = None
        self.job_resumable = False
        self.disk_hits_after_restart = 0
        self.checks: Dict[str, bool] = {}

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def finalize(self) -> None:
        """Derive the pass/fail checklist from the raw observations."""
        self.checks = {
            "served_requests": self.requests > 0,
            "zero_mismatches": not self.mismatches,
            "zero_client_failures": not self.client_failures,
            "restarts_cover_kills": (
                self.kills == 0 or self.restarts_observed >= 1
            ),
            "clean_drain_exit": self.drain_exit_code == 0,
            "job_resumable": self.job_resumable,
            "disk_cache_rewarmed": self.disk_hits_after_restart > 0,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "processes": self.processes,
            "duration_seconds": self.duration_seconds,
            "requests": self.requests,
            "mismatches": self.mismatches[:5],
            "client_failures": self.client_failures[:10],
            "kills": self.kills,
            "mischief": dict(sorted(self.mischief.items())),
            "restarts_observed": self.restarts_observed,
            "drain_exit_code": self.drain_exit_code,
            "job_id": self.job_id,
            "job_status_after_drain": self.job_status_after_drain,
            "job_resumable": self.job_resumable,
            "disk_hits_after_restart": self.disk_hits_after_restart,
            "checks": self.checks,
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            f"chaos campaign: seed={self.seed} processes={self.processes} "
            f"duration={self.duration_seconds:.0f}s",
            f"  requests served : {self.requests}",
            f"  worker kills    : {self.kills} "
            f"(restarts observed: {self.restarts_observed})",
            f"  mischief        : "
            + (", ".join(f"{k}={v}" for k, v in sorted(self.mischief.items()))
               or "none"),
            f"  drain exit code : {self.drain_exit_code}",
            f"  explore job     : {self.job_id} -> "
            f"{self.job_status_after_drain} "
            f"({'resumable' if self.job_resumable else 'NOT RESUMABLE'})",
            f"  disk cache hits : {self.disk_hits_after_restart} "
            f"(restarted worker)",
        ]
        for name, passed in self.checks.items():
            lines.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
        for failure in self.client_failures[:10]:
            lines.append(f"  failure: {failure}")
        for mismatch in self.mismatches[:5]:
            lines.append(f"  mismatch: {mismatch}")
        lines.append(f"verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


# -- expected responses (the oracle) -----------------------------------


def expected_bodies(workload: List[Dict[str, Any]]) -> List[bytes]:
    """Canonical response bytes for each workload item, computed
    directly (no server): the byte-identity oracle."""
    from repro.serve.app import _run_analyze
    from repro.serve.encoding import parse_analyze_request

    return [
        _run_analyze(*parse_analyze_request(dict(item)))
        for item in workload
    ]


# -- connection mischief -----------------------------------------------


def _connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=2.0)
    sock.settimeout(2.0)
    return sock


def _mischief_garbage(host: str, port: int) -> None:
    """Bytes that are not HTTP at all (a TLS hello, roughly)."""
    with _connect(host, port) as sock:
        sock.sendall(b"\x16\x03\x01\x02\x00garbage\r\n\r\n")


def _mischief_half_close(host: str, port: int) -> None:
    """Send half a request line, then close only our write side."""
    with _connect(host, port) as sock:
        sock.sendall(b"POST /v1/ana")
        sock.shutdown(socket.SHUT_WR)
        try:
            sock.recv(256)
        except OSError:
            pass


def _mischief_rst(host: str, port: int) -> None:
    """Abortive close: SO_LINGER(1, 0) turns close() into a TCP RST."""
    sock = _connect(host, port)
    try:
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            b"\x01\x00\x00\x00\x00\x00\x00\x00",
        )
        sock.sendall(b"GET /healthz HTTP/1.1\r\n")
    finally:
        sock.close()


def _mischief_slow(host: str, port: int) -> None:
    """A request trickled one byte at a time (slowloris-lite)."""
    with _connect(host, port) as sock:
        for byte in b"POST /v1/analyze HTTP/1.1\r\n":
            sock.sendall(bytes([byte]))
            time.sleep(0.02)


def _mischief_drop(host: str, port: int) -> None:
    """Connect and vanish without sending anything."""
    _connect(host, port).close()


_MISCHIEF: Dict[str, Callable[[str, int], None]] = {
    "garbage": _mischief_garbage,
    "half_close": _mischief_half_close,
    "rst": _mischief_rst,
    "slow": _mischief_slow,
    "drop": _mischief_drop,
}


# -- campaign ----------------------------------------------------------


def _wait_healthy(url: str, timeout: float = 30.0) -> None:
    client = ServeClient(url, timeout=2.0)
    deadline = time.monotonic() + timeout
    while True:
        try:
            client.healthz()
            client.close()
            return
        except ServeError:
            if time.monotonic() > deadline:
                raise ReproError(f"fleet at {url} never became healthy")
            time.sleep(0.1)


def _client_loop(
    url: str,
    config: ChaosConfig,
    index: int,
    workload: List[Dict[str, Any]],
    expected: List[bytes],
    report: ChaosReport,
    lock: threading.Lock,
    stop: threading.Event,
) -> None:
    """One load-generating client: request, verify bytes, repeat."""
    rng = random.Random(config.seed * 1000 + index)
    client = ServeClient(
        url,
        timeout=config.request_timeout,
        retry=RetryPolicy(
            retries=8,
            backoff_base=0.05,
            backoff_cap=2.0,
            seed=config.seed * 1000 + index,
        ),
    )
    try:
        while not stop.is_set():
            idx = rng.randrange(len(workload))
            item = dict(workload[idx])
            system = item.pop("system")
            try:
                body = client.analyze_raw(system, **item)
            except ServeError as error:
                with lock:
                    report.client_failures.append(
                        f"client {index}: {error} "
                        f"(status={error.status}, "
                        f"transport={error.transport})"
                    )
                continue
            with lock:
                report.requests += 1
                if body != expected[idx]:
                    report.mismatches.append(
                        {
                            "client": index,
                            "workload": idx,
                            "got_bytes": len(body),
                            "want_bytes": len(expected[idx]),
                        }
                    )
    finally:
        client.close()


def _killer_loop(
    supervisor: Supervisor,
    config: ChaosConfig,
    report: ChaosReport,
    lock: threading.Lock,
    stop: threading.Event,
) -> None:
    """SIGKILL a random worker on a jittered cadence."""
    rng = random.Random(config.seed + 7)
    while not stop.is_set():
        delay = config.kill_every_seconds * rng.uniform(0.5, 1.5)
        if stop.wait(delay):
            return
        pids = supervisor.worker_pids()
        if not pids:
            continue
        victim = rng.choice(pids)
        try:
            os.kill(victim, signal.SIGKILL)
        except OSError:
            continue
        with lock:
            report.kills += 1
        _LOG.info("chaos killed worker %s", kv(pid=victim))


def _mischief_loop(
    host: str,
    port: int,
    config: ChaosConfig,
    report: ChaosReport,
    lock: threading.Lock,
    stop: threading.Event,
) -> None:
    """Inject one connection-level fault on a jittered cadence."""
    rng = random.Random(config.seed + 13)
    names = sorted(_MISCHIEF)
    while not stop.is_set():
        delay = config.mischief_every_seconds * rng.uniform(0.5, 1.5)
        if stop.wait(delay):
            return
        name = rng.choice(names)
        try:
            _MISCHIEF[name](host, port)
        except OSError:
            # A refused/reset connection is itself a fine outcome: the
            # fault landed while a worker was down.
            pass
        with lock:
            report.mischief[name] = report.mischief.get(name, 0) + 1


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _job_after_drain(state_dir: Path, job_id: str) -> Dict[str, Any]:
    """The job's durable record once the fleet is gone."""
    record_path = state_dir / job_id / "job.json"
    try:
        return json.loads(record_path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def _job_resumable(state_dir: Path, job_id: str, status: str) -> bool:
    """Done counts; pending is parked/queued; running only if the
    claim is stale (its worker is dead, so recover() will requeue)."""
    if status in ("done", "pending"):
        return True
    if status != "running":
        return False
    claim = state_dir / job_id / "claim"
    try:
        pid = int(claim.read_text().strip())
    except (OSError, ValueError):
        return True
    return not _pid_alive(pid)


def run_chaos(config: ChaosConfig) -> ChaosReport:
    """Run the full campaign; returns the report (``report.ok``)."""
    report = ChaosReport(config)
    lock = threading.Lock()
    state_dir = Path(
        config.state_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    )
    state_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = str(state_dir / "cache")
    status_path = str(state_dir / "supervisor.json")
    worker_argv = [
        sys.executable, "-m", "repro", "serve",
        "--processes", "1",
        "--workers", "2",
        "--job-workers", "1",
        "--state-dir", str(state_dir),
        "--cache-dir", cache_dir,
        "--drain-timeout", str(config.drain_timeout),
    ]
    supervisor = Supervisor(SupervisorConfig(
        worker_argv,
        processes=config.processes,
        host=config.host,
        port=0,
        status_path=status_path,
        drain_timeout=config.drain_timeout + 10.0,
        backoff_base=0.2,
        backoff_cap=2.0,
        poll_seconds=0.05,
    ))
    supervisor.start()
    exit_box: Dict[str, int] = {}

    def _supervise() -> None:
        exit_box["code"] = supervisor.run(install_signals=False)

    sup_thread = threading.Thread(
        target=_supervise, name="chaos-supervisor", daemon=True
    )
    sup_thread.start()
    url = supervisor.url
    _LOG.info("chaos fleet up %s", kv(url=url, state_dir=str(state_dir)))
    try:
        _wait_healthy(url)
        workload = build_workload()
        expected = expected_bodies(workload)

        # A long exploration job that must survive everything below.
        submit = ServeClient(
            url,
            timeout=config.request_timeout,
            retry=RetryPolicy(retries=8, seed=config.seed),
        )
        stub = submit.explore(
            "cruise",
            generations=100000,
            population=16,
            seed=config.seed,
            checkpoint_every=1,
        )
        submit.close()
        report.job_id = stub["id"]

        stop = threading.Event()
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(url, config, i, workload, expected, report, lock, stop),
                name=f"chaos-client-{i}",
            )
            for i in range(config.clients)
        ]
        threads.append(threading.Thread(
            target=_killer_loop,
            args=(supervisor, config, report, lock, stop),
            name="chaos-killer",
            daemon=True,
        ))
        threads.append(threading.Thread(
            target=_mischief_loop,
            args=(config.host, supervisor.port, config, report, lock, stop),
            name="chaos-mischief",
            daemon=True,
        ))
        for thread in threads:
            thread.start()
        time.sleep(config.duration_seconds)
        stop.set()
        for thread in threads:
            thread.join(timeout=config.request_timeout + 30.0)
    finally:
        # Graceful drain: ends the campaign even when setup failed.
        supervisor.request_stop()
        sup_thread.join(timeout=config.drain_timeout + 30.0)
    report.drain_exit_code = exit_box.get("code")
    try:
        status = json.loads(Path(status_path).read_text())
        report.restarts_observed = int(status.get("restarts_total", 0))
    except (OSError, json.JSONDecodeError, ValueError):
        pass
    if report.job_id:
        record = _job_after_drain(state_dir, report.job_id)
        report.job_status_after_drain = record.get("status")
        report.job_resumable = bool(record) and _job_resumable(
            state_dir, report.job_id, record.get("status", "")
        )

    # Cold restart: a fresh single worker over the same cache dir must
    # answer from the disk tier (nonzero hit rate), proving the cache
    # actually crosses process boundaries.
    restarted = Supervisor(SupervisorConfig(
        worker_argv,
        processes=1,
        host=config.host,
        port=0,
        status_path=status_path,
        drain_timeout=config.drain_timeout,
    ))
    restarted.start()
    rexit: Dict[str, int] = {}

    def _supervise_restart() -> None:
        rexit["code"] = restarted.run(install_signals=False)

    restart_thread = threading.Thread(
        target=_supervise_restart, name="chaos-restart", daemon=True
    )
    restart_thread.start()
    try:
        _wait_healthy(restarted.url)
        probe = ServeClient(
            restarted.url,
            timeout=config.request_timeout,
            retry=RetryPolicy(retries=4, seed=config.seed),
        )
        item = dict(build_workload()[0])
        probe.analyze_raw(item.pop("system"), **item)
        snapshot = probe.metrics()
        probe.close()
        disk = (snapshot.get("schedule_cache") or {}).get("disk") or {}
        report.disk_hits_after_restart = int(disk.get("hits", 0))
    except (ReproError, ServeError) as error:
        with lock:
            report.client_failures.append(f"restart probe: {error}")
    finally:
        restarted.request_stop()
        restart_thread.join(timeout=config.drain_timeout + 30.0)

    report.finalize()
    if config.report_path:
        Path(config.report_path).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
    return report


# -- overload campaign -------------------------------------------------


#: The five built-in suites every overload campaign covers.
OVERLOAD_SUITES = ("cruise", "dt-large", "dt-med", "synth-1", "synth-2")


class OverloadConfig:
    """Shape of one overload campaign (``repro chaos --mode overload``).

    A single in-process server (small worker pool, brownout enabled, no
    quotas) is driven well past capacity by closed-loop clients of all
    three criticality classes.  Analyze requests cover all five built-in
    suites and are byte-checked against a direct :func:`repro.api`
    oracle; best-effort clients additionally pump *uncacheable* ballast
    (Monte-Carlo campaigns under fresh seeds), so dedup and the schedule
    cache cannot quietly absorb the overload.
    """

    def __init__(
        self,
        seed: int = 0,
        duration_seconds: float = 20.0,
        critical_budget_seconds: float = 10.0,
        report_path: Optional[str] = None,
        workers: int = 2,
        queue_size: int = 64,
        brownout_enter: float = 0.4,
        brownout_exit: float = 0.1,
        brownout_dwell: float = 1.0,
        aging_seconds: float = 2.0,
        critical_clients: int = 2,
        standard_clients: int = 4,
        best_effort_clients: int = 10,
        ballast_profiles: int = 400,
        request_timeout: float = 60.0,
    ):
        if duration_seconds <= 0:
            raise ReproError("overload duration must be positive")
        if critical_budget_seconds <= 0:
            raise ReproError("critical latency budget must be positive")
        self.seed = seed
        self.duration_seconds = duration_seconds
        self.critical_budget_seconds = critical_budget_seconds
        self.report_path = report_path
        self.workers = workers
        self.queue_size = queue_size
        self.brownout_enter = brownout_enter
        self.brownout_exit = brownout_exit
        self.brownout_dwell = brownout_dwell
        self.aging_seconds = aging_seconds
        self.critical_clients = critical_clients
        self.standard_clients = standard_clients
        self.best_effort_clients = best_effort_clients
        self.ballast_profiles = ballast_profiles
        self.request_timeout = request_timeout


class _ClassStats:
    """Raw per-class observations (guarded by the campaign lock)."""

    def __init__(self):
        self.sent = 0
        self.ok = 0
        self.degraded = 0
        self.shed = 0            # 503 brownout rejections
        self.saturated = 0       # 429 pool/quota rejections
        self.expired = 0         # 504 deadline rejections
        self.transport = 0
        self.other = 0
        self.latencies: List[float] = []
        self.first_shed: Optional[float] = None

    @staticmethod
    def _quantile(values: List[float], q: float) -> Optional[float]:
        if not values:
            return None
        ordered = sorted(values)
        return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sent": self.sent,
            "ok": self.ok,
            "degraded": self.degraded,
            "shed": self.shed,
            "saturated": self.saturated,
            "expired": self.expired,
            "transport": self.transport,
            "other": self.other,
            "p50_seconds": self._quantile(self.latencies, 0.50),
            "p99_seconds": self._quantile(self.latencies, 0.99),
            "first_shed_seconds": self.first_shed,
        }


class OverloadReport:
    """Outcome of one overload campaign; ``ok`` iff every check passed.

    The checks are the paper's rely-guarantee contract mapped onto the
    serving tier: under sustained overload, critical requests are never
    shed or degraded and keep their latency budget, best-effort load is
    shed first, and every degraded response says so.
    """

    def __init__(self, config: OverloadConfig):
        self.seed = config.seed
        self.duration_seconds = config.duration_seconds
        self.critical_budget_seconds = config.critical_budget_seconds
        self.classes: Dict[str, _ClassStats] = {
            "critical": _ClassStats(),
            "standard": _ClassStats(),
            "best-effort": _ClassStats(),
        }
        #: Analyze responses that differed from the oracle *without*
        #: carrying ``"degraded": true`` — each one a lie.
        self.unmarked_mismatches: List[Dict[str, Any]] = []
        self.max_stage = 0
        self.drain_clean: Optional[bool] = None
        self.checks: Dict[str, bool] = {}

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(self.checks.values())

    def finalize(self) -> None:
        critical = self.classes["critical"]
        standard = self.classes["standard"]
        best_effort = self.classes["best-effort"]
        p99 = _ClassStats._quantile(critical.latencies, 0.99)
        self.checks = {
            "served_all_classes": (
                critical.ok > 0
                and (standard.ok + standard.degraded) > 0
                and best_effort.sent > 0
            ),
            "brownout_engaged": self.max_stage >= 1,
            "zero_critical_shed": (
                critical.shed == 0 and critical.degraded == 0
            ),
            "critical_p99_within_budget": (
                p99 is not None and p99 <= self.critical_budget_seconds
            ),
            "best_effort_shed_first": (
                best_effort.shed > 0
                and (
                    standard.first_shed is None
                    or best_effort.first_shed is not None
                    and best_effort.first_shed <= standard.first_shed
                )
            ),
            "degraded_truthfully_marked": not self.unmarked_mismatches,
            "clean_drain": bool(self.drain_clean),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": "overload",
            "seed": self.seed,
            "duration_seconds": self.duration_seconds,
            "critical_budget_seconds": self.critical_budget_seconds,
            "classes": {
                name: stats.to_dict()
                for name, stats in self.classes.items()
            },
            "unmarked_mismatches": self.unmarked_mismatches[:5],
            "max_brownout_stage": self.max_stage,
            "drain_clean": self.drain_clean,
            "checks": self.checks,
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            f"overload campaign: seed={self.seed} "
            f"duration={self.duration_seconds:.0f}s "
            f"critical-budget={self.critical_budget_seconds:g}s",
            f"  max brownout stage: {self.max_stage}",
        ]
        for name in ("critical", "standard", "best-effort"):
            stats = self.classes[name].to_dict()
            p99 = stats["p99_seconds"]
            lines.append(
                f"  {name:>12}: sent={stats['sent']} ok={stats['ok']} "
                f"degraded={stats['degraded']} shed={stats['shed']} "
                f"429={stats['saturated']} 504={stats['expired']} "
                f"p99={p99:.3f}s" if p99 is not None else
                f"  {name:>12}: sent={stats['sent']} ok={stats['ok']} "
                f"degraded={stats['degraded']} shed={stats['shed']} "
                f"429={stats['saturated']} 504={stats['expired']}"
            )
        for name, passed in self.checks.items():
            lines.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
        for mismatch in self.unmarked_mismatches[:5]:
            lines.append(f"  unmarked mismatch: {mismatch}")
        lines.append(f"verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def _overload_analyze(
    client: ServeClient,
    item: Dict[str, Any],
    expected: bytes,
    stats: _ClassStats,
    report: OverloadReport,
    lock: threading.Lock,
    started: float,
    criticality: str,
) -> None:
    """One analyze round trip: classify the outcome, verify the bytes."""
    payload = dict(item)
    system = payload.pop("system")
    t0 = time.monotonic()
    try:
        body = client.analyze_raw(system, **payload)
    except ServeError as error:
        elapsed = time.monotonic() - started
        with lock:
            stats.sent += 1
            if error.status == 503:
                stats.shed += 1
                if stats.first_shed is None:
                    stats.first_shed = round(elapsed, 3)
            elif error.status == 429:
                stats.saturated += 1
            elif error.status == 504:
                stats.expired += 1
            elif error.transport:
                stats.transport += 1
            else:
                stats.other += 1
        return
    latency = time.monotonic() - t0
    degraded_body = False
    if body != expected:
        try:
            decoded = json.loads(body)
        except json.JSONDecodeError:
            decoded = {}
        degraded_body = decoded.get("degraded") is True
    with lock:
        stats.sent += 1
        stats.latencies.append(latency)
        if body == expected:
            stats.ok += 1
        elif degraded_body:
            stats.degraded += 1
            if criticality == "critical":
                # A degraded critical response violates the guarantee
                # even though it is marked; count it where finalize()
                # checks (zero_critical_shed also covers degraded).
                pass
        else:
            report.unmarked_mismatches.append({
                "class": criticality,
                "got_bytes": len(body),
                "want_bytes": len(expected),
            })


def _overload_client_loop(
    url: str,
    config: OverloadConfig,
    criticality: str,
    index: int,
    workload: List[Dict[str, Any]],
    expected: List[bytes],
    ballast: Optional[Dict[str, Any]],
    report: OverloadReport,
    lock: threading.Lock,
    stop: threading.Event,
    started: float,
) -> None:
    """One closed-loop client of a fixed criticality class.

    Critical clients run with no retry policy: a shed or failed critical
    request must land in the report, never be papered over by a retry.
    Best-effort clients interleave analyze probes with uncacheable
    simulate ballast — the load that actually saturates the pool.
    """
    rng = random.Random(config.seed * 10_000 + hash(criticality) % 997 + index)
    stats = report.classes[criticality]
    client = ServeClient(
        url,
        timeout=config.request_timeout,
        retry=None,
        criticality=criticality,
        client_id=f"overload-{criticality}-{index}",
    )
    try:
        turn = 0
        while not stop.is_set():
            idx = rng.randrange(len(workload))
            _overload_analyze(
                client, workload[idx], expected[idx], stats, report,
                lock, started, criticality,
            )
            if ballast is not None:
                payload = dict(ballast)
                system = payload.pop("system")
                payload["seed"] = rng.getrandbits(31)
                try:
                    client.simulate_raw(system, **payload)
                except ServeError as error:
                    elapsed = time.monotonic() - started
                    with lock:
                        stats.sent += 1
                        if error.status == 503:
                            stats.shed += 1
                            if stats.first_shed is None:
                                stats.first_shed = round(elapsed, 3)
                        elif error.status == 429:
                            stats.saturated += 1
                        elif error.status == 504:
                            stats.expired += 1
                        elif error.transport:
                            stats.transport += 1
                        else:
                            stats.other += 1
                else:
                    with lock:
                        stats.sent += 1
                        stats.ok += 1
            else:
                # Keep non-ballast classes from busy-spinning the server
                # with millisecond analyze hits: a short think time keeps
                # their request rate realistic while the ballast clients
                # provide the overload.
                stop.wait(0.05 + rng.random() * 0.05)
            turn += 1
    finally:
        client.close()


def _overload_monitor(
    url: str,
    report: OverloadReport,
    lock: threading.Lock,
    stop: threading.Event,
) -> None:
    """Track the peak brownout stage through the public /metrics API."""
    client = ServeClient(url, timeout=5.0)
    try:
        while not stop.wait(0.2):
            try:
                snapshot = client.metrics()
            except ServeError:
                continue
            stage = (snapshot.get("admission") or {}).get("brownout_stage", 0)
            with lock:
                report.max_stage = max(report.max_stage, int(stage))
    finally:
        client.close()


def run_overload(config: OverloadConfig) -> OverloadReport:
    """Run one overload campaign; returns the report (``report.ok``)."""
    from repro.serve.app import ReproServer, ServeConfig

    report = OverloadReport(config)
    lock = threading.Lock()

    workload = [
        {"system": mapped_system(name), "method": "proposed",
         "granularity": "job"}
        for name in OVERLOAD_SUITES
    ]
    expected = expected_bodies(workload)
    ballast = {
        "system": workload[0]["system"],
        "profiles": config.ballast_profiles,
    }

    server = ReproServer(ServeConfig(
        port=0,
        workers=config.workers,
        queue_size=config.queue_size,
        brownout=True,
        brownout_enter=config.brownout_enter,
        brownout_exit=config.brownout_exit,
        brownout_dwell=config.brownout_dwell,
        aging_seconds=config.aging_seconds,
    ))
    server.start()
    _LOG.info(
        "overload campaign up %s",
        kv(url=server.url, seed=config.seed,
           duration=config.duration_seconds),
    )
    try:
        stop = threading.Event()
        started = time.monotonic()
        threads: List[threading.Thread] = []
        plan = (
            [("critical", None)] * config.critical_clients
            + [("standard", None)] * config.standard_clients
            + [("best-effort", ballast)] * config.best_effort_clients
        )
        for index, (criticality, load) in enumerate(plan):
            threads.append(threading.Thread(
                target=_overload_client_loop,
                args=(server.url, config, criticality, index, workload,
                      expected, load, report, lock, stop, started),
                name=f"overload-{criticality}-{index}",
            ))
        threads.append(threading.Thread(
            target=_overload_monitor,
            args=(server.url, report, lock, stop),
            name="overload-monitor",
            daemon=True,
        ))
        for thread in threads:
            thread.start()
        time.sleep(config.duration_seconds)
        stop.set()
        for thread in threads:
            thread.join(timeout=config.request_timeout + 30.0)
    finally:
        report.drain_clean = server.drain(timeout=60.0)
    report.finalize()
    if config.report_path:
        Path(config.report_path).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
    return report
