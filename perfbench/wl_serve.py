"""Workload ``serve-analyze``: open-loop served analyze at two fixed rates.

A ``repro serve`` subprocess (one process, default admission) on a free
port answers ``POST /v1/analyze`` requests sent by this process over at
most two keep-alive ``ServeClient`` connections.  Requests are due on a
fixed schedule, first at ``LOW_RPS`` and then at ``HIGH_RPS``; each one's
latency is timed from its due time, so a request that waits for a free
connection is charged that wait.  ``/metrics`` is snapshotted at each
phase boundary and the server is stopped with a SIGTERM drain.

The whole schedule is replayed ``rounds`` times, each on a fresh server
(cold schedule cache), and the latency statistics pool every replay: on a
shared host, twice the samples keep the tail from swinging with one
replay's stalls.
"""

import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
import time

from repro import api
from repro.obs.trace import span
from repro.serve.client import ServeClient, ServeError
from repro.serve.encoding import analysis_result_to_dict, canonical_bytes

from perfbench.common import (
    OUT_DIR, ROOT, SETUP_REPEATS, SRC, Stopwatch, beyond, interquartile_mean,
    median, percentile, sha256_bytes,
)
from perfbench.inputs import serve_requests
from perfbench.probes import SpanRecorder, empty_layers, overhead_pct

#: The two fixed arrival rates (requests per second).  Measured on a
#: 2-core x86 VM, this load over two connections keeps up to ~25 req/s; at
#: 30 req/s the backlog grows (p50 ~140 ms, generator lag ~200 ms).
LOW_RPS = 14.0
HIGH_RPS = 20.0
#: Keep-alive connections carrying the load.
CONNECTIONS = 2
#: Latency limit of the high-phase goodput.
LATENCY_LIMIT_MS = 250.0
#: Requests per phase: enough for ten beyond p95.
PHASE_REQUESTS = 210
#: Replays of the schedule, each on a fresh server; at least this many.
MIN_ROUNDS = 2
#: Every ``CHECK_EVERY``-th unique request is compared byte for byte with
#: a direct ``repro.api.analyze`` of the same input.
CHECK_EVERY = 8
HEALTH_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


def plan(seconds: float, smoke: bool):
    """(requests per phase, replays) so the replays last about ``seconds``."""
    if smoke:
        return 10, MIN_ROUNDS
    round_s = PHASE_REQUESTS * (1 / LOW_RPS + 1 / HIGH_RPS)
    return PHASE_REQUESTS, max(MIN_ROUNDS, round(seconds / round_s))


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _cpu_split():
    """(client CPUs, server CPUs): the load generator and the server are
    kept off each other's CPUs, as a client on its own machine would be
    (``None, None`` with fewer than two CPUs)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


class Server:
    """One ``repro serve`` subprocess on a free port."""

    def __init__(self, cpus=None):
        port = _free_port()
        self.url = f"http://127.0.0.1:{port}"
        self.cpus = cpus
        OUT_DIR.mkdir(exist_ok=True)
        self._log = open(OUT_DIR / "serve.log", "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", str(port)],
            cwd=str(ROOT),
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdin=subprocess.DEVNULL,
            stdout=self._log,
            stderr=self._log,
        )
        if cpus:
            os.sched_setaffinity(self.process.pid, cpus)
        self.control = ServeClient(self.url, timeout=30.0)

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + HEALTH_TIMEOUT_S
        while True:
            try:
                if self.control.healthz()["status"] == "ok":
                    return
            except ServeError:
                pass
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.process.returncode} at start-up"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("server did not become healthy")
            time.sleep(0.01)

    def stop(self) -> int:
        """SIGTERM drain; returns the exit code (kills after the timeout)."""
        self.control.close()
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            return self.process.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            return -signal.SIGKILL
        finally:
            self._log.close()


def _stop_checked(server: Server, report) -> None:
    code = server.stop()
    report.count(code == 0, f"server drain exited {code}")


def _sample_speed(report, cpus) -> None:
    """One machine-speed sample on the (idle) server's CPUs."""
    if not cpus:
        report.speed.sample()
        return
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        report.speed.sample()
    finally:
        os.sched_setaffinity(0, own)


class _PromptAckConnection(http.client.HTTPConnection):
    """Acknowledges each response as it arrives (Linux ``TCP_QUICKACK``).

    The server writes a response's headers and body separately, so the
    body waits for the client's ACK of the headers.  A connection that
    sent its request soon after its last response delays that ACK by the
    kernel's ~40 ms timer; which requests hit it depends on the schedule
    and on jitter, which made served latency bimodal from run to run.
    """

    def getresponse(self):
        if self.sock is not None and hasattr(socket, "TCP_QUICKACK"):
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        return super().getresponse()


def _load_client(url: str) -> ServeClient:
    """A ``ServeClient`` whose calling thread's keep-alive connection acks
    responses promptly (``ServeClient`` keeps one connection per thread)."""
    client = ServeClient(url, timeout=60.0)
    client._local.conn = _PromptAckConnection(
        client._host, client._port, timeout=client.timeout
    )
    return client


class Outcome:
    __slots__ = ("due", "sent", "done", "body", "error")

    def __init__(self, due, sent, done, body, error):
        self.due = due
        self.sent = sent
        self.done = done
        self.body = body
        self.error = error

    @property
    def latency(self) -> float:
        return self.done - self.due


def run_phase(url: str, requests, rate: float):
    """Send ``requests`` on an open-loop schedule; return their outcomes."""
    outcomes = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.monotonic() + 0.05

    def sender():
        client = _load_client(url)
        try:
            while True:
                with lock:
                    position = cursor[0]
                    cursor[0] += 1
                if position >= len(requests):
                    return
                request = requests[position]
                slot = position - 1 if request.with_previous and position else position
                due = start + slot / rate
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                body, error = None, None
                try:
                    with span("bench.request", index=request.index):
                        body = client.analyze_raw(
                            request.payload, dropped=list(request.item.dropped)
                        )
                except ServeError as failure:
                    error = f"{failure.status} {failure}"
                outcomes[position] = Outcome(
                    due, sent, time.monotonic(), body, error
                )
        finally:
            client.close()

    threads = [
        threading.Thread(target=sender, name=f"sender-{n}", daemon=True)
        for n in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, start


def _delta(after: dict, before: dict, kind: str, name: str) -> dict:
    """``{count, total}`` (or a counter value) accrued between snapshots."""
    new = after["metrics"][kind].get(name)
    old = before["metrics"][kind].get(name)
    if kind == "counters":
        return (new or 0) - (old or 0)
    new = new or {"count": 0, "total": 0.0}
    old = old or {"count": 0, "total": 0.0}
    return {
        "count": new["count"] - old["count"],
        "total": new["total"] - old["total"],
    }


def _mean(delta: dict, scale: float = 1.0) -> float:
    return scale * delta["total"] / delta["count"] if delta["count"] else 0.0


def phase_layers(before: dict, after: dict) -> dict:
    """Server-side layer numbers accrued during one phase (``/metrics``)."""
    hits = after["schedule_cache"]["hits"] - before["schedule_cache"]["hits"]
    misses = (
        after["schedule_cache"]["misses"] - before["schedule_cache"]["misses"]
    )
    return {
        "serve.server_ms": _mean(
            _delta(after, before, "timers", "serve.latency.analyze"), 1000.0
        ),
        "serve.queue_ms": _mean(
            _delta(after, before, "timers", "serve.queue_seconds"), 1000.0
        ),
        "serve.work_ms": _mean(
            _delta(after, before, "timers", "serve.work_seconds"), 1000.0
        ),
        "serve.batch_size": _mean(
            _delta(after, before, "histograms", "serve.batch_size")
        ),
        "serve.dedup_hits": _delta(after, before, "counters", "serve.dedup.hits"),
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.rejected": _delta(after, before, "counters", "serve.rejected"),
    }


def _answered_ms(outcomes):
    return [1000 * o.latency for o in outcomes if o.error is None]


def _goodput(outcomes, start) -> float:
    """Requests answered within the latency limit, per second of the phase."""
    wall = max(o.done for o in outcomes) - start
    good = sum(1 for ms in _answered_ms(outcomes) if ms <= LATENCY_LIMIT_MS)
    return good / wall


class PhaseResult:
    """Client-side numbers of one phase over its replays.

    ``replays`` holds one ``(outcomes, start)`` per replay of the same
    requests.  Each statistic is the best over the replays: a replay that
    ran while other tenants loaded the host only ever reads slower.
    """

    def __init__(self, name, rate, replays):
        self.name = name
        self.rate = rate
        #: Answered latencies (ms), one list per replay.
        self.replays = [_answered_ms(outcomes) for outcomes, _ in replays]
        every = [o for outcomes, _ in replays for o in outcomes]
        self.service = [o.done - o.sent for o in every if o.error is None]
        self.lag = [o.sent - o.due for o in every]
        self.goodput = max(_goodput(*replay) for replay in replays)
        #: Median over the replays of each replay's own p50.
        self.replay_p50_ms = median([median(ms) for ms in self.replays])

    def p(self, q: float) -> float:
        return min(percentile(ms, q) for ms in self.replays)

    def iqm_ms(self) -> float:
        return min(interquartile_mean(ms) for ms in self.replays)

    def samples(self) -> str:
        ms = self.replays[0]
        return (f"{len(ms)} ({beyond(ms, 0.95)} beyond), "
                f"best of {len(self.replays)}")


def start_server(cpus=None) -> Server:
    """A healthy server, or none left running."""
    server = Server(cpus)
    try:
        server.wait_healthy()
    except BaseException:
        server.stop()
        raise
    return server


def _serve_pass(server, requests, per_phase, report, speed=False):
    """Both phases on ``server``, then its drain.

    Returns one ``(outcomes, start)`` and one ``/metrics`` delta per phase.
    With ``speed``, the machine speed is sampled on the server's CPUs
    before and after each phase, while the server is idle.
    """
    try:
        snapshots = [server.control.metrics()]
        replays = []
        for rate, chunk in (
            (LOW_RPS, requests[:per_phase]), (HIGH_RPS, requests[per_phase:]),
        ):
            if speed:
                _sample_speed(report, server.cpus)
            outcomes, start = run_phase(server.url, chunk, rate)
            snapshots.append(server.control.metrics())
            replays.append((outcomes, start))
            for request, outcome in zip(chunk, outcomes):
                report.count(
                    outcome.error is None,
                    f"request {request.index}: {outcome.error}",
                )
        if speed:
            _sample_speed(report, server.cpus)
    finally:
        _stop_checked(server, report)
    layers = [
        phase_layers(snapshots[i], snapshots[i + 1]) for i in range(2)
    ]
    return replays, layers


def _bodies(replays):
    """Response bodies of one pass over both phases, in request order."""
    return [o.body for outcomes, _ in replays for o in outcomes]


def run(args, report, contract, import_s):
    client_cpus, server_cpus = _cpu_split()
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)
    per_phase, rounds = plan(args.seconds, args.smoke)
    # Every set-up starts a server; the last ``rounds`` of them carry one
    # replay each, the others are stopped unused.
    setups, passes = [], []
    attempts = max(SETUP_REPEATS, rounds)
    for attempt in range(attempts):
        with Stopwatch() as watch:
            requests = serve_requests(args.seed, per_phase)
            server = start_server(server_cpus)
        setups.append(watch.seconds)
        if attempt < attempts - rounds:
            _stop_checked(server, report)
            continue
        passes.append(
            _serve_pass(server, requests, per_phase, report, speed=True)
        )
    setup_s = import_s + median(setups)

    bodies = _bodies(passes[0][0])
    _check_bodies(requests, bodies, report)
    for number, (replays, _layers) in enumerate(passes[1:], start=2):
        _check_replay(
            requests, bodies, _bodies(replays), f"replay {number}", report
        )
    if None not in bodies:
        report.check_digest(output_digest(requests, bodies), args.smoke)

    phases = [
        PhaseResult(name, rate, [replays[i] for replays, _ in passes])
        for i, (name, rate) in enumerate((("lo", LOW_RPS), ("hi", HIGH_RPS)))
    ]
    lo, hi = phases
    # The best replay's latency at the nominal speed of the server's CPUs
    # (see MachineSpeed): both rates stay well below capacity, so latency
    # is mostly the server's CPU work, not queueing.  The typical slots are
    # interquartile means: the suites' costs leave a gap around p50 (p45 to
    # p55 spans ~35 %), so the p50 jumps between runs.  The tail slot is
    # p90 (21 samples beyond it); p95 (10 beyond) is printed.
    scale = report.speed.scale
    report.metrics = {
        "setup_s": scale(setup_s),
        "typical_ms": scale(hi.iqm_ms()),
        "tail_ms": scale(hi.p(0.90)),
        "secondary_ms": scale(lo.iqm_ms()),
        "rate_per_s": hi.goodput,
    }
    report.named_metric("setup_s", setup_s, "s", len(setups))
    for phase in phases:
        count = phase.samples()
        report.named_metric(f"serve_{phase.name}_p50_ms", phase.p(0.5), "ms", count)
        report.named_metric(f"serve_{phase.name}_iqm_ms", phase.iqm_ms(), "ms", count)
        report.named_metric(f"serve_{phase.name}_p95_ms", phase.p(0.95), "ms", count)
    report.named_metric(
        "serve_hi_goodput_rps", hi.goodput, "req/s",
        f"limit {LATENCY_LIMIT_MS:g} ms",
    )
    report.tables["server layers per replay and phase (/metrics deltas)"] = [
        {"replay": number, "phase": phase.name, "rate": phase.rate,
         "p50_ms": median(phase.replays[number - 1]),
         "iqm_ms": interquartile_mean(phase.replays[number - 1]),
         "p90_ms": percentile(phase.replays[number - 1], 0.90),
         "gen_lag_p95_ms": 1000 * percentile(
             [o.sent - o.due for o in replays[i][0]], 0.95
         ),
         **layers[i]}
        for number, (replays, layers) in enumerate(passes, start=1)
        for i, phase in enumerate(phases)
    ]
    if args.trace:
        _traced_pass(
            args, report, contract, requests, per_phase, bodies, hi, server_cpus
        )


def output_digest(requests, bodies) -> str:
    """One digest over every distinct request's response bytes."""
    answers = {r.item.label: body for r, body in zip(requests, bodies)}
    return sha256_bytes(
        label.encode() + b"\0" + answers[label] for label in sorted(answers)
    )


def _check_bodies(requests, bodies, report):
    """Repeats equal their originals; a sample equals direct analysis."""
    for request, body in zip(requests, bodies):
        if body is None:
            continue
        if request.repeat_of is not None:
            original = bodies[request.repeat_of]
            if original is not None and original != body:
                report.mismatch(
                    f"request {request.index}: repeat answered differently"
                )
        elif request.index % CHECK_EVERY == 0:
            direct = canonical_bytes(analysis_result_to_dict(
                api.analyze(request.item.bundle, dropped=request.item.dropped)
            ))
            if direct != body:
                report.mismatch(
                    f"request {request.index}: served bytes differ from "
                    "repro.api.analyze"
                )


def _check_replay(requests, bodies, again, what, report):
    """Another pass over the same requests answered the same bytes."""
    for request, old, new in zip(requests, bodies, again):
        if old is not None and new is not None and old != new:
            report.mismatch(f"{what} request {request.index}: bytes differ")


def _traced_pass(
    args, report, contract, requests, per_phase, bodies, hi, server_cpus
):
    """Both phases once more on a fresh server with client spans on."""
    with SpanRecorder() as recorder:
        replays, layers = _serve_pass(
            start_server(server_cpus), requests, per_phase, report
        )
    recorder.write(OUT_DIR / f"spans_serve_seed{args.seed}.jsonl")
    print(recorder.summary_text())
    _check_replay(requests, bodies, _bodies(replays), "traced", report)

    phases = [
        PhaseResult(name, rate, [replay])
        for name, rate, replay in zip(("lo", "hi"), (LOW_RPS, HIGH_RPS), replays)
    ]
    traced_hi = phases[1]
    for phase in phases:
        report.named_metric(
            f"serve_{phase.name}_p50_ms", phase.p(0.5), "ms",
            len(phase.replays[0]), traced=True,
        )
    numbers = layers[1]
    client_ms = 1000 * sum(traced_hi.service) / len(traced_hi.service)
    result = empty_layers(contract)
    result.update(numbers)
    result.update({
        "serve.transport_ms": client_ms - numbers["serve.server_ms"],
        "serve.rejected": layers[0]["serve.rejected"] + numbers["serve.rejected"],
        "gen.lag_ms": 1000 * percentile(traced_hi.lag, 0.95),
        # One traced replay against the untraced replays' own p50s.
        "trace.overhead_pct": overhead_pct(
            traced_hi.replay_p50_ms, hi.replay_p50_ms
        ),
    })
    report.layers = result
