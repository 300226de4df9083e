"""End-to-end smoke test of `repro serve` (used by the serve-smoke CI job).

Drives a real server subprocess through the full surface:

1. health + metrics endpoints;
2. served analyze byte-identical to `repro.api.analyze` on every
   built-in suite, and a 400 for malformed systems;
3. a 100-request concurrent mixed load (analyze/simulate, with
   duplicates): zero errors, dedup hits observed, queue depth bounded;
4. explore job lifecycle: submit, poll, cancel;
5. SIGKILL the server mid-exploration, restart it on the same state
   dir, and assert the job resumes from its checkpoint and finishes
   with the same Pareto front as an uninterrupted run;
6. SIGTERM the server mid-exploration and assert the graceful path:
   exit code 0, the job parked resumable, and the restarted server
   finishing it identically to an uninterrupted run.

Run from the repository root:

    PYTHONPATH=src python scripts/serve_smoke.py

``--soak SECONDS`` switches to a sustained-load soak instead: N client
threads hammer the server for the given duration, latencies stream
through a P^2 histogram, and a ``BENCH_serve.json`` report (throughput
+ p50/p95/p99) is written when ``REPRO_BENCH_DIR`` or ``--bench-dir``
names a directory.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import analyze, load  # noqa: E402
from repro.model.mapping import Mapping  # noqa: E402
from repro.model.serialization import SystemBundle  # noqa: E402
from repro.obs.bench import write_bench_report  # noqa: E402
from repro.obs.metrics import metrics  # noqa: E402
from repro.serve.client import (  # noqa: E402
    RetryPolicy,
    ServeClient,
    ServeError,
)
from repro.serve.encoding import (  # noqa: E402
    analysis_result_to_dict,
    bundle_to_payload,
    canonical_bytes,
)
from repro.suites import benchmark_names  # noqa: E402

QUEUE_SIZE = 64


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(port: int, state_dir: str) -> subprocess.Popen:
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--state-dir", state_dir,
            "--workers", "4",
            "--queue-size", str(QUEUE_SIZE),
        ],
        env={**os.environ, "PYTHONPATH": "src"},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    client = ServeClient(f"http://127.0.0.1:{port}", timeout=300.0)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            client.healthz()
            return process
        except ServeError:
            if process.poll() is not None:
                raise SystemExit("server process died during startup")
            time.sleep(0.2)
    raise SystemExit("server did not become healthy in 30s")


def mapped_suite(name: str) -> SystemBundle:
    bundle = load(name)
    processors = [p.name for p in bundle.architecture.processors]
    tasks = [
        task.name
        for graph in bundle.applications.graphs
        for task in graph.tasks
    ]
    mapping = Mapping(
        {task: processors[i % len(processors)] for i, task in enumerate(tasks)}
    )
    return SystemBundle(bundle.applications, bundle.architecture, mapping, None)


def check_byte_identity(client: ServeClient) -> None:
    for name in benchmark_names():
        mapped = mapped_suite(name)
        served = client.analyze_raw(mapped)
        direct = canonical_bytes(analysis_result_to_dict(analyze(mapped)))
        assert served == direct, f"served {name} differs from repro.api.analyze"
    print(f"ok: byte-identical to the facade on {len(benchmark_names())} suites")


def check_malformed_system(client: ServeClient) -> None:
    """Malformed systems and unsupported format versions get a 400."""
    bad_version = bundle_to_payload(mapped_suite("cruise"))
    bad_version["format_version"] = 99
    for system in (
        {"applications": [], "architecture": {}},
        {"applications": {"graphs": [{"name": "a"}]}, "architecture": {}},
        bad_version,
    ):
        for send in (client.analyze_raw, client.simulate_raw):
            try:
                send(system)
            except ServeError as error:
                assert error.status == 400, f"got {error.status}: {error}"
                assert error.error_type == "ModelError", error.error_type
            else:
                raise AssertionError("malformed system was accepted")
    print("ok: malformed systems get 400 naming the bad field")


def check_load(client: ServeClient) -> None:
    cruise = bundle_to_payload(mapped_suite("cruise"))
    dt_med = bundle_to_payload(mapped_suite("dt-med"))

    def one(i: int):
        kind = i % 4
        if kind == 0:
            # Identical requests: must coalesce through the dedup layer.
            return client.analyze_raw(cruise)
        if kind == 1:
            return client.analyze_raw(cruise, dropped=["info", "log"])
        if kind == 2:
            return client.analyze_raw(dt_med)
        return client.simulate(cruise, profiles=5, seed=i % 3)

    errors = []
    max_depth = 0

    def guarded(i: int):
        try:
            return one(i)
        except Exception as error:  # noqa: BLE001 — tallied below
            errors.append(f"request {i}: {type(error).__name__}: {error}")
            return None

    with ThreadPoolExecutor(max_workers=32) as executor:
        futures = [executor.submit(guarded, i) for i in range(100)]
        while not all(f.done() for f in futures):
            max_depth = max(max_depth, client.healthz()["queue_depth"])
            time.sleep(0.02)
        results = [f.result() for f in futures]

    assert not errors, "load errors:\n" + "\n".join(errors[:10])
    assert all(r is not None for r in results)
    # Identical requests returned identical bytes.
    group = [r for i, r in enumerate(results) if i % 4 == 0]
    assert all(r == group[0] for r in group), "deduped responses differ"
    report = client.metrics()
    dedup = report["metrics"]["counters"].get("serve.dedup.hits", 0)
    assert dedup > 0, "no dedup hits under concurrent identical load"
    assert max_depth <= QUEUE_SIZE, f"queue depth {max_depth} exceeded bound"
    cache = report["schedule_cache"]
    print(
        f"ok: 100 concurrent requests, 0 errors, dedup hits {dedup}, "
        f"max queue depth {max_depth}, cache hit rate "
        f"{cache['hit_rate']:.2f}"
    )


def check_job_cancel(client: ServeClient) -> None:
    mapped = bundle_to_payload(mapped_suite("cruise"))
    stub = client.explore(mapped, generations=500, population=16, seed=2)
    record = client.cancel(stub["id"])
    assert record["cancel_requested"] is True
    final = client.wait_job(stub["id"], timeout=120.0)
    assert final["status"] == "cancelled", final["status"]
    print("ok: explore job cancelled cooperatively")


_REFERENCE_FRONTS = {}


def reference_front(params: dict):
    """The uninterrupted cruise exploration front for ``params``."""
    key = tuple(sorted(params.items()))
    if key not in _REFERENCE_FRONTS:
        import repro
        from repro.dse import ExploreRequest

        result = repro.explore(
            ExploreRequest.from_options(
                mapped_suite("cruise"),
                generations=params["generations"],
                population=params["population"],
                seed=params["seed"],
            )
        )
        _REFERENCE_FRONTS[key] = [
            (p.power, p.service, tuple(p.dropped)) for p in result.pareto
        ]
    return _REFERENCE_FRONTS[key]


def check_kill_resume(port: int, state_dir: str, process: subprocess.Popen):
    client = ServeClient(f"http://127.0.0.1:{port}", timeout=300.0)
    mapped = bundle_to_payload(mapped_suite("cruise"))
    params = dict(generations=40, population=16, seed=7, checkpoint_every=2)
    stub = client.explore(mapped, **params)
    job_id = stub["id"]

    # Wait for a committed checkpoint, then kill without ceremony.
    ckpt_dir = Path(state_dir) / job_id / "ckpt"
    deadline = time.monotonic() + 120.0
    while not list(ckpt_dir.glob("checkpoint-*.json")):
        assert time.monotonic() < deadline, "no checkpoint appeared"
        time.sleep(0.1)
    os.kill(process.pid, signal.SIGKILL)
    process.wait()
    record = json.loads((Path(state_dir) / job_id / "job.json").read_text())
    assert record["status"] in ("pending", "running"), record["status"]
    print(f"ok: killed mid-explore (job {job_id} was {record['status']})")

    process = start_server(port, state_dir)
    try:
        final = client.wait_job(job_id, timeout=300.0)
        assert final["status"] == "done", final
        assert final["restarts"] >= 1, "job did not go through recovery"
        front = [
            (p["power"], p["service"], tuple(p["dropped"]))
            for p in final["result"]["pareto"]
        ]
        expected = reference_front(params)
        assert front == expected, "resumed front differs from reference"
        print(
            f"ok: job resumed after SIGKILL and matches the uninterrupted "
            f"run ({len(front)} Pareto points)"
        )
    finally:
        process.terminate()
        process.wait(timeout=30)


def check_sigterm_drain(port: int, state_dir: str) -> None:
    """SIGTERM mid-explore: clean exit 0, job parked, resume identical."""
    process = start_server(port, state_dir)
    client = ServeClient(f"http://127.0.0.1:{port}", timeout=300.0)
    mapped = bundle_to_payload(mapped_suite("cruise"))
    params = dict(generations=40, population=16, seed=7, checkpoint_every=2)
    stub = client.explore(mapped, **params)
    job_id = stub["id"]

    ckpt_dir = Path(state_dir) / job_id / "ckpt"
    deadline = time.monotonic() + 120.0
    while not list(ckpt_dir.glob("checkpoint-*.json")):
        assert time.monotonic() < deadline, "no checkpoint appeared"
        time.sleep(0.1)
    process.send_signal(signal.SIGTERM)
    code = process.wait(timeout=60)
    assert code == 0, f"graceful drain exited {code}"
    record = json.loads((Path(state_dir) / job_id / "job.json").read_text())
    assert record["status"] == "pending", record["status"]
    print(f"ok: SIGTERM drained to exit 0 (job {job_id} parked as pending)")

    process = start_server(port, state_dir)
    try:
        final = client.wait_job(job_id, timeout=300.0)
        assert final["status"] == "done", final
        assert final["restarts"] >= 1, "job did not go through recovery"
        front = [
            (p["power"], p["service"], tuple(p["dropped"]))
            for p in final["result"]["pareto"]
        ]
        assert front == reference_front(params), (
            "drained-and-resumed front differs from reference"
        )
        print(
            f"ok: parked job resumed after drain and matches the "
            f"uninterrupted run ({len(front)} Pareto points)"
        )
    finally:
        process.terminate()
        assert process.wait(timeout=60) == 0, "idle drain exited nonzero"


def run_soak(args) -> int:
    """Sustained mixed load; emits BENCH_serve.json when configured."""
    port = free_port()
    state_dir = tempfile.mkdtemp(prefix="repro-serve-soak-")
    process = start_server(port, state_dir)
    url = f"http://127.0.0.1:{port}"
    cruise = bundle_to_payload(mapped_suite("cruise"))
    dt_med = bundle_to_payload(mapped_suite("dt-med"))
    latency = metrics().histogram("bench.serve.request_seconds")
    # Per-class percentiles: each soak client carries one criticality
    # class end to end, so the report shows what each class experienced.
    classes = ("critical", "standard", "best-effort")
    class_latency = {
        cls: metrics().histogram(
            f"bench.serve.request_seconds.{cls.replace('-', '_')}"
        )
        for cls in classes
    }
    stop = threading.Event()
    lock = threading.Lock()
    counts = {"requests": 0, "errors": 0}
    failures = []

    def worker(index: int) -> None:
        criticality = classes[index % len(classes)]
        client = ServeClient(
            url,
            timeout=120.0,
            retry=RetryPolicy(retries=4, seed=index),
            criticality=criticality,
            client_id=f"soak-{index}",
        )
        i = 0
        try:
            while not stop.is_set():
                kind = (index + i) % 3
                i += 1
                begin = time.perf_counter()
                try:
                    if kind == 0:
                        client.analyze_raw(cruise)
                    elif kind == 1:
                        client.analyze_raw(cruise, dropped=["info", "log"])
                    else:
                        client.analyze_raw(dt_med)
                except ServeError as error:
                    with lock:
                        counts["errors"] += 1
                        if len(failures) < 5:
                            failures.append(str(error))
                else:
                    elapsed_req = time.perf_counter() - begin
                    latency.observe(elapsed_req)
                    class_latency[criticality].observe(elapsed_req)
                    with lock:
                        counts["requests"] += 1
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"soak-{i}")
        for i in range(args.soak_clients)
    ]
    begin = time.monotonic()
    for thread in threads:
        thread.start()
    time.sleep(args.soak)
    stop.set()
    for thread in threads:
        thread.join(timeout=150.0)
    elapsed = time.monotonic() - begin
    process.terminate()
    assert process.wait(timeout=60) == 0, "soak server drain exited nonzero"

    quantiles = latency.quantiles()
    throughput = counts["requests"] / elapsed if elapsed else 0.0
    payload = {
        "duration_seconds": round(elapsed, 3),
        "clients": args.soak_clients,
        "requests": counts["requests"],
        "errors": counts["errors"],
        "throughput_rps": round(throughput, 3),
        "latency_seconds": {
            "mean": round(latency.mean, 6),
            "max": latency.max,
            **quantiles,
        },
        "latency_seconds_by_class": {
            cls: {
                "count": hist.count,
                "mean": round(hist.mean, 6) if hist.count else None,
                **hist.quantiles(),
            }
            for cls, hist in class_latency.items()
        },
    }
    path = write_bench_report("serve", payload, out_dir=args.bench_dir)

    def fmt(value):
        return f"{value * 1000:.1f}ms" if value is not None else "n/a"

    print(
        f"soak: {counts['requests']} requests in {elapsed:.1f}s "
        f"({throughput:.1f} rps, {args.soak_clients} clients), "
        f"p50={fmt(quantiles['p50'])} p95={fmt(quantiles['p95'])} "
        f"p99={fmt(quantiles['p99'])}"
    )
    if path:
        print(f"wrote {path}")
    assert counts["errors"] == 0, "soak errors:\n" + "\n".join(failures)
    print("serve soak: passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="serve smoke test / sustained-load soak"
    )
    parser.add_argument(
        "--soak", type=float, default=0.0,
        help="run a sustained-load soak for N seconds instead of the "
        "smoke checks",
    )
    parser.add_argument(
        "--soak-clients", type=int, default=8,
        help="concurrent client threads during the soak",
    )
    parser.add_argument(
        "--bench-dir", default=None,
        help="directory for BENCH_serve.json (default: $REPRO_BENCH_DIR)",
    )
    args = parser.parse_args(argv)
    if args.soak:
        return run_soak(args)

    port = free_port()
    state_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    process = start_server(port, state_dir)
    client = ServeClient(f"http://127.0.0.1:{port}", timeout=300.0)
    try:
        health = client.healthz()
        assert health["status"] == "ok"
        print(f"ok: healthy on port {port}")
        check_byte_identity(client)
        check_malformed_system(client)
        check_load(client)
        check_job_cancel(client)
    except Exception:
        process.terminate()
        process.wait(timeout=10)
        raise
    # check_kill_resume kills and restarts the server itself.
    check_kill_resume(port, state_dir, process)
    check_sigterm_drain(port, state_dir)
    print("serve smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
