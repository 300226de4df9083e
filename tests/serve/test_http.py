"""End-to-end HTTP tests against an in-process server."""

import threading
import time

import pytest

from repro.api import analyze, load
from repro.model.mapping import Mapping
from repro.model.serialization import SystemBundle
from repro.obs.metrics import metrics
from repro.serve.client import ServeError
from repro.serve.encoding import analysis_result_to_dict, canonical_bytes
from repro.suites import benchmark_names
from tests.malformed_systems import MALFORMED_SYSTEMS


def _counter(name):
    return metrics().counter(name).value


def _pickups():
    """Items the pool's workers have picked up (``serve.queue_seconds``)."""
    return metrics().timer("serve.queue_seconds").count


def _plug_pool(server):
    """Occupy every pool worker until the returned event is set."""
    release = threading.Event()
    entered = []
    for _ in range(server.config.workers):
        gate = threading.Event()
        entered.append(gate)
        server.pool.submit(
            lambda gate=gate: (gate.set(), release.wait(15.0))
        )
    for gate in entered:
        assert gate.wait(5.0)
    return release


def _round_robin_bundle(name):
    """A built-in suite with a deterministic round-robin mapping."""
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
    return SystemBundle(
        bundle.applications, bundle.architecture, mapping, None
    )


class TestAnalyzeEndpoint:
    def test_served_equals_facade_on_toy_system(self, client, bundle):
        raw = client.analyze_raw(bundle, dropped=["lo"])
        direct = canonical_bytes(
            analysis_result_to_dict(analyze(bundle, dropped=("lo",)))
        )
        assert raw == direct

    @pytest.mark.parametrize("suite", benchmark_names())
    def test_served_equals_facade_on_builtin_suites(self, client, suite):
        mapped = _round_robin_bundle(suite)
        raw = client.analyze_raw(mapped)
        direct = canonical_bytes(
            analysis_result_to_dict(analyze(mapped))
        )
        assert raw == direct

    def test_legacy_bus_contention_serves_the_bus_jobs_bytes(
        self, client, bundle
    ):
        from repro.comm import with_comm

        declared = SystemBundle(
            bundle.applications,
            with_comm(bundle.architecture, backend="bus-jobs"),
            bundle.mapping,
            bundle.plan,
        )
        raw = client.analyze_raw(declared)
        direct = canonical_bytes(
            analysis_result_to_dict(analyze(bundle, comm_backend="bus-jobs"))
        )
        assert raw == direct

    def test_concurrent_identical_requests_dedup(self, server, client, bundle):
        n = 6
        hits_before = _counter("serve.dedup.hits")
        # Plug every worker so no request resolves before all attached.
        release = _plug_pool(server)
        results = [None] * n

        def call(i):
            results[i] = client.analyze_raw(bundle, dropped=["lo"])

        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(n)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10.0
        while (
            _counter("serve.dedup.hits") - hits_before < n - 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        release.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert all(r is not None for r in results)
        assert all(r == results[0] for r in results)
        assert _counter("serve.dedup.hits") - hits_before >= n - 1


class TestSimulateEndpoint:
    def test_summary_fields(self, client, bundle):
        result = client.simulate(bundle, profiles=10, seed=3)
        assert result["kind"] == "simulation"
        assert result["profiles"] >= 10
        assert set(result["worst_response"]) == {"hi", "lo"}
        assert set(result["p99_response"]) == {"hi", "lo"}

    def test_unknown_dropped_rejected(self, client, bundle):
        with pytest.raises(ServeError) as info:
            client.simulate(bundle, profiles=5, dropped=["bogus"])
        assert info.value.status == 400
        assert "bogus" in str(info.value)
        assert "known applications" in str(info.value)


class TestJobsEndpoint:
    def test_explore_job_lifecycle(self, client, bundle):
        stub = client.explore(bundle, generations=2, population=4)
        # The runner may pick the job up before the 202 is rendered.
        assert stub["status"] in ("pending", "running")
        record = client.wait_job(stub["id"], timeout=120.0)
        assert record["status"] == "done"
        assert record["result"]["kind"] == "exploration"
        assert record["result"]["generations_run"] == 2

    def test_cancel_over_http(self, client, bundle):
        stub = client.explore(bundle, generations=500, population=8)
        cancelled = client.cancel(stub["id"])
        assert cancelled["cancel_requested"] is True
        record = client.wait_job(stub["id"], timeout=120.0)
        assert record["status"] == "cancelled"

    def test_unknown_job_404(self, client):
        with pytest.raises(ServeError) as info:
            client.job("job-nope")
        assert info.value.status == 404


class TestOperationalEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert "queue_depth" in health
        assert set(health["jobs"]) == {
            "pending", "running", "done", "failed", "cancelled"
        }

    def test_metrics_reports_schedule_cache(self, client, bundle):
        client.analyze(bundle)
        report = client.metrics()
        cache = report["schedule_cache"]
        assert set(cache) >= {"hits", "misses", "size", "capacity"}
        assert "metrics" in report


class TestKeepAliveHygiene:
    def test_oversized_body_rejected_and_connection_closed(self, server):
        import socket

        from repro.serve.app import MAX_BODY_BYTES

        host, port = server.address
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.settimeout(10.0)
            sock.sendall(
                (
                    "POST /v1/analyze HTTP/1.1\r\n"
                    f"Host: {host}:{port}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                    "\r\n"
                ).encode("ascii")
            )
            # Read everything until the server closes the socket: the
            # body was never sent, so a kept-alive connection would
            # block here waiting for a second request.
            data = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
        head = data.decode("latin-1")
        assert head.splitlines()[0].split()[1] == "400"
        assert "connection: close" in head.lower()


class TestLocalPathGate:
    def test_server_local_path_rejected_by_default(
        self, client, tmp_path, bundle
    ):
        from repro.model.serialization import save_system

        path = tmp_path / "system.json"
        save_system(
            path,
            bundle.applications,
            bundle.architecture,
            bundle.mapping,
            bundle.plan,
        )
        with pytest.raises(ServeError) as info:
            client.analyze(str(path))
        assert info.value.status == 400
        assert "allow-local-paths" in str(info.value)

    def test_suite_name_strings_still_resolve(self, client):
        # The gate blocks only filesystem paths; a built-in suite name
        # sent as a plain string resolves as before (it then fails on
        # the suite carrying no mapping — not on path resolution).
        with pytest.raises(ServeError) as info:
            client.analyze("cruise")
        assert info.value.status == 400
        assert "no mapping" in str(info.value)

    def test_explore_accepts_suite_name_strings(self, client):
        stub = client.explore("cruise", generations=1, population=4)
        record = client.wait_job(stub["id"], timeout=120.0)
        assert record["status"] == "done"


class TestErrorContract:
    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as info:
            client._request_json("GET", "/v1/bogus")
        assert info.value.status == 404

    def test_malformed_body_400(self, client):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            client.base_url + "/v1/analyze",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30.0)
        assert info.value.code == 400

    def test_nan_literal_in_body_400(self, client, bundle):
        import json
        import urllib.error
        import urllib.request

        from repro.serve.encoding import bundle_to_payload

        system = bundle_to_payload(bundle)
        system["applications"]["graphs"][0]["tasks"][0]["wcet"] = float("nan")
        body = json.dumps({"system": system}).encode()
        assert b"NaN" in body
        pickups = _pickups()
        request = urllib.request.Request(
            client.base_url + "/v1/analyze",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30.0)
        assert info.value.code == 400
        error = json.loads(info.value.read())["error"]
        assert error["type"] == "ModelError"
        assert "wcet must be a finite number" in error["message"]
        # Rejected at parse: no worker picked anything up.
        assert _pickups() == pickups

    def test_unknown_field_400(self, client, bundle):
        with pytest.raises(ServeError) as info:
            client.analyze(bundle, verbosity=3)
        assert info.value.status == 400
        assert "unknown field" in str(info.value)

    @pytest.mark.parametrize("value", ["false", "no", 1, None])
    def test_non_boolean_bus_contention_400(self, client, bundle, value):
        pickups = _pickups()
        with pytest.raises(ServeError) as info:
            client.analyze(bundle, bus_contention=value)
        assert info.value.status == 400
        assert "unknown field(s) for /v1/analyze: bus_contention" in str(
            info.value
        )
        # Rejected at parse: no worker picked anything up.
        assert _pickups() == pickups

    @pytest.mark.parametrize("endpoint", ["analyze", "simulate", "explore"])
    @pytest.mark.parametrize("system, field", MALFORMED_SYSTEMS)
    def test_malformed_system_400(self, client, endpoint, system, field):
        pickups = _pickups()
        with pytest.raises(ServeError) as info:
            getattr(client, endpoint)(system)
        assert info.value.status == 400
        assert info.value.error_type == "ModelError"
        assert field in str(info.value)
        # Rejected at parse: no worker picked anything up.
        assert _pickups() == pickups

    @pytest.mark.parametrize("endpoint", ["analyze", "simulate", "explore"])
    def test_unknown_comm_backend_400(self, client, bundle, endpoint):
        from repro.serve.encoding import bundle_to_payload

        system = bundle_to_payload(bundle)
        system["architecture"]["interconnect"]["comm_backend"] = "bogus"
        pickups = _pickups()
        with pytest.raises(ServeError) as info:
            getattr(client, endpoint)(system)
        assert info.value.status == 400
        assert "unknown comm backend 'bogus'" in str(info.value)
        assert "bus-jobs" in str(info.value)
        # Rejected at parse: no worker picked anything up.
        assert _pickups() == pickups

    def test_bus_contention_over_shared_bus_400(self, client, bundle):
        from repro.comm import with_comm

        shared = SystemBundle(
            bundle.applications,
            with_comm(bundle.architecture, backend="shared-bus"),
            bundle.mapping,
            bundle.plan,
        )
        pickups = _pickups()
        with pytest.raises(ServeError) as info:
            client.analyze(shared, bus_contention=True)
        assert info.value.status == 400
        assert "bus_contention" in str(info.value)
        assert _pickups() == pickups

    def test_saturated_pool_429_with_retry_after(self, server, client, bundle):
        # Plug every worker, then fill the admission queue to the brim.
        release = _plug_pool(server)
        try:
            while True:
                server.pool.submit(lambda: None)
        except Exception:
            pass  # queue is now full
        try:
            with pytest.raises(ServeError) as info:
                client.analyze(bundle)
            assert info.value.status == 429
            assert info.value.retry_after >= 1
        finally:
            release.set()

    @pytest.mark.parametrize("endpoint", ["analyze", "simulate"])
    def test_mapping_less_system_400_before_the_pool(self, client, endpoint):
        pickups = _pickups()
        with pytest.raises(ServeError) as info:
            getattr(client, endpoint)("cruise")
        assert info.value.status == 400
        assert "cruise carries no mapping" in str(info.value)
        assert _pickups() == pickups


class TestOneQueue:
    def test_request_is_queued_when_submit_returns(self, server, bundle):
        """The request thread's own submit puts the item in the pool's
        queue: no second queue or dispatch thread sits in between."""
        from repro.serve.encoding import bundle_to_payload

        seen = []
        submit = server.pool.submit

        def spy(*args, **kwargs):
            item = submit(*args, **kwargs)
            seen.append(
                (threading.current_thread().name, server.pool.queue_depth)
            )
            return item

        release = _plug_pool(server)
        server.pool.submit = spy
        request = threading.Thread(
            target=server.handle_analyze,
            args=({"system": bundle_to_payload(bundle)},),
            name="request-thread",
        )
        try:
            request.start()
            deadline = time.monotonic() + 10.0
            while not seen and time.monotonic() < deadline:
                time.sleep(0.005)
            assert seen == [("request-thread", 1)]
        finally:
            release.set()
            request.join(30.0)
