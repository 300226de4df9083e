"""Admission control: classes, quotas, priorities, brownout, deadlines."""

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.api import analyze
from repro.errors import ReproError
from repro.serve import ReproServer, ServeConfig
from repro.serve.admission import (
    BrownoutController,
    BrownoutShed,
    ClientQuotas,
    QuotaExceeded,
    TokenBucket,
    parse_class,
    parse_client_id,
    parse_deadline,
)
from repro.serve.client import (
    DeadlineExhausted,
    RetryPolicy,
    ServeClient,
    ServeError,
)
from repro.serve.encoding import (
    analysis_result_to_dict,
    bundle_to_payload,
    canonical_bytes,
)
from repro.serve.pool import (
    PoolSaturated,
    WorkItem,
    WorkerPool,
    _PriorityQueue,
)


class TestParsers:
    def test_unknown_class_lists_valid_classes(self):
        with pytest.raises(ReproError) as info:
            parse_class("urgent")
        for name in ("critical", "standard", "best-effort"):
            assert name in str(info.value)

    def test_none_class_defaults_to_standard(self):
        assert parse_class(None) == "standard"

    @pytest.mark.parametrize(
        "bad", ["", ".hidden", "a b", "x" * 129, 42, "slash/y"]
    )
    def test_bad_client_ids_rejected(self, bad):
        with pytest.raises(ReproError):
            parse_client_id(bad)

    def test_none_client_is_anonymous(self):
        assert parse_client_id(None) == "anonymous"

    @pytest.mark.parametrize("bad", ["soon", "nan", "inf", "-inf", ""])
    def test_malformed_deadlines_rejected(self, bad):
        with pytest.raises(ReproError):
            parse_deadline(bad)

    def test_spent_deadline_is_accepted_not_rejected(self):
        # A doomed request deserves a 504 answer, not a 400 scolding.
        assert parse_deadline("-1.5") == -1.5
        assert parse_deadline("0") == 0.0


class TestTokenBucket:
    def test_frozen_clock_admits_exactly_burst(self):
        """The quota contract: N racing threads, frozen clock, exactly
        ``burst`` admits — no double-spend, no lost tokens."""
        bucket = TokenBucket(rate=5.0, burst=8, clock=lambda: 0.0)
        admitted = []
        barrier = threading.Barrier(16)

        def hammer():
            barrier.wait(5.0)
            for _ in range(10):
                if bucket.acquire() is None:
                    admitted.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(admitted) == 8

    def test_refill_reports_exact_wait(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=1, clock=lambda: now[0])
        assert bucket.acquire() is None
        assert bucket.acquire() == pytest.approx(0.5)
        now[0] = 0.5  # one token refilled
        assert bucket.acquire() is None

    def test_zero_rate_never_refills(self):
        bucket = TokenBucket(rate=0.0, burst=1, clock=lambda: 0.0)
        assert bucket.acquire() is None
        assert bucket.acquire() == float("inf")

    def test_quota_retry_after_floor_is_one_second(self):
        # rate=10 makes the true wait 0.1s; Retry-After must still be >= 1.
        quotas = ClientQuotas(rate=10.0, burst=1, clock=lambda: 0.0)
        quotas.check("alice")
        with pytest.raises(QuotaExceeded) as info:
            quotas.check("alice")
        assert info.value.retry_after >= 1

    def test_buckets_are_per_client(self):
        quotas = ClientQuotas(rate=1.0, burst=1, clock=lambda: 0.0)
        quotas.check("alice")
        quotas.check("bob")  # bob's bucket is untouched by alice
        with pytest.raises(QuotaExceeded):
            quotas.check("alice")

    def test_lru_bounds_bucket_count(self):
        quotas = ClientQuotas(rate=1.0, burst=1, max_clients=2)
        for client in ("a", "b", "c"):
            quotas.check(client)
        assert quotas.clients == 2


class TestPriorityQueue:
    @staticmethod
    def _item(priority):
        return WorkItem(lambda: None, None, priority=priority)

    def test_strict_priority_order(self):
        q = _PriorityQueue(maxsize=8, aging_seconds=60.0)
        best_effort = self._item(2)
        standard = self._item(1)
        critical = self._item(0)
        for item in (best_effort, standard, critical):
            q.put_nowait(item)
        assert q.get() is critical
        assert q.get() is standard
        assert q.get() is best_effort

    def test_aging_floor_prevents_starvation(self):
        """An old best-effort item jumps ahead of fresh critical work."""
        q = _PriorityQueue(maxsize=8, aging_seconds=0.05)
        starved = self._item(2)
        q.put_nowait(starved)
        time.sleep(0.1)  # let it age past the floor
        fresh = self._item(0)
        q.put_nowait(fresh)
        assert q.get() is starved
        assert q.get() is fresh

    def test_oldest_aged_item_wins(self):
        q = _PriorityQueue(maxsize=8, aging_seconds=0.01)
        older = self._item(2)
        q.put_nowait(older)
        time.sleep(0.03)
        newer = self._item(1)
        q.put_nowait(newer)
        time.sleep(0.03)  # both aged; the best-effort one is older
        assert q.get() is older
        assert q.get() is newer

    def test_sentinels_deliver_only_after_drain(self):
        q = _PriorityQueue(maxsize=8, aging_seconds=60.0)
        item = self._item(2)
        q.put_nowait(None)  # shutdown sentinel arrives first
        q.put_nowait(item)
        assert q.get() is item  # pending work drains before shutdown
        assert q.get() is None

    def test_pool_executes_in_priority_order(self):
        pool = WorkerPool(workers=1, queue_size=8, aging_seconds=60.0)
        try:
            release = threading.Event()
            entered = threading.Event()
            pool.submit(lambda: (entered.set(), release.wait(10.0)))
            assert entered.wait(5.0)
            order = []
            items = [
                pool.submit(lambda p=p: order.append(p), priority=p)
                for p in (2, 1, 0)
            ]
            release.set()
            for item in items:
                item.result(10.0)
            assert order == [0, 1, 2]
        finally:
            pool.shutdown()


class TestBrownoutController:
    @staticmethod
    def _controller(now):
        return BrownoutController(
            enter_seconds=1.0,
            exit_seconds=0.25,
            stage2_factor=2.0,
            dwell_seconds=2.0,
            clock=lambda: now[0],
        )

    def test_escalates_through_stages(self):
        now = [0.0]
        ctrl = self._controller(now)
        assert ctrl.update(0.5) == 0
        assert ctrl.update(1.5) == 1
        assert ctrl.update(2.5) == 2

    def test_escalates_straight_to_stage_two(self):
        now = [0.0]
        ctrl = self._controller(now)
        assert ctrl.update(5.0) == 2

    def test_recovery_needs_sustained_calm(self):
        now = [0.0]
        ctrl = self._controller(now)
        ctrl.update(1.5)
        # Below enter but above exit: hysteresis holds the stage.
        assert ctrl.update(0.5) == 1
        # Calm starts; stage holds until the dwell elapses.
        assert ctrl.update(0.1) == 1
        now[0] = 1.0
        assert ctrl.update(0.1) == 1
        now[0] = 2.5
        assert ctrl.update(0.1) == 0

    def test_flap_resets_the_dwell(self):
        now = [0.0]
        ctrl = self._controller(now)
        ctrl.update(1.5)
        ctrl.update(0.1)  # calm begins
        now[0] = 1.9
        ctrl.update(0.5)  # spike above exit: calm resets
        now[0] = 2.5
        assert ctrl.update(0.1) == 1  # old dwell no longer counts

    def test_recovery_steps_down_one_stage_at_a_time(self):
        now = [0.0]
        ctrl = self._controller(now)
        ctrl.update(9.0)  # stage 2
        ctrl.update(0.1)
        now[0] = 2.5
        assert ctrl.update(0.1) == 1
        now[0] = 5.0
        assert ctrl.update(0.1) == 0


@pytest.fixture
def brownout_server(tmp_path):
    """A server with brownout wired and a dwell too long to step down
    during a test — so a forced stage stays put."""
    instance = ReproServer(ServeConfig(
        port=0,
        workers=2,
        queue_size=16,
        state_dir=str(tmp_path / "state"),
        brownout=True,
        brownout_dwell=3600.0,
    ))
    instance.start()
    yield instance
    instance.close()


def _force_stage(server, stage):
    server.admission.brownout._stage = stage
    server.admission.brownout._calm_since = None


def _direct_bytes(bundle, **params):
    return canonical_bytes(
        analysis_result_to_dict(analyze(bundle, **params))
    )


class TestBrownoutHTTP:
    def test_stage1_sheds_best_effort_only(self, brownout_server, bundle):
        _force_stage(brownout_server, 1)
        url = brownout_server.url
        best_effort = ServeClient(url, criticality="best-effort")
        with pytest.raises(ServeError) as info:
            best_effort.analyze_raw(bundle)
        assert info.value.status == 503
        assert info.value.retry_after >= 1
        standard = ServeClient(url)
        assert standard.analyze_raw(bundle) == _direct_bytes(bundle)

    def test_stage2_degrades_standard_analyze(self, brownout_server, bundle):
        _force_stage(brownout_server, 2)
        client = ServeClient(brownout_server.url)
        body = client.analyze_raw(bundle)
        decoded = json.loads(body)
        assert decoded["degraded"] is True
        assert body != _direct_bytes(bundle)

    def test_stage2_sheds_standard_simulate(self, brownout_server, bundle):
        _force_stage(brownout_server, 2)
        client = ServeClient(brownout_server.url)
        with pytest.raises(ServeError) as info:
            client.simulate_raw(bundle, profiles=2, seed=1)
        assert info.value.status == 503
        assert info.value.retry_after >= 1

    def test_stage2_never_touches_critical(self, brownout_server, bundle):
        _force_stage(brownout_server, 2)
        client = ServeClient(brownout_server.url, criticality="critical")
        assert client.analyze_raw(bundle) == _direct_bytes(bundle)

    def test_degraded_bytes_never_poison_the_cache(
        self, brownout_server, bundle
    ):
        """A degraded response must not be replayed at full service."""
        _force_stage(brownout_server, 2)
        client = ServeClient(brownout_server.url)
        degraded = client.analyze_raw(bundle, dropped=["lo"])
        assert json.loads(degraded)["degraded"] is True
        _force_stage(brownout_server, 0)
        healthy = client.analyze_raw(bundle, dropped=["lo"])
        assert healthy == _direct_bytes(bundle, dropped=("lo",))

    def test_one_system_parse_per_served_request(
        self, brownout_server, bundle, monkeypatch
    ):
        """The system is parsed once, on the request thread; the worker
        (normal or degraded) analyzes the bundle the parse built."""
        import sys

        from repro.model import serialization

        original = serialization.bundle_from_payload
        calls = []

        def counting(payload):
            calls.append(payload)
            return original(payload)

        for name, module in list(sys.modules.items()):
            if (
                name.split(".")[0] == "repro"
                and getattr(module, "bundle_from_payload", None) is original
            ):
                monkeypatch.setattr(module, "bundle_from_payload", counting)
        client = ServeClient(brownout_server.url)
        requests = (
            (0, lambda: client.analyze_raw(bundle)),
            (0, lambda: client.simulate_raw(bundle, profiles=2, seed=1)),
            (2, lambda: client.analyze_raw(bundle, dropped=["lo"])),
        )
        for stage, send in requests:
            _force_stage(brownout_server, stage)
            calls.clear()
            body = send()
            assert json.loads(body).get("degraded", False) is (stage == 2)
            assert len(calls) == 1

    def test_healthz_reports_stage(self, brownout_server):
        _force_stage(brownout_server, 1)
        client = ServeClient(brownout_server.url)
        assert client.healthz()["brownout_stage"] == 1

    def test_prometheus_exposes_admission_series(self, brownout_server):
        client = ServeClient(brownout_server.url)
        text = client._request(
            "GET", "/metrics?format=prometheus"
        ).decode("utf-8")
        assert "repro_admission_brownout_stage" in text
        assert 'repro_admission_queue_depth{class="critical"}' in text
        assert 'repro_admission_shed_total{class="best-effort"}' in text


@pytest.fixture
def quota_server(tmp_path):
    instance = ReproServer(ServeConfig(
        port=0,
        workers=2,
        queue_size=16,
        quota_rps=0.01,  # ~no refill within a test
        quota_burst=2,
    ))
    instance.start()
    yield instance
    instance.close()


class TestQuotaHTTP:
    def test_burst_then_429_with_retry_after(self, quota_server, bundle):
        client = ServeClient(quota_server.url, client_id="hammer")
        for _ in range(2):
            client.analyze_raw(bundle)
        with pytest.raises(ServeError) as info:
            client.analyze_raw(bundle)
        assert info.value.status == 429
        assert info.value.retry_after >= 1

    def test_quota_is_per_client(self, quota_server, bundle):
        first = ServeClient(quota_server.url, client_id="first")
        for _ in range(2):
            first.analyze_raw(bundle)
        with pytest.raises(ServeError):
            first.analyze_raw(bundle)
        other = ServeClient(quota_server.url, client_id="other")
        assert other.analyze_raw(bundle) == _direct_bytes(bundle)

    def test_metrics_snapshot_reports_quota(self, quota_server):
        client = ServeClient(quota_server.url)
        admission = client.metrics()["admission"]
        assert admission["quota"] == {
            "rps": 0.01, "burst": 2.0, "clients": admission["quota"]["clients"],
        }


def _raw_post(server, path, payload, headers):
    """A hand-rolled request: invalid headers a ServeClient won't send."""
    parts = urlsplit(server.url)
    conn = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=30.0
    )
    try:
        body = json.dumps(payload).encode("utf-8")
        conn.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json", **headers},
        )
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class TestMalformedAdmissionInput:
    def test_unknown_class_header_is_400_with_class_list(self, server):
        status, body = _raw_post(
            server, "/v1/analyze", {}, {"X-Repro-Class": "urgent"}
        )
        assert status == 400
        for name in ("critical", "standard", "best-effort"):
            assert name in body["error"]["message"]

    def test_malformed_deadline_header_is_400(self, server):
        status, body = _raw_post(
            server, "/v1/analyze", {}, {"X-Repro-Deadline": "soon"}
        )
        assert status == 400
        assert "X-Repro-Deadline" in body["error"]["message"]

    def test_malformed_client_header_is_400(self, server):
        status, body = _raw_post(
            server, "/v1/analyze", {}, {"X-Repro-Client": ".hidden"}
        )
        assert status == 400
        assert "X-Repro-Client" in body["error"]["message"]

    def test_unknown_body_class_is_400_with_class_list(self, client, bundle):
        with pytest.raises(ServeError) as info:
            client.analyze_raw(bundle, criticality="urgent")
        assert info.value.status == 400
        assert "best-effort" in str(info.value)

    def test_server_survives_bad_headers(self, server, bundle):
        _raw_post(server, "/v1/analyze", {}, {"X-Repro-Class": "nope"})
        follow_up = ServeClient(server.url)
        assert follow_up.analyze_raw(bundle) == _direct_bytes(bundle)


class TestDeadlinePropagation:
    def test_spent_budget_is_504_at_admission(self, server):
        status, body = _raw_post(
            server, "/v1/analyze", {}, {"X-Repro-Deadline": "-1"}
        )
        assert status == 504
        assert body["error"]["type"] == "DeadlineExceeded"

    def test_generous_budget_served_byte_identical(self, client, bundle):
        raw = client.analyze_raw(bundle, deadline_seconds=120.0)
        assert raw == _direct_bytes(bundle)

    def test_client_fails_fast_when_backoff_overshoots_budget(
        self, quota_server, bundle
    ):
        """Satellite 1: never sleep past the caller's remaining budget.

        The quota server's Retry-After (~100s at 0.01 rps) dwarfs the
        2-second budget, so the client must raise a typed error at once
        instead of blocking on a doomed backoff."""
        client = ServeClient(
            quota_server.url,
            retry=RetryPolicy(retries=3, seed=0),
            client_id="impatient",
        )
        for _ in range(2):
            client.analyze_raw(bundle)
        started = time.monotonic()
        with pytest.raises(DeadlineExhausted) as info:
            client.analyze_raw(bundle, deadline_seconds=2.0)
        assert time.monotonic() - started < 2.0
        assert info.value.status == 429
        assert info.value.retry_after >= 1

    def test_exhausted_budget_raises_before_any_attempt(self, client, bundle):
        with pytest.raises(DeadlineExhausted):
            client.analyze_raw(bundle, deadline_seconds=0.0)


class TestRetryAfterRegression:
    """Every 429/503 rejection path must carry Retry-After >= 1."""

    def test_pool_saturation(self):
        pool = WorkerPool(workers=1, queue_size=1, aging_seconds=60.0)
        try:
            release = threading.Event()
            entered = threading.Event()
            pool.submit(lambda: (entered.set(), release.wait(10.0)))
            assert entered.wait(5.0)
            pool.submit(lambda: None)  # fills the queue
            with pytest.raises(PoolSaturated) as info:
                pool.submit(lambda: None)
            assert info.value.retry_after >= 1
            release.set()
        finally:
            pool.shutdown()

    def test_quota_exhaustion(self):
        quotas = ClientQuotas(rate=100.0, burst=1, clock=lambda: 0.0)
        quotas.check("c")
        with pytest.raises(QuotaExceeded) as info:
            quotas.check("c")
        assert info.value.retry_after >= 1

    def test_brownout_shed_floor(self):
        assert BrownoutShed("shed", retry_after=0).retry_after >= 1
        assert QuotaExceeded("over", retry_after=-3).retry_after >= 1

    def test_draining_shed_floor(self):
        from repro.serve.app import ServiceUnavailable

        assert ServiceUnavailable("draining", retry_after=0).retry_after >= 1
