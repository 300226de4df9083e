"""Crash-recovery races and worker-death containment (S3).

Three fault surfaces the chaos campaign exercises statistically are
pinned down deterministically here: ``recover()`` racing live traffic,
a pool worker dying on infrastructure errors, and a pool worker dying
mid-request with dedup waiters attached.
"""

import json
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ReproError
from repro.obs.metrics import metrics
from repro.serve.encoding import bundle_to_payload, parse_explore_request
from repro.serve.jobs import Job, JobStore
from repro.serve.pool import WorkItem, WorkerPool


def _explore_params(bundle, **overrides):
    body = {"system": bundle_to_payload(bundle)}
    body.update(overrides)
    return parse_explore_request(body)


def _seed_record(root, job_id, params, status="pending"):
    """A job record as left behind by a process that died."""
    job = Job(id=job_id, params=params, status=status, created=time.time())
    path = root / job_id / "job.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(job.to_dict(with_result=True), sort_keys=True))
    return job_id


class TestRecoveryRaces:
    def test_recover_races_new_submissions_without_double_runs(
        self, tmp_path, bundle
    ):
        params = _explore_params(bundle, generations=2, population=4)
        seeded = [
            _seed_record(tmp_path, f"job-seed{i}", params) for i in range(3)
        ]
        store = JobStore(tmp_path, workers=2)
        try:
            barrier = threading.Barrier(3)
            requeued = [[], []]
            created = []

            def do_recover(index):
                barrier.wait(timeout=10.0)
                requeued[index].extend(store.recover())

            def do_create():
                barrier.wait(timeout=10.0)
                for _ in range(2):
                    created.append(store.create(params).id)

            threads = [
                threading.Thread(target=do_recover, args=(0,)),
                threading.Thread(target=do_recover, args=(1,)),
                threading.Thread(target=do_create),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)

            # Every seeded record requeued exactly once across both
            # concurrent recover() calls; fresh submissions untouched.
            combined = sorted(requeued[0] + requeued[1])
            assert combined == sorted(seeded)
            assert store.wait_idle(timeout=180.0)
            for job_id in seeded:
                record = store.get(job_id)
                assert record.status == "done"
                assert record.restarts == 1
            for job_id in created:
                record = store.get(job_id)
                assert record.status == "done"
                assert record.restarts == 0
        finally:
            store.shutdown()

    def test_recover_leaves_jobs_claimed_by_live_sibling(
        self, tmp_path, bundle
    ):
        params = _explore_params(bundle, generations=2, population=4)
        job_id = _seed_record(tmp_path, "job-owned", params, status="running")
        claim = tmp_path / job_id / "claim"
        claim.write_text("1")  # pid 1 is always alive and never us
        store = JobStore(tmp_path, workers=1)
        try:
            assert store.recover() == []
            record = store.get(job_id)
            assert record is not None and record.status == "running"
            assert claim.exists(), "a live sibling's claim must survive"
        finally:
            store.shutdown()

    def test_recover_breaks_stale_claim_of_dead_owner(
        self, tmp_path, bundle
    ):
        params = _explore_params(bundle, generations=2, population=4)
        job_id = _seed_record(tmp_path, "job-stale", params, status="running")
        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait(timeout=30)
        (tmp_path / job_id / "claim").write_text(str(dead.pid))
        store = JobStore(tmp_path, workers=1)
        try:
            assert store.recover() == [job_id]
            assert store.wait_idle(timeout=120.0)
            record = store.get(job_id)
            assert record.status == "done"
            assert record.restarts == 1
        finally:
            store.shutdown()

    def test_idempotency_key_survives_restart(self, tmp_path, bundle):
        params = _explore_params(bundle, generations=1, population=4)
        first = JobStore(tmp_path, workers=1)
        try:
            job = first.create(params, idempotency_key="retry-me")
            assert first.wait_idle(timeout=120.0)
        finally:
            first.shutdown()
        second = JobStore(tmp_path, workers=1)
        try:
            second.recover()
            replays_before = metrics().counter(
                "serve.jobs.idempotent_replays"
            ).value
            replay = second.create(params, idempotency_key="retry-me")
            assert replay.id == job.id
            assert (
                metrics().counter("serve.jobs.idempotent_replays").value
                == replays_before + 1
            )
        finally:
            second.shutdown()


class TestPoolWorkerDeath:
    def test_worker_survives_infrastructure_error(self):
        class _Poisoned(WorkItem):
            # A WorkItem whose run blows up the worker thread itself.
            def __init__(self):
                super().__init__(lambda: None, None)

            def _run(self):
                raise MemoryError("injected infrastructure failure")

        pool = WorkerPool(workers=1, queue_size=8)
        try:
            respawns_before = metrics().counter(
                "serve.pool.worker_respawns"
            ).value
            pool._queue.put(_Poisoned())
            item = pool.submit(lambda: 42)
            assert item.result(timeout=30.0) == 42
            assert (
                metrics().counter("serve.pool.worker_respawns").value
                == respawns_before + 1
            )
        finally:
            pool.shutdown()


class TestBatchWorkerDeath:
    def test_dead_batch_worker_fails_waiters_without_poisoning_key(
        self, monkeypatch
    ):
        original_run = WorkItem._run
        armed = {"doomed": True}

        def exploding_run(self):
            if self.key == "doomed" and armed["doomed"]:
                armed["doomed"] = False
                raise MemoryError("injected pool-worker death")
            return original_run(self)

        monkeypatch.setattr(WorkItem, "_run", exploding_run)
        pool = WorkerPool(workers=1, queue_size=8)
        try:
            orphaned_before = metrics().counter("serve.pool.orphaned").value
            item = pool.submit(lambda: "never", key="doomed")
            with pytest.raises(ReproError, match="died mid-request"):
                item.result(timeout=30.0)
            assert (
                metrics().counter("serve.pool.orphaned").value
                == orphaned_before + 1
            )
            # The key must not stay registered as in-flight: the next
            # identical request gets a fresh item and a real answer.
            retry = pool.submit(lambda: "recovered", key="doomed")
            assert retry is not item
            assert retry.result(timeout=30.0) == "recovered"
        finally:
            pool.shutdown()
