"""Durable exploration jobs: lifecycle, cancellation, and recovery."""

import json

import pytest

from repro.dse.checkpoint import latest_snapshot_generation
from repro.serve.encoding import bundle_to_payload, parse_explore_request
from repro.serve.jobs import Job, JobStore


def _explore_params(bundle, **overrides):
    body = {"system": bundle_to_payload(bundle)}
    body.update(overrides)
    return parse_explore_request(body)


@pytest.fixture
def store(tmp_path):
    instance = JobStore(tmp_path / "state", workers=1)
    yield instance
    instance.shutdown()


class TestLifecycle:
    def test_job_runs_to_done(self, store, bundle):
        job = store.create(
            _explore_params(bundle, generations=2, population=4)
        )
        assert store.wait_idle(timeout=120.0)
        record = store.get(job.id)
        assert record.status == "done"
        assert record.result["kind"] == "exploration"
        assert record.result["generations_run"] == 2
        # The final record write races wait_idle's in-memory view; give
        # persistence a moment.
        import time

        deadline = time.monotonic() + 5.0
        while True:
            on_disk = json.loads(
                (store.job_dir(job.id) / "job.json").read_text()
            )
            if on_disk["status"] == "done" or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        assert on_disk["status"] == "done"

    def test_unknown_job_is_none(self, store):
        assert store.get("job-missing") is None
        assert store.cancel("job-missing") is None

    def test_counts_track_states(self, store, bundle):
        store.create(_explore_params(bundle, generations=1, population=4))
        assert store.wait_idle(timeout=120.0)
        assert store.counts()["done"] == 1

    def test_checkpoints_are_written(self, store, bundle):
        job = store.create(
            _explore_params(bundle, generations=4, population=4,
                            checkpoint_every=2)
        )
        assert store.wait_idle(timeout=120.0)
        generation = latest_snapshot_generation(store.checkpoint_dir(job.id))
        assert generation is not None and generation >= 2

    def test_poll_between_take_and_claim_keeps_runner_record(
        self, store, bundle, monkeypatch
    ):
        # A poll landing after the runner took the job from its queue but
        # before it claimed it must not swap in a disk copy: the runner
        # runs the object it took, so a swapped-in copy stays 'pending'.
        claim = store._try_claim
        polled = []

        def poll_then_claim(job_id):
            polled.append(store.get(job_id).status)
            return claim(job_id)

        monkeypatch.setattr(store, "_try_claim", poll_then_claim)
        job = store.create(
            _explore_params(bundle, generations=2, population=4)
        )
        assert store.wait_idle(timeout=30.0)
        assert polled == ["pending"]
        assert store.get(job.id).status == "done"


class TestCancellation:
    def test_pending_job_cancels_immediately(self, store, bundle):
        # Occupy the single runner, then cancel the queued job.
        busy = store.create(
            _explore_params(bundle, generations=60, population=8)
        )
        queued = store.create(
            _explore_params(bundle, generations=5, population=4)
        )
        cancelled = store.cancel(queued.id)
        assert cancelled.status in ("pending", "cancelled")
        store.cancel(busy.id)  # release the runner quickly
        assert store.wait_idle(timeout=120.0)
        assert store.get(queued.id).status == "cancelled"
        assert store.get(queued.id).result is None

    def test_running_job_cancels_cooperatively(self, store, bundle):
        job = store.create(
            _explore_params(bundle, generations=500, population=8)
        )
        import time

        deadline = time.monotonic() + 60.0
        while store.get(job.id).status == "pending":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        store.cancel(job.id)
        assert store.wait_idle(timeout=120.0)
        record = store.get(job.id)
        assert record.status == "cancelled"
        # Partial result with whatever generations completed.
        assert record.result is not None
        assert record.result["generations_run"] < 500


class TestRecovery:
    def test_unfinished_jobs_requeue_and_finish(self, tmp_path, bundle):
        state = tmp_path / "state"
        params = _explore_params(
            bundle, generations=2, population=4, checkpoint_every=1
        )
        # Forge the on-disk remains of a server killed mid-run: a job
        # record still marked running.
        job = Job(id="job-forged00001", params=params, status="running")
        job_dir = state / job.id
        job_dir.mkdir(parents=True)
        (job_dir / "job.json").write_text(json.dumps(job.to_dict()))
        store = JobStore(state, workers=1)
        try:
            requeued = store.recover()
            assert requeued == [job.id]
            record = store.get(job.id)
            assert record.restarts == 1
            assert store.wait_idle(timeout=120.0)
            assert store.get(job.id).status == "done"
        finally:
            store.shutdown()

    def test_finished_jobs_are_served_not_rerun(self, tmp_path, bundle):
        state = tmp_path / "state"
        params = _explore_params(bundle, generations=1, population=4)
        job = Job(
            id="job-forged00002",
            params=params,
            status="done",
            result={"kind": "exploration"},
        )
        job_dir = state / job.id
        job_dir.mkdir(parents=True)
        (job_dir / "job.json").write_text(json.dumps(job.to_dict()))
        store = JobStore(state, workers=1)
        try:
            assert store.recover() == []
            assert store.get(job.id).status == "done"
        finally:
            store.shutdown()

    def test_corrupt_record_is_skipped(self, tmp_path):
        state = tmp_path / "state"
        bad = state / "job-corrupt"
        bad.mkdir(parents=True)
        (bad / "job.json").write_text("{not json")
        store = JobStore(state, workers=1)
        try:
            assert store.recover() == []
            assert store.get("job-corrupt") is None
        finally:
            store.shutdown()


class TestSnapshotScan:
    def test_latest_generation(self, tmp_path):
        assert latest_snapshot_generation(tmp_path / "nope") is None
        (tmp_path / "checkpoint-00000002.json").write_text("{}")
        (tmp_path / "checkpoint-00000010.json").write_text("{}")
        (tmp_path / "checkpoint-garbage.json").write_text("{}")
        assert latest_snapshot_generation(tmp_path) == 10
