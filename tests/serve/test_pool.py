"""Worker pool: results, backpressure, and queue-time deadlines."""

import threading

import pytest

from repro.errors import ReproError
from repro.serve.pool import DeadlineExceeded, PoolSaturated, WorkerPool


@pytest.fixture
def pool():
    instance = WorkerPool(workers=1, queue_size=2)
    yield instance
    instance.shutdown()


def _block_worker(pool):
    """Occupy the (single) worker until the returned event is set."""
    release = threading.Event()
    entered = threading.Event()

    def blocker():
        entered.set()
        release.wait(10.0)

    pool.submit(blocker)
    assert entered.wait(5.0)
    return release


class TestResults:
    def test_value_round_trip(self, pool):
        assert pool.submit(lambda: 21 * 2).result(5.0) == 42

    def test_error_propagates(self, pool):
        item = pool.submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            item.result(5.0)

    def test_shutdown_rejects_new_work(self):
        pool = WorkerPool(workers=1, queue_size=2)
        pool.shutdown()
        with pytest.raises(ReproError):
            pool.submit(lambda: None)


class TestBackpressure:
    def test_full_queue_raises_with_retry_after(self, pool):
        release = _block_worker(pool)
        try:
            for _ in range(2):  # fill the bounded queue
                pool.submit(lambda: None)
            with pytest.raises(PoolSaturated) as info:
                pool.submit(lambda: None)
            assert info.value.retry_after >= 1
        finally:
            release.set()

    def test_recovers_after_drain(self, pool):
        release = _block_worker(pool)
        pool.submit(lambda: None)
        release.set()
        assert pool.submit(lambda: "ok").result(5.0) == "ok"


class TestDeadlines:
    def test_expired_in_queue_fails_without_running(self, pool):
        release = _block_worker(pool)
        ran = threading.Event()
        item = pool.submit(ran.set, deadline_seconds=0.01)
        try:
            import time

            time.sleep(0.1)
        finally:
            release.set()
        with pytest.raises(DeadlineExceeded):
            item.result(5.0)
        assert not ran.is_set()

    def test_met_deadline_still_runs(self, pool):
        assert pool.submit(lambda: 7, deadline_seconds=30.0).result(5.0) == 7


class TestPromotion:
    def test_critical_waiter_promotes_queued_item(self):
        """A critical waiter attaching to a standard item queued behind
        another standard item moves it ahead of that item."""
        pool = WorkerPool(workers=1, queue_size=8, aging_seconds=60.0)
        try:
            release = _block_worker(pool)
            order = []
            first = pool.submit(lambda: order.append("first"), key="first")
            second = pool.submit(lambda: order.append("second"), key="second")
            attached = pool.submit(
                lambda: order.append("again"), key="second", priority=0
            )
            assert attached is second
            assert second.priority == 0
            assert pool.class_depths() == {0: 1, 1: 1, 2: 0}
            release.set()
            first.result(5.0)
            second.result(5.0)
            assert order == ["second", "first"]
        finally:
            pool.shutdown()

    def test_running_item_is_not_promoted(self, pool):
        release = _block_worker(pool)
        try:
            entered = threading.Event()
            gate = threading.Event()
            running = pool.submit(
                lambda: (entered.set(), gate.wait(5.0)), key="busy"
            )
            release.set()
            assert entered.wait(5.0)
            assert pool.submit(lambda: None, key="busy", priority=0) is running
            assert running.priority == 1  # already past queueing
        finally:
            release.set()
            gate.set()
