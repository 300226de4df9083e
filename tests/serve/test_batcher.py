"""In-flight dedup on the worker pool's own items.

Deterministic via a plugged single-worker pool (the module keeps its
name so the test ids stay stable).
"""

import sys
import threading
import time
from collections import Counter

import pytest

from repro.obs.metrics import metrics
from repro.serve.pool import DeadlineExceeded, PoolSaturated, WorkerPool


@pytest.fixture
def pool():
    instance = WorkerPool(workers=1, queue_size=8)
    yield instance
    instance.shutdown()


def _plug(pool):
    """Block the single worker so queued items cannot start resolving."""
    release = threading.Event()
    entered = threading.Event()

    def blocker():
        entered.set()
        release.wait(10.0)

    pool.submit(blocker)
    assert entered.wait(5.0)
    return release


def _counter(name):
    return metrics().counter(name).value


def _wait_keys_empty(pool, timeout=2.0):
    deadline = time.monotonic() + timeout
    while pool._keys and time.monotonic() < deadline:
        time.sleep(0.01)
    return not pool._keys


class TestDedup:
    def test_identical_requests_share_one_run(self, pool):
        release = _plug(pool)
        runs = []
        hits_before = _counter("serve.dedup.hits")
        items = [
            pool.submit(lambda: runs.append(1) or "body", key="same-key")
            for _ in range(6)
        ]
        release.set()
        results = [item.result(5.0) for item in items]
        # One computation, one shared value, exactly N-1 dedup hits.
        assert runs == [1]
        assert results == ["body"] * 6
        assert len({id(i) for i in items}) == 1
        assert items[0].waiters == 6
        assert _counter("serve.dedup.hits") - hits_before == 5
        assert _wait_keys_empty(pool)

    def test_distinct_keys_do_not_share(self, pool):
        release = _plug(pool)
        items = [
            pool.submit(lambda i=i: i, key=f"key-{i}") for i in range(3)
        ]
        release.set()
        assert [i.result(5.0) for i in items] == [0, 1, 2]
        assert len({id(i) for i in items}) == 3

    def test_concurrent_submitters_never_lose_a_waiter(self):
        """More submitting threads than cores hammer a few keys: every
        submission is either a fresh run or a counted waiter, every
        waiter gets its key's value, and no key outlives its item."""
        pool = WorkerPool(workers=4, queue_size=1024)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        runs = Counter()
        runs_lock = threading.Lock()
        seen = []

        def work(key):
            with runs_lock:
                runs[key] += 1
            time.sleep(0.001)
            return key

        def submitter(index):
            for round_ in range(40):
                key = f"k{(index + round_) % 5}"
                item = pool.submit(lambda key=key: work(key), key=key)
                seen.append((key, item))

        threads = [
            threading.Thread(target=submitter, args=(i,)) for i in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            for key, item in seen:
                assert item.result(10.0) == key
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        items = {id(item): item for _, item in seen}
        assert sum(item.waiters for item in items.values()) == len(seen)
        assert sum(runs.values()) == len(items)
        assert not pool._keys


class TestBatching:
    def test_error_reaches_every_waiter(self, pool):
        release = _plug(pool)

        def boom():
            raise ValueError("bad input")

        items = [pool.submit(boom, key="err-key") for _ in range(3)]
        release.set()
        for item in items:
            with pytest.raises(ValueError, match="bad input"):
                item.result(5.0)
        assert _wait_keys_empty(pool)


class TestDeadlines:
    def test_queued_expiry_fails_waiters_and_releases_key(self, pool):
        release = _plug(pool)
        runs = []
        item = pool.submit(
            lambda: runs.append(1) or "late",
            key="dl-key",
            deadline_seconds=0.01,
        )
        time.sleep(0.05)  # the deadline elapses while the item is queued
        release.set()
        with pytest.raises(DeadlineExceeded):
            item.result(5.0)
        assert runs == []
        # The key is not poisoned: an identical later request gets a
        # fresh item and computes, instead of attaching to a zombie.
        again = pool.submit(lambda: "fresh", key="dl-key")
        assert again is not item
        assert again.result(5.0) == "fresh"
        assert _wait_keys_empty(pool)

    def test_dedup_widens_deadline(self, pool):
        release = _plug(pool)
        first = pool.submit(lambda: "v", key="widen", deadline_seconds=0.01)
        second = pool.submit(lambda: "v", key="widen")
        assert second is first
        assert first.deadline is None
        time.sleep(0.05)
        release.set()
        # The attached no-deadline waiter widened the item deadline, so
        # the computation still runs for it.
        assert first.result(5.0) == "v"

    def test_dedup_never_tightens_deadline(self, pool):
        release = _plug(pool)
        first = pool.submit(lambda: "v", key="keep", deadline_seconds=30.0)
        loose = first.deadline
        again = pool.submit(lambda: "v", key="keep", deadline_seconds=0.01)
        assert again is first
        assert first.deadline == loose
        release.set()
        assert first.result(5.0) == "v"


class TestRejection:
    def test_pool_saturation_propagates_to_waiters(self):
        pool = WorkerPool(workers=1, queue_size=1)
        release = _plug(pool)
        try:
            pool.submit(lambda: None)  # fill the queue: next submit rejects
            with pytest.raises(PoolSaturated) as info:
                pool.submit(lambda: "never", key="rejected")
            assert info.value.retry_after >= 1
            # A rejected submission never registers its key.
            assert "rejected" not in pool._keys
        finally:
            release.set()
            pool.shutdown()
