"""Bounded worker pool with strict-priority admission and deadlines.

The service must degrade predictably under overload, not queue without
bound: admission happens against a fixed-capacity queue, and a full
queue rejects immediately with a ``Retry-After`` estimate instead of
letting latency grow unobserved (the standard load-shedding contract of
an analysis back-end serving many exploration clients).

The queue is **strict-priority** (mirroring the paper's criticality
classes): level 0 (critical) is always picked before level 1
(standard) before level 2 (best-effort) — so a critical request's wait
is bounded by the critical backlog alone, not the total backlog.  An
**aging floor** keeps lower levels live under bounded load: an item
that has waited longer than ``aging_seconds`` is served ahead of
younger higher-priority items, so best-effort work cannot starve
forever as long as the queue is not permanently saturated with
critical work.

**In-flight dedup** happens on the queue's own items: a submission
whose ``key`` (the request's canonical digest,
:func:`repro.serve.encoding.request_digest`) matches a queued or running
item *attaches* to it instead of computing again, so every waiter gets
the same response bytes (``serve.dedup.hits``).  Attaching only widens
the item's deadline and only raises its urgency: a more critical waiter
moves a still-queued item up to its level (``serve.dedup.promoted``).

Deadlines are enforced at the *pickup* boundary: a request whose
deadline elapsed while it sat in the queue fails with
:class:`DeadlineExceeded` without burning a worker on an answer nobody
is waiting for.  Python threads cannot preempt a running analysis, so a
deadline that expires mid-run is recorded (``serve.deadline_overruns``)
rather than aborted; explore jobs get cooperative cancellation at
generation boundaries instead (see :mod:`repro.serve.jobs`).
"""

import math
import queue
import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import span as trace_span

_LOG = get_logger("serve")

__all__ = [
    "WorkerPool",
    "WorkItem",
    "PoolSaturated",
    "DeadlineExceeded",
    "PRIORITY_LEVELS",
    "DEFAULT_PRIORITY",
]

#: Number of strict-priority levels (mirrors the criticality classes:
#: 0 = critical, 1 = standard, 2 = best-effort).
PRIORITY_LEVELS = 3
DEFAULT_PRIORITY = 1


class PoolSaturated(ReproError):
    """The admission queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: int):
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceeded(ReproError):
    """The request's deadline elapsed before a worker could serve it."""


class WorkItem:
    """One admitted unit of work plus every request waiting on it."""

    __slots__ = (
        "_fn", "deadline", "_event", "_value", "_error", "enqueued",
        "priority", "key", "waiters", "_pool",
    )

    def __init__(
        self,
        fn: Callable[[], Any],
        deadline: Optional[float],
        priority: int = DEFAULT_PRIORITY,
        key: Optional[str] = None,
        pool: Optional["WorkerPool"] = None,
    ):
        self._fn = fn
        #: Absolute monotonic deadline after which running the item is
        #: pointless — the *loosest* over all attached waiters (``None``
        #: if any waiter set none), so dedup never tightens what an
        #: individual request asked for.
        self.deadline = deadline
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None
        self.enqueued = time.monotonic()
        #: Strict queue level (0 is picked first) — the *most urgent*
        #: over all attached waiters.
        self.priority = priority
        #: Dedup key (``None``: never shared).
        self.key = key
        #: Number of requests sharing this item (1 = no dedup).
        self.waiters = 1
        self._pool = pool

    def _resolve(self, value: Any = None, error: Optional[BaseException] = None):
        self._value = value
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        """Whether the item has resolved (value or error)."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block for the outcome; re-raises the work function's error."""
        if not self._event.wait(timeout):
            raise DeadlineExceeded("timed out waiting for the worker pool")
        if self._error is not None:
            raise self._error
        return self._value

    def _expired(self) -> bool:
        """Whether the deadline elapsed; an expired item frees its key.

        Checked under the pool's dedup lock, so a waiter cannot attach
        (and widen the deadline) between the check and the release — and
        an identical later request starts a fresh item instead of
        attaching to this one.
        """
        pool = self._pool
        with pool._lock if pool is not None else nullcontext():
            if self.deadline is None or time.monotonic() <= self.deadline:
                return False
            if pool is not None:
                pool._forget(self)
            return True

    def _run(self) -> None:
        registry = metrics()
        if self._expired():
            registry.counter("serve.deadline_expired").inc()
            self._resolve(error=DeadlineExceeded(
                "deadline elapsed while queued"
            ))
            return
        started = time.monotonic()
        # A root span on the worker thread: request work re-roots itself
        # onto its own trace, so this records pool mechanics (queue wait,
        # work wall time), not request semantics.
        with trace_span(
            "serve.pool_work",
            queue_seconds=round(started - self.enqueued, 6),
            priority=self.priority,
        ):
            try:
                value = self._fn()
            except BaseException as error:  # noqa: BLE001 — resolved, not lost
                self._resolve(error=error)
            else:
                self._resolve(value=value)
        if (
            self.deadline is not None
            and time.monotonic() > self.deadline
        ):
            registry.counter("serve.deadline_overruns").inc()
        registry.timer("serve.work_seconds").observe(
            time.monotonic() - started
        )


class _PriorityQueue:
    """Bounded strict-priority levels with an aging floor.

    ``get`` normally serves the lowest non-empty level index; an item
    whose wait exceeds ``aging_seconds`` jumps the strict order — among
    aged heads, the oldest wins — so starvation is bounded by the aging
    floor whenever higher-priority load leaves any pickup slots at all.
    Shutdown sentinels (``None``) are delivered only once every level is
    empty, so pending work drains before the workers exit.
    """

    def __init__(self, maxsize: int, aging_seconds: float):
        self.maxsize = maxsize
        self.aging_seconds = aging_seconds
        self._levels: List[deque] = [deque() for _ in range(PRIORITY_LEVELS)]
        self._sentinels = 0
        self._size = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    def put_nowait(self, item: Optional[WorkItem]) -> None:
        with self._not_empty:
            if item is None:
                self._sentinels += 1
            else:
                if self._size >= self.maxsize:
                    raise queue.Full
                priority = getattr(item, "priority", DEFAULT_PRIORITY)
                level = min(max(priority, 0), PRIORITY_LEVELS - 1)
                self._levels[level].append(item)
                self._size += 1
            self._not_empty.notify()

    def put(self, item: Optional[WorkItem], block: bool = True,
            timeout: Optional[float] = None) -> None:
        """`queue.Queue`-shaped alias (tests inject items directly)."""
        self.put_nowait(item)

    def promote(self, item: WorkItem, level: int) -> bool:
        """Move a still-queued ``item`` up to ``level``.

        Returns ``False`` when a worker already picked the item up.  The
        item keeps its enqueue time, so the aging floor still sees its
        full wait.
        """
        with self._lock:
            try:
                self._levels[item.priority].remove(item)
            except ValueError:
                return False
            item.priority = level
            self._levels[level].append(item)
            return True

    def _pick(self) -> Optional[WorkItem]:
        """The next item under strict priority + aging (lock held)."""
        now = time.monotonic()
        aged: Optional[WorkItem] = None
        aged_level = -1
        for level, items in enumerate(self._levels):
            if not items:
                continue
            head = items[0]
            if (
                now - head.enqueued > self.aging_seconds
                and (aged is None or head.enqueued < aged.enqueued)
            ):
                aged, aged_level = head, level
        if aged is not None:
            self._levels[aged_level].popleft()
            if aged_level > 0:
                metrics().counter("serve.pool.aged_promotions").inc()
            self._size -= 1
            return aged
        for items in self._levels:
            if items:
                self._size -= 1
                return items.popleft()
        return None

    def get(self) -> Optional[WorkItem]:
        """Block for the next item; ``None`` means shut down."""
        with self._not_empty:
            while True:
                if self._size:
                    item = self._pick()
                    if item is not None:
                        return item
                if self._sentinels:
                    self._sentinels -= 1
                    return None
                self._not_empty.wait()

    def qsize(self) -> int:
        with self._lock:
            return self._size

    def depths(self) -> List[int]:
        with self._lock:
            return [len(items) for items in self._levels]


class WorkerPool:
    """Fixed worker threads draining a bounded strict-priority queue."""

    def __init__(
        self,
        workers: int = 4,
        queue_size: int = 64,
        aging_seconds: float = 5.0,
    ):
        if workers < 1:
            raise ReproError("pool workers must be >= 1")
        if queue_size < 1:
            raise ReproError("pool queue size must be >= 1")
        if aging_seconds <= 0:
            raise ReproError("pool aging floor must be positive")
        self._queue = _PriorityQueue(queue_size, aging_seconds)
        self._workers = workers
        self._closed = False
        #: Dedup table: key -> the queued or running item it names.
        #: Guards attaching and every key release (taken before the
        #: queue's own lock, never after it).
        self._lock = threading.Lock()
        self._keys: Dict[str, WorkItem] = {}
        # EWMAs feeding the Retry-After estimate and the brownout
        # controller's queue-delay signal.
        self._ewma_seconds = 0.05
        self._queue_delay_ewma = 0.0
        self._ewma_lock = threading.Lock()
        self._threads: List[threading.Thread] = [
            threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"serve-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def queue_depth(self) -> int:
        """Items currently admitted but not picked up."""
        return self._queue.qsize()

    def class_depths(self) -> Dict[int, int]:
        """Queued items per priority level (0 = critical)."""
        return dict(enumerate(self._queue.depths()))

    def retry_after(self) -> int:
        """Whole seconds a rejected client should wait before retrying."""
        with self._ewma_lock:
            ewma = self._ewma_seconds
        backlog = self._queue.qsize()
        return max(1, int(math.ceil(ewma * (backlog + 1) / self._workers)))

    def estimated_delay(self) -> float:
        """Estimated queue delay in seconds (the brownout signal).

        Combines the EWMA of observed pickup waits with a backlog
        forecast (``depth * work / workers``): the forecast reacts
        immediately when the queue grows while every worker is pinned —
        exactly when pickup observations go stale.
        """
        with self._ewma_lock:
            observed = self._queue_delay_ewma
            work = self._ewma_seconds
        forecast = self._queue.qsize() * work / self._workers
        return max(observed, forecast)

    def submit(
        self,
        fn: Callable[[], Any],
        *,
        key: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> WorkItem:
        """Admit ``fn``; raises :class:`PoolSaturated` when the queue is full.

        A ``key`` that matches a queued or running item attaches to that
        item instead: one run, one shared value for every waiter.
        """
        if self._closed:
            raise ReproError("worker pool is shut down")
        deadline = (
            time.monotonic() + deadline_seconds
            if deadline_seconds is not None
            else None
        )
        priority = min(max(priority, 0), PRIORITY_LEVELS - 1)
        with self._lock:
            item = self._keys.get(key) if key is not None else None
            if item is not None:
                depths_changed = self._attach(item, deadline, priority)
            else:
                depths_changed = True
                item = WorkItem(fn, deadline, priority, key=key, pool=self)
                try:
                    self._queue.put_nowait(item)
                except queue.Full:
                    item = None
                else:
                    if key is not None:
                        self._keys[key] = item
        if item is None:
            metrics().counter("serve.rejected").inc()
            retry = self.retry_after()
            _LOG.warning(
                "admission queue full %s",
                kv(depth=self._queue.qsize(), retry_after=retry),
            )
            raise PoolSaturated(
                f"admission queue full ({self._queue.maxsize} pending)",
                retry_after=retry,
            )
        if depths_changed:
            self._record_depths()
        return item

    def _attach(
        self, item: WorkItem, deadline: Optional[float], priority: int
    ) -> bool:
        """One more waiter on ``item`` (lock held); whether it moved up.

        The deadline widens to the loosest waiter's (``None`` wins); a
        more urgent waiter moves a still-queued item to its level.
        """
        registry = metrics()
        registry.counter("serve.dedup.hits").inc()
        item.waiters += 1
        if item.deadline is not None:
            item.deadline = (
                None if deadline is None else max(item.deadline, deadline)
            )
        if priority < item.priority and self._queue.promote(item, priority):
            registry.counter("serve.dedup.promoted").inc()
            return True
        return False

    def _forget(self, item: WorkItem) -> None:
        """Unregister ``item``'s key (lock held) so new submissions start
        a fresh item."""
        if item.key is not None and self._keys.get(item.key) is item:
            del self._keys[item.key]

    def _release(self, item: WorkItem) -> None:
        """Free ``item``'s key after a pickup; fail it if it never resolved.

        :meth:`WorkItem._run` contains the work function's failures, so
        an item still unresolved here means the worker thread itself is
        dying (infrastructure error, injected kill).  Its waiters get a
        typed error instead of a hang, and the key is not left poisoned
        for future identical requests.
        """
        with self._lock:
            self._forget(item)
        if not item.done:
            metrics().counter("serve.pool.orphaned").inc()
            item._resolve(error=ReproError("pool worker died mid-request"))

    def _record_depths(self) -> None:
        registry = metrics()
        depths = self._queue.depths()
        registry.gauge("serve.queue_depth").set(sum(depths))
        for level, depth in enumerate(depths):
            registry.gauge(f"serve.queue_depth.p{level}").set(depth)

    def _worker_loop(self, index: int) -> None:
        """Self-healing wrapper: a worker that dies is brought back.

        :meth:`WorkItem._run` already contains item failures, so an
        escape here means infrastructure trouble (telemetry failure,
        ``MemoryError``, a poisoned item).  Losing the thread would
        silently shrink the pool until nothing drains the queue, so the
        loop logs, counts, and resumes instead.
        """
        while True:
            try:
                self._worker()
                return  # sentinel: clean shutdown
            except BaseException as error:  # noqa: BLE001 — must survive
                if self._closed:
                    return
                metrics().counter("serve.pool.worker_respawns").inc()
                _LOG.warning(
                    "pool worker died, resuming %s",
                    kv(worker=index, error=f"{type(error).__name__}: {error}"),
                )

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            self._record_depths()
            queued = time.monotonic() - item.enqueued
            metrics().timer("serve.queue_seconds").observe(queued)
            started = time.monotonic()
            try:
                item._run()
            finally:
                self._release(item)
            elapsed = time.monotonic() - started
            with self._ewma_lock:
                self._ewma_seconds += 0.2 * (elapsed - self._ewma_seconds)
                self._queue_delay_ewma += 0.2 * (
                    queued - self._queue_delay_ewma
                )

    def shutdown(self) -> None:
        """Stop accepting work and let the workers drain and exit."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put_nowait(None)
        for thread in self._threads:
            thread.join(timeout=5.0)
