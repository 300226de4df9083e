"""Fast-path machinery for Algorithm 1: memoization, warm starts, pruning.

Algorithm 1 runs one ``sched()`` back-end invocation per normal-to-
critical transition, and the DSE loop evaluates thousands of design
points, each repeating the full enumeration.  Three observations make
most of that work redundant:

1. **Memoization** — many transitions induce *identical* ``[bcet, wcet]``
   interval sets (e.g. re-executable triggers whose windows classify the
   rest of the system the same way), and GA candidates frequently decode
   to job sets already analyzed for an earlier candidate.  A bounded LRU
   keyed on the canonical :meth:`~repro.sched.jobs.JobSet.fingerprint`
   returns the cached :class:`~repro.sched.wcrt.ScheduleBounds` verbatim:
   equal fingerprints mean the back-end would see byte-identical input.

2. **Warm starts** — the holistic back-end's fixed point converges to the
   *least* fixed point from any start below it.  The normal-state
   solution is such a start for every transition run whose per-task WCETs
   dominate it (transitions only widen execution bounds), so per-
   transition iterations begin near their answer instead of from zero.
   :class:`~repro.sched.holistic.HolisticAnalysisBackend` owns the
   soundness check; this module only threads the seed through.

3. **Pruning** — a transition whose per-job bound intervals are all
   *contained* in those of an already-analyzed transition cannot yield a
   larger WCRT under any back-end that is monotone in (wcet up, bcet
   down) — which both the window and holistic back-ends are.  Skipping it
   changes no reported bound, verdict, or worst-transition label.

All three are **opt-in**: :class:`MixedCriticalityAnalysis` takes
``fast_path=None`` by default and behaves exactly as before.  The DSE
evaluator opts in via :meth:`FastPathConfig.for_dse`.
"""

import threading
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.errors import AnalysisError
from repro.sched.jobs import JobSet
from repro.sched.wcrt import ScheduleBounds

__all__ = [
    "FastPathConfig",
    "ScheduleCache",
    "TransitionPruner",
    "configure_shared_cache",
    "shared_cache",
]


class ScheduleCache:
    """A bounded, thread-safe LRU of ``fingerprint -> ScheduleBounds``.

    One :class:`~repro.core.evaluator.Evaluator` (and hence one cache) is
    shared by every worker thread of a parallel
    :class:`~repro.dse.ga.Explorer`, so get/put take a lock.  Entries are
    immutable analysis results; returning a shared instance is safe.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise AnalysisError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, ScheduleBounds]" = OrderedDict()
        #: Lifetime hit/miss tallies (also mirrored into the metrics
        #: registry by the analysis layer).
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained results."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, key: str, jobset: Optional[JobSet] = None
    ) -> Optional[ScheduleBounds]:
        """The cached bounds for ``key``, refreshing its LRU position.

        ``jobset`` is the caller's job set for ``key``.  The in-memory
        tier ignores it (entries already carry a job set with the same
        fingerprint), but tiers that rehydrate bounds from storage — see
        :class:`repro.serve.cachestore.TieredScheduleCache` — need it to
        rebind the deserialized arrays onto live jobs.
        """
        with self._lock:
            bounds = self._entries.get(key)
            if bounds is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return bounds

    def put(self, key: str, bounds: ScheduleBounds) -> None:
        """Insert ``key``, evicting the least-recently-used entry."""
        with self._lock:
            self._entries[key] = bounds
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (tallies are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Lifetime tallies plus current occupancy, as a plain dict."""
        with self._lock:
            hits = self.hits
            misses = self.misses
            size = len(self._entries)
        requests = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "size": size,
            "capacity": self._capacity,
            "hit_rate": hits / requests if requests else 0.0,
        }


class TransitionPruner:
    """Skips transitions dominated by an already-analyzed one.

    Transition *B* is dominated by analyzed transition *A* when, for
    every job, *A*'s effective ``[bcet, wcet]`` interval contains *B*'s.
    For a back-end monotone in (wcet up, bcet down), *A*'s per-job
    ``max_finish`` then dominates *B*'s pointwise, so *B* can never raise
    a graph WCRT, a task-completion bound, or become a worst-transition
    label after *A* has been folded in.  Domination is only checked
    against transitions analyzed *earlier in the same run*, which
    preserves the fold order of Algorithm 1's outer loop exactly.

    Transitions are given as full per-job ``(bcet, wcet)`` arrays (see
    :meth:`~repro.sched.jobs.JobSet.with_bound_arrays`); the recorded
    ones are rows of two matrices, so a check is two vector comparisons.
    """

    def __init__(self, base: JobSet):
        self._width = len(base)
        self._rows = 0
        self._bcet = np.empty((0, self._width))
        self._wcet = np.empty((0, self._width))

    def is_dominated(self, bcet: np.ndarray, wcet: np.ndarray) -> bool:
        """Whether an analyzed transition's intervals cover ``bcet``/``wcet``."""
        rows = self._rows
        if not rows:
            return False
        covers = (self._bcet[:rows] <= bcet).all(axis=1) & (
            self._wcet[:rows] >= wcet
        ).all(axis=1)
        return bool(covers.any())

    def record(self, bcet: np.ndarray, wcet: np.ndarray) -> None:
        """Register an analyzed transition as a future dominator."""
        if self._rows == len(self._bcet):
            capacity = max(8, 2 * self._rows)
            self._bcet = np.resize(self._bcet, (capacity, self._width))
            self._wcet = np.resize(self._wcet, (capacity, self._width))
        self._bcet[self._rows] = bcet
        self._wcet[self._rows] = wcet
        self._rows += 1


class FastPathConfig:
    """Switchboard for the Algorithm-1 fast path.

    Parameters
    ----------
    memoize:
        Reuse :class:`~repro.sched.wcrt.ScheduleBounds` across ``sched()``
        calls whose job sets have equal canonical fingerprints.
    cache_size:
        LRU capacity for the memoization cache.
    warm_start:
        Seed per-transition fixed points with the normal-state solution
        on back-ends advertising ``supports_warm_start``.
    prune:
        Skip transitions dominated by an already-analyzed one.  Off by
        default because it shrinks ``MCAnalysisResult.transitions`` (the
        pruned count is reported in ``transitions_pruned``); results are
        otherwise identical.
    cache:
        An existing :class:`ScheduleCache` to use instead of creating a
        private one (``cache_size`` is then ignored).  This is how the
        serving layer shares one process-wide cache across requests.

    The cache object lives on the config, so sharing one config between
    analyses (as the DSE evaluator does across GA candidates) shares the
    memoized results.
    """

    def __init__(
        self,
        memoize: bool = True,
        cache_size: int = 256,
        warm_start: bool = True,
        prune: bool = False,
        cache: Optional[ScheduleCache] = None,
    ):
        self.memoize = memoize
        self.warm_start = warm_start
        self.prune = prune
        self.cache = cache if cache is not None else ScheduleCache(cache_size)

    @classmethod
    def for_dse(cls, cache_size: int = 1024) -> "FastPathConfig":
        """The profile used by the DSE inner loop: everything on.

        Pruning is safe there because the evaluator consumes only
        aggregate WCRTs and verdicts, never the per-transition listing.
        """
        return cls(memoize=True, cache_size=cache_size, warm_start=True, prune=True)

    @classmethod
    def shared(cls) -> "FastPathConfig":
        """The profile used by the serving layer: memoization + warm
        starts against the process-wide :func:`shared_cache`.

        Pruning stays off so results (including the per-transition
        listing) are byte-identical to a cold analysis.
        """
        return cls(memoize=True, warm_start=True, prune=False, cache=shared_cache())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FastPathConfig(memoize={self.memoize}, "
            f"cache_size={self.cache.capacity}, "
            f"warm_start={self.warm_start}, prune={self.prune})"
        )


#: Default capacity of the process-wide cache (first-use creation only).
SHARED_CACHE_CAPACITY = 4096

_shared_lock = threading.Lock()
_shared: Optional[ScheduleCache] = None


def shared_cache(capacity: Optional[int] = None) -> ScheduleCache:
    """The process-wide :class:`ScheduleCache` (created on first use).

    Every caller gets the same instance, so a long-lived process (the
    ``repro serve`` service) amortizes ``sched()`` runs across requests:
    any two analyses whose job sets share a canonical
    :meth:`~repro.sched.jobs.JobSet.fingerprint` reuse one back-end run
    no matter which request computed it first.  ``capacity`` only takes
    effect on the call that creates the cache.
    """
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = ScheduleCache(
                SHARED_CACHE_CAPACITY if capacity is None else capacity
            )
        return _shared


def configure_shared_cache(cache: Optional[ScheduleCache]) -> ScheduleCache:
    """Install ``cache`` as the process-wide cache and return it.

    The serving layer calls this at startup to replace the default
    in-memory LRU with a disk-backed
    :class:`~repro.serve.cachestore.TieredScheduleCache`, so every
    :meth:`FastPathConfig.shared` analysis in the process shares warm
    state across restarts and sibling worker processes.  Passing ``None``
    installs a fresh default in-memory cache (used by tests to restore
    isolation).
    """
    global _shared
    with _shared_lock:
        _shared = cache if cache is not None else ScheduleCache(
            SHARED_CACHE_CAPACITY
        )
        return _shared
