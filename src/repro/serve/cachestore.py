"""Disk-backed cross-process tier for the analysis ``ScheduleCache``.

The in-memory LRU of :mod:`repro.core.fastpath` dies with its process,
so a restarted worker re-runs every ``sched()`` fixed point from zero
and sibling pre-fork workers cannot share warm state.  This module adds
a second tier:

* :class:`DiskCacheStore` — one JSON file per cache entry under a
  shared directory, written atomically (temp file + ``os.replace``) so
  concurrent workers never observe torn records.  Keys are the canonical
  :meth:`~repro.sched.jobs.JobSet.fingerprint` sha256 digests, sharded
  by their first two hex characters to keep directories small.
* :class:`TieredScheduleCache` — a drop-in :class:`ScheduleCache` whose
  misses fall through to the store and whose puts write through to it.
  Installed process-wide via
  :func:`repro.core.fastpath.configure_shared_cache`, it makes every
  ``FastPathConfig.shared()`` analysis read and feed the shared tier.

Soundness: equal fingerprints mean the back-end would see byte-identical
input (the fingerprint covers jobs, precedence, mapping, and priorities),
so a stored entry's arrays are valid verbatim for the caller's job set —
rehydration only *rebinds* the arrays onto the live
:class:`~repro.sched.jobs.JobSet`.  JSON round-trips Python floats
exactly (``repr``-based), so rehydrated bounds are bit-identical and the
byte-identity guarantee of served responses is preserved.

Everything here is best-effort: any I/O or decode error is counted in
:meth:`DiskCacheStore.stats` and treated as a miss, never raised into an
analysis.
"""

import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.fastpath import ScheduleCache
from repro.obs.metrics import metrics
from repro.sched.jobs import JobSet
from repro.sched.wcrt import ScheduleBounds

__all__ = ["DiskCacheStore", "TieredScheduleCache"]

#: Bump when the on-disk record layout changes; mismatched records are
#: ignored (treated as misses) rather than migrated.
SCHEMA_VERSION = 1

_ARRAY_FIELDS = ("min_start", "min_finish", "max_start", "max_finish")


def _tuplize(value: Any) -> Any:
    """Recursively turn lists back into tuples (JSON flattens both)."""
    if isinstance(value, list):
        return tuple(_tuplize(item) for item in value)
    return value


def bounds_to_record(key: str, bounds: ScheduleBounds) -> Dict[str, Any]:
    """The JSON-safe on-disk form of one cache entry."""
    record: Dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "key": key,
        "jobs": len(bounds.jobset),
        "min_start": bounds.min_start.tolist(),
        "min_finish": bounds.min_finish.tolist(),
        "max_start": bounds.max_start.tolist(),
        "max_finish": bounds.max_finish.tolist(),
        "converged": bounds.converged,
        "sweeps": bounds.sweeps,
    }
    state = getattr(bounds, "holistic_state", None)
    if state is not None:
        record["holistic_state"] = state
    return record


def bounds_from_record(
    record: Dict[str, Any], key: str, jobset: JobSet
) -> Optional[ScheduleBounds]:
    """Rebind a stored record onto ``jobset``; ``None`` if unusable.

    The caller guarantees ``jobset.fingerprint() == key``; this only
    checks the record itself (schema version, key echo, array lengths)
    so a truncated or foreign file degrades to a miss.
    """
    if not isinstance(record, dict):
        return None
    if record.get("version") != SCHEMA_VERSION or record.get("key") != key:
        return None
    count = len(jobset)
    if record.get("jobs") != count:
        return None
    arrays = []
    for field in _ARRAY_FIELDS:
        values = record.get(field)
        if not isinstance(values, list) or len(values) != count:
            return None
        if not all(isinstance(v, (int, float)) for v in values):
            return None
        arrays.append([float(v) for v in values])
    bounds = ScheduleBounds(
        jobset,
        arrays[0],
        arrays[1],
        arrays[2],
        arrays[3],
        converged=bool(record.get("converged", True)),
        sweeps=int(record.get("sweeps", 0)),
    )
    state = record.get("holistic_state")
    if isinstance(state, dict) and "signature" in state:
        # JSON turned the signature's nested tuples into lists; the
        # warm-start compatibility check compares tuples exactly, so a
        # non-restored signature would silently disable every warm
        # start seeded from a rehydrated entry.
        restored = dict(state)
        restored["signature"] = _tuplize(state["signature"])
        bounds.holistic_state = restored
    return bounds


class DiskCacheStore:
    """A directory of atomic JSON cache entries shared across processes.

    Writes go to a same-directory temp file first and are published with
    ``os.replace``, so readers in sibling processes see either the old
    record, the new record, or nothing — never a torn file.  There is no
    cross-process locking: entries for one key are deterministic
    (byte-identical analysis results), so a lost write race costs one
    redundant store, not correctness.
    """

    def __init__(
        self,
        root: Union[str, Path],
        capacity: int = 8192,
        prune_every: int = 512,
    ):
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._capacity = max(1, int(capacity))
        self._prune_every = max(1, int(prune_every))
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.errors = 0

    @property
    def root(self) -> Path:
        """The shared cache directory."""
        return self._root

    def _path(self, key: str) -> Path:
        return self._root / key[:2] / f"{key}.json"

    def load(self, key: str, jobset: JobSet) -> Optional[ScheduleBounds]:
        """Read and rebind the entry for ``key`` (``None`` on any miss)."""
        path = self._path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except OSError:
            with self._lock:
                self.errors += 1
                self.misses += 1
            return None
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            with self._lock:
                self.errors += 1
                self.misses += 1
            return None
        bounds = bounds_from_record(record, key, jobset)
        with self._lock:
            if bounds is None:
                self.errors += 1
                self.misses += 1
            else:
                self.hits += 1
        return bounds

    def store(self, key: str, bounds: ScheduleBounds) -> None:
        """Atomically publish the entry for ``key`` (best-effort)."""
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            record = bounds_to_record(key, bounds)
            tmp.write_text(json.dumps(record), encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            with self._lock:
                self.errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        with self._lock:
            self.writes += 1
            due = self.writes % self._prune_every == 0
        if due:
            self._prune()

    def entries(self) -> int:
        """Number of entry files currently on disk."""
        return sum(1 for _ in self._iter_entries())

    def _iter_entries(self):
        try:
            for shard in os.scandir(self._root):
                if not shard.is_dir():
                    continue
                for entry in os.scandir(shard.path):
                    if entry.name.endswith(".json"):
                        yield entry
        except OSError:
            return

    def _prune(self) -> None:
        """Drop the oldest entries once the store exceeds capacity.

        mtime-ordered, so recently stored/refreshed results survive.
        Races with sibling workers pruning the same files are harmless
        (unlink errors are swallowed).
        """
        try:
            entries = sorted(
                self._iter_entries(), key=lambda e: e.stat().st_mtime
            )
        except OSError:
            return
        excess = len(entries) - self._capacity
        for entry in entries[:excess]:
            try:
                os.unlink(entry.path)
            except OSError:
                pass

    def stats(self) -> Dict[str, Any]:
        """Lifetime tallies for this process's view of the store."""
        with self._lock:
            hits = self.hits
            misses = self.misses
            writes = self.writes
            errors = self.errors
        requests = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "writes": writes,
            "errors": errors,
            "hit_rate": hits / requests if requests else 0.0,
            "path": str(self._root),
        }


class TieredScheduleCache(ScheduleCache):
    """L1 in-memory LRU over an L2 :class:`DiskCacheStore`.

    ``get`` falls through to disk on an L1 miss (when the caller supplied
    a job set to rebind onto) and promotes disk hits back into L1;
    ``put`` writes through to both tiers.  The inherited ``hits`` /
    ``misses`` tallies describe the L1 tier only; the disk tier reports
    its own under ``stats()["disk"]``.
    """

    def __init__(self, store: DiskCacheStore, capacity: int = 4096):
        super().__init__(capacity)
        self.store = store

    def get(
        self, key: str, jobset: Optional[JobSet] = None
    ) -> Optional[ScheduleBounds]:
        bounds = super().get(key, jobset)
        if bounds is not None:
            return bounds
        if jobset is None:
            return None
        bounds = self.store.load(key, jobset)
        if bounds is None:
            return None
        super().put(key, bounds)
        metrics().counter("analysis.cache.disk_hits").inc()
        return bounds

    def put(self, key: str, bounds: ScheduleBounds) -> None:
        super().put(key, bounds)
        self.store.store(key, bounds)

    def stats(self) -> dict:
        data = super().stats()
        data["disk"] = self.store.stats()
        return data
