"""Disk-backed schedule-cache tier: persistence, tolerance, pruning.

The tier's contract: a fresh process (simulated here by fresh store and
cache instances over the same directory) serves byte-identical analysis
results straight from disk, and *any* damaged record degrades to a miss
— never to a wrong answer or a crash.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import FastPathConfig, MixedCriticalityAnalysis
from repro.obs.metrics import metrics
from repro.serve.cachestore import (
    SCHEMA_VERSION,
    DiskCacheStore,
    TieredScheduleCache,
    bounds_from_record,
    bounds_to_record,
)
from repro.serve.encoding import analysis_result_to_dict, canonical_bytes


@pytest.fixture
def jobset(hardened, architecture, mapping):
    return MixedCriticalityAnalysis()._base_jobset(
        hardened, architecture, mapping
    )


def _bounds(jobset):
    from repro.sched.wcrt import ScheduleBounds

    count = len(jobset)
    return ScheduleBounds(
        jobset,
        [float(i) for i in range(count)],
        [float(i) + 1.0 for i in range(count)],
        [float(i) + 2.0 for i in range(count)],
        [float(i) + 3.5 for i in range(count)],
        converged=True,
        sweeps=4,
    )


def _tiered_analysis(root, capacity=64):
    store = DiskCacheStore(root)
    cache = TieredScheduleCache(store, capacity=capacity)
    analysis = MixedCriticalityAnalysis(
        granularity="task", fast_path=FastPathConfig(cache=cache)
    )
    return store, analysis


class TestRoundTrip:
    def test_store_then_load_rebinds_exactly(self, tmp_path, jobset):
        store = DiskCacheStore(tmp_path / "cache")
        key = jobset.fingerprint()
        original = _bounds(jobset)
        store.store(key, original)
        assert store.stats()["writes"] == 1

        loaded = store.load(key, jobset)
        assert loaded is not None
        assert loaded.jobset is jobset
        assert loaded.min_start.tolist() == original.min_start.tolist()
        assert loaded.max_finish.tolist() == original.max_finish.tolist()
        assert loaded.converged is True
        assert loaded.sweeps == 4
        assert store.stats()["hits"] == 1

    def test_tiered_round_trip_of_array_bounds(self, tmp_path, jobset):
        """Backend bounds of an array clone survive the disk tier exactly.

        The record keeps its JSON layout (plain float lists), so entries
        written before bounds became arrays stay readable.
        """
        from repro.sched.wcrt import WindowAnalysisBackend

        bcet = np.array(jobset.bcet)
        wcet = np.array(jobset.wcet)
        target = jobset.analyzed_jobs[0].index
        wcet[target] = wcet[target] * 2.5 + 1.0
        clone = jobset.with_bound_arrays(bcet, wcet)
        key = clone.fingerprint()
        original = WindowAnalysisBackend().analyze(clone)
        root = tmp_path / "cache"
        TieredScheduleCache(DiskCacheStore(root), capacity=4).put(key, original)

        record = json.loads(
            (root / key[:2] / f"{key}.json").read_text(encoding="utf-8")
        )
        assert set(record) == {
            "version", "key", "jobs", "min_start", "min_finish",
            "max_start", "max_finish", "converged", "sweeps",
        }
        assert all(type(v) is float for v in record["max_finish"])

        fresh = TieredScheduleCache(DiskCacheStore(root), capacity=4)
        loaded = fresh.get(key, clone)
        assert loaded is not None and loaded.jobset is clone
        for field in ("min_start", "min_finish", "max_start", "max_finish"):
            assert getattr(loaded, field).tolist() == getattr(original, field).tolist()
        assert (loaded.converged, loaded.sweeps) == (
            original.converged, original.sweeps
        )
        for graph in clone.applications.graph_names:
            assert loaded.graph_wcrt(graph) == original.graph_wcrt(graph)
        for task in clone.applications.all_task_names:
            assert loaded.task_max_finish(task) == original.task_max_finish(task)

    def test_missing_key_is_a_plain_miss(self, tmp_path, jobset):
        store = DiskCacheStore(tmp_path / "cache")
        assert store.load("0" * 64, jobset) is None
        stats = store.stats()
        assert stats["misses"] == 1 and stats["errors"] == 0


class TestRecordValidation:
    def test_damaged_records_degrade_to_none(self, jobset):
        key = jobset.fingerprint()
        good = bounds_to_record(key, _bounds(jobset))
        assert bounds_from_record(good, key, jobset) is not None

        wrong_version = dict(good, version=SCHEMA_VERSION + 1)
        wrong_key = dict(good, key="f" * 64)
        wrong_count = dict(good, jobs=good["jobs"] + 1)
        truncated = dict(good, min_start=good["min_start"][:-1])
        poisoned = dict(good, max_finish=["NaN?"] * good["jobs"])
        for record in (
            wrong_version,
            wrong_key,
            wrong_count,
            truncated,
            poisoned,
            "not a dict",
        ):
            assert bounds_from_record(record, key, jobset) is None


class TestCrossProcessTier:
    def test_fresh_instance_serves_identical_result_from_disk(
        self, tmp_path, hardened, architecture, mapping
    ):
        root = tmp_path / "cache"
        store1, analysis1 = _tiered_analysis(root)
        cold = analysis1.analyze(hardened, architecture, mapping)
        assert store1.stats()["writes"] > 0

        # A brand-new store + L1 over the same directory stands in for
        # a restarted (or sibling) worker process.
        disk_hits_before = metrics().counter("analysis.cache.disk_hits").value
        store2, analysis2 = _tiered_analysis(root)
        warm = analysis2.analyze(hardened, architecture, mapping)
        assert store2.stats()["hits"] > 0
        assert (
            metrics().counter("analysis.cache.disk_hits").value
            > disk_hits_before
        )
        assert canonical_bytes(
            analysis_result_to_dict(warm)
        ) == canonical_bytes(analysis_result_to_dict(cold))

    def test_corrupt_entries_recompute_the_same_answer(
        self, tmp_path, hardened, architecture, mapping
    ):
        root = tmp_path / "cache"
        store1, analysis1 = _tiered_analysis(root)
        cold = analysis1.analyze(hardened, architecture, mapping)
        entry_files = list(root.rglob("*.json"))
        assert entry_files
        for path in entry_files:
            path.write_text("{ definitely not a cache record", encoding="utf-8")

        store2, analysis2 = _tiered_analysis(root)
        recomputed = analysis2.analyze(hardened, architecture, mapping)
        stats = store2.stats()
        assert stats["errors"] >= 1
        assert stats["hits"] == 0
        assert canonical_bytes(
            analysis_result_to_dict(recomputed)
        ) == canonical_bytes(analysis_result_to_dict(cold))


class TestPruning:
    def test_capacity_bounds_on_disk_entries(self, tmp_path, jobset):
        store = DiskCacheStore(tmp_path / "cache", capacity=2, prune_every=1)
        bounds = _bounds(jobset)
        keys = [
            hashlib.sha256(str(i).encode()).hexdigest() for i in range(5)
        ]
        for key in keys:
            store.store(key, bounds)
        assert store.entries() <= 2

    def test_stats_shape_for_metrics_endpoint(self, tmp_path, jobset):
        store = DiskCacheStore(tmp_path / "cache")
        tiered = TieredScheduleCache(store, capacity=8)
        key = jobset.fingerprint()
        tiered.put(key, _bounds(jobset))
        stats = tiered.stats()
        assert stats["disk"]["writes"] == 1
        assert stats["disk"]["path"] == str(tmp_path / "cache")
        # One entry file, atomically published (no temp leftovers).
        files = list((tmp_path / "cache").rglob("*"))
        names = [f.name for f in files if f.is_file()]
        assert names == [f"{key}.json"]
        assert json.loads(
            (tmp_path / "cache" / key[:2] / f"{key}.json").read_text()
        )["key"] == key
