"""Fast-path correctness: memoization, warm starts, dominated-transition
pruning, and the canonical job-set fingerprint.

The load-bearing property: every fast-path combination returns results
*identical* to a cold run — not approximately equal, byte-identical —
across the built-in suites and random TGFF systems.
"""

import random

import numpy as np
import pytest

from repro.benchgen.tgff import generate_problem
from repro.comm import make_comm
from repro.core import (
    FastPathConfig,
    MixedCriticalityAnalysis,
    ScheduleCache,
    TransitionPruner,
)
from repro.dse.chromosome import heuristic_chromosome
from repro.errors import AnalysisError
from repro.hardening.transform import harden
from repro.obs.metrics import metrics
from repro.sched.holistic import HolisticAnalysisBackend
from repro.sched.wcrt import ScheduleBounds, WindowAnalysisBackend
from repro.suites import benchmark_names, get_benchmark


def _suite_case(name):
    problem = get_benchmark(name).problem
    design = heuristic_chromosome(problem, random.Random(3)).decode(problem)
    return problem, design, harden(problem.applications, design.plan)


def _tgff_case(seed):
    problem = generate_problem(
        seed=seed, critical_graphs=2, droppable_graphs=2, processors=3
    )
    design = heuristic_chromosome(problem, random.Random(seed)).decode(problem)
    return problem, design, harden(problem.applications, design.plan)


def _analyze(problem, design, hardened, backend, fast_path):
    analysis = MixedCriticalityAnalysis(
        backend=backend,
        granularity="task",
        comm=problem.comm_model(),
        fast_path=fast_path,
    )
    return analysis.analyze(
        hardened, problem.architecture, design.mapping, design.dropped
    )


class TestColdFastEquivalence:
    """Memoization + warm start must be invisible in the results."""

    @pytest.mark.parametrize("suite", benchmark_names())
    @pytest.mark.parametrize(
        "backend_factory", [WindowAnalysisBackend, HolisticAnalysisBackend]
    )
    def test_suites_identical(self, suite, backend_factory):
        problem, design, hardened = _suite_case(suite)
        cold = _analyze(problem, design, hardened, backend_factory(), None)
        fast = _analyze(
            problem, design, hardened, backend_factory(), FastPathConfig()
        )
        assert cold == fast  # full dataclass equality, transitions included

    @pytest.mark.parametrize("seed", [1, 17, 91])
    def test_random_tgff_identical(self, seed):
        problem, design, hardened = _tgff_case(seed)
        for backend_factory in (WindowAnalysisBackend, HolisticAnalysisBackend):
            cold = _analyze(problem, design, hardened, backend_factory(), None)
            fast = _analyze(
                problem, design, hardened, backend_factory(), FastPathConfig()
            )
            assert cold == fast

    @pytest.mark.parametrize("suite", benchmark_names())
    def test_pruning_preserves_reported_bounds(self, suite):
        problem, design, hardened = _suite_case(suite)
        cold = _analyze(problem, design, hardened, WindowAnalysisBackend(), None)
        pruned = _analyze(
            problem, design, hardened, WindowAnalysisBackend(),
            FastPathConfig.for_dse(),
        )
        assert pruned.verdicts == cold.verdicts
        assert pruned.task_completion == cold.task_completion
        assert (
            pruned.transitions_analyzed + pruned.transitions_pruned
            == cold.transitions_analyzed
        )

    def test_shared_cache_across_analyze_calls(self, hardened, architecture, mapping):
        fast_path = FastPathConfig()
        analysis = MixedCriticalityAnalysis(
            granularity="task", fast_path=fast_path
        )
        registry = metrics()
        registry.reset()
        first = analysis.analyze(hardened, architecture, mapping)
        invocations = registry.counter("sched.invocations").value
        assert invocations > 0
        second = analysis.analyze(hardened, architecture, mapping)
        # Every sched() of the repeat run is served from the cache.
        assert registry.counter("sched.invocations").value == invocations
        assert first == second

    def test_sweep_invocation_pairing_survives_cache_hits(
        self, hardened, architecture, mapping
    ):
        registry = metrics()
        registry.reset()
        analysis = MixedCriticalityAnalysis(
            granularity="task", fast_path=FastPathConfig()
        )
        analysis.analyze(hardened, architecture, mapping)
        analysis.analyze(hardened, architecture, mapping)
        snap = registry.snapshot()
        assert (
            snap["histograms"]["sched.sweeps"]["count"]
            == snap["counters"]["sched.invocations"]
        )


class TestFingerprint:
    def test_equal_for_identical_builds(self, hardened, architecture, mapping):
        analysis = MixedCriticalityAnalysis()
        a = analysis._base_jobset(hardened, architecture, mapping)
        b = analysis._base_jobset(hardened, architecture, mapping)
        assert a.fingerprint() == b.fingerprint()

    def test_bounds_override_changes_fingerprint(
        self, hardened, architecture, mapping
    ):
        analysis = MixedCriticalityAnalysis()
        base = analysis._base_jobset(hardened, architecture, mapping)
        job = base.analyzed_jobs[0]
        widened = base.with_bounds({job.job_id: (job.bcet, job.wcet + 1.0)})
        assert widened.fingerprint() != base.fingerprint()
        # ... and an identity override fingerprints back to the original.
        same = base.with_bounds({job.job_id: (job.bcet, job.wcet)})
        assert same.fingerprint() == base.fingerprint()


def _pin_overrides(base):
    """The bound overrides the pinned clone digests were recorded with."""
    jobs = base.analyzed_jobs
    return {
        jobs[0].job_id: (0.0, jobs[0].wcet * 3),
        jobs[5].job_id: (jobs[5].bcet, jobs[5].wcet + 0.1),
    }


class TestFingerprintPins:
    """Literal digests: ScheduleCache and disk-tier keys must not drift.

    Recorded when bounds still lived on per-job records and were hashed
    job by job as ``struct.pack("<dd", bcet, wcet)``; the packed-array
    hash must reproduce them byte for byte.
    """

    BASE = "f3bee0e7eab62fe23749596c81c817db80cca865beb13dd0c41f4d2db8768c6e"
    CLONE = "6eb9f29d2e7a207c930c02c7234dd58a5b20cffe54288492923f52f9db163136"

    @pytest.fixture
    def cruise_base(self):
        from repro.suites.cruise import cruise_benchmark, cruise_sample_mappings

        hardened, mappings = cruise_sample_mappings()
        arch = cruise_benchmark().problem.architecture
        return MixedCriticalityAnalysis()._base_jobset(hardened, arch, mappings[0])

    def test_base_digest(self, cruise_base):
        assert len(cruise_base) == 94
        assert cruise_base.fingerprint() == self.BASE

    def test_with_bounds_clone_digest(self, cruise_base):
        clone = cruise_base.with_bounds(_pin_overrides(cruise_base))
        assert clone.fingerprint() == self.CLONE

    def test_array_clone_digest(self, cruise_base):
        bcet = np.array(cruise_base.bcet)
        wcet = np.array(cruise_base.wcet)
        for job_id, (low, high) in _pin_overrides(cruise_base).items():
            index = cruise_base.index_of(job_id)
            bcet[index], wcet[index] = low, high
        clone = cruise_base.with_bound_arrays(bcet, wcet)
        assert clone.fingerprint() == self.CLONE
        # Reading .jobs builds the records from the arrays.
        assert [job.wcet for job in clone.jobs] == wcet.tolist()
        assert clone.fingerprint() == self.CLONE


class TestPolicyFingerprintPins:
    """Literal digests for EDF ranks and bus message jobs.

    Both were recorded on the per-job build and must not drift: a column
    value reaching the digest as a numpy scalar (``repr(np.int64(3))`` is
    ``'np.int64(3)'`` under numpy 2) would silently change every key.
    """

    PINS = {
        "edf": (
            {"policy": "edf"},
            94,
            "40ef43602ceededc09762472f0c264da8f50566b3ccfa0a3f3c15293117a9770",
            "433fef7ddcd9450f9a8c8ff86b19679583aa0ad76b15eea247c97571741ce598",
        ),
        "bus": (
            {"comm": make_comm("bus-jobs")},
            106,
            "da656b589c5c1bc1c426ba9d00a2ed96991d50c822ece6800404fd34514d6e2b",
            "721e53c8eca32d48ebc5ea10be8921b15afe7d67c4c67f27fe755c036b02aca3",
        ),
    }

    @pytest.mark.parametrize("variant", sorted(PINS))
    def test_base_and_clone_digests(self, variant):
        from repro.suites.cruise import cruise_benchmark, cruise_sample_mappings

        options, count, base_digest, clone_digest = self.PINS[variant]
        hardened, mappings = cruise_sample_mappings()
        arch = cruise_benchmark().problem.architecture
        base = MixedCriticalityAnalysis(**options)._base_jobset(
            hardened, arch, mappings[0]
        )
        assert len(base) == count
        assert base.fingerprint() == base_digest
        clone = base.with_bounds(_pin_overrides(base))
        assert clone.fingerprint() == clone_digest


class TestScheduleCache:
    def _bounds(self):
        return object()  # the cache never inspects its values

    def test_lru_eviction(self):
        cache = ScheduleCache(capacity=2)
        a, b, c = self._bounds(), self._bounds(), self._bounds()
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a  # refreshes "a"
        cache.put("c", c)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") is a
        assert cache.get("c") is c
        assert len(cache) == 2

    def test_hit_miss_tallies(self):
        cache = ScheduleCache(capacity=4)
        cache.put("k", self._bounds())
        cache.get("k")
        cache.get("absent")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(AnalysisError):
            ScheduleCache(capacity=0)


class TestWarmStart:
    def test_incompatible_seed_is_rejected(self, hardened, architecture, mapping):
        """A seed from a *different* structure falls back to a cold start."""
        registry = metrics()
        registry.reset()
        analysis = MixedCriticalityAnalysis(backend=HolisticAnalysisBackend())
        base = analysis._base_jobset(hardened, architecture, mapping)
        backend = HolisticAnalysisBackend()
        cold = backend.analyze(base)

        bogus_state = dict(cold.holistic_state)
        bogus_state["signature"] = ("something", "else")
        seed = ScheduleBounds(
            base,
            cold.min_start,
            cold.min_finish,
            cold.max_start,
            cold.max_finish,
            converged=True,
            sweeps=cold.sweeps,
        )
        seed.holistic_state = bogus_state
        reanalyzed = backend.analyze(base, seed=seed)
        assert registry.counter("analysis.warmstart.rejected").value == 1
        assert reanalyzed.holistic_state["response"] == cold.holistic_state["response"]

    def test_wcet_shrink_rejects_seed(self, hardened, architecture, mapping):
        """Seeds above the new fixed point would be unsound: rejected."""
        registry = metrics()
        registry.reset()
        backend = HolisticAnalysisBackend()
        analysis = MixedCriticalityAnalysis(backend=HolisticAnalysisBackend())
        base = analysis._base_jobset(hardened, architecture, mapping)
        job = base.analyzed_jobs[0]
        widened = base.with_bounds({job.job_id: (job.bcet, job.wcet + 5.0)})
        seed = backend.analyze(widened)
        narrow = backend.analyze(base, seed=seed)
        assert registry.counter("analysis.warmstart.rejected").value == 1
        assert narrow.holistic_state == backend.analyze(base).holistic_state

    def test_seeded_run_matches_cold(self, hardened, architecture, mapping):
        backend = HolisticAnalysisBackend()
        analysis = MixedCriticalityAnalysis(backend=HolisticAnalysisBackend())
        base = analysis._base_jobset(hardened, architecture, mapping)
        normal = backend.analyze(base)
        job = base.analyzed_jobs[0]
        widened = base.with_bounds({job.job_id: (job.bcet, job.wcet * 2.0)})
        warm = backend.analyze(widened, seed=normal)
        cold = HolisticAnalysisBackend().analyze(widened)
        assert warm.holistic_state["response"] == cold.holistic_state["response"]
        assert warm.holistic_state["jitter"] == cold.holistic_state["jitter"]
        assert warm.sweeps <= cold.sweeps


class TestTransitionPruner:
    def test_containment_domination(self, hardened, architecture, mapping):
        analysis = MixedCriticalityAnalysis()
        base = analysis._base_jobset(hardened, architecture, mapping)
        pruner = TransitionPruner(base)
        job_a, job_b = base.analyzed_jobs[0], base.analyzed_jobs[1]

        def arrays(overrides):
            clone = base.with_bounds(overrides)
            return clone.bcet, clone.wcet

        wide = arrays({job_a.job_id: (0.0, job_a.wcet + 10.0)})
        narrow = arrays({job_a.job_id: (job_a.bcet, job_a.wcet + 1.0)})
        sideways = arrays({job_b.job_id: (0.0, job_b.wcet + 1.0)})

        assert not pruner.is_dominated(*wide)
        pruner.record(*wide)
        assert pruner.is_dominated(*narrow)
        # Nominal-bounds transition (no override) is always covered.
        assert pruner.is_dominated(base.bcet, base.wcet)
        # An override on a job the recorded transition left nominal is not.
        assert not pruner.is_dominated(*sideways)
