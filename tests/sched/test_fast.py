"""Exact equivalence: the numpy window back-end against the scalar reference.

:class:`~tests.sched.reference.ReferenceWindowBackend` evaluates the
same fixed point one job at a time in plain Python, so every bound is
compared with ``==``.  The alias ``FastWindowAnalysisBackend`` is the
same class as ``WindowAnalysisBackend``.
"""

import random
import sys
import threading

import pytest

from repro.benchgen.tgff import GraphShape, TgffConfig, generate_problem
from repro.comm import make_comm
from repro.core.analysis import MixedCriticalityAnalysis
from repro.dse.chromosome import heuristic_chromosome, random_chromosome
from repro.dse.repair import repair
from repro.hardening.transform import harden
from repro.sched.fast import FastWindowAnalysisBackend
from repro.sched.jobs import unroll
from repro.sched.wcrt import WindowAnalysisBackend
from tests.sched.reference import ReferenceWindowBackend

#: Comm configurations by test id: flat latencies, the shared-bus comm
#: backend, and priority-arbitrated message jobs on a virtual bus
#: processor (the ``bus-jobs`` backend).
BACKENDS = {"flat": "flat", "shared-bus": "shared-bus", "bus-contention": "bus-jobs"}
COMMS = tuple(BACKENDS)


def random_jobset(seed, policy="fp", comm="flat"):
    problem = generate_problem(
        seed=seed,
        critical_graphs=1,
        droppable_graphs=2,
        processors=3,
        config=TgffConfig(
            shape=GraphShape(min_tasks=2, max_tasks=5, min_layers=1, max_layers=3),
        ),
        name_prefix=f"fast{seed}",
    )
    rng = random.Random(seed)
    chromosome = repair(random_chromosome(problem, rng), problem, rng)
    return design_jobset(problem, chromosome.decode(problem), policy, comm)


def tgff130_jobset():
    """A job set of a 130-task tgff system: ~20k interference pairs, so
    every pair-sized array is larger than 128 KiB."""
    problem = generate_problem(
        seed=11,
        critical_graphs=10,
        droppable_graphs=10,
        processors=8,
        name_prefix="tgff130",
    )
    design = heuristic_chromosome(problem, random.Random(5)).decode(problem)
    return design_jobset(problem, design)


def design_jobset(problem, design, policy="fp", comm="flat"):
    hardened = harden(problem.applications, design.plan)
    bounds = {
        task.name: hardened.nominal_bounds(task.name)
        for task in hardened.applications.all_tasks
    }
    for passive in hardened.passive_tasks:
        bounds[passive] = (0.0, 0.0)
    return unroll(
        hardened.applications,
        design.mapping,
        problem.architecture,
        comm=make_comm(BACKENDS[comm]),
        bounds=bounds,
        policy=policy,
    )


def widened(jobset, seed):
    """A ``with_bounds`` clone: one job inflated, one zeroed, one widened."""
    analyzed = jobset.analyzed_jobs
    first = analyzed[seed % len(analyzed)]
    second = analyzed[(3 * seed + 1) % len(analyzed)]
    third = analyzed[(5 * seed + 2) % len(analyzed)]
    overrides = {first.job_id: (first.bcet, first.wcet * 3.0 + 0.5)}
    overrides[second.job_id] = (0.0, 0.0)
    overrides[third.job_id] = (0.0, third.wcet + 7.25)
    return jobset.with_bounds(overrides)


def assert_identical(got, ref):
    for name in ("min_start", "min_finish", "max_start", "max_finish"):
        assert getattr(got, name).tolist() == getattr(ref, name).tolist(), name
    assert got.converged == ref.converged
    assert got.sweeps == ref.sweeps


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_backend(self, seed):
        jobset = random_jobset(seed)
        assert_identical(
            WindowAnalysisBackend().analyze(jobset),
            ReferenceWindowBackend().analyze(jobset),
        )

    @pytest.mark.parametrize("comm", COMMS)
    @pytest.mark.parametrize("policy", ("fp", "edf"))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_across_configs(self, seed, policy, comm):
        jobset = random_jobset(seed, policy=policy, comm=comm)
        clone = widened(jobset, seed)
        backend = WindowAnalysisBackend()
        for candidate in (jobset, clone):
            assert_identical(
                backend.analyze(candidate),
                ReferenceWindowBackend().analyze(candidate),
            )

    @pytest.mark.parametrize("comm", COMMS)
    def test_fallback_matches_reference(self, comm):
        starved = 0
        for seed in range(4):
            jobset = random_jobset(seed, comm=comm)
            for candidate in (jobset, widened(jobset, seed)):
                got = WindowAnalysisBackend(max_sweeps=1).analyze(candidate)
                assert_identical(
                    got, ReferenceWindowBackend(max_sweeps=1).analyze(candidate)
                )
                starved += not got.converged
        assert starved, "no job set needed more than one sweep"

    def test_matches_on_bound_overrides(self):
        jobset = random_jobset(3)
        target = jobset.analyzed_jobs[0]
        clone = jobset.with_bounds({target.job_id: (0.0, target.wcet * 3)})
        backend = WindowAnalysisBackend()
        backend.analyze(jobset)  # warm the structural cache
        assert_identical(
            backend.analyze(clone),  # reuses structure, new bounds
            ReferenceWindowBackend().analyze(clone),
        )

    def test_structural_cache_resets_between_jobsets(self):
        backend = WindowAnalysisBackend()
        a = random_jobset(4)
        b = random_jobset(5)
        result_a = backend.analyze(a)
        result_b = backend.analyze(b)
        assert_identical(result_b, ReferenceWindowBackend().analyze(b))
        assert result_a.jobset is a and result_b.jobset is b

    def test_fast_is_an_alias(self):
        assert FastWindowAnalysisBackend is WindowAnalysisBackend


class TestThreadSafety:
    def test_shared_backend_hammer(self):
        """Threads sharing one back-end across structures get serial results.

        The threaded explorer shares one evaluator, hence one back-end,
        between workers; alternating job-set structures make the threads
        race on the back-end's structure cache.  Clones of one large
        structure then share its index arrays, and each thread sweeps in
        its own pair-sized workspace.
        """
        self._hammer([random_jobset(seed) for seed in range(6)], calls=200)
        base = tgff130_jobset()
        assert len(base.interference_pairs()[0]) > 128 * 1024 // 8
        self._hammer([base] + [widened(base, seed) for seed in range(1, 4)], calls=6)

    @staticmethod
    def _hammer(jobsets, calls):
        expected = [
            WindowAnalysisBackend().analyze(js).max_finish.tolist()
            for js in jobsets
        ]
        backend = WindowAnalysisBackend()
        failures = []

        def worker(offset):
            try:
                for call in range(calls):
                    index = (call + offset) % len(jobsets)
                    got = backend.analyze(jobsets[index]).max_finish.tolist()
                    if got != expected[index]:
                        failures.append((offset, call, "mismatch"))
            except Exception as error:  # noqa: BLE001 — reported below
                failures.append((offset, repr(error)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestWithinAlgorithmOne:
    def test_same_wcrt_through_algorithm1(self, hardened, architecture, mapping):
        reference = MixedCriticalityAnalysis(
            backend=ReferenceWindowBackend()
        ).analyze(hardened, architecture, mapping, dropped=("lo",))
        fast = MixedCriticalityAnalysis().analyze(
            hardened, architecture, mapping, dropped=("lo",)
        )
        for graph in hardened.applications.graph_names:
            assert fast.wcrt_of(graph) == reference.wcrt_of(graph)
        assert fast.task_completion == reference.task_completion

    def test_cruise_agreement(self):
        from repro.experiments.table2 import TABLE2_DROPPED
        from repro.suites.cruise import cruise_benchmark, cruise_sample_mappings

        hardened, mappings = cruise_sample_mappings()
        arch = cruise_benchmark().problem.architecture
        reference = MixedCriticalityAnalysis(
            backend=ReferenceWindowBackend()
        ).analyze(hardened, arch, mappings[0], TABLE2_DROPPED)
        fast = MixedCriticalityAnalysis().analyze(
            hardened, arch, mappings[0], TABLE2_DROPPED
        )
        for app in hardened.applications.graph_names:
            assert fast.wcrt_of(app) == reference.wcrt_of(app)
        assert fast.transitions == reference.transitions
