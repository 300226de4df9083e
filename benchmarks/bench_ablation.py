"""Ablations over the design choices called out in DESIGN.md.

Run:  pytest benchmarks/bench_ablation.py --benchmark-only -s

Three knobs of the proposed analysis are compared on the Cruise study:

* trigger granularity — per-job (faithful) vs per-task (cheaper,
  strictly more conservative);
* transition-mode bcet — keeping nominal bcets (sound refinement) vs the
  literal ``[0, wcet]`` of Algorithm 1's line 23;
* the Naive baseline — no chronological state reasoning at all.
"""

import pytest

from repro.comm import make_comm
from repro.core import MixedCriticalityAnalysis, NaiveAnalysis
from repro.experiments.table2 import TABLE2_DROPPED
from repro.obs.bench import bench_timer, write_bench_report
from repro.suites.cruise import cruise_benchmark, cruise_sample_mappings

_PAYLOAD = {}


@pytest.fixture(scope="module", autouse=True)
def _bench_telemetry():
    yield
    write_bench_report("ablation", _PAYLOAD)


@pytest.fixture(scope="module")
def study():
    hardened, mappings = cruise_sample_mappings()
    arch = cruise_benchmark().problem.architecture
    return hardened, arch, mappings[0]


class TestGranularityAblation:
    def test_task_granularity_conservative(self, study):
        hardened, arch, mapping = study
        job = MixedCriticalityAnalysis(granularity="job").analyze(
            hardened, arch, mapping, TABLE2_DROPPED
        )
        task = MixedCriticalityAnalysis(granularity="task").analyze(
            hardened, arch, mapping, TABLE2_DROPPED
        )
        for app in ("cc", "mon"):
            assert task.wcrt_of(app) >= job.wcrt_of(app) - 1e-9
        print(
            f"\ngranularity ablation (cc): job={job.wcrt_of('cc'):.0f} "
            f"task={task.wcrt_of('cc'):.0f}"
        )

    def test_benchmark_job_granularity(self, benchmark, study):
        hardened, arch, mapping = study
        analysis = MixedCriticalityAnalysis(granularity="job")

        def run():
            with bench_timer("ablation.job_granularity").time():
                return analysis.analyze(hardened, arch, mapping, TABLE2_DROPPED)

        benchmark(run)

    def test_benchmark_task_granularity(self, benchmark, study):
        hardened, arch, mapping = study
        analysis = MixedCriticalityAnalysis(granularity="task")

        def run():
            with bench_timer("ablation.task_granularity").time():
                return analysis.analyze(hardened, arch, mapping, TABLE2_DROPPED)

        benchmark(run)


class TestBcetAblation:
    def test_literal_zero_bcet_is_looser(self, study):
        hardened, arch, mapping = study
        refined = MixedCriticalityAnalysis(zero_dropped_bcet=False).analyze(
            hardened, arch, mapping, TABLE2_DROPPED
        )
        literal = MixedCriticalityAnalysis(zero_dropped_bcet=True).analyze(
            hardened, arch, mapping, TABLE2_DROPPED
        )
        naive = NaiveAnalysis().analyze(hardened, arch, mapping, TABLE2_DROPPED)
        for app in ("cc", "mon"):
            assert literal.wcrt_of(app) >= refined.wcrt_of(app) - 1e-9
            assert naive.wcrt_of(app) >= refined.wcrt_of(app) - 1e-9
        print(
            f"\nbcet ablation (cc): refined={refined.wcrt_of('cc'):.0f} "
            f"literal={literal.wcrt_of('cc'):.0f} naive={naive.wcrt_of('cc'):.0f}"
        )


class TestPolicyAblation:
    def test_edf_analysis_runs_and_reports(self, study):
        hardened, arch, mapping = study
        fp = MixedCriticalityAnalysis(policy="fp").analyze(
            hardened, arch, mapping, TABLE2_DROPPED
        )
        edf = MixedCriticalityAnalysis(policy="edf").analyze(
            hardened, arch, mapping, TABLE2_DROPPED
        )
        print(
            f"\npolicy ablation (cc): fp={fp.wcrt_of('cc'):.0f} "
            f"edf={edf.wcrt_of('cc'):.0f}"
        )
        for app in ("cc", "mon"):
            assert fp.wcrt_of(app) > 0 and edf.wcrt_of(app) > 0


class TestBusAblation:
    def test_contention_model_dominates_reservation(self, study):
        hardened, arch, mapping = study
        reserved = MixedCriticalityAnalysis().analyze(
            hardened, arch, mapping, TABLE2_DROPPED
        )
        contended = MixedCriticalityAnalysis(comm=make_comm("bus-jobs")).analyze(
            hardened, arch, mapping, TABLE2_DROPPED
        )
        print(
            f"\nbus ablation (cc): reserved={reserved.wcrt_of('cc'):.0f} "
            f"contended={contended.wcrt_of('cc'):.0f}"
        )
        for app in ("cc", "mon"):
            assert contended.wcrt_of(app) >= reserved.wcrt_of(app) - 1e-6

    def test_benchmark_bus_contention_analysis(self, benchmark, study):
        hardened, arch, mapping = study
        analysis = MixedCriticalityAnalysis(comm=make_comm("bus-jobs"))

        def run():
            with bench_timer("ablation.bus_contention").time():
                return analysis.analyze(hardened, arch, mapping, TABLE2_DROPPED)

        benchmark.pedantic(run, rounds=3, iterations=1)


class TestBackendFamilies:
    def test_holistic_backend_comparison(self, study):
        from repro.sched.holistic import HolisticAnalysisBackend

        hardened, arch, mapping = study
        window = MixedCriticalityAnalysis().analyze(
            hardened, arch, mapping, TABLE2_DROPPED
        )
        holistic = MixedCriticalityAnalysis(
            backend=HolisticAnalysisBackend()
        ).analyze(hardened, arch, mapping, TABLE2_DROPPED)
        print(
            f"\nbackend families (cc): window={window.wcrt_of('cc'):.0f} "
            f"holistic={holistic.wcrt_of('cc'):.0f}"
        )
        for app in ("cc", "mon"):
            assert holistic.wcrt_of(app) > 0

    def test_benchmark_holistic_backend(self, benchmark, study):
        from repro.sched.holistic import HolisticAnalysisBackend

        hardened, arch, mapping = study
        analysis = MixedCriticalityAnalysis(backend=HolisticAnalysisBackend())

        def run():
            with bench_timer("ablation.holistic_backend").time():
                return analysis.analyze(hardened, arch, mapping, TABLE2_DROPPED)

        benchmark.pedantic(run, rounds=3, iterations=1)


class TestBackendSweeps:
    def test_benchmark_backend_alone(self, benchmark, study):
        from repro.sched.wcrt import WindowAnalysisBackend

        hardened, arch, mapping = study
        analysis = MixedCriticalityAnalysis()
        base = analysis._base_jobset(hardened, arch, mapping)
        backend = WindowAnalysisBackend()
        bounds = benchmark(lambda: backend.analyze(base))
        assert bounds.converged

    def test_benchmark_fast_backend(self, benchmark, study):
        from repro.sched.fast import FastWindowAnalysisBackend

        hardened, arch, mapping = study
        analysis = MixedCriticalityAnalysis()
        base = analysis._base_jobset(hardened, arch, mapping)
        backend = FastWindowAnalysisBackend()
        backend.analyze(base)  # warm the structural cache
        bounds = benchmark(lambda: backend.analyze(base))
        assert bounds.converged

    def test_fast_backend_matches_reference(self, study):
        from repro.sched.fast import FastWindowAnalysisBackend
        from repro.sched.wcrt import WindowAnalysisBackend

        hardened, arch, mapping = study
        analysis = MixedCriticalityAnalysis()
        base = analysis._base_jobset(hardened, arch, mapping)
        reference = WindowAnalysisBackend().analyze(base)
        fast = FastWindowAnalysisBackend().analyze(base)
        for job in base.jobs:
            assert fast.bounds_at(job.index).max_finish == pytest.approx(
                reference.bounds_at(job.index).max_finish, abs=1e-6
            )
