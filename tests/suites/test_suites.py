"""Unit tests for the benchmark suites."""

import pytest

from repro.errors import ModelError
from repro.reliability.constraints import check_reliability
from repro.suites import benchmark_names, get_benchmark
from repro.suites.cruise import (
    CRITICAL_APPS,
    cruise_benchmark,
    cruise_reference_plan,
    cruise_sample_mappings,
)
from repro.suites.dtbench import dt_large_benchmark, dt_med_benchmark
from repro.suites.synth import synth1_benchmark, synth2_benchmark


class TestRegistry:
    def test_all_names_build(self):
        for name in benchmark_names():
            benchmark = get_benchmark(name)
            assert benchmark.name == name
            assert len(benchmark.problem.applications) >= 2
            assert benchmark.description

    def test_unknown_name_rejected(self):
        with pytest.raises(ModelError):
            get_benchmark("nope")

    def test_expected_names(self):
        assert set(benchmark_names()) == {
            "cruise",
            "dt-med",
            "dt-large",
            "synth-1",
            "synth-2",
        }


class TestCruise:
    def test_structure(self):
        benchmark = cruise_benchmark()
        apps = benchmark.problem.applications
        assert benchmark.critical_apps == CRITICAL_APPS
        assert {g.name for g in apps.critical_graphs} == set(CRITICAL_APPS)
        assert len(apps.droppable_graphs) == 4
        assert len(benchmark.problem.architecture) == 5

    def test_reference_plan_covers_critical_tasks(self):
        plan = cruise_reference_plan()
        apps = cruise_benchmark().problem.applications
        critical_tasks = {
            t.name for g in apps.critical_graphs for t in g.tasks
        }
        assert {name for name, _ in plan.items()} == critical_tasks

    def test_sample_mappings_are_valid(self):
        benchmark = cruise_benchmark()
        hardened, mappings = cruise_sample_mappings()
        assert len(mappings) == 3
        for mapping in mappings:
            mapping.validate(
                hardened.applications, benchmark.problem.architecture
            )

    def test_sample_mappings_meet_reliability(self):
        benchmark = cruise_benchmark()
        hardened, mappings = cruise_sample_mappings()
        for mapping in mappings:
            assert (
                check_reliability(
                    hardened.source,
                    hardened.plan,
                    mapping,
                    benchmark.problem.architecture,
                )
                == []
            )

    def test_replicas_on_distinct_processors(self):
        hardened, mappings = cruise_sample_mappings()
        for mapping in mappings:
            for group in hardened.replica_groups.values():
                processors = [mapping[name] for name in group]
                assert len(set(processors)) == len(processors)


class TestDtBenchmarks:
    def test_dt_med_has_figure5_drop_universe(self):
        apps = dt_med_benchmark().problem.applications
        assert {g.name for g in apps.droppable_graphs} == {"t1", "t2", "t3"}

    def test_dt_med_service_values_distinct_sums(self):
        apps = dt_med_benchmark().problem.applications
        values = [g.service_value for g in apps.droppable_graphs]
        sums = set()
        for mask in range(8):
            total = sum(v for i, v in enumerate(values) if mask & (1 << i))
            sums.add(total)
        # Most drop sets yield distinct service levels (collisions like
        # sv(t1) == sv(t2)+sv(t3) are fine — the paper's Figure 5 also
        # shows fewer Pareto points than drop subsets).
        assert len(sums) >= 6

    def test_dt_large_is_larger(self):
        med = dt_med_benchmark().problem
        large = dt_large_benchmark().problem
        assert len(large.applications.all_tasks) > len(med.applications.all_tasks)
        assert len(large.architecture) > len(med.architecture)

    def test_critical_apps_listed(self):
        assert dt_med_benchmark().critical_apps == ("dtm_c1", "dtm_c2")
        assert len(dt_large_benchmark().critical_apps) == 4


class TestSynthBenchmarks:
    def test_deterministic(self):
        a = synth1_benchmark().problem.applications
        b = synth1_benchmark().problem.applications
        assert a.graph_names == b.graph_names
        assert [g.period for g in a.graphs] == [g.period for g in b.graphs]

    def test_synth1_has_more_slack_than_synth2(self):
        s1 = synth1_benchmark().problem.applications
        s2 = synth2_benchmark().problem.applications
        slack1 = min(g.period / g.critical_path_wcet() for g in s1.graphs)
        slack2 = max(g.period / g.critical_path_wcet() for g in s2.graphs)
        assert slack1 > 4.0
        assert slack2 < 11.0

    def test_both_have_mixed_criticality(self):
        for builder in (synth1_benchmark, synth2_benchmark):
            apps = builder().problem.applications
            assert apps.critical_graphs
            assert apps.droppable_graphs
