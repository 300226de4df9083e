"""Integration: the GA, analysis and CLI emit consistent telemetry."""

import json

import pytest

from repro.cli import main
from repro.dse.ga import Explorer, ExplorerConfig
from repro.model.serialization import save_system
from repro.obs.metrics import metrics
from repro.obs.trace import capture


def small_config(**overrides):
    defaults = dict(
        population_size=10,
        offspring_size=10,
        archive_size=10,
        generations=3,
        seed=7,
    )
    defaults.update(overrides)
    return ExplorerConfig(**defaults)


@pytest.fixture(scope="module")
def cruise_problem():
    from repro.suites import get_benchmark

    return get_benchmark("cruise").problem


class TestGenerationEvents:
    def test_one_event_per_generation_on_cruise(self, cruise_problem):
        config = ExplorerConfig(
            population_size=8,
            offspring_size=8,
            archive_size=8,
            generations=3,
            seed=1,
        )
        with capture("generation-complete") as records:
            result = Explorer(cruise_problem, config).run()
        events = [record["attrs"] for record in records]
        # Generations 0..generations_run, one event each, in order.
        assert [e["generation"] for e in events] == list(
            range(result.generations_run + 1)
        )
        last = events[-1]
        stats = result.statistics
        assert last["evaluations"] == stats.evaluations
        assert last["cache_hits"] == stats.cache_hits
        assert last["cache_hit_rate"] == pytest.approx(stats.cache_hit_rate)
        assert last["repair_failures"] == stats.repair_failures
        assert all(e["wall_seconds"] >= 0.0 for e in events)
        assert all(
            e["archive_size"] >= e["feasible_in_archive"] for e in events
        )

    def test_sched_counters_advance(self, problem):
        registry = metrics()
        registry.reset()
        Explorer(problem, small_config()).run()
        snap = registry.snapshot()
        assert snap["counters"]["sched.invocations"] > 0
        assert snap["counters"]["analysis.runs"] > 0
        assert snap["counters"]["dse.evaluations"] > 0
        assert (
            snap["histograms"]["sched.sweeps"]["count"]
            == snap["counters"]["sched.invocations"]
        )

    def test_cache_hit_rate_consistent_with_counters(self, problem):
        registry = metrics()
        registry.reset()
        result = Explorer(problem, small_config()).run()
        snap = registry.snapshot()
        stats = result.statistics
        assert snap["counters"]["dse.evaluations"] == stats.evaluations
        assert snap["counters"]["dse.cache_hits"] == stats.cache_hits
        expected = stats.cache_hits / (stats.cache_hits + stats.evaluations)
        assert stats.cache_hit_rate == pytest.approx(expected)


class TestEarlyStop:
    def test_early_stop_event_and_statistics(self, problem):
        config = small_config(generations=50, stagnation_limit=2)
        with capture("early-stop") as records:
            result = Explorer(problem, config).run()
        assert result.generations_run < 50
        stats = result.statistics
        assert stats.stopped_early is True
        assert stats.stopping_generation == result.generations_run
        (stop,) = [record["attrs"] for record in records]
        assert stop["generation"] == result.generations_run
        assert stop["stagnation"] == 2

    def test_full_run_not_marked_early(self, problem):
        result = Explorer(problem, small_config(generations=2)).run()
        assert result.statistics.stopped_early is False
        assert result.statistics.stopping_generation is None


class TestSimulatorEvents:
    def test_fault_injection_events(self, hardened, architecture, mapping):
        import random

        from repro.sim import Simulator, WorstCaseSampler
        from repro.sim.faults import random_profile

        simulator = Simulator(hardened, architecture, mapping)
        profile = random_profile(hardened, random.Random(3), max_faults=2)
        with capture("fault-injected") as records:
            result = simulator.run(profile=profile, sampler=WorstCaseSampler())
        assert len(records) == result.faults_observed


class TestCliMetricsReport:
    def test_explore_metrics_out(self, tmp_path, apps, architecture, capsys):
        system = tmp_path / "system.json"
        save_system(system, apps, architecture)
        report = tmp_path / "metrics.json"
        code = main(
            [
                "explore",
                str(system),
                "--generations",
                "3",
                "--population",
                "10",
                "--seed",
                "5",
                "--metrics-out",
                str(report),
            ]
        )
        assert code in (0, 1)
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["command"] == "explore"
        generations = payload["generations"]
        assert generations, "expected per-generation records"
        assert [g["event"] for g in generations] == [
            "generation-complete"
        ] * len(generations)
        assert [g["generation"] for g in generations] == list(
            range(len(generations))
        )
        counters = payload["metrics"]["counters"]
        assert counters["sched.invocations"] > 0
        assert counters["dse.evaluations"] > 0
