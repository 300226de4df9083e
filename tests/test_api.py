"""The repro.api facade round-trips the CLI flows."""

from pathlib import Path

import pytest

import repro
from repro.api import analyze, explore, load, simulate, validate_dropped
from repro.core.fastpath import FastPathConfig
from repro.dse import ExploreRequest
from repro.errors import ModelError, ReproError
from repro.model.serialization import (
    SystemBundle,
    bundle_to_payload,
    save_system,
)
from tests.malformed_systems import MALFORMED_SYSTEMS


@pytest.fixture
def system_file(tmp_path, apps, plan, architecture, mapping):
    path = tmp_path / "system.json"
    save_system(path, apps, architecture, mapping=mapping, plan=plan)
    return str(path)


class TestLoad:
    def test_path(self, system_file):
        bundle = load(system_file)
        assert bundle.mapping is not None
        assert bundle.plan is not None

    def test_suite_name(self):
        bundle = load("cruise")
        assert {g.name for g in bundle.applications.graphs} >= {"cc", "info"}
        assert bundle.mapping is None

    def test_bundle_passthrough(self, system_file):
        bundle = load(system_file)
        assert load(bundle) is bundle
        assert load(bundle, allow_paths=False) is bundle

    def test_inline_payload(self, system_file):
        bundle = load(system_file)
        inline = load(bundle_to_payload(bundle))
        assert bundle_to_payload(inline) == bundle_to_payload(bundle)

    def test_paths_gated(self, system_file):
        with pytest.raises(ReproError, match="allow-local-paths"):
            load(system_file, allow_paths=False)
        assert load(Path(system_file)).mapping is not None

    @pytest.mark.parametrize(
        "source, field",
        MALFORMED_SYSTEMS + [
            (None, "got NoneType"),
            ("no-such-suite-or-file.json", "cannot read system file"),
        ],
    )
    def test_malformed_source_names_the_field(self, source, field):
        with pytest.raises(ModelError, match=field):
            load(source)


class TestValidateDropped:
    def test_accepts_known_names(self, apps):
        assert validate_dropped(apps, ("lo",)) == ("lo",)

    def test_comma_string_with_whitespace(self, apps):
        assert validate_dropped(apps, " lo , ") == ("lo",)

    def test_lists_all_unknown_names(self, apps):
        with pytest.raises(ReproError) as excinfo:
            validate_dropped(apps, ("lo", "ghost", "phantom"))
        message = str(excinfo.value)
        assert "ghost" in message and "phantom" in message
        assert "lo" in message  # known names are listed for discovery

    def test_cli_dropped_validation(self, system_file):
        """The analyze CLI rejects unknown --dropped names (the old code
        silently ignored them)."""
        from repro.cli import main

        assert main(["analyze", system_file, "--dropped", "lo,ghost"]) == 2


class TestAnalyze:
    def test_matches_cli_analyze_flow(self, system_file):
        """api.analyze == the deep-module composition the CLI performs."""
        from repro.core import make_analysis
        from repro.hardening.transform import harden

        bundle = load(system_file)
        hardened = harden(bundle.applications, bundle.plan)
        expected = make_analysis().analyze(
            hardened, bundle.architecture, bundle.mapping, ("lo",)
        )
        got = analyze(system_file, dropped="lo")
        assert got == expected

    def test_methods_and_backends(self, system_file):
        for method in ("proposed", "naive", "adhoc"):
            result = analyze(system_file, method=method)
            assert set(result.verdicts) == {"hi", "lo"}
        fast = analyze(system_file, backend="fast", fast_path=FastPathConfig())
        assert fast == analyze(system_file)

    def test_requires_mapping(self, tmp_path, apps, architecture):
        path = tmp_path / "plain.json"
        save_system(path, apps, architecture)
        with pytest.raises(ReproError, match="no mapping"):
            analyze(str(path))

    def test_unknown_dropped_rejected(self, system_file):
        with pytest.raises(ReproError, match="ghost"):
            analyze(system_file, dropped=("ghost",))

    def test_inline_payload(self, system_file):
        inline = bundle_to_payload(load(system_file))
        assert analyze(inline, dropped="lo") == analyze(
            system_file, dropped="lo"
        )
        assert simulate(inline, profiles=5).worst_response == simulate(
            system_file, profiles=5
        ).worst_response

    def test_top_level_reexports(self):
        assert repro.analyze is analyze
        assert repro.load is load
        assert repro.simulate is simulate
        assert repro.explore is explore
        assert repro.api.analyze is analyze


class TestSimulate:
    def test_matches_cli_simulate_flow(self, system_file):
        result = simulate(system_file, profiles=10, dropped="lo", seed=4)
        assert result.profiles == 11  # 10 random + fault-free baseline
        assert "hi" in result.worst_response

    def test_accepts_bundle(self, apps, plan, architecture, mapping):
        bundle = SystemBundle(apps, architecture, mapping, plan)
        result = simulate(bundle, profiles=5)
        assert result.profiles == 6

    def test_unknown_dropped_rejected(self, system_file):
        with pytest.raises(ReproError, match="ghost"):
            simulate(system_file, profiles=5, dropped=("ghost",))


class TestExplore:
    def test_matches_cli_explore_flow(self, tmp_path, apps, architecture):
        path = tmp_path / "plain.json"
        save_system(path, apps, architecture)
        result = explore(
            ExploreRequest.from_options(
                str(path), generations=3, population=10, seed=5
            )
        )
        assert result.statistics.evaluations > 0
        # Same knobs through the CLI produce the same front.
        from repro.cli import main

        out = tmp_path / "pareto.json"
        main(
            [
                "explore", str(path), "--generations", "3", "--population",
                "10", "--seed", "5", "--out", str(out),
            ]
        )
        import json

        if result.pareto:
            payload = json.loads(out.read_text())
            api_rows = sorted(
                (round(p.power, 9), round(p.service, 9)) for p in result.pareto
            )
            cli_rows = sorted(
                (round(p["power"], 9), round(p["service"], 9))
                for p in payload["pareto"]
            )
            assert api_rows == cli_rows

    def test_suite_name_end_to_end(self):
        result = explore(
            ExploreRequest.from_options(
                "cruise", generations=2, population=8, seed=1
            )
        )
        assert result.statistics.evaluations > 0

    def test_only_a_request_is_accepted(self):
        with pytest.raises(TypeError, match="ExploreRequest"):
            explore("cruise")
        with pytest.raises(TypeError):
            explore("cruise", generations=2)


class TestCacheIntrospection:
    def test_stats_shape(self):
        stats = repro.cache_stats()
        assert set(stats) >= {"hits", "misses", "size", "capacity", "hit_rate"}
        assert stats["size"] <= stats["capacity"]

    def test_shared_analyses_populate_the_cache(
        self, apps, plan, architecture, mapping
    ):
        from repro.core.fastpath import FastPathConfig

        repro.cache_clear()
        before = repro.cache_stats()
        bundle = SystemBundle(apps, architecture, mapping, plan)
        analyze(bundle, fast_path=FastPathConfig.shared())
        analyze(bundle, fast_path=FastPathConfig.shared())
        after = repro.cache_stats()
        assert after["size"] > 0
        assert after["hits"] > before["hits"]

    def test_clear_empties_the_cache(self):
        repro.cache_clear()
        assert repro.cache_stats()["size"] == 0
