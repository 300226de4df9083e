"""Every front door builds the same ``ExploreRequest``.

The API redesign's core claim: CLI flag vectors and HTTP payloads both
funnel through ``ExplorerConfig.from_options`` into one typed request —
so equivalent spellings are *provably* the same exploration (equal
configs, equal canonical options, equal digests).
"""

import functools

import pytest

from repro.cli import _explore_request_from_args, build_parser
from repro.dse import ExploreRequest, ExplorerConfig, IslandTopology
from repro.errors import ReproError
from repro.serve.encoding import (
    explore_request_from_params,
    parse_explore_request,
    request_digest,
)


def _cli_request(argv):
    args = build_parser().parse_args(argv)
    return _explore_request_from_args(args)


class TestFrontDoorParity:
    def test_cli_flags_equal_from_options(self):
        via_cli = _cli_request(
            [
                "explore", "cruise",
                "--generations", "7", "--population", "16", "--seed", "9",
                "--workers", "2", "--islands", "4",
                "--migration-every", "5", "--migrants", "3",
                "--topology", "all", "--backend", "window",
            ]
        )
        direct = ExploreRequest.from_options(
            "cruise",
            generations=7, population=16, seed=9, workers=2,
            islands=4, migration_every=5, migrants=3, topology="all",
            backend="window",
        )
        assert via_cli == direct

    def test_http_payload_equals_from_options(self):
        params = parse_explore_request(
            {
                "system": "cruise",
                "generations": 7,
                "population": 16,
                "seed": 9,
                "workers": 2,
                "islands": 4,
                "migration_every": 5,
                "migrants": 3,
                "topology": "all",
                "backend": "window",
            }
        )
        via_http = explore_request_from_params(params)
        direct = ExploreRequest.from_options(
            "cruise",
            generations=7, population=16, seed=9, workers=2,
            islands=4, migration_every=5, migrants=3, topology="all",
            backend="window", checkpoint_every=2,
        )
        # The HTTP layer inlines the system payload; compare the rest.
        assert via_http.config == direct.config
        assert via_http.topology == direct.topology
        assert via_http.backend == direct.backend
        assert via_http.canonical_options() == direct.canonical_options()

    def test_cli_defaults_equal_http_defaults(self):
        via_cli = _cli_request(
            ["explore", "cruise", "--checkpoint-every", "2"]
        )
        params = parse_explore_request({"system": "cruise"})
        via_http = explore_request_from_params(params)
        assert via_cli.config == via_http.config
        assert via_cli.topology == via_http.topology
        assert via_cli.backend == via_http.backend


class TestCanonicalization:
    def test_equivalent_spellings_digest_identically(self):
        sparse = parse_explore_request({"system": "cruise"})
        explicit = parse_explore_request(
            {
                "system": "cruise",
                "generations": 25,
                "population": 32,
                "offspring_size": 32,
                "archive_size": 32,
                "seed": 0,
                "workers": 1,
                "islands": 1,
                "migration_every": 99,   # meaningless with one island
                "migrants": 7,           # ditto
                "topology": "all",       # ditto
                "backend": None,         # same as "fast"
            }
        )
        assert sparse == explicit
        assert request_digest("explore", sparse) == request_digest(
            "explore", explicit
        )

    def test_non_migrating_topologies_normalize(self):
        zero_migrants = parse_explore_request(
            {"system": "cruise", "islands": 4, "migrants": 0}
        )
        none_kind = parse_explore_request(
            {
                "system": "cruise",
                "islands": 4,
                "topology": "none",
                "migration_every": 3,
            }
        )
        assert zero_migrants["topology"] == "none"
        assert zero_migrants == none_kind

    def test_canonical_options_is_the_wire_body(self):
        request = ExploreRequest.from_options(
            "cruise", generations=5, population=8, islands=2,
            checkpoint_every=2,
        )
        body = dict(request.canonical_options())
        body["system"] = "cruise"
        round_tripped = explore_request_from_params(
            parse_explore_request(body)
        )
        assert round_tripped.config == request.config
        assert round_tripped.topology == request.topology.normalized()
        assert round_tripped.backend == (request.backend or "fast")


class TestConstructionPath:
    def test_from_options_round_trips_full_field_names(self):
        config = ExplorerConfig.from_options(
            population=20, generations=9, seed=4, workers=2,
            mutation_gene_rate=0.2,
        )
        from dataclasses import asdict

        assert ExplorerConfig.from_options(**asdict(config)) == config

    def test_shorthand_expands_the_size_triple(self):
        config = ExplorerConfig.from_options(population=24)
        assert (
            config.population_size,
            config.offspring_size,
            config.archive_size,
        ) == (24, 24, 24)

    def test_explicit_sizes_override_population(self):
        config = ExplorerConfig.from_options(
            population=24, archive_size=8
        )
        assert config.population_size == 24
        assert config.archive_size == 8

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ReproError):
            ExplorerConfig.from_options(resume=True)

    def test_checkpointing_defaults_quarantine_path(self, tmp_path):
        config = ExplorerConfig.from_options(
            checkpoint_dir=str(tmp_path / "ckpt")
        )
        assert config.quarantine_path is not None
        assert config.quarantine_path.endswith("quarantine.jsonl")

    def test_bad_topology_rejected(self):
        with pytest.raises(ReproError):
            IslandTopology(islands=0)
        with pytest.raises(ReproError):
            IslandTopology(kind="mesh")
        with pytest.raises(ReproError):
            ExploreRequest.from_options("cruise", backend="bogus")


#: Front doors that take a ``--backend`` flag, as argv prefixes.
_CLI_DOORS = (
    ["analyze", "system.json"],
    ["explore", "cruise"],
    ["submit", "analyze", "cruise"],
    ["submit", "explore", "cruise"],
)

#: Digests of the default served bodies; every spelling must keep
#: producing them.  The explore digest was recorded before the back-end
#: names moved into one table.  Analyze requests need a mapped system,
#: so the analyze digest is over cruise with its reference plan and
#: first sample mapping (the same digest the parser gave before
#: mapping-less systems were rejected at parse time).
_DEFAULT_ANALYZE_DIGEST = (
    "f1a031f2651dc69fedda14164435c0aa6be7d233623436923c10e5d35daf04d2"
)
_DEFAULT_EXPLORE_DIGEST = (
    "3392a004bc5862835accbdb105e7535184752bfec8f5530d887c3da49a2d1ebc"
)


@functools.lru_cache(maxsize=None)
def _mapped_cruise():
    from repro.api import load
    from repro.model.serialization import SystemBundle, bundle_to_payload
    from repro.suites.cruise import (
        cruise_reference_plan,
        cruise_sample_mappings,
    )

    base = load("cruise")
    return bundle_to_payload(SystemBundle(
        base.applications,
        base.architecture,
        cruise_sample_mappings()[1][0],
        cruise_reference_plan(),
    ))


def _served_analyze(backend):
    from repro.serve.encoding import parse_analyze_request

    body = {"system": _mapped_cruise()}
    if backend is not None:
        body["backend"] = backend
    params, _bundle = parse_analyze_request(body)
    return params


def _served_explore(backend):
    body = {"system": "cruise"}
    if backend is not None:
        body["backend"] = backend
    return parse_explore_request(body)


class TestBackendNameTable:
    """One table of sched back-end names, shared by every front door."""

    def _doors(self):
        from repro.core import make_backend, make_dse_evaluator
        from repro.suites import get_benchmark

        problem = get_benchmark("cruise").problem

        def cli(prefix, then):
            return lambda name: then(
                build_parser().parse_args([*prefix, "--backend", name])
            )

        # Each CLI door up to where its name is resolved: the analysis
        # factory, the ExploreRequest, or the server's parser.
        analyze, explore, submit_analyze, submit_explore = _CLI_DOORS
        doors = {
            "cli analyze": cli(
                analyze, lambda args: type(make_backend(args.backend))
            ),
            "cli explore": cli(
                explore, lambda args: _explore_request_from_args(args).backend
            ),
            "cli submit analyze": cli(
                submit_analyze,
                lambda args: _served_analyze(args.backend)["backend"],
            ),
            "cli submit explore": cli(
                submit_explore,
                lambda args: _served_explore(args.backend)["backend"],
            ),
        }
        doors["served analyze"] = lambda name: _served_analyze(name)["backend"]
        doors["served explore"] = lambda name: _served_explore(name)["backend"]
        doors["ExploreRequest"] = lambda name: ExploreRequest.from_options(
            "cruise", backend=name
        ).backend
        doors["make_backend"] = lambda name: type(make_backend(name))
        doors["make_dse_evaluator"] = lambda name: type(
            make_dse_evaluator(problem, name)._analysis._backend
        )
        return doors

    def test_every_front_door_accepts_exactly_the_table(self, capsys):
        from repro.core.factory import SCHED_BACKENDS

        for door, resolve in self._doors().items():
            for name in SCHED_BACKENDS:
                resolve(name)
            for bogus in ("quantum", "Window", "fast-window"):
                with pytest.raises((ReproError, SystemExit)):
                    resolve(bogus)
                    pytest.fail(f"{door} accepted {bogus!r}")
        capsys.readouterr()

    def test_window_fast_and_omitted_resolve_alike(self):
        from repro.core.factory import DEFAULT_BACKEND, backend_token

        for door, resolve in self._doors().items():
            resolved = {resolve("window"), resolve("fast")}
            assert len(resolved) == 1, door
        for prefix in _CLI_DOORS:
            default = build_parser().parse_args(prefix).backend
            assert default == DEFAULT_BACKEND
            assert backend_token(default) is None
        assert _served_analyze(None)["backend"] is None
        assert _served_explore(None)["backend"] == "fast"
        assert ExploreRequest.from_options("cruise").backend == "fast"
        assert _served_analyze("holistic")["backend"] == "holistic"

    @pytest.mark.parametrize("backend", (None, "window", "fast"))
    def test_default_digests_unchanged(self, backend):
        assert request_digest("analyze", _served_analyze(backend)) == (
            _DEFAULT_ANALYZE_DIGEST
        )
        assert request_digest("explore", _served_explore(backend)) == (
            _DEFAULT_EXPLORE_DIGEST
        )

    @pytest.mark.parametrize("backend", ("fast", "window"))
    def test_parent_job_record_resumes(self, tmp_path, backend):
        """A job record that spells its back-end as older servers wrote
        it is requeued and runs to completion."""
        import json
        import time

        from repro.serve.jobs import Job, JobStore

        params = parse_explore_request(
            {"system": "cruise", "generations": 1, "population": 4}
        )
        params["backend"] = backend
        job = Job(id="job-parent", params=params, status="running",
                  created=time.time())
        path = tmp_path / job.id / "job.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(job.to_dict(with_result=True), sort_keys=True))
        store = JobStore(tmp_path, workers=1)
        try:
            assert store.recover() == [job.id]
            assert store.wait_idle(timeout=120.0)
            record = store.get(job.id)
            assert record.status == "done", record.error
            assert explore_request_from_params(record.params).backend == "fast"
        finally:
            store.shutdown()


class TestSystemSources:
    """Every front door resolves the four system sources — a bundle, an
    inline payload, a suite name, a path — through ``api.load`` to equal
    bundles (compared in their canonical payload form)."""

    @pytest.fixture
    def sources(self, tmp_path):
        from repro.api import load
        from repro.model.serialization import bundle_to_payload, save_system

        bundle = load("cruise")
        path = tmp_path / "cruise.json"
        save_system(path, bundle.applications, bundle.architecture)
        return {
            "bundle": bundle,
            "inline": bundle_to_payload(bundle),
            "suite": "cruise",
            "path": str(path),
        }

    @staticmethod
    def _payload(bundle):
        from repro.model.serialization import bundle_to_payload

        return bundle_to_payload(bundle)

    def _resolved(self, sources, resolve):
        payloads = {kind: resolve(source) for kind, source in sources.items()}
        reference = self._payload(sources["bundle"])
        for kind, payload in payloads.items():
            assert payload == reference, kind

    def test_api_load(self, sources):
        from repro.api import load

        self._resolved(sources, lambda source: self._payload(load(source)))

    def test_explore_request_through_islands(self, sources):
        from repro.dse.islands import _shard_problem

        self._resolved(
            sources,
            lambda source: _shard_problem(
                ExploreRequest.from_options(source)
            )[1],
        )

    def test_served_parse(self, sources):
        from repro.serve.client import _system_payload

        # These sources carry no mapping, so explore is the served door
        # that accepts all four (analyze and simulate answer 400).
        def served(source):
            return parse_explore_request(
                {"system": _system_payload(source)}, allow_paths=True
            )["system"]

        self._resolved(sources, served)

    def test_cli(self, sources, capsys):
        from repro.cli import main
        from repro.dse.islands import _shard_problem

        reference = self._payload(sources["bundle"])
        for kind in ("suite", "path"):
            request = _cli_request(["explore", sources[kind]])
            assert _shard_problem(request)[1] == reference, kind
            for command in ("analyze", "simulate", "margins"):
                assert main([command, sources[kind]]) == 2
                err = capsys.readouterr().err
                assert f"{sources[kind]} carries no mapping" in err

    def test_paths_off_hides_whether_a_path_exists(self, sources, tmp_path):
        from repro.serve.encoding import parse_analyze_request

        messages = set()
        for spec in (sources["path"], str(tmp_path / "absent.json")):
            with pytest.raises(ReproError, match="allow-local-paths") as info:
                parse_analyze_request({"system": spec})
            messages.add(str(info.value).replace(spec, "<path>"))
        assert len(messages) == 1
