"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.problem import DesignPoint
from repro.hardening.spec import HardeningPlan, HardeningSpec
from repro.model.serialization import save_system
from tests.malformed_systems import MALFORMED_SYSTEMS


@pytest.fixture
def system_file(tmp_path, apps, plan, architecture, mapping):
    path = tmp_path / "system.json"
    save_system(path, apps, architecture, mapping=mapping, plan=plan)
    return str(path)


@pytest.fixture
def unmapped_system_file(tmp_path, apps, architecture):
    path = tmp_path / "plain.json"
    save_system(path, apps, architecture)
    return str(path)


class TestAnalyze:
    def test_proposed(self, system_file, capsys):
        code = main(["analyze", system_file, "--dropped", "lo"])
        output = capsys.readouterr().out
        assert "hi" in output and "transitions analyzed" in output
        assert code in (0, 1)

    def test_naive_and_adhoc(self, system_file, capsys):
        for method in ("naive", "adhoc"):
            main(["analyze", system_file, "--method", method])
            assert "hi" in capsys.readouterr().out

    def test_policy_and_bus_flags(self, system_file, capsys):
        code = main(
            ["analyze", system_file, "--policy", "edf",
             "--comm-backend", "bus-jobs", "--dropped", "lo"]
        )
        assert code in (0, 1)
        assert "hi" in capsys.readouterr().out

    def test_backend_selection(self, system_file, capsys):
        for backend in ("window", "fast", "holistic"):
            code = main(
                ["analyze", system_file, "--backend", backend, "--dropped", "lo"]
            )
            assert code in (0, 1)
            assert "hi" in capsys.readouterr().out

    def test_comm_backend_selection(self, system_file, capsys):
        for backend in ("flat", "shared-bus", "tdma", "noc-xy"):
            code = main(
                ["analyze", system_file, "--comm-backend", backend,
                 "--dropped", "lo"]
            )
            assert code in (0, 1)
            assert "hi" in capsys.readouterr().out

    def test_comm_arq_flags(self, system_file, capsys):
        code = main(
            ["analyze", system_file, "--comm-backend", "shared-bus",
             "--comm-arq", "2", "--comm-arq-timeout", "0.5",
             "--dropped", "lo"]
        )
        assert code in (0, 1)
        assert "hi" in capsys.readouterr().out

    def test_unknown_comm_backend_lists_choices(self, system_file, capsys):
        # Same UX as --method: argparse rejects the name and prints the
        # full registry in the error message.
        with pytest.raises(SystemExit):
            main(["analyze", system_file, "--comm-backend", "token-ring"])
        error = capsys.readouterr().err
        for name in ("flat", "shared-bus", "tdma", "noc-xy"):
            assert name in error

    def test_simulate_edf(self, system_file, capsys):
        assert main(
            ["simulate", system_file, "--profiles", "5", "--policy", "edf"]
        ) == 0

    def test_plan_file(self, tmp_path, unmapped_system_file, apps, architecture, capsys):
        # Plan application changes the task set -> mapping must cover T',
        # so build a system with a mapping over the plain tasks and a
        # re-execution-only plan (topology unchanged).
        from repro.model.mapping import Mapping

        path = tmp_path / "sys2.json"
        flat = Mapping({t: "pe0" for t in apps.all_task_names})
        save_system(path, apps, architecture, flat)
        plan_path = tmp_path / "plan.json"
        plan = HardeningPlan({"a": HardeningSpec.reexecution(1)})
        plan_path.write_text(json.dumps(plan.to_dict()))
        main(["analyze", str(path), "--plan", str(plan_path)])
        assert "transitions analyzed: 1" in capsys.readouterr().out

    def test_missing_mapping_is_error(self, unmapped_system_file, capsys):
        code = main(["analyze", unmapped_system_file])
        assert code == 2
        assert "no mapping" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        (
            ["analyze", "{system}", "--bus-contention"],
            ["analyze", "{system}", "--no-fast-path"],
            ["submit", "analyze", "{system}", "--bus-contention"],
            ["serve", "--max-batch", "4"],
        ),
        ids=(
            "analyze-bus-contention", "analyze-no-fast-path", "submit",
            "serve-max-batch",
        ),
    )
    def test_removed_flags_exit_2(self, system_file, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(system=system_file) for arg in argv])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSimulate:
    def test_campaign(self, system_file, capsys):
        code = main(
            ["simulate", system_file, "--profiles", "10", "--dropped", "lo"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "profiles: 11" in output
        assert "hi" in output

    def test_unknown_dropped_rejected(self, system_file, capsys):
        """`simulate --dropped` validates names like `analyze --dropped`:
        unknown applications fail fast with the full list, instead of
        silently simulating with nothing dropped."""
        code = main(
            ["simulate", system_file, "--profiles", "5",
             "--dropped", "ghost,phantom"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "ghost" in err and "phantom" in err
        assert "known applications" in err
        assert "hi" in err and "lo" in err


class TestExplore:
    def test_explore_writes_pareto(self, tmp_path, unmapped_system_file, capsys):
        out = tmp_path / "pareto.json"
        code = main(
            [
                "explore",
                unmapped_system_file,
                "--generations",
                "3",
                "--population",
                "10",
                "--out",
                str(out),
            ]
        )
        output = capsys.readouterr().out
        assert "Pareto front" in output
        if code == 0:
            payload = json.loads(out.read_text())
            assert payload["pareto"]
            # Design points round-trip.
            design = DesignPoint.from_dict(payload["pareto"][0]["design"])
            assert design.allocation

    def test_resume_requires_checkpoint_dir(self, unmapped_system_file):
        assert main(["explore", unmapped_system_file, "--resume"]) == 2

    def test_checkpoint_and_resume_matches_reference(
        self, tmp_path, unmapped_system_file
    ):
        common = [
            "explore",
            unmapped_system_file,
            "--population",
            "10",
            "--seed",
            "5",
        ]
        reference = tmp_path / "reference.json"
        main(common + ["--generations", "6", "--out", str(reference)])

        ckpt = tmp_path / "ckpt"
        checkpointed = common + [
            "--checkpoint-dir",
            str(ckpt),
            "--checkpoint-every",
            "1",
        ]
        main(checkpointed + ["--generations", "3"])
        assert list(ckpt.glob("checkpoint-*.json"))
        # The quarantine path defaults under the checkpoint directory and
        # stays absent for a healthy run (lazily created).
        assert not (ckpt / "quarantine.jsonl").exists()

        resumed = tmp_path / "resumed.json"
        main(
            checkpointed
            + ["--generations", "6", "--resume", "--out", str(resumed)]
        )
        assert json.loads(resumed.read_text()) == json.loads(
            reference.read_text()
        )


class TestVerify:
    def test_clean_system_exits_zero(self, system_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["verify", system_file, "--budget", "15", "--seed", "2",
             "--out", str(out)]
        )
        assert code == 0
        assert "violations: 0" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert len(payload["scenarios"]) == 15

    def test_replay_without_system(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        code = main(["verify", "--replay", str(corpus)])
        assert code == 0
        assert "still reproducing: 0" in capsys.readouterr().out

    def test_no_system_no_replay_is_error(self, capsys):
        assert main(["verify"]) == 2
        assert "required" in capsys.readouterr().err


class TestMargins:
    def test_margins_command(self, system_file, capsys):
        code = main(["margins", system_file, "--dropped", "lo"])
        output = capsys.readouterr().out
        assert "deadline margin" in output
        assert "scaling margin" in output
        assert code in (0, 1)

    def test_margins_requires_mapping(self, unmapped_system_file, capsys):
        assert main(["margins", unmapped_system_file]) == 2


#: Malformed system files: (file text or None for no file, the part of
#: the error that names the fault).
MALFORMED_FILES = [
    (None, "cannot read system file"),
    ("{not json", "not valid JSON"),
] + [(json.dumps(system), text) for system, text in MALFORMED_SYSTEMS]


class TestSystemInput:
    @pytest.mark.parametrize("command", ("analyze", "simulate", "margins"))
    @pytest.mark.parametrize("text, field", MALFORMED_FILES)
    def test_malformed_system_exits_2(
        self, tmp_path, capsys, command, text, field
    ):
        path = tmp_path / "system.json"
        if text is not None:
            path.write_text(text)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("text", (None, "[1]", "{not json"))
    def test_bad_plan_file_exits_2(self, system_file, tmp_path, capsys, text):
        plan = tmp_path / "plan.json"
        if text is not None:
            plan.write_text(text)
        assert main(["analyze", system_file, "--plan", str(plan)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read plan")

    @pytest.mark.parametrize("command", ("analyze", "simulate", "margins"))
    def test_suite_name_resolves_then_needs_a_mapping(self, capsys, command):
        assert main([command, "cruise"]) == 2
        assert "cruise carries no mapping" in capsys.readouterr().err


class TestSubmitTables:
    def test_submit_prints_the_local_tables(self, system_file, capsys):
        """Local and served runs render one response dict through one
        printer; only the row order of served verdicts differs (the
        served body is canonical JSON, keys sorted)."""
        from repro.serve import ReproServer, ServeConfig

        server = ReproServer(ServeConfig(port=0, workers=1))
        server.start()
        try:
            for argv in (
                ["analyze", system_file, "--dropped", "lo"],
                ["analyze", system_file, "--method", "naive"],
                ["simulate", system_file, "--profiles", "10"],
            ):
                local_code = main(argv)
                local = capsys.readouterr().out
                served_code = main(
                    ["submit", argv[0], argv[1], "--server", server.url,
                     *argv[2:]]
                )
                served = capsys.readouterr().out
                assert served_code == local_code
                assert sorted(served.splitlines()) == sorted(
                    local.splitlines()
                )
        finally:
            server.close()

    def test_submit_marks_brownout_answers(self, system_file, capsys):
        """A degraded (brownout stage-2) answer prints one more line than
        the local table; the local table never carries it."""
        from repro.serve import ReproServer, ServeConfig

        server = ReproServer(
            ServeConfig(
                port=0, workers=1, brownout=True, brownout_dwell=3600.0
            )
        )
        server.admission.brownout._stage = 2
        server.start()
        try:
            main(["analyze", system_file])
            local = capsys.readouterr().out
            main(["submit", "analyze", system_file, "--server", server.url])
            served = capsys.readouterr().out
        finally:
            server.close()
        marker = (
            "degraded: brownout fallback bounds (window back-end, "
            "no shared cache)"
        )
        assert marker not in local
        assert served.splitlines().count(marker) == 1
        assert sorted(served.splitlines()) == sorted(
            local.splitlines() + [marker]
        )


class TestExportAndGenerate:
    def test_export_benchmark(self, tmp_path, capsys):
        out = tmp_path / "dtmed.json"
        assert main(["export", "dt-med", str(out)]) == 0
        from repro.model.serialization import load_system

        bundle = load_system(out)
        assert "t1" in bundle.applications
        assert bundle.mapping is None
        assert bundle.plan is None

    def test_export_cruise_with_mapping(self, tmp_path, capsys):
        out = tmp_path / "cruise.json"
        assert main(["export", "cruise", str(out), "--with-reference-mapping"]) == 0
        from repro.model.serialization import load_system

        bundle = load_system(out)
        assert bundle.mapping is not None
        assert bundle.plan is not None
        assert "cc_ctl#vote" in bundle.mapping  # mapping covers T'
        # The exported system is immediately analyzable.
        assert main(["analyze", str(out), "--dropped", "info"]) in (0, 1)

    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "random.json"
        assert main(["generate", str(out), "--seed", "5"]) == 0
        from repro.model.serialization import load_system

        bundle = load_system(out)
        assert len(bundle.architecture) == 4
        assert len(bundle.applications) == 4


class TestClosedStdout:
    """A reader that stops early (``| head``) ends the command quietly."""

    @pytest.mark.parametrize("command", ("trace-summarize", "analyze"))
    def test_closed_read_end_exits_without_traceback(
        self, system_file, tmp_path, command
    ):
        import os
        import subprocess
        import sys

        trace = tmp_path / "trace.jsonl"
        assert main(["analyze", system_file, "--trace-out", str(trace)]) in (
            0, 1,
        )
        argv = {
            "trace-summarize": ["trace", "summarize", str(trace), "--top", "500"],
            "analyze": ["analyze", system_file],
        }[command]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        process.stdout.close()  # before the child writes a byte
        stderr = process.stderr.read().decode()
        process.stderr.close()
        assert process.wait(timeout=120) == 141
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
