"""Tests for the ``bus-jobs`` comm backend: transfers as bus message jobs."""

import pytest

from repro.comm import make_comm
from repro.core.analysis import MixedCriticalityAnalysis
from repro.hardening.spec import HardeningPlan
from repro.hardening.transform import harden
from repro.model.application import ApplicationSet
from repro.model.architecture import Architecture, Interconnect, Processor
from repro.model.mapping import Mapping
from repro.model.task import Channel, Task
from repro.model.taskgraph import TaskGraph
from repro.sched.jobs import BUS_RESOURCE, unroll
from repro.sched.wcrt import WindowAnalysisBackend


#: The message-job backend, with the fabric's own ARQ budget.
BUS_JOBS = make_comm("bus-jobs")


def platform(bandwidth=10.0, base_latency=0.0, **fabric):
    return Architecture(
        [Processor("pe0"), Processor("pe1"), Processor("pe2")],
        Interconnect(bandwidth=bandwidth, base_latency=base_latency, **fabric),
    )


def crossing_apps():
    """Two producer->consumer graphs whose transfers share the bus."""
    g1 = TaskGraph(
        "g1",
        tasks=[Task("p1", 1.0, 1.0), Task("c1", 1.0, 1.0)],
        channels=[Channel("p1", "c1", 40.0)],  # 4 ms on the bus
        period=20.0,
        reliability_target=1e-6,
    )
    g2 = TaskGraph(
        "g2",
        tasks=[Task("p2", 1.0, 1.0), Task("c2", 1.0, 1.0)],
        channels=[Channel("p2", "c2", 40.0)],
        period=10.0,
        service_value=1.0,
    )
    return ApplicationSet([g1, g2])


def crossing_mapping():
    return Mapping({"p1": "pe0", "c1": "pe1", "p2": "pe0", "c2": "pe2"})


class TestMessageJobs:
    def test_message_jobs_created(self):
        jobset = unroll(
            crossing_apps(), crossing_mapping(), platform(), comm=BUS_JOBS
        )
        bus_jobs = [j for j in jobset.jobs if j.processor == BUS_RESOURCE]
        # 2 graphs x (2 + 4) instances over two hyperperiods.
        assert len(bus_jobs) == 2 + 4
        names = {j.task_name for j in bus_jobs}
        assert names == {"p1>c1", "p2>c2"}

    def test_message_duration_is_transfer_time(self):
        jobset = unroll(
            crossing_apps(), crossing_mapping(), platform(), comm=BUS_JOBS
        )
        message = jobset.job(("p1>c1", 0))
        assert message.bcet == message.wcet == pytest.approx(4.0)

    def test_no_message_for_colocated_channel(self):
        mapping = Mapping({"p1": "pe0", "c1": "pe0", "p2": "pe1", "c2": "pe2"})
        jobset = unroll(crossing_apps(), mapping, platform(), comm=BUS_JOBS)
        names = {j.task_name for j in jobset.jobs}
        assert "p1>c1" not in names
        assert "p2>c2" in names

    def test_disabled_by_default(self):
        jobset = unroll(crossing_apps(), crossing_mapping(), platform())
        assert all(j.processor != BUS_RESOURCE for j in jobset.jobs)

    def test_message_inherits_producer_urgency(self):
        jobset = unroll(
            crossing_apps(), crossing_mapping(), platform(), comm=BUS_JOBS
        )
        # g2 has the shorter period: its producer and message outrank g1's.
        assert (
            jobset.job(("p2>c2", 0)).priority < jobset.job(("p1>c1", 0)).priority
        )
        # A message ranks directly after its own producer.
        assert (
            jobset.job(("p1", 0)).priority < jobset.job(("p1>c1", 0)).priority
        )


class TestNameCollisionGuard:
    def test_adversarial_task_name_rejected(self):
        from repro.errors import AnalysisError

        graph = TaskGraph(
            "g",
            tasks=[Task("p", 1.0, 1.0), Task("c", 1.0, 1.0), Task("p>c", 1.0, 1.0)],
            channels=[Channel("p", "c", 40.0), Channel("c", "p>c", 10.0)],
            period=20.0,
            reliability_target=1e-6,
        )
        apps = ApplicationSet([graph])
        mapping = Mapping({"p": "pe0", "c": "pe1", "p>c": "pe2"})
        with pytest.raises(AnalysisError, match="collision"):
            unroll(apps, mapping, platform(), comm=BUS_JOBS)

    def test_same_names_fine_without_contention(self):
        graph = TaskGraph(
            "g",
            tasks=[Task("p", 1.0, 1.0), Task("c", 1.0, 1.0), Task("p>c", 1.0, 1.0)],
            channels=[Channel("p", "c", 40.0), Channel("c", "p>c", 10.0)],
            period=20.0,
            reliability_target=1e-6,
        )
        apps = ApplicationSet([graph])
        mapping = Mapping({"p": "pe0", "c": "pe1", "p>c": "pe2"})
        jobset = unroll(apps, mapping, platform())
        assert len(jobset) == 3 * 2


class TestContentionBounds:
    def test_contention_dominates_reservation_model(self):
        apps = crossing_apps()
        mapping = crossing_mapping()
        arch = platform()
        backend = WindowAnalysisBackend()
        reserved = backend.analyze(unroll(apps, mapping, arch))
        contended = backend.analyze(
            unroll(apps, mapping, arch, comm=BUS_JOBS)
        )
        for graph in ("g1", "g2"):
            assert contended.graph_wcrt(graph) >= reserved.graph_wcrt(graph) - 1e-9

    def test_low_priority_transfer_suffers_interference(self):
        apps = crossing_apps()
        bounds = WindowAnalysisBackend().analyze(
            unroll(apps, crossing_mapping(), platform(), comm=BUS_JOBS)
        )
        # g1's transfer (low priority) can wait for both g2 transfers in
        # the hyperperiod window: worst finish >= own path + interference.
        g1_wcrt = bounds.graph_wcrt("g1")
        assert g1_wcrt >= 1.0 + 4.0 + 4.0 + 1.0 - 1e-9

    def test_exclusive_bus_matches_reservation(self):
        # A single cross-PE transfer: contention model = latency model.
        g1 = TaskGraph(
            "solo",
            tasks=[Task("p", 1.0, 2.0), Task("c", 1.0, 1.0)],
            channels=[Channel("p", "c", 40.0)],
            period=20.0,
            reliability_target=1e-6,
        )
        apps = ApplicationSet([g1])
        mapping = Mapping({"p": "pe0", "c": "pe1"})
        arch = platform()
        backend = WindowAnalysisBackend()
        reserved = backend.analyze(unroll(apps, mapping, arch))
        contended = backend.analyze(
            unroll(apps, mapping, arch, comm=BUS_JOBS)
        )
        assert contended.graph_wcrt("solo") == pytest.approx(
            reserved.graph_wcrt("solo")
        )


class TestThroughAlgorithmOne:
    def test_analysis_accepts_bus_contention(self, hardened, architecture, mapping):
        plain = MixedCriticalityAnalysis().analyze(
            hardened, architecture, mapping, dropped=("lo",)
        )
        contended = MixedCriticalityAnalysis(comm=BUS_JOBS).analyze(
            hardened, architecture, mapping, dropped=("lo",)
        )
        for graph in hardened.applications.graph_names:
            assert contended.wcrt_of(graph) >= plain.wcrt_of(graph) - 1e-9


class TestArqFold:
    def test_message_wcet_folds_the_arq_margin(self):
        arch = platform(arq_retries=2, arq_timeout=0.5)
        jobset = unroll(crossing_apps(), crossing_mapping(), arch, comm=BUS_JOBS)
        message = jobset.job(("p1>c1", 0))
        assert message.bcet == 4.0
        assert message.wcet == 3 * 4.0 + 2 * 0.5

    def test_fingerprint_token_is_empty_without_arq(self):
        plain = unroll(crossing_apps(), crossing_mapping(), platform(), comm=BUS_JOBS)
        assert plain.comm_token == ""
        arch = platform(arq_retries=1)
        folded = unroll(crossing_apps(), crossing_mapping(), arch, comm=BUS_JOBS)
        flat = unroll(
            crossing_apps(), crossing_mapping(), arch, comm=make_comm("flat")
        )
        assert folded.comm_token.startswith("bus-jobs:")
        assert folded.comm_token != flat.comm_token


class TestSimulation:
    @pytest.mark.parametrize("retries", (0, 2))
    def test_simulation_matches_flat_with_the_same_arq(self, retries):
        """The simulator keeps the reservation model: same bytes as flat."""
        from repro import api
        from repro.comm import with_comm
        from repro.model.serialization import SystemBundle
        from repro.serve.encoding import canonical_bytes, montecarlo_result_to_dict

        arch = platform(arq_retries=retries, arq_timeout=0.5)
        runs = {}
        for backend in ("flat", "bus-jobs"):
            bundle = SystemBundle(
                crossing_apps(),
                with_comm(arch, backend=backend),
                crossing_mapping(),
                HardeningPlan(),
            )
            result = api.simulate(bundle, profiles=40, seed=3, max_faults=2)
            runs[backend] = canonical_bytes(montecarlo_result_to_dict(result))
        assert runs["bus-jobs"] == runs["flat"]


class TestLegacySwitch:
    """The ``bus_contention`` switch is gone: ``bus-jobs`` is the one
    spelling of message jobs, and the old flag is an argparse error."""

    def test_flat_fabric_becomes_bus_jobs_keeping_arq(self):
        from repro.comm import with_comm

        arch = with_comm(
            platform(arq_retries=2, arq_timeout=0.5), backend="bus-jobs"
        )
        ic = arch.interconnect
        assert (ic.comm_backend, ic.arq_retries, ic.arq_timeout) == (
            "bus-jobs", 2, 0.5,
        )
        assert with_comm(arch).interconnect == ic

    @pytest.mark.parametrize("declared", ("shared-bus", "tdma", "noc-xy"))
    def test_other_declared_fabrics_rejected(self, declared, tmp_path, capsys):
        from repro.cli import main
        from repro.model.serialization import save_system

        path = tmp_path / "system.json"
        save_system(
            path, crossing_apps(), platform(comm_backend=declared),
            crossing_mapping(),
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", str(path), "--bus-contention"])
        assert exit_info.value.code == 2
        assert "--bus-contention" in capsys.readouterr().err

    def test_other_override_rejected(self, tmp_path, capsys):
        from repro.cli import main
        from repro.model.serialization import save_system

        path = tmp_path / "system.json"
        save_system(path, crossing_apps(), platform(), crossing_mapping())
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["analyze", str(path), "--comm-backend", "shared-bus",
                 "--bus-contention"]
            )
        assert exit_info.value.code == 2
        assert "--bus-contention" in capsys.readouterr().err

    def test_cli_flag_rejects_another_backend(self, tmp_path, capsys):
        from repro.cli import main
        from repro.model.serialization import save_system

        path = tmp_path / "system.json"
        save_system(path, crossing_apps(), platform(), crossing_mapping())
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["analyze", str(path), "--bus-contention",
                 "--comm-backend", "tdma"]
            )
        assert exit_info.value.code == 2
        assert "--bus-contention" in capsys.readouterr().err

    def test_cli_flag_equals_the_backend_spelling(self, tmp_path, capsys):
        """``--comm-backend bus-jobs`` prints what a system that declares
        ``bus-jobs`` prints, ARQ budget included."""
        from repro.cli import main
        from repro.comm import with_comm
        from repro.model.serialization import save_system

        flat = tmp_path / "flat.json"
        declared = tmp_path / "bus-jobs.json"
        arch = platform(arq_retries=2)
        save_system(flat, crossing_apps(), arch, crossing_mapping())
        save_system(
            declared, crossing_apps(), with_comm(arch, backend="bus-jobs"),
            crossing_mapping(),
        )
        outputs = []
        for argv in (
            [str(flat), "--comm-backend", "bus-jobs"], [str(declared)]
        ):
            main(["analyze", *argv])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestLegacySoundness:
    def test_switch_over_an_arq_fabric_is_sound(self):
        """Message jobs over flat with ``arq_retries=2`` keep the
        retransmission margin, so simulated responses under message
        faults stay within the bounds."""
        from repro.comm import with_comm
        from repro.model.serialization import SystemBundle
        from repro.verify.campaign import (
            CampaignConfig,
            run_campaign,
            state_from_bundle,
        )

        architecture = with_comm(platform(arq_retries=2), backend="bus-jobs")
        bundle = SystemBundle(
            crossing_apps(), architecture, crossing_mapping(), plan=None
        )
        state = state_from_bundle(bundle, seed=3)
        report = run_campaign(
            state, CampaignConfig(budget=60, seed=3), label="bus-jobs-arq"
        )
        assert report.ok, report.violations
        assert report.oracles["sim-le-proposed"]["checks"] >= 1
