"""The non-convergence fallback of the window back-end must stay safe."""

import pytest

from repro.hardening.spec import HardeningPlan
from repro.hardening.transform import harden
from repro.model.application import ApplicationSet
from repro.model.architecture import homogeneous_architecture
from repro.model.mapping import Mapping
from repro.model.task import Channel, Task
from repro.model.taskgraph import TaskGraph
from repro.sched.jobs import unroll
from repro.sched.wcrt import WindowAnalysisBackend
from repro.sim.engine import Simulator
from repro.sim.sampler import WorstCaseSampler


@pytest.fixture
def loaded_system():
    """Several mutually interfering chains on two processors."""
    graphs = []
    for index in range(3):
        graphs.append(
            TaskGraph(
                f"g{index}",
                tasks=[
                    Task(f"g{index}a", 1.0, 3.0),
                    Task(f"g{index}b", 2.0, 4.0),
                ],
                channels=[Channel(f"g{index}a", f"g{index}b", 10.0)],
                period=40.0,
                reliability_target=1e-6,
            )
        )
    apps = ApplicationSet(graphs)
    arch = homogeneous_architecture(2)
    mapping = Mapping(
        {
            "g0a": "pe0", "g0b": "pe1",
            "g1a": "pe1", "g1b": "pe0",
            "g2a": "pe0", "g2b": "pe1",
        }
    )
    return apps, arch, mapping


@pytest.mark.parametrize("backend_cls", [WindowAnalysisBackend])
class TestFallback:
    def test_sweep_starved_backend_reports_nonconvergence(
        self, loaded_system, backend_cls
    ):
        apps, arch, mapping = loaded_system
        jobset = unroll(apps, mapping, arch)
        starved = backend_cls(max_sweeps=1).analyze(jobset)
        assert not starved.converged

    def test_fallback_dominates_converged_bounds(self, loaded_system, backend_cls):
        apps, arch, mapping = loaded_system
        jobset = unroll(apps, mapping, arch)
        converged = backend_cls(max_sweeps=200).analyze(jobset)
        starved = backend_cls(max_sweeps=1).analyze(jobset)
        assert converged.converged
        for job in jobset.jobs:
            assert (
                starved.bounds_at(job.index).max_finish
                >= converged.bounds_at(job.index).max_finish - 1e-9
            )

    def test_fallback_dominates_simulation(self, loaded_system, backend_cls):
        apps, arch, mapping = loaded_system
        jobset = unroll(apps, mapping, arch)
        starved = backend_cls(max_sweeps=1).analyze(jobset)
        hardened = harden(apps, HardeningPlan())
        trace = Simulator(hardened, arch, mapping).run(sampler=WorstCaseSampler())
        for graph in apps.graph_names:
            observed = trace.graph_response_time(graph)
            assert starved.graph_wcrt(graph) >= observed - 1e-9
