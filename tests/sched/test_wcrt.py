"""Unit tests for the window-based schedulability back-end."""

import random

import pytest

from repro.model.application import ApplicationSet
from repro.model.architecture import Architecture, Interconnect, Processor
from repro.model.mapping import Mapping
from repro.model.task import Channel, Task
from repro.model.taskgraph import TaskGraph
from repro.sched.jobs import unroll
from repro.sched.wcrt import WindowAnalysisBackend


def arch(n=2, bandwidth=10.0, base_latency=0.0):
    return Architecture(
        [Processor(f"pe{i}") for i in range(n)],
        Interconnect(bandwidth=bandwidth, base_latency=base_latency),
    )


def analyze(apps, mapping, architecture, **kwargs):
    jobset = unroll(apps, mapping, architecture, **kwargs)
    return jobset, WindowAnalysisBackend().analyze(jobset)


class TestIsolatedTask:
    def test_exact_bounds(self):
        graph = TaskGraph(
            "g", [Task("t", 2.0, 5.0)], [], period=10.0, service_value=1.0
        )
        apps = ApplicationSet([graph])
        jobset, bounds = analyze(apps, Mapping({"t": "pe0"}), arch())
        jb = bounds.job_bounds(("t", 0))
        assert jb.min_start == 0.0
        assert jb.min_finish == 2.0
        assert jb.max_finish == 5.0
        assert bounds.converged
        assert bounds.graph_wcrt("g") == 5.0

    def test_second_instance_offsets(self):
        graph = TaskGraph(
            "g", [Task("t", 2.0, 5.0)], [], period=10.0, service_value=1.0
        )
        apps = ApplicationSet([graph])
        _jobset, bounds = analyze(apps, Mapping({"t": "pe0"}), arch())
        jb = bounds.job_bounds(("t", 1))
        assert jb.min_start == 10.0
        assert jb.max_finish == 15.0


class TestChain:
    def test_same_pe_chain_exact(self):
        graph = TaskGraph(
            "g",
            [Task("a", 1.0, 2.0), Task("b", 2.0, 3.0)],
            [Channel("a", "b", 0.0)],
            period=20.0,
            service_value=1.0,
        )
        apps = ApplicationSet([graph])
        _jobset, bounds = analyze(apps, Mapping({"a": "pe0", "b": "pe0"}), arch())
        jb = bounds.job_bounds(("b", 0))
        assert jb.min_start == 1.0
        assert jb.min_finish == 3.0
        assert jb.max_finish == 5.0

    def test_cross_pe_chain_includes_comm(self):
        graph = TaskGraph(
            "g",
            [Task("a", 1.0, 2.0), Task("b", 2.0, 3.0)],
            [Channel("a", "b", 20.0)],  # 20 bytes / 10 per ms = 2 ms
            period=20.0,
            service_value=1.0,
        )
        apps = ApplicationSet([graph])
        _jobset, bounds = analyze(apps, Mapping({"a": "pe0", "b": "pe1"}), arch())
        jb = bounds.job_bounds(("b", 0))
        assert jb.min_start == pytest.approx(3.0)  # 1 + 2
        assert jb.max_finish == pytest.approx(7.0)  # 2 + 2 + 3


class TestInterference:
    def make_two_tasks(self, period_fast=10.0, period_slow=20.0):
        fast = TaskGraph(
            "fast", [Task("f", 1.0, 2.0)], [], period=period_fast, service_value=1.0
        )
        slow = TaskGraph(
            "slow", [Task("s", 3.0, 6.0)], [], period=period_slow,
            reliability_target=1e-6,
        )
        return ApplicationSet([fast, slow])

    def test_low_priority_suffers_interference(self):
        apps = self.make_two_tasks()
        _jobset, bounds = analyze(
            apps, Mapping({"f": "pe0", "s": "pe0"}), arch(1)
        )
        # f (period 10) outranks s: s can be delayed by overlapping f jobs.
        jb_s = bounds.job_bounds(("s", 0))
        assert jb_s.max_finish >= 6.0 + 2.0
        # f itself is never delayed by s (preemptive fixed priority).
        jb_f = bounds.job_bounds(("f", 0))
        assert jb_f.max_finish == pytest.approx(2.0)

    def test_separate_pes_no_interference(self):
        apps = self.make_two_tasks()
        _jobset, bounds = analyze(
            apps, Mapping({"f": "pe0", "s": "pe1"}), arch(2)
        )
        assert bounds.job_bounds(("s", 0)).max_finish == pytest.approx(6.0)

    def test_bounds_are_ordered(self, hardened, architecture, mapping):
        nominal = {
            t.name: hardened.nominal_bounds(t.name)
            for t in hardened.applications.all_tasks
        }
        for passive in hardened.passive_tasks:
            nominal[passive] = (0.0, 0.0)
        jobset = unroll(hardened.applications, mapping, architecture, bounds=nominal)
        bounds = WindowAnalysisBackend().analyze(jobset)
        for job in jobset.jobs:
            jb = bounds.bounds_at(job.index)
            assert jb.min_start <= jb.min_finish <= jb.max_finish + 1e-9
            assert jb.min_start >= job.release


class TestAggregation:
    def test_task_aggregates(self, apps, architecture):
        flat = Mapping({t: "pe0" for t in apps.all_task_names})
        jobset, bounds = (lambda js: (js, WindowAnalysisBackend().analyze(js)))(
            unroll(apps, flat, architecture)
        )
        jobs = [job for job in jobset.jobs_of_task("x") if job.analyzed]
        assert bounds.task_min_start("x") == min(
            bounds.bounds_at(j.index).min_start for j in jobs
        )
        assert bounds.task_max_finish("x") == max(
            bounds.bounds_at(j.index).max_finish for j in jobs
        )

    def test_deadline_misses(self):
        graph = TaskGraph(
            "g", [Task("t", 5.0, 50.0)], [], period=60.0, deadline=10.0,
            service_value=1.0,
        )
        apps = ApplicationSet([graph])
        jobset = unroll(apps, Mapping({"t": "pe0"}), arch(1))
        bounds = WindowAnalysisBackend().analyze(jobset)
        assert ("t", 0) in bounds.deadline_misses()
        assert bounds.deadline_misses(include_graphs=["other"]) == []


class TestMonotonicity:
    def test_larger_wcet_never_shrinks_bounds(self, apps, architecture):
        flat = Mapping({t: "pe0" for t in apps.all_task_names})
        base = unroll(apps, flat, architecture)
        backend = WindowAnalysisBackend()
        reference = backend.analyze(base)
        inflated = backend.analyze(base.with_bounds({("a", 0): (1.0, 8.0)}))
        for job in base.analyzed_jobs:
            assert (
                inflated.bounds_at(job.index).max_finish
                >= reference.bounds_at(job.index).max_finish - 1e-9
            )
