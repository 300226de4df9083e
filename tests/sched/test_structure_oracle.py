"""The array-native job-set structure equals the per-job build, with ``==``.

:mod:`tests.sched.reference` keeps the record-by-record build: the
unrolling loop over :class:`~repro.sched.jobs.Job` records, ancestor
sets, the per-processor interference scan, the batch split and the
window back-end's index-array assembly.  Every input here is unrolled
both ways and must agree exactly: the ``_Precomputed`` arrays (values and
dtypes), the lazy ``.jobs`` and ``batches()`` views, the interference
lists and the fingerprint's structural digest.
"""

import random

import numpy as np
import pytest

from perfbench.inputs import large_inputs, seeded_design, small_inputs
from repro.benchgen.tgff import generate_problem
from repro.comm import default_comm, make_comm
from repro.hardening.spec import HardeningPlan
from repro.hardening.transform import harden
from repro.sched.jobs import unroll
from repro.sched.priority import assign_priorities
from repro.sched.wcrt import _Precomputed
from repro.suites import get_benchmark

from tests.sched.reference import (
    ReferenceStructure,
    reference_jobs,
    reference_structure_digest,
)


def _normal_state(item, comm=None):
    """``(applications, mapping, architecture, unroll kwargs)`` as
    Algorithm 1 unrolls a design for its normal state."""
    bundle = item.bundle
    hardened = harden(bundle.applications, bundle.plan or HardeningPlan())
    bounds = {
        task.name: hardened.nominal_bounds(task.name)
        for task in hardened.applications.all_tasks
    }
    for passive in hardened.passive_tasks:
        bounds[passive] = (0.0, 0.0)
    return (
        hardened.applications,
        bundle.mapping,
        bundle.architecture,
        dict(
            comm=comm if comm is not None else default_comm(bundle.architecture),
            priorities=assign_priorities(hardened.applications),
            bounds=bounds,
        ),
    )


def assert_structure_matches(applications, mapping, architecture, **options):
    jobset = unroll(applications, mapping, architecture, **options)
    # The reference builds message jobs by its own flag, set when the
    # comm backend is spelled "bus-jobs".
    message_jobs = getattr(options.get("comm"), "name", None) == "bus-jobs"
    jobs = reference_jobs(
        applications, mapping, architecture, message_jobs=message_jobs, **options
    )
    reference = ReferenceStructure(jobs)

    assert jobset.jobs == tuple(jobs)
    assert jobset.batches() == reference.batches
    assert [
        jobset.higher_priority_on_same_pe(index) for index in range(len(jobs))
    ] == reference.higher_priority
    assert jobset._structure() == reference_structure_digest(
        jobs, jobset.hyperperiod, 2, jobset.comm_token
    )

    precomputed = _Precomputed(jobset)
    for name, expected in reference.precomputed().items():
        actual = getattr(precomputed, name)
        if name == "levels":
            assert len(actual) == len(expected)
            for (members, edges), (want_members, want_edges) in zip(actual, expected):
                assert members.dtype == want_members.dtype
                assert members.tolist() == want_members.tolist()
                assert edges == want_edges
        elif isinstance(expected, np.ndarray):
            assert actual.dtype == expected.dtype, name
            assert np.array_equal(actual, expected), name
        else:
            assert actual == expected, name
    return jobset


@pytest.fixture(scope="module")
def perfbench_inputs():
    return small_inputs() + large_inputs()


@pytest.mark.parametrize("position", range(27))
def test_perfbench_analyze_inputs(perfbench_inputs, position):
    assert len(perfbench_inputs) == 27
    applications, mapping, architecture, options = _normal_state(
        perfbench_inputs[position]
    )
    assert_structure_matches(applications, mapping, architecture, **options)


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("policy", ["fp", "edf"])
@pytest.mark.parametrize("arq", [False, True])
@pytest.mark.parametrize("comm", ["flat", "shared-bus", "bus-jobs"])
@pytest.mark.parametrize("shuffled", [False, True], ids=["ranked", "shuffled"])
def test_seeded_tgff_systems(seed, policy, arq, comm, shuffled):
    problem = generate_problem(
        seed=seed, critical_graphs=2, droppable_graphs=2, processors=3
    )
    item = seeded_design(f"tgff-{seed}", problem, random.Random(seed))
    budget = dict(arq_retries=2, arq_timeout=0.5) if arq else {}
    applications, mapping, architecture, options = _normal_state(
        item, comm=make_comm(comm, **budget)
    )
    if shuffled:
        # Arbitrary task priorities: descendants may outrank ancestors,
        # so both directions of the precedence exclusion are exercised.
        names = sorted(applications.all_task_names)
        ranks = random.Random(seed).sample(range(len(names)), len(names))
        options["priorities"] = dict(zip(names, ranks))
    jobset = assert_structure_matches(
        applications, mapping, architecture, policy=policy, **options
    )
    if comm == "bus-jobs":
        assert any(job.processor == "__bus__" for job in jobset.jobs)


def test_seeded_dt_large_chromosomes():
    problem = get_benchmark("dt-large").problem
    for seed in range(20):
        item = seeded_design(f"dt-large#{seed}", problem, random.Random(seed))
        applications, mapping, architecture, options = _normal_state(item)
        assert_structure_matches(applications, mapping, architecture, **options)


def test_names_that_need_escaping(architecture):
    """``%`` and quotes in names reach the digest literally."""
    from repro.model.application import ApplicationSet
    from repro.model.mapping import Mapping
    from repro.model.task import Channel, Task
    from repro.model.taskgraph import TaskGraph

    graph = TaskGraph(
        "g%s'1",
        tasks=[Task("a%d", 1.0, 2.0), Task('b"%%', 1.0, 2.0), Task("c'", 1.0, 1.0)],
        channels=[Channel("a%d", 'b"%%', 4.0), Channel('b"%%', "c'", 2.0)],
        period=10.0,
        reliability_target=1e-6,
    )
    mapping = Mapping({"a%d": "pe0", 'b"%%': "pe1", "c'": "pe0"})
    for comm in ("flat", "bus-jobs"):
        assert_structure_matches(
            ApplicationSet([graph]), mapping, architecture, comm=make_comm(comm)
        )
