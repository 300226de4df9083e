"""The stacked window fixed point equals one solve per row, with ``==``.

``WindowAnalysisBackend.analyze_many`` solves Algorithm 1's transition
rows as disjoint copies of one structure, in chunks.  Every row must
equal its own ``analyze`` call in all four bound arrays, ``sweeps`` and
``converged``; a subset must also equal the scalar
:class:`tests.sched.reference.ReferenceWindowBackend`.  The rows
themselves (windows gathered from the normal state, all transitions
classified at once) must equal the per-transition construction.  At the
analysis level, the stacked path, a forwarding back-end that only has
``analyze`` (the per-row adapter) and the warm-started holistic back-end
must give the same results and the same telemetry.
"""

import random
import threading

import numpy as np
import pytest

from perfbench.inputs import large_inputs, seeded_design, small_inputs
from repro.benchgen.tgff import generate_problem
from repro.comm import make_comm
from repro.core import FastPathConfig, MixedCriticalityAnalysis
from repro.core.analysis import _TransitionPlan
from repro.errors import AnalysisError
from repro.hardening.spec import HardeningKind, HardeningPlan
from repro.hardening.transform import harden
from repro.obs.metrics import metrics
from repro.obs.trace import capture, tracer
from repro.sched import wcrt
from repro.sched.holistic import HolisticAnalysisBackend
from repro.sched.wcrt import WindowAnalysisBackend, _Precomputed

from tests.sched.reference import ReferenceWindowBackend

FIELDS = ("min_start", "min_finish", "max_start", "max_finish")


def assert_same_bounds(actual, expected):
    for field in FIELDS:
        assert np.array_equal(getattr(actual, field), getattr(expected, field)), field
    assert actual.sweeps == expected.sweeps
    assert actual.converged == expected.converged


class Rows:
    """Algorithm 1's transition rows of one design, built both ways."""

    def __init__(self, bundle, dropped, comm=None, policy="fp", granularity="job"):
        hardened = harden(bundle.applications, bundle.plan or HardeningPlan())
        analysis = MixedCriticalityAnalysis(
            comm=comm, policy=policy, granularity=granularity
        )
        base = analysis._base_jobset(hardened, bundle.architecture, bundle.mapping)
        normal = WindowAnalysisBackend().analyze(base)
        plan = _TransitionPlan(
            hardened,
            bundle.architecture,
            bundle.mapping,
            base,
            normal,
            hardened.source.validate_drop_set(dropped),
            False,
        )
        self.enumerated, self.windows = analysis._enumerate_transitions(
            hardened, base, normal
        )
        self.bcet, self.wcet = plan.rows(self.enumerated, self.windows)
        self.base = base
        self.jobsets = [
            base.with_bound_arrays(bcet, wcet) for bcet, wcet in zip(self.bcet, self.wcet)
        ]
        self._hardened, self._normal, self._plan = hardened, normal, plan

    def reference_windows(self):
        """``(minStart_v, maxFinish_v)`` per transition, one job at a time."""
        normal = self._normal
        windows = []
        for trigger, instance in self.enumerated:
            if instance is None:
                windows.append(
                    (
                        min(normal.task_min_start(a) for a in trigger.start_anchors),
                        normal.task_max_finish(trigger.finish_anchor),
                    )
                )
            else:
                windows.append(
                    (
                        min(
                            normal.job_bounds((a, instance)).min_start
                            for a in trigger.start_anchors
                        ),
                        normal.job_bounds((trigger.finish_anchor, instance)).max_finish,
                    )
                )
        return windows

    def reference_row(self, row):
        """One transition's ``(bcet, wcet)``, classified on its own."""
        plan, hardened = self._plan, self._hardened
        trigger, instance = self.enumerated[row]
        min_start_v, max_finish_v = self.reference_windows()[row]
        affected = ~(plan._normal_max_finish < min_start_v)
        bcet = np.array(plan._bcet)
        wcet = np.array(plan._wcet)
        dropped = affected & plan._dropped
        gone = dropped & (plan._normal_min_start > max_finish_v)
        maybe = dropped & ~gone
        bcet[maybe] = plan._dropped_low[maybe]
        bcet[gone] = 0.0
        wcet[gone] = 0.0
        redundant = affected & plan._redundant
        wcet[redundant] = plan._inflated[redundant]
        passive = affected & plan._passive
        bcet[passive] = 0.0
        wcet[passive] = plan._activated[passive]
        if trigger.kind is not HardeningKind.PASSIVE:
            own = plan._jobs_of(trigger.primary, instance)
            bcet[own] = plan._bcet[own]
            wcet[own] = plan._inflated[own]
        else:
            for name in hardened.replica_groups[trigger.primary]:
                if hardened.is_passive(name):
                    own = plan._jobs_of(name, instance)
                    bcet[own] = 0.0
                    wcet[own] = plan._activated[own]
        return bcet, wcet


def assert_rows_match(rows, backend=None, reference=False):
    """Rows equal the per-transition build, and stacked bounds equal one
    ``analyze`` per row (and the scalar reference when asked)."""
    backend = backend or WindowAnalysisBackend()
    assert list(zip(*rows.windows)) == rows.reference_windows()
    for row in range(len(rows.jobsets)):
        bcet, wcet = rows.reference_row(row)
        assert np.array_equal(rows.bcet[row], bcet)
        assert np.array_equal(rows.wcet[row], wcet)
    stacked = backend.analyze_many(rows.jobsets)
    assert len(stacked) == len(rows.jobsets)
    for jobset, bounds in zip(rows.jobsets, stacked):
        assert bounds.jobset is jobset
        assert_same_bounds(bounds, backend.analyze(jobset))
        if reference:
            assert_same_bounds(bounds, ReferenceWindowBackend().analyze(jobset))
    return stacked


@pytest.fixture(scope="module")
def perfbench_inputs():
    return small_inputs() + large_inputs()


@pytest.mark.parametrize("position", range(27))
def test_perfbench_analyze_inputs(perfbench_inputs, position):
    assert len(perfbench_inputs) == 27
    item = perfbench_inputs[position]
    rows = Rows(item.bundle, item.dropped)
    assert rows.jobsets
    # The scalar reference is slow: the first cycle of the small set.
    assert_rows_match(rows, reference=position < 6)


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("policy", ["fp", "edf"])
@pytest.mark.parametrize("comm", ["flat", "shared-bus", "bus-jobs"])
def test_seeded_tgff_systems(seed, policy, comm):
    problem = generate_problem(
        seed=seed, critical_graphs=2, droppable_graphs=2, processors=3
    )
    item = seeded_design(f"tgff-{seed}", problem, random.Random(seed))
    rows = Rows(item.bundle, item.dropped, comm=make_comm(comm), policy=policy)
    assert_rows_match(rows, reference=seed == 3)
    task_rows = Rows(
        item.bundle, item.dropped, comm=make_comm(comm), policy=policy,
        granularity="task",
    )
    assert_rows_match(task_rows)


def _cruise_rows():
    item = small_inputs(count=1)[0]
    assert item.label.startswith("cruise")
    return Rows(item.bundle, item.dropped)


def test_starved_sweeps_mix_converged_and_fallback_rows():
    rows = _cruise_rows()
    sweeps = sorted(b.sweeps for b in WindowAnalysisBackend().analyze_many(rows.jobsets))
    limit = max(count for count in sweeps if count < sweeps[-1])
    starved = WindowAnalysisBackend(max_sweeps=limit)
    stacked = assert_rows_match(rows, backend=starved)
    assert {b.converged for b in stacked} == {True, False}
    assert all(b.sweeps == limit for b in stacked if not b.converged)
    first = [k for k, b in enumerate(stacked) if not b.converged][0]
    assert_same_bounds(
        stacked[first], ReferenceWindowBackend(max_sweeps=limit).analyze(rows.jobsets[first])
    )


def test_rows_span_chunks_with_a_remainder(monkeypatch):
    rows = _cruise_rows()
    jobsets = (rows.jobsets * 3)[:8]
    base = rows.base.derived("window", lambda: _Precomputed(rows.base))
    monkeypatch.setattr(wcrt, "_CHUNK_PAIRS", 3 * base.pairs)
    records = []
    tracer().reset()
    tracer().enable(records.append)
    try:
        stacked = WindowAnalysisBackend().analyze_many(jobsets)
    finally:
        tracer().reset()
    solves = [r["attrs"] for r in records if r["span"] == "sched.window.fixed_point"]
    assert [attrs["rows"] for attrs in solves] == [3, 3, 2]
    # One tiled structure per chunk size, kept on the base structure.
    assert sorted(base._tiles) == [2, 3]
    for jobset, bounds in zip(jobsets, stacked):
        assert_same_bounds(bounds, WindowAnalysisBackend().analyze(jobset))


def test_rows_of_other_structures_are_rejected():
    rows = _cruise_rows()
    other = Rows(small_inputs(count=2)[1].bundle, ())
    with pytest.raises(AnalysisError, match="clones of one job set"):
        WindowAnalysisBackend().analyze_many([rows.jobsets[0], other.jobsets[0]])
    assert WindowAnalysisBackend().analyze_many([]) == []


def test_two_threads_share_one_backend(monkeypatch):
    cruise = _cruise_rows()
    other = Rows(small_inputs(count=2)[1].bundle, small_inputs(count=2)[1].dropped)
    expected = {
        id(jobset): WindowAnalysisBackend().analyze(jobset)
        for rows in (cruise, other)
        for jobset in rows.jobsets
    }
    monkeypatch.setattr(wcrt, "_CHUNK_PAIRS", 2 * cruise.base.derived(
        "window", lambda: _Precomputed(cruise.base)
    ).pairs)
    backend = WindowAnalysisBackend()
    failures = []

    def hammer(seed):
        rng = random.Random(seed)
        try:
            for _ in range(30):
                rows = rng.choice((cruise, other))
                chosen = rng.sample(rows.jobsets, rng.randint(1, len(rows.jobsets)))
                for jobset, bounds in zip(chosen, backend.analyze_many(chosen)):
                    assert_same_bounds(bounds, expected[id(jobset)])
        except AssertionError as error:  # pragma: no cover - reported below
            failures.append(error)

    threads = [threading.Thread(target=hammer, args=(seed,)) for seed in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures


def test_structures_are_built_once_per_job_set(monkeypatch):
    """Threads alternating two structures on one back-end no longer
    evict each other's index arrays: each structure is built once."""
    def fresh_base(item):
        bundle = item.bundle
        return MixedCriticalityAnalysis()._base_jobset(
            harden(bundle.applications, bundle.plan or HardeningPlan()),
            bundle.architecture,
            bundle.mapping,
        )

    first, second = (fresh_base(item) for item in small_inputs(count=2))
    builds = []
    build = _Precomputed.__init__

    def counting(self, jobset):
        builds.append(jobset.topo_order)
        build(self, jobset)

    monkeypatch.setattr(_Precomputed, "__init__", counting)
    backend = WindowAnalysisBackend()
    barrier = threading.Barrier(2)

    def alternate(order):
        for step in range(6):
            barrier.wait()
            backend.analyze(order[step % 2])

    threads = [
        threading.Thread(target=alternate, args=(order,))
        for order in ((first, second), (second, first))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(builds) == 2
    assert {id(key) for key in builds} == {id(first.topo_order), id(second.topo_order)}


# ----------------------------------------------------------------------
# Algorithm 1 on top
# ----------------------------------------------------------------------


class AnalyzeOnly:
    """A forwarding back-end with only ``analyze`` (the per-row adapter)."""

    def __init__(self, inner):
        self._inner = inner
        self.supports_warm_start = getattr(inner, "supports_warm_start", False)

    def analyze(self, jobset, **kwargs):
        return self._inner.analyze(jobset, **kwargs)


def _run(item, backend, fast_path, granularity="job"):
    registry = metrics()
    registry.reset()
    with capture("scenario-analyzed") as records:
        bundle = item.bundle
        analysis = MixedCriticalityAnalysis(
            backend=backend, granularity=granularity, fast_path=fast_path
        )
        result = analysis.analyze(
            harden(bundle.applications, bundle.plan or HardeningPlan()),
            bundle.architecture,
            bundle.mapping,
            item.dropped,
        )
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    assert snapshot["histograms"]["sched.sweeps"]["count"] == counters["sched.invocations"]
    scenarios = [(r["attrs"]["trigger"], r["attrs"]["sweeps"]) for r in records]
    tallies = {
        name: counters.get(name, 0)
        for name in (
            "sched.invocations",
            "analysis.cache.hits",
            "analysis.cache.misses",
            "analysis.transitions",
            "analysis.prune.skipped",
        )
    }
    cache = fast_path.cache.stats() if fast_path is not None else None
    return result, scenarios, tallies, cache


@pytest.mark.parametrize(
    "fast_path",
    [None, FastPathConfig, FastPathConfig.for_dse],
    ids=["cold", "default", "dse"],
)
@pytest.mark.parametrize("granularity", ["job", "task"])
@pytest.mark.parametrize("position", range(6))
def test_stacked_analysis_equals_the_per_row_adapter(position, granularity, fast_path):
    item = small_inputs(count=6)[position]

    def config():
        return None if fast_path is None else fast_path()

    stacked = _run(item, WindowAnalysisBackend(), config(), granularity)
    per_row = _run(item, AnalyzeOnly(WindowAnalysisBackend()), config(), granularity)
    assert stacked == per_row
    result, scenarios, tallies, _cache = stacked
    assert [label for label, _sweeps in scenarios] == [
        t.trigger_primary if t.instance is None else f"{t.trigger_primary}@{t.instance}"
        for t in result.transitions
    ]
    assert tallies["analysis.transitions"] == len(result.transitions)


def _warm_starts():
    registry = metrics()
    return tuple(
        registry.counter(f"analysis.warmstart.{name}").value
        for name in ("seeded", "rejected")
    )


@pytest.mark.parametrize("position", range(6))
def test_holistic_keeps_its_warm_start(position):
    item = small_inputs(count=6)[position]
    cold = _run(item, HolisticAnalysisBackend(), None)
    warm = _run(item, HolisticAnalysisBackend(), FastPathConfig())
    warm_starts = _warm_starts()
    forwarded = _run(item, AnalyzeOnly(HolisticAnalysisBackend()), FastPathConfig())
    assert warm[0] == cold[0]
    assert forwarded == warm
    assert _warm_starts() == warm_starts
    assert sum(warm_starts) == warm[2]["sched.invocations"] - 1


def test_transitions_span_carries_the_stacked_phase():
    item = small_inputs(count=1)[0]
    records = []
    tracer().reset()
    tracer().enable(records.append)
    try:
        result = _run(item, WindowAnalysisBackend(), FastPathConfig())[0]
    finally:
        tracer().reset()
    (phase,) = [r["attrs"] for r in records if r.get("span") == "analysis.transitions"]
    assert phase["transitions"] == len(result.transitions)
    assert phase["pruned"] == 0
    assert phase["rows"] + phase["cache_hits"] == phase["transitions"]
    assert phase["rows"] > 1
    solves = [r["attrs"] for r in records if r.get("span") == "sched.window.fixed_point"]
    assert len(solves) == 1 + phase["chunks"]
    assert sum(attrs["rows"] for attrs in solves) == 1 + phase["rows"]
    assert "analysis.transition" not in {r.get("span") for r in records}


def test_a_converged_row_keeps_the_state_it_converged_at(monkeypatch):
    """A row stops at its first sweep without growth above the tolerance
    and drops that sweep's smaller growth, also while other rows of its
    stack sweep on.  At the default tolerance the fixed points here are
    exact, so a coarse tolerance makes the dropped growth visible."""
    rows = _cruise_rows()
    monkeypatch.setattr(wcrt, "_TOLERANCE", float(np.median(rows.base.wcet)))
    backend = WindowAnalysisBackend()
    stacked = backend.analyze_many(rows.jobsets)
    assert len({b.sweeps for b in stacked}) > 1
    for jobset, bounds in zip(rows.jobsets, stacked):
        assert_same_bounds(bounds, backend.analyze(jobset))
