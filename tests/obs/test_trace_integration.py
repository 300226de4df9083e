"""Integration: explore runs produce one coherent span tree.

The structural guarantees under test:

* a run is a single trace rooted at ``dse.run`` regardless of how the
  Explorer is driven;
* serial and ``workers=N`` runs produce the *same tree shape* for the
  structural skeleton (parent links survive the executor hand-off);
* the trace context rides checkpoints, so a resumed run records where
  it came from.
"""

import pytest

from repro.dse.ga import Explorer, ExplorerConfig
from repro.obs.trace import tracer

#: The structural skeleton compared across serial/parallel runs.  Spans
#: below the memoized analysis layer (``analysis.transitions``,
#: ``sched.*``) are excluded: evaluation *order* differs between serial
#: and threaded runs, so cache hit/miss placement may differ even though
#: every reported number is identical.
SKELETON = {
    "dse.run",
    "ga.generation",
    "ga.evaluate_batch",
    "eval.guarded",
    "analysis.run",
}


@pytest.fixture(autouse=True)
def _clean_tracer():
    tracer().reset()
    yield
    tracer().reset()


def _config(**overrides):
    defaults = dict(
        population_size=8,
        offspring_size=8,
        archive_size=8,
        generations=2,
        seed=11,
    )
    defaults.update(overrides)
    return ExplorerConfig(**defaults)


def _run_traced(problem, **overrides):
    """The span records of one traced run (event records dropped)."""
    spans, _events, result = _run_traced_with_events(problem, **overrides)
    return spans, result


def _run_traced_with_events(problem, **overrides):
    records = []
    tracer().reset()
    tracer().enable(records.append)
    result = Explorer(problem, _config(**overrides)).run()
    tracer().reset()
    spans = [r for r in records if "span" in r]
    events = [r for r in records if "event" in r]
    return spans, events, result


def _shape(records):
    """Sorted multiset of root-to-span name paths over the skeleton."""
    by_id = {r["span_id"]: r for r in records}
    paths = []
    for record in records:
        if record["span"] not in SKELETON:
            continue
        path = [record["span"]]
        parent = record.get("parent_id")
        while parent in by_id:
            path.append(by_id[parent]["span"])
            parent = by_id[parent].get("parent_id")
        paths.append(tuple(reversed(path)))
    return sorted(paths)


class TestSingleTree:
    def test_run_is_one_trace_rooted_at_dse_run(self, problem):
        records, _result = _run_traced(problem)
        assert len({r["trace_id"] for r in records}) == 1
        roots = [r for r in records if r["parent_id"] is None]
        assert [r["span"] for r in roots] == ["dse.run"]

    def test_generations_parent_on_dse_run(self, problem):
        records, result = _run_traced(problem)
        root = next(r for r in records if r["span"] == "dse.run")
        generations = [r for r in records if r["span"] == "ga.generation"]
        assert len(generations) == result.generations_run + 1
        assert {r["parent_id"] for r in generations} == {root["span_id"]}

    def test_events_hang_under_their_spans(self, problem):
        spans, events, result = _run_traced_with_events(problem)
        by_id = {r["span_id"]: r for r in spans}
        generations = [
            r for r in events if r["event"] == "generation-complete"
        ]
        assert len(generations) == result.generations_run + 1
        for record in generations:
            parent = by_id[record["parent_id"]]
            assert parent["span"] == "ga.generation"
            assert parent["attrs"]["generation"] == (
                record["attrs"]["generation"]
            )
        evaluations = [r for r in events if r["event"] == "evaluation-done"]
        assert evaluations
        assert {by_id[r["parent_id"]]["span"] for r in evaluations} == {
            "eval.guarded"
        }
        assert {r["trace_id"] for r in events} == {
            r["trace_id"] for r in spans
        }

    def test_child_self_times_cover_root(self, problem):
        from repro.obs.export import child_coverage

        # Longer run so the uninstrumented setup (initial population
        # construction) amortizes; the 90% bound is the acceptance bar
        # for realistic workloads.
        records, _result = _run_traced(problem, generations=6)
        root = next(r for r in records if r["span"] == "dse.run")
        assert child_coverage(records, root) >= 0.9

    def test_deep_attribution_present(self, problem):
        records, _result = _run_traced(problem)
        names = {r["span"] for r in records}
        assert "analysis.transitions" in names
        assert "eval.guarded" in names
        transition_attrs = [
            r["attrs"] for r in records if r["span"] == "analysis.transitions"
        ]
        assert transition_attrs
        assert all(
            attrs["rows"] + attrs["cache_hits"] == attrs["transitions"]
            for attrs in transition_attrs
        )


class TestParallelShape:
    def test_serial_and_threaded_trees_have_same_shape(self, problem):
        serial, serial_result = _run_traced(problem, workers=1)
        threaded, threaded_result = _run_traced(problem, workers=3)
        assert serial_result.statistics.evaluations == (
            threaded_result.statistics.evaluations
        )
        assert _shape(serial) == _shape(threaded)

    def test_threaded_run_spans_cross_threads_but_one_trace(self, problem):
        records, _result = _run_traced(problem, workers=3)
        assert len({r["trace_id"] for r in records}) == 1
        evaluations = [r for r in records if r["span"] == "eval.guarded"]
        assert len({r["thread"] for r in evaluations}) > 1
        batches = {
            r["span_id"] for r in records if r["span"] == "ga.evaluate_batch"
        }
        assert {r["parent_id"] for r in evaluations} <= batches


class TestCheckpointContinuity:
    def test_snapshot_carries_trace_context(self, problem, tmp_path):
        records, _result = _run_traced(
            problem,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=1,
        )
        from repro.dse.checkpoint import CheckpointManager, problem_digest

        manager = CheckpointManager(str(tmp_path), problem_digest(problem))
        snapshot, _path = manager.load_latest()
        root = next(r for r in records if r["span"] == "dse.run")
        assert snapshot.trace is not None
        assert snapshot.trace["trace_id"] == root["trace_id"]
        assert snapshot.trace["span_id"] == root["span_id"]

    def test_resumed_run_records_original_trace_id(self, problem, tmp_path):
        first, _result = _run_traced(
            problem,
            generations=2,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=1,
        )
        original = next(r for r in first if r["span"] == "dse.run")
        resumed, _result = _run_traced(
            problem,
            generations=4,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=10,
            resume=True,
        )
        root = next(r for r in resumed if r["span"] == "dse.run")
        assert root["attrs"]["resumed_trace_id"] == original["trace_id"]

    def test_untraced_runs_store_no_context(self, problem, tmp_path):
        Explorer(
            problem,
            _config(checkpoint_dir=str(tmp_path), checkpoint_every=1),
        ).run()
        from repro.dse.checkpoint import CheckpointManager, problem_digest

        manager = CheckpointManager(str(tmp_path), problem_digest(problem))
        snapshot, _path = manager.load_latest()
        assert snapshot.trace is None
