"""Events as point records on the tracer's sinks.

The class names follow the pieces of the record stream: fan-out to the
sinks (``TestBus``), the record shape and the kind catalogue
(``TestSerialization``), the one JSONL writer (``TestJsonlTraceWriter``)
and the CLI's ``--progress`` lines (``TestProgressLogger``).
"""

import json
import re
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import _print_progress, _progress_line
from repro.obs.export import JsonlSpanExporter, read_spans
from repro.obs.trace import (
    EVENT_SCHEMA_FIELDS,
    Tracer,
    capture,
    event,
    listening,
    span,
    tracer,
)

REPO = Path(__file__).resolve().parents[2]

GENERATION_FIELDS = dict(
    generation=1,
    archive_size=10,
    feasible_in_archive=4,
    best_power=12.5,
    hypervolume=3.25,
    evaluations=40,
    cache_hits=10,
    cache_hit_rate=0.2,
    repair_failures=0,
    wall_seconds=0.125,
)

#: One ``(kind, fields)`` sample per kind the program emits.
SAMPLE_EVENTS = [
    ("generation-complete", GENERATION_FIELDS),
    ("evaluation-done", dict(
        feasible=True, power=9.0, service=5.0, violations=0, seconds=0.01
    )),
    ("scenario-analyzed", dict(trigger="t1", granularity="task", sweeps=6)),
    ("fault-injected", dict(time=12.0, task="a", instance=0, attempt=1)),
    ("deadline-miss", dict(
        graph="hi", instance=2, response=40.0, deadline=30.0
    )),
    ("early-stop", dict(generation=8, stagnation=5, best_power=11.0)),
    ("evaluation-failed", dict(
        stage="evaluate",
        error_type="ValueError",
        error="boom",
        attempts=2,
        fallback_used=True,
        quarantined=True,
    )),
    ("backend-fallback", dict(
        reason="error", error_type="ValueError", seconds=0.5
    )),
    ("checkpoint-written", dict(
        generation=10, path="ckpt/checkpoint-00000010.json",
        size_bytes=2048, seconds=0.01,
    )),
    ("run-resumed", dict(
        generation=10, path="ckpt/checkpoint-00000010.json",
        cache_entries=64,
    )),
    ("run-interrupted", dict(generation=11, checkpoint_path=None)),
    ("island-epoch", dict(
        island=1, barrier=10, execution="process", seconds=2.5
    )),
    ("island-migration", dict(
        barrier=10, islands=4, migrants=6, topology="ring"
    )),
    ("verify-violation", dict(
        oracle="sim-le-proposed",
        subject="hi",
        expected=30.0,
        actual=31.5,
        scenario="directed-boundary-1",
    )),
    ("verify-complete", dict(
        label="cruise", scenarios=200, checks=210, violations=1,
        shrink_steps=5, reproducers=1,
    )),
]


@pytest.fixture(autouse=True)
def _clean_tracer():
    tracer().reset()
    yield
    tracer().reset()


def _emitted(kind, **fields):
    """The record ``event(kind, **fields)`` hands a sink."""
    with capture(kind) as records:
        event(kind, **fields)
    (record,) = records
    return record


def _emit_samples():
    for kind, fields in SAMPLE_EVENTS:
        event(kind, **fields)


class TestBus:
    def test_subscribe_receives_only_that_type(self):
        with capture("generation-complete") as records:
            event("generation-complete", **GENERATION_FIELDS)
            event("early-stop", generation=1, stagnation=1, best_power=None)
            with span("not.an.event"):
                pass
        assert [r["event"] for r in records] == ["generation-complete"]

    def test_subscribe_all_receives_everything(self):
        records = []
        tracer().add_sink(records.append)
        _emit_samples()
        assert [(r["event"], r["attrs"]) for r in records] == SAMPLE_EVENTS

    def test_unsubscribe_is_idempotent(self):
        records = []
        tracer().add_sink(records.append)
        tracer().remove_sink(records.append)
        tracer().remove_sink(records.append)  # second detach must not raise
        event("generation-complete", **GENERATION_FIELDS)
        assert records == []

    def test_wants_guards_hot_paths(self, monkeypatch):
        def forbidden(self, kind, fields):
            raise AssertionError("a record was built with no sink attached")

        monkeypatch.setattr(Tracer, "emit", forbidden)
        assert not listening()
        event("generation-complete", **GENERATION_FIELDS)

        def sink(record):
            pass

        tracer().add_sink(sink)
        assert listening()
        tracer().remove_sink(sink)
        assert not listening()

    def test_clear_drops_everything(self):
        records = []
        tracer().add_sink(records.append)
        tracer().reset()
        event("generation-complete", **GENERATION_FIELDS)
        assert records == []
        assert not listening()

    def test_handlers_called_in_subscription_order(self):
        order = []
        tracer().add_sink(lambda record: order.append("first"))
        tracer().add_sink(lambda record: order.append("second"))
        event("early-stop", generation=0, stagnation=1, best_power=None)
        assert order == ["first", "second"]

    def test_capture_context_manager(self):
        with capture("early-stop") as records:
            event("early-stop", generation=3, stagnation=2, best_power=None)
            event("generation-complete", **GENERATION_FIELDS)
        # Detached after the block.
        assert not listening()
        event("early-stop", generation=4, stagnation=2, best_power=None)
        assert [r["attrs"]["generation"] for r in records] == [3]

    def test_concurrent_attach_keeps_every_sink(self):
        """Sinks attached from many threads while others emit are all
        kept: the tuple swap under the lock loses no update."""
        threads_n = 8
        kept = []
        tracer().add_sink(kept.append)
        barrier = threading.Barrier(threads_n)
        received = [[] for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def attach_and_emit(worker):
                barrier.wait()
                tracer().add_sink(received[worker].append)
                for i in range(50):
                    event("early-stop", generation=i, stagnation=worker,
                          best_power=None)

            threads = [
                threading.Thread(target=attach_and_emit, args=(w,))
                for w in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(kept) == threads_n * 50
        event("early-stop", generation=-1, stagnation=-1, best_power=None)
        # Every worker's sink is still attached and saw its own events.
        for worker, records in enumerate(received):
            assert records[-1]["attrs"]["generation"] == -1
            own = [r for r in records if r["attrs"]["stagnation"] == worker]
            assert len(own) == 50

    def test_sink_without_enable_receives_events_but_no_spans(self):
        records = []
        tracer().add_sink(records.append)
        assert not tracer().enabled
        with span("outer"):
            event("early-stop", generation=1, stagnation=1, best_power=None)
        assert [r.get("event") for r in records] == ["early-stop"]
        assert records[0]["trace_id"] is None
        assert records[0]["parent_id"] is None

    def test_event_parent_is_enclosing_span(self):
        records = []
        tracer().enable(records.append)
        with span("outer"):
            with span("inner"):
                event("early-stop", generation=1, stagnation=1,
                      best_power=None)
        stop, inner, outer = records
        assert stop["event"] == "early-stop"
        assert (inner["span"], outer["span"]) == ("inner", "outer")
        assert stop["parent_id"] == inner["span_id"]
        assert stop["trace_id"] == inner["trace_id"] == outer["trace_id"]


class TestSerialization:
    @pytest.mark.parametrize(
        "kind,fields", SAMPLE_EVENTS, ids=[kind for kind, _ in SAMPLE_EVENTS]
    )
    def test_round_trip_every_kind(self, tmp_path, kind, fields):
        path = tmp_path / "trace.jsonl"
        with JsonlSpanExporter(path) as exporter:
            tracer().add_sink(exporter)
            event(kind, **fields)
        (line,) = path.read_text().splitlines()
        record = json.loads(line)
        assert tuple(sorted(record)) == tuple(sorted(EVENT_SCHEMA_FIELDS))
        assert record["event"] == kind
        assert record["attrs"] == fields
        assert record["thread"] == threading.current_thread().name
        assert isinstance(record["start_us"], int)

    def test_catalogue_covers_sample(self):
        """The sample, the program's emit sites and the documented kind
        table name the same kinds."""
        emit = re.compile(r'\bevent\(\s*"([a-z-]+)"')
        emitted = {
            kind
            for path in (REPO / "src" / "repro").rglob("*.py")
            for kind in emit.findall(path.read_text())
        }
        catalogue = (REPO / "docs" / "observability.md").read_text()
        section = catalogue.split("## Event catalogue", 1)[1]
        section = section.split("\n## ", 1)[0]
        # Kind rows have three cells; the schema rows above them two.
        kind_row = re.compile(r"^\| `([a-z-]+)` \|[^|\n]*\|[^|\n]*\|$", re.M)
        documented = set(kind_row.findall(section))
        sampled = {kind for kind, _ in SAMPLE_EVENTS}
        assert sampled == emitted == documented


class TestJsonlTraceWriter:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSpanExporter(path) as exporter:
            tracer().enable(exporter)
            with span("run"):
                _emit_samples()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        events = [(r["event"], r["attrs"]) for r in records if "event" in r]
        assert events == SAMPLE_EVENTS
        (run,) = read_spans(path)
        assert {r["parent_id"] for r in records if "event" in r} == {
            run["span_id"]
        }

    def test_close_is_idempotent(self, tmp_path):
        exporter = JsonlSpanExporter(tmp_path / "trace.jsonl")
        exporter.close()
        exporter.close()

    def test_write_record_after_close_is_noop(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = JsonlSpanExporter(path)
        exporter.close()
        exporter({"span": "late"})
        assert path.read_text() == ""

    def test_concurrent_hammer_produces_valid_unmixed_jsonl(self, tmp_path):
        """N threads emitting events and spans concurrently must yield
        one valid JSON object per line, never interleaved."""
        path = tmp_path / "trace.jsonl"
        threads_n, per_thread = 8, 100
        exporter = JsonlSpanExporter(path)
        tracer().enable(exporter)
        barrier = threading.Barrier(threads_n)

        def hammer(worker):
            barrier.wait()
            for i in range(per_thread):
                if i % 2:
                    event("generation-complete", **dict(
                        GENERATION_FIELDS, generation=i
                    ))
                else:
                    with span("w", worker=worker, i=i, pad="x" * 200):
                        pass

        threads = [
            threading.Thread(target=hammer, args=(w,))
            for w in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        exporter.close()

        lines = path.read_text().splitlines()
        assert len(lines) == threads_n * per_thread
        records = [json.loads(line) for line in lines]  # raises if mixed
        spans = [r for r in records if "span" in r]
        events = [r for r in records if "event" in r]
        assert len(spans) == threads_n * per_thread // 2
        assert len(events) == threads_n * per_thread // 2
        # Every span record arrived intact, not spliced with another.
        seen = {(r["attrs"]["worker"], r["attrs"]["i"]) for r in spans}
        assert len(seen) == len(spans)


class TestProgressLogger:
    def test_generation_line(self):
        line = _progress_line(
            _emitted("generation-complete", **dict(
                GENERATION_FIELDS, generation=7
            ))
        )
        assert "[gen    7]" in line
        assert "best_power=12.500" in line
        assert "cache_hit_rate=0.20" in line

    def test_early_stop_line_and_none_power(self):
        line = _progress_line(
            _emitted("early-stop", generation=9, stagnation=5, best_power=None)
        )
        assert "early stop" in line
        assert "best_power=-" in line

    def test_ignores_unrelated_events(self):
        assert _progress_line(
            _emitted("scenario-analyzed", trigger="t", granularity="job",
                     sweeps=1)
        ) is None
        assert _progress_line({"span": "ga.generation", "attrs": {}}) is None

    def test_attach_subscribes_to_both_kinds(self, capsys):
        tracer().add_sink(_print_progress)
        event("generation-complete", **GENERATION_FIELDS)
        event("early-stop", generation=9, stagnation=5, best_power=None)
        event("scenario-analyzed", trigger="t", granularity="job", sweeps=1)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("[gen    1] archive=")
        assert "early stop" in lines[1]
