"""Span exporters: JSONL, Chrome trace-event JSON, summaries."""

import json
import threading

import pytest

from repro.errors import ReproError
from repro.obs.export import (
    JsonlSpanExporter,
    child_coverage,
    format_summary,
    read_spans,
    spans_to_chrome,
    summarize,
    write_chrome_trace,
)
from repro.obs.trace import event, span, tracer


@pytest.fixture(autouse=True)
def _clean_tracer():
    tracer().reset()
    yield
    tracer().reset()


def _record(name, span_id, parent_id, start_us, duration_us, **attrs):
    return {
        "span": name,
        "trace_id": "t" * 32,
        "span_id": span_id,
        "parent_id": parent_id,
        "start_us": start_us,
        "duration_us": duration_us,
        "thread": "main",
        "attrs": attrs,
    }


class TestJsonlRoundtrip:
    def test_export_then_read(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = JsonlSpanExporter(path)
        tracer().enable(exporter)
        with span("outer"):
            with span("inner", hits=2):
                pass
        exporter.close()
        spans = read_spans(path)
        assert [r["span"] for r in spans] == ["inner", "outer"]
        assert spans[0]["attrs"] == {"hits": 2}

    def test_event_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            json.dumps(
                {"event": "generation-complete", "attrs": {"generation": 1}}
            )
            + "\n"
            + json.dumps(_record("s", "a" * 16, None, 0, 10))
            + "\n\n"
        )
        spans = read_spans(path)
        assert len(spans) == 1
        assert spans[0]["span"] == "s"

    def test_bad_json_raises_with_location(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"span": "ok"}\nnot-json\n')
        with pytest.raises(ReproError, match=r":2"):
            read_spans(path)

    def test_concurrent_exports_stay_line_separated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        exporter = JsonlSpanExporter(path)
        tracer().enable(exporter)

        def hammer(i):
            for j in range(50):
                with span("w", worker=i, iteration=j):
                    pass

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        exporter.close()
        spans = read_spans(path)
        assert len(spans) == 8 * 50


class TestChromeExport:
    def test_schema(self):
        spans = [
            _record("api.analyze", "a" * 16, None, 0, 1000, cache_hit=True),
            _record("sched.holistic.fixed_point", "b" * 16, "a" * 16, 10, 500),
        ]
        payload = spans_to_chrome(spans)
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1 and meta[0]["args"]["name"] == "main"
        assert len(slices) == 2
        analyze = next(e for e in slices if e["name"] == "api.analyze")
        assert analyze["cat"] == "api"
        assert analyze["dur"] == 1000
        assert analyze["args"]["cache_hit"] is True
        assert all(e["pid"] == 1 for e in slices)

    def test_zero_duration_clamped_to_one(self):
        payload = spans_to_chrome([_record("s", "a" * 16, None, 0, 0)])
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert slices[0]["dur"] == 1

    def test_write_is_loadable_json(self, tmp_path):
        out = tmp_path / "chrome.json"
        write_chrome_trace([_record("s", "a" * 16, None, 0, 5)], out)
        loaded = json.loads(out.read_text())
        assert isinstance(loaded["traceEvents"], list)

    def test_threads_get_distinct_tids(self):
        a = _record("s", "a" * 16, None, 0, 5)
        b = dict(_record("s", "b" * 16, None, 0, 5), thread="worker-1")
        payload = spans_to_chrome([a, b])
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len({e["tid"] for e in slices}) == 2


class TestSummaries:
    def _tree(self):
        # root (100) -> mid (60) -> leaf (40); serial, fully nested.
        return [
            _record("root", "r" * 16, None, 0, 100),
            _record("mid", "m" * 16, "r" * 16, 10, 60),
            _record("leaf", "l" * 16, "m" * 16, 20, 40),
        ]

    def test_self_time_decomposes_root_exactly(self):
        summary = summarize(self._tree())
        self_by_name = {row[0]: row[3] for row in summary.phases}
        assert self_by_name == {"root": 40, "mid": 20, "leaf": 40}
        assert sum(self_by_name.values()) == summary.total_us

    def test_phases_sorted_by_self_time(self):
        summary = summarize(self._tree())
        selves = [row[3] for row in summary.phases]
        assert selves == sorted(selves, reverse=True)

    def test_critical_path_follows_largest_child(self):
        spans = self._tree() + [
            _record("small", "s" * 16, "r" * 16, 80, 5)
        ]
        summary = summarize(spans)
        assert [name for name, _ in summary.critical_path] == [
            "root", "mid", "leaf"
        ]

    def test_root_is_largest_parentless_span(self):
        spans = self._tree() + [
            _record("other_root", "o" * 16, "gone" + "x" * 12, 0, 30)
        ]
        summary = summarize(spans)
        assert summary.root["span"] == "root"

    def test_parallel_children_clamp_self_time(self):
        spans = [
            _record("root", "r" * 16, None, 0, 100),
            _record("a", "a" * 16, "r" * 16, 0, 80),
            _record("b", "b" * 16, "r" * 16, 0, 80),
        ]
        summary = summarize(spans)
        self_by_name = {row[0]: row[3] for row in summary.phases}
        assert self_by_name["root"] == 0  # clamped, not negative

    def test_child_coverage(self):
        spans = self._tree()
        assert child_coverage(spans, spans[0]) == pytest.approx(0.6)
        assert child_coverage(spans, spans[1]) == pytest.approx(40 / 60)

    def test_event_records_are_ignored(self):
        spans = self._tree()
        records = []
        tracer().add_sink(records.append)
        event("early-stop", generation=1, stagnation=1, best_power=None)
        events = records + [
            dict(records[0], parent_id=span_["span_id"]) for span_ in spans
        ]

        def digest(summary):
            return (
                summary.phases, summary.critical_path, summary.root,
                summary.total_us, summary.span_count,
            )

        assert digest(summarize(spans + events)) == digest(summarize(spans))
        assert child_coverage(spans + events, spans[0]) == (
            child_coverage(spans, spans[0])
        )
        assert spans_to_chrome(spans + events) == spans_to_chrome(spans)

    def test_empty_input(self):
        summary = summarize([])
        assert summary.span_count == 0
        assert "no spans" in format_summary(summary)

    def test_format_summary_mentions_phases_and_path(self):
        text = format_summary(summarize(self._tree()))
        assert "per-phase self time" in text
        assert "critical path" in text
        assert "root" in text and "leaf" in text
