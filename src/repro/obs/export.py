"""Trace exporters and post-processing.

Three consumers of the records produced by :mod:`repro.obs.trace`:

* :class:`JsonlSpanExporter` — appends one JSON line per record, span
  or event (span records carry a ``"span"`` key, event records an
  ``"event"`` key);
* :func:`spans_to_chrome` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON format, loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``;
* :func:`summarize` / :func:`format_summary` — the ``repro trace
  summarize`` report: a per-phase self-time table plus the critical
  path through the largest trace in the file.

*Self time* of a span is its duration minus the summed durations of its
direct children — the time attributable to that phase itself rather
than to anything it delegated to.  Summed over a (serial) span tree,
self times reconstruct the root duration exactly, which is what makes
the per-phase table a faithful decomposition.  The span functions
ignore event records, so they accept a sink's whole record list.
"""

import json
import threading
from typing import Dict, Iterable, List, Optional, TextIO, Tuple

from repro.errors import ReproError

__all__ = [
    "JsonlSpanExporter",
    "TraceSummary",
    "format_summary",
    "read_spans",
    "spans_to_chrome",
    "summarize",
    "write_chrome_trace",
]


class JsonlSpanExporter:
    """Tracer sink appending one JSON line per span or event record.

    Thread-safe: serialization happens outside the lock, but the write
    *and* the flush of each line hold one lock together, so concurrent
    emitters (the GA's evaluation threads) never interleave partial
    lines.  A record that arrives after :meth:`close` is dropped.
    """

    def __init__(self, path_or_handle):
        if hasattr(path_or_handle, "write"):
            self._handle: TextIO = path_or_handle
            self._owns = False
        else:
            self._handle = open(path_or_handle, "w")
            self._owns = True
        self._lock = threading.Lock()
        self._closed = False

    def __call__(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._owns:
                self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False


def read_spans(path) -> List[dict]:
    """Span records from a JSONL trace file (event lines are skipped)."""
    spans: List[dict] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{path}:{lineno}: not valid JSON ({error})"
                ) from None
            if isinstance(record, dict) and "span" in record:
                spans.append(record)
    return spans


def _only_spans(records: Iterable[dict]) -> List[dict]:
    return [record for record in records if "span" in record]


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------


def spans_to_chrome(spans: Iterable[dict]) -> dict:
    """Chrome trace-event JSON object for ``spans``.

    Complete ``"X"`` (duration) events on one pid, one tid per source
    thread; thread names are attached as ``"M"`` metadata events so
    Perfetto labels the tracks.
    """
    events: List[dict] = []
    tids: Dict[str, int] = {}
    for record in _only_spans(spans):
        thread = str(record.get("thread", "main"))
        tid = tids.setdefault(thread, len(tids) + 1)
        args = {
            "trace_id": record.get("trace_id"),
            "span_id": record.get("span_id"),
            "parent_id": record.get("parent_id"),
        }
        attrs = record.get("attrs") or {}
        for key, value in attrs.items():
            args[key] = value
        events.append({
            "name": record.get("span", "?"),
            "cat": str(record.get("span", "?")).split(".", 1)[0],
            "ph": "X",
            "ts": record.get("start_us", 0),
            "dur": max(1, int(record.get("duration_us", 0))),
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": thread},
        }
        for thread, tid in sorted(tids.items(), key=lambda kv: kv[1])
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[dict], path) -> None:
    """Write :func:`spans_to_chrome` output as a JSON file."""
    with open(path, "w") as handle:
        json.dump(spans_to_chrome(spans), handle, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Summaries: per-phase self time and critical path
# ---------------------------------------------------------------------------


class TraceSummary:
    """Aggregated view of one trace file (see :func:`summarize`)."""

    __slots__ = ("phases", "critical_path", "root", "total_us", "span_count")

    def __init__(self, phases, critical_path, root, total_us, span_count):
        #: ``[(name, count, total_us, self_us)]`` sorted by self time.
        self.phases: List[Tuple[str, int, int, int]] = phases
        #: ``[(name, duration_us)]`` root-to-leaf along largest children.
        self.critical_path: List[Tuple[str, int]] = critical_path
        #: The root span record of the largest trace (or ``None``).
        self.root: Optional[dict] = root
        #: Duration of that root span in microseconds.
        self.total_us: int = total_us
        self.span_count: int = span_count


def _roots(spans: List[dict]) -> List[dict]:
    """Spans whose parent is absent from the file (remote or none)."""
    ids = {record["span_id"] for record in spans if "span_id" in record}
    return [
        record for record in spans
        if record.get("parent_id") is None
        or record.get("parent_id") not in ids
    ]


def child_coverage(spans: List[dict], root: dict) -> float:
    """Fraction of ``root``'s duration covered by its direct children."""
    duration = root.get("duration_us") or 0
    if duration <= 0:
        return 0.0
    covered = sum(
        record.get("duration_us", 0)
        for record in _only_spans(spans)
        if record.get("parent_id") == root.get("span_id")
    )
    return min(1.0, covered / duration)


def summarize(spans: List[dict]) -> TraceSummary:
    """Per-phase self-time table plus critical path for ``spans``."""
    spans = _only_spans(spans)
    if not spans:
        return TraceSummary([], [], None, 0, 0)

    children: Dict[Optional[str], List[dict]] = {}
    for record in spans:
        children.setdefault(record.get("parent_id"), []).append(record)

    # Self time: duration minus direct children (clamped — parallel
    # children can overlap and legitimately exceed the parent).
    phase_total: Dict[str, int] = {}
    phase_self: Dict[str, int] = {}
    phase_count: Dict[str, int] = {}
    for record in spans:
        name = record.get("span", "?")
        duration = int(record.get("duration_us", 0))
        child_sum = sum(
            int(child.get("duration_us", 0))
            for child in children.get(record.get("span_id"), ())
        )
        phase_total[name] = phase_total.get(name, 0) + duration
        phase_self[name] = phase_self.get(name, 0) + max(
            0, duration - child_sum
        )
        phase_count[name] = phase_count.get(name, 0) + 1
    phases = sorted(
        (
            (name, phase_count[name], phase_total[name], phase_self[name])
            for name in phase_total
        ),
        key=lambda row: row[3],
        reverse=True,
    )

    roots = _roots(spans)
    root = max(roots, key=lambda r: r.get("duration_us", 0), default=None)
    total_us = int(root.get("duration_us", 0)) if root else 0

    critical: List[Tuple[str, int]] = []
    node = root
    seen = set()
    while node is not None and node.get("span_id") not in seen:
        seen.add(node.get("span_id"))
        critical.append(
            (node.get("span", "?"), int(node.get("duration_us", 0)))
        )
        kids = children.get(node.get("span_id"), [])
        node = max(kids, key=lambda r: r.get("duration_us", 0), default=None)

    return TraceSummary(phases, critical, root, total_us, len(spans))


def _fmt_us(us: int) -> str:
    if us >= 1_000_000:
        return f"{us / 1e6:.2f}s"
    if us >= 1_000:
        return f"{us / 1e3:.1f}ms"
    return f"{us}us"


def format_summary(summary: TraceSummary, top: int = 20) -> str:
    """Human-readable report for ``repro trace summarize``."""
    if summary.span_count == 0:
        return "no spans found\n"
    lines: List[str] = []
    lines.append(
        f"{summary.span_count} spans; largest trace root: "
        + (
            f"{summary.root.get('span')} ({_fmt_us(summary.total_us)})"
            if summary.root
            else "-"
        )
    )
    lines.append("")
    lines.append("per-phase self time")
    lines.append(
        f"  {'phase':<32} {'count':>7} {'total':>10} {'self':>10} {'self%':>7}"
    )
    grand_self = sum(row[3] for row in summary.phases) or 1
    for name, count, total_us, self_us in summary.phases[:top]:
        share = 100.0 * self_us / grand_self
        lines.append(
            f"  {name:<32} {count:>7} {_fmt_us(total_us):>10} "
            f"{_fmt_us(self_us):>10} {share:>6.1f}%"
        )
    if len(summary.phases) > top:
        lines.append(f"  … {len(summary.phases) - top} more phases")
    lines.append("")
    lines.append("critical path (largest child at each level)")
    for depth, (name, duration_us) in enumerate(summary.critical_path):
        lines.append(f"  {'  ' * depth}{name}  {_fmt_us(duration_us)}")
    return "\n".join(lines) + "\n"
