"""Observability: metrics, structured logging, spans and events.

Three pieces (see ``docs/observability.md`` for the full schema):

* :mod:`repro.obs.metrics` — process-wide counters, gauges, timers and
  fixed-bucket histograms with JSON/JSONL export; near-zero overhead
  when disabled.
* :mod:`repro.obs.logging` — the ``repro.*`` structured logger
  hierarchy.
* :mod:`repro.obs.trace` / :mod:`repro.obs.export` — one record stream:
  hierarchical spans and point events (generation-complete,
  evaluation-done, scenario-analyzed, fault-injected, …) fanned out to
  the tracer's sinks, with cross-thread and cross-process context
  propagation, a JSONL exporter, a Chrome trace-event exporter and
  per-phase self-time summaries.
"""

from repro.obs.export import (
    JsonlSpanExporter,
    format_summary,
    read_spans,
    spans_to_chrome,
    summarize,
    write_chrome_trace,
)
from repro.obs.logging import configure, get_logger, kv
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    Timer,
    metrics,
)
from repro.obs.trace import (
    Span,
    SpanContext,
    Tracer,
    activate,
    capture,
    capture_context,
    current_context,
    event,
    from_traceparent,
    listening,
    span,
    to_traceparent,
    tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSpanExporter",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "SpanContext",
    "Timer",
    "Tracer",
    "activate",
    "capture",
    "capture_context",
    "configure",
    "current_context",
    "event",
    "format_summary",
    "from_traceparent",
    "get_logger",
    "kv",
    "listening",
    "metrics",
    "read_spans",
    "span",
    "spans_to_chrome",
    "summarize",
    "to_traceparent",
    "tracer",
    "write_chrome_trace",
]
