"""Hierarchical span tracing, point events and cross-process propagation.

Spans answer *where* the time went: a run produces a tree of named,
monotonic-clock-timed sections (``api.explore`` → ``ga.generation`` →
``eval.guarded`` → ``sched.holistic`` → …) with typed attributes
attached at the point where the information exists (cache hits,
transitions pruned, warm-start outcomes, generation index, batch size,
queue wait).  Events answer *what happened*: :func:`event` hands every
sink a point record (a finished generation, a backend fallback, a
simulated fault) parented on the calling thread's current span.
Design constraints mirror :mod:`repro.obs.metrics`:

* **near-zero overhead when disabled** — :func:`span` checks one flag
  and returns a shared no-op context manager; :func:`event` checks
  whether any sink is attached; no IDs are drawn, no dicts are built,
  nothing is locked;
* **cheap when enabled** — starting a span draws 8 random bytes and
  pushes onto a thread-local stack; finishing one builds a small dict
  and hands it to the sinks, read as an immutable tuple without a lock;
* **propagation is explicit** — :func:`capture_context` /
  :func:`activate` carry the current span across
  ``ThreadPoolExecutor`` workers, :func:`to_traceparent` /
  :func:`from_traceparent` carry it across HTTP hops (W3C
  ``traceparent`` syntax), and :meth:`SpanContext.to_dict` /
  :meth:`SpanContext.from_dict` carry it through explore checkpoints so
  a resumed job continues the same trace.

Every attached sink receives events; spans additionally need
:meth:`Tracer.enable`.  So ``--progress`` and ``--metrics-out`` attach
a sink and pay nothing for spans, while ``--trace-out`` turns both on.
Records are plain dicts (see :data:`SPAN_SCHEMA_FIELDS` and
:data:`EVENT_SCHEMA_FIELDS`) so any sink — the JSONL exporter, an
in-memory list, the Chrome trace exporter in :mod:`repro.obs.export` —
consumes the same shape.  Span records carry a ``"span"`` key where
event records carry ``"event"``, so both interleave in one stream.
"""

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "activate",
    "annotate",
    "capture",
    "capture_context",
    "current_context",
    "event",
    "from_traceparent",
    "listening",
    "span",
    "to_traceparent",
    "tracer",
    "RESPONSE_TRACE_HEADER",
    "TRACEPARENT_HEADER",
]

#: Request header carrying the caller's trace context (W3C syntax).
TRACEPARENT_HEADER = "traceparent"
#: Response header echoing the trace ID a request was served under.
RESPONSE_TRACE_HEADER = "X-Repro-Trace"

#: Keys present in every finished span record.
SPAN_SCHEMA_FIELDS = (
    "span", "trace_id", "span_id", "parent_id",
    "start_us", "duration_us", "thread", "attrs",
)
#: Keys present in every event record: a point in time, so no
#: ``span_id`` and no ``duration_us``.
EVENT_SCHEMA_FIELDS = (
    "event", "trace_id", "parent_id", "start_us", "thread", "attrs",
)

# Wall-clock anchor for the process: span timestamps are monotonic
# offsets from this pair, so records from one process share a timeline
# and Chrome-trace ``ts`` values are stable within a trace file.
_EPOCH_MONOTONIC = time.monotonic()
_EPOCH_WALL = time.time()

Sink = Callable[[dict], None]


def _new_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


class SpanContext:
    """An addressable position in a trace: ``(trace_id, span_id)``."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def to_dict(self) -> dict:
        """JSON-ready form (checkpoint / job-record serialization)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: Optional[dict]) -> Optional["SpanContext"]:
        """Inverse of :meth:`to_dict`; tolerates ``None`` / junk."""
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if not trace_id or not span_id:
            return None
        return cls(str(trace_id), str(span_id))

    def __repr__(self) -> str:
        return f"SpanContext({self.trace_id!r}, {self.span_id!r})"


class Span:
    """One live, named, timed section; use as a context manager."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "_tracer", "_start", "_attrs", "_stack",
    )

    def __init__(
        self,
        tracer_: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attrs: Optional[dict],
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id(8)
        self.parent_id = parent_id
        self._tracer = tracer_
        self._start = 0.0
        self._attrs = dict(attrs) if attrs else {}
        self._stack: Optional[List["Span"]] = None

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach one typed attribute (bool/int/float/str)."""
        self._attrs[key] = value

    def set_attributes(self, **attrs: Any) -> None:
        """Attach several attributes at once."""
        self._attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._stack = self._tracer._stack()
        self._stack.append(self)
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        duration = time.monotonic() - self._start
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif stack is not None:  # pragma: no cover — unbalanced exit
            try:
                stack.remove(self)
            except ValueError:
                pass
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        self._tracer._finish(self, duration)
        return False


class _NoopSpan:
    """Shared do-nothing span returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attrs: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _NullActivation:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


_NULL_ACTIVATION = _NullActivation()


class _Activation:
    """Installs a remote/captured context as the thread's trace root.

    Re-roots the thread: the existing span stack is set aside (spans
    already live on it keep a reference and still close correctly) and
    new spans parent on ``context`` until exit.  This is what lets a
    pool worker run a request's work under the *request's* trace even
    though the worker thread has its own infrastructure spans open.
    """

    __slots__ = ("_tracer", "_context", "_prev_stack", "_prev_remote")

    def __init__(self, tracer_: "Tracer", context: SpanContext):
        self._tracer = tracer_
        self._context = context
        self._prev_stack: Optional[List["Span"]] = None
        self._prev_remote: Optional[SpanContext] = None

    def __enter__(self):
        local = self._tracer._local
        self._prev_stack = getattr(local, "stack", None)
        self._prev_remote = getattr(local, "remote", None)
        local.stack = []
        local.remote = self._context
        return self

    def __exit__(self, *_exc):
        local = self._tracer._local
        local.stack = (
            self._prev_stack if self._prev_stack is not None else []
        )
        local.remote = self._prev_remote
        return False


class Tracer:
    """Creates spans and events, tracks per-thread context, fans out to sinks.

    The sink list is an immutable tuple swapped under the lock, so
    emitters (the GA's evaluation threads) read it without locking and
    never block each other.
    """

    def __init__(self, enabled: bool = False):
        self._enabled = enabled
        self._sinks: Tuple[Sink, ...] = ()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- enable / disable ------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether :func:`span` produces real spans."""
        return self._enabled

    def enable(self, sink: Optional[Sink] = None) -> None:
        """Turn tracing on, optionally adding ``sink`` first."""
        if sink is not None:
            self.add_sink(sink)
        self._enabled = True

    def disable(self) -> None:
        """Turn every span call into a shared no-op."""
        self._enabled = False

    def add_sink(self, sink: Sink) -> None:
        """Register a callable receiving each event and finished span."""
        with self._lock:
            if sink not in self._sinks:
                self._sinks = self._sinks + (sink,)

    def remove_sink(self, sink: Sink) -> None:
        """Detach ``sink`` (idempotent)."""
        with self._lock:
            self._sinks = tuple(s for s in self._sinks if s != sink)

    def reset(self) -> None:
        """Disable, drop every sink, forget all thread contexts."""
        self._enabled = False
        with self._lock:
            self._sinks = ()
        self._local = threading.local()

    # -- per-thread context ----------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span(self) -> Optional[Span]:
        """The innermost live span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def current_context(self) -> Optional[SpanContext]:
        """Context of the innermost live span, or the activated remote."""
        current = self.current_span()
        if current is not None:
            return current.context
        return getattr(self._local, "remote", None)

    def activate(self, context: Optional[SpanContext]):
        """Adopt ``context`` as this thread's parent for new spans.

        Used on executor workers (parent captured at submit time) and on
        server request threads (parent parsed off ``traceparent``).
        """
        if context is None or not self._enabled:
            return _NULL_ACTIVATION
        return _Activation(self, context)

    # -- span lifecycle --------------------------------------------------

    def start_span(self, name: str, attrs: Optional[dict] = None):
        """A context-managed span parented on the thread's current context."""
        if not self._enabled:
            return _NOOP_SPAN
        parent = self.current_context()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = _new_id(16), None
        return Span(self, name, trace_id, parent_id, attrs)

    def _finish(self, span_: Span, duration: float) -> None:
        record = {
            "span": span_.name,
            "trace_id": span_.trace_id,
            "span_id": span_.span_id,
            "parent_id": span_.parent_id,
            "start_us": int(
                (span_._start - _EPOCH_MONOTONIC) * 1e6
            ),
            "duration_us": int(duration * 1e6),
            "thread": threading.current_thread().name,
            "attrs": span_._attrs,
        }
        for sink in self._sinks:
            sink(record)

    def emit(self, kind: str, fields: dict) -> None:
        """Hand every sink a point record parented on the current span."""
        sinks = self._sinks
        if not sinks:
            return
        parent = self.current_context()
        record = {
            "event": kind,
            "trace_id": parent.trace_id if parent is not None else None,
            "parent_id": parent.span_id if parent is not None else None,
            "start_us": int((time.monotonic() - _EPOCH_MONOTONIC) * 1e6),
            "thread": threading.current_thread().name,
            "attrs": fields,
        }
        for sink in sinks:
            sink(record)


# ---------------------------------------------------------------------------
# traceparent encoding (W3C trace-context syntax, version 00)
# ---------------------------------------------------------------------------


def to_traceparent(context: Optional[SpanContext]) -> Optional[str]:
    """``00-<trace_id>-<span_id>-01`` for ``context`` (``None`` in, out)."""
    if context is None:
        return None
    trace_id = context.trace_id.ljust(32, "0")[:32]
    span_id = context.span_id.ljust(16, "0")[:16]
    return f"00-{trace_id}-{span_id}-01"


def from_traceparent(header: Optional[str]) -> Optional[SpanContext]:
    """Parse a ``traceparent`` header; ``None`` on absence or junk."""
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    _version, trace_id, span_id = parts[0], parts[1], parts[2]
    if len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16)
        int(span_id, 16)
    except ValueError:
        return None
    if int(trace_id, 16) == 0 or int(span_id, 16) == 0:
        return None
    return SpanContext(trace_id, span_id)


# ---------------------------------------------------------------------------
# module-level conveniences over the process-wide tracer
# ---------------------------------------------------------------------------

#: The process-wide tracer every repro subsystem records into.  Spans
#: are off by default: ``--trace-out`` (CLI) turns them on with a JSONL
#: sink; a server traces once its process enables this tracer.
_GLOBAL = Tracer(enabled=False)


def tracer() -> Tracer:
    """The process-wide tracer (always the same object)."""
    return _GLOBAL


def span(name: str, **attrs: Any):
    """``with span("phase", key=value): ...`` on the global tracer.

    Returns the shared no-op span when tracing is off; hot call sites
    pay one attribute load, one flag check and one (small) kwargs dict.
    """
    if not _GLOBAL._enabled:
        return _NOOP_SPAN
    return _GLOBAL.start_span(name, attrs)


def annotate(**attrs: Any) -> None:
    """Attach attributes to the innermost live span on this thread.

    Lets deep layers (cache lookups, warm-start decisions) enrich the
    span their caller opened without threading a span object through
    every signature.  A no-op when tracing is off or no span is live.
    """
    if not _GLOBAL._enabled:
        return
    current = _GLOBAL.current_span()
    if current is not None:
        current._attrs.update(attrs)


def current_context() -> Optional[SpanContext]:
    """The calling thread's current span context (or ``None``)."""
    if not _GLOBAL._enabled:
        return None
    return _GLOBAL.current_context()


def capture_context() -> Optional[SpanContext]:
    """Snapshot the current context for hand-off to another thread."""
    return current_context()


def activate(context: Optional[SpanContext]):
    """``with activate(ctx): ...`` — parent new spans on ``ctx``."""
    return _GLOBAL.activate(context)


def event(kind: str, **fields: Any) -> None:
    """Emit one ``kind`` point record to every sink on the global tracer.

    Costs one check when no sink is attached.  Guard fields that take
    work to compute with :func:`listening`.
    """
    if _GLOBAL._sinks:
        _GLOBAL.emit(kind, fields)


def listening() -> bool:
    """Whether any sink is attached (and so would receive an event)."""
    return bool(_GLOBAL._sinks)


@contextmanager
def capture(*kinds: str) -> Iterator[List[dict]]:
    """Collect the event records of ``kinds`` (or of every kind).

    >>> with capture("generation-complete") as records:
    ...     ...
    >>> [r["attrs"]["generation"] for r in records]  # doctest: +SKIP

    The sink detaches when the block exits.
    """
    records: List[dict] = []

    def sink(record: dict) -> None:
        kind = record.get("event")
        if kind is not None and (not kinds or kind in kinds):
            records.append(record)

    _GLOBAL.add_sink(sink)
    try:
        yield records
    finally:
        _GLOBAL.remove_sink(sink)
