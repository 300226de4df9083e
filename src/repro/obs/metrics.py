"""Process-wide metrics registry: counters, gauges, timers, histograms.

The DSE loop, the WCRT analysis and the simulator all increment metrics
through the module-level registry returned by :func:`metrics`.  Design
constraints (mirroring the always-on counters of production telemetry
systems):

* **near-zero overhead when disabled** — every record path starts with a
  single ``enabled`` flag check and returns immediately;
* **cheap when enabled** — one short lock acquisition per record, far
  below the cost of the instrumented operations (a ``sched()`` back-end
  run is milliseconds, a lock bounce ~100 ns);
* **machine-readable export** — :meth:`MetricsRegistry.snapshot` gives a
  plain dict, :meth:`MetricsRegistry.write_json` serializes it.

The registry is deliberately *not* reset between runs: like a process
metrics endpoint, values accumulate until :meth:`MetricsRegistry.reset`
is called (the CLI snapshots per-command deltas by resetting first).

Set the environment variable ``REPRO_METRICS=0`` to start the process
with the global registry disabled (used for overhead-sensitive
benchmarking).
"""

import json
import os
import re
import threading
import time
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Default histogram bucket upper bounds (generic log-ish scale that
#: covers sweep counts, transition counts and millisecond timings alike).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)


class MetricError(ReproError):
    """Raised on metric name/type misuse."""


class _Instrument:
    """Shared plumbing: name + back-reference to the owning registry."""

    __slots__ = ("name", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry"):
        self.name = name
        self._registry = registry


class Counter(_Instrument):
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self, name: str, registry: "MetricsRegistry"):
        super().__init__(name, registry)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (no-op while the registry is disabled)."""
        registry = self._registry
        if not registry.enabled:
            return
        if amount < 0:
            raise MetricError(f"counter {self.name!r}: negative increment")
        with registry._lock:
            self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge(_Instrument):
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self, name: str, registry: "MetricsRegistry"):
        super().__init__(name, registry)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            self.value = value

    def as_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class _TimerContext:
    """Context manager measuring one timed section."""

    __slots__ = ("_timer", "_start")

    def __init__(self, timer: "Timer"):
        self._timer = timer
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        self._timer.observe(time.perf_counter() - self._start)
        return False


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


_NULL_CONTEXT = _NullContext()


class Timer(_Instrument):
    """Aggregated durations: count, total, min, max (seconds)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self, name: str, registry: "MetricsRegistry"):
        super().__init__(name, registry)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, seconds: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            self.count += 1
            self.total += seconds
            if self.min is None or seconds < self.min:
                self.min = seconds
            if self.max is None or seconds > self.max:
                self.max = seconds

    def time(self):
        """``with timer.time(): ...`` — records the elapsed wall time."""
        if not self._registry.enabled:
            return _NULL_CONTEXT
        return _TimerContext(self)

    @property
    def mean(self) -> float:
        """Mean duration over all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "type": "timer",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class _P2Quantile:
    """Streaming quantile estimate via the P² algorithm.

    Jain & Chlamtac (1985): five markers track the running quantile in
    O(1) space, adjusted with a piecewise-parabolic fit on every
    observation.  Exact for the first five samples, then an estimate
    whose error shrinks with the stream; no samples are retained.
    """

    __slots__ = ("quantile", "_initial", "_heights", "_positions", "_desired")

    def __init__(self, quantile: float):
        self.quantile = quantile
        self._initial: List[float] = []
        self._heights: Optional[List[float]] = None
        self._positions: Optional[List[float]] = None
        self._desired: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        q = self.quantile
        if self._heights is None:
            self._initial.append(value)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [
                    1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0
                ]
            return
        h, n, d = self._heights, self._positions, self._desired
        if value < h[0]:
            h[0] = value
            cell = 0
        elif value >= h[4]:
            h[4] = value
            cell = 3
        else:
            cell = 3
            for i in range(4):
                if value < h[i + 1]:
                    cell = i
                    break
        for i in range(cell + 1, 5):
            n[i] += 1.0
        increments = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)
        for i in range(5):
            d[i] += increments[i]
        for i in (1, 2, 3):
            delta = d[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                delta <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1 if delta >= 1.0 else -1
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + step * (h[i + step] - h[i]) / (n[i + step] - n[i])

    @property
    def value(self) -> Optional[float]:
        """Current estimate (exact below five samples; None when empty)."""
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return None
        ordered = sorted(self._initial)
        position = self.quantile * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] + (ordered[high] - ordered[low]) * fraction


#: Quantiles every histogram estimates online (name -> q).
QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
)


class Histogram(_Instrument):
    """Fixed-bucket histogram (bucket = upper bound, inclusive).

    Alongside the buckets, three streaming :class:`_P2Quantile`
    estimators (p50/p95/p99) are fed on every observation, giving
    latency percentiles without retaining samples or assuming the
    bucket layout matches the distribution.
    """

    __slots__ = (
        "buckets", "counts", "overflow", "count", "total", "min", "max",
        "_quantiles",
    )

    def __init__(
        self,
        name: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, registry)
        ordered = tuple(sorted(buckets))
        if not ordered:
            raise MetricError(f"histogram {self.name!r}: empty bucket list")
        if len(set(ordered)) != len(ordered):
            raise MetricError(f"histogram {name!r}: duplicate buckets")
        self.buckets = ordered
        self.counts = [0] * len(ordered)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._quantiles = tuple(_P2Quantile(q) for _name, q in QUANTILES)

    def observe(self, value: float) -> None:
        registry = self._registry
        if not registry.enabled:
            return
        with registry._lock:
            slot = bisect_left(self.buckets, value)
            if slot == len(self.buckets):
                self.overflow += 1
            else:
                self.counts[slot] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            for estimator in self._quantiles:
                estimator.observe(value)

    @property
    def mean(self) -> float:
        """Mean observed value (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantiles(self) -> Dict[str, Optional[float]]:
        """Streaming estimates ``{"p50": ..., "p95": ..., "p99": ...}``."""
        return {
            name: estimator.value
            for (name, _q), estimator in zip(QUANTILES, self._quantiles)
        }

    def as_dict(self) -> dict:
        payload = {
            "type": "histogram",
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        payload.update(self.quantiles())
        return payload


def _prometheus_name(name: str) -> str:
    """``serve.latency_ms`` -> ``repro_serve_latency_ms``."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _prometheus_value(value) -> str:
    """A number in Prometheus text syntax (integers stay integral)."""
    if value is None:
        return "NaN"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class MetricsRegistry:
    """A named collection of instruments.

    Instruments are created on first access and type-checked thereafter:
    asking for ``counter("x")`` after ``gauge("x")`` raises
    :class:`MetricError` instead of silently aliasing.
    """

    def __init__(self, enabled: bool = True):
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}
        self._enabled = enabled

    # -- enable / disable ------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether record calls currently do anything."""
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        """Turn every record path into a cheap no-op."""
        self._enabled = False

    # -- instrument accessors --------------------------------------------

    def _get(self, name: str, cls, factory) -> _Instrument:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, requested {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter, lambda: Counter(name, self))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge, lambda: Gauge(name, self))

    def timer(self, name: str) -> Timer:
        """Get or create the timer ``name``."""
        return self._get(name, Timer, lambda: Timer(name, self))

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the histogram ``name`` (buckets fixed at creation)."""
        return self._get(name, Histogram, lambda: Histogram(name, self, buckets))

    # -- lifecycle -------------------------------------------------------

    def reset(self) -> None:
        """Drop every instrument (names become free again)."""
        with self._lock:
            self._instruments.clear()

    # -- export ----------------------------------------------------------

    def snapshot(self) -> dict:
        """All instruments as ``{kind_plural: {name: payload}}``."""
        out: Dict[str, Dict[str, dict]] = {
            "counters": {},
            "gauges": {},
            "timers": {},
            "histograms": {},
        }
        plural = {
            Counter: "counters",
            Gauge: "gauges",
            Timer: "timers",
            Histogram: "histograms",
        }
        with self._lock:
            items = sorted(self._instruments.items())
        for name, instrument in items:
            payload = instrument.as_dict()
            kind = plural[type(instrument)]
            del payload["type"]
            if kind in ("counters", "gauges"):
                out[kind][name] = payload["value"]
            else:
                out[kind][name] = payload
        return out

    def prometheus_lines(self) -> Iterator[str]:
        """Prometheus text exposition (format 0.0.4) of every instrument.

        Names are sanitized to ``repro_<name>`` with non-identifier
        characters collapsed to underscores.  Counters gain the
        conventional ``_total`` suffix; timers export as summaries
        (``_sum``/``_count``); histograms export cumulative
        ``_bucket{le=...}`` series plus ``_sum``/``_count`` and their
        streaming p50/p95/p99 estimates as gauges.
        """
        with self._lock:
            items = sorted(self._instruments.items())
        for name, instrument in items:
            metric = _prometheus_name(name)
            if isinstance(instrument, Counter):
                yield f"# TYPE {metric}_total counter"
                yield f"{metric}_total {instrument.value}"
            elif isinstance(instrument, Gauge):
                yield f"# TYPE {metric} gauge"
                yield f"{metric} {_prometheus_value(instrument.value)}"
            elif isinstance(instrument, Histogram):
                yield f"# TYPE {metric} histogram"
                cumulative = 0
                for bound, count in zip(instrument.buckets, instrument.counts):
                    cumulative += count
                    le = _prometheus_value(bound)
                    yield f'{metric}_bucket{{le="{le}"}} {cumulative}'
                yield f'{metric}_bucket{{le="+Inf"}} {instrument.count}'
                yield f"{metric}_sum {_prometheus_value(instrument.total)}"
                yield f"{metric}_count {instrument.count}"
                for qname, value in instrument.quantiles().items():
                    if value is not None:
                        yield f"# TYPE {metric}_{qname} gauge"
                        yield f"{metric}_{qname} {_prometheus_value(value)}"
            elif isinstance(instrument, Timer):
                yield f"# TYPE {metric} summary"
                yield f"{metric}_sum {_prometheus_value(instrument.total)}"
                yield f"{metric}_count {instrument.count}"

    def write_json(self, path, extra: Optional[dict] = None) -> None:
        """Write the snapshot (merged with ``extra``) as a JSON file."""
        payload = dict(extra or {})
        payload["metrics"] = self.snapshot()
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

#: The process-wide registry every repro subsystem records into.
_GLOBAL = MetricsRegistry(
    enabled=os.environ.get("REPRO_METRICS", "1") not in ("0", "false", "off")
)


def metrics() -> MetricsRegistry:
    """The process-wide registry (always the same object)."""
    return _GLOBAL
