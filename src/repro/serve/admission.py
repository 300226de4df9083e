"""Criticality-aware admission control for the serving tier.

The paper's core move is graceful degradation by criticality: under
faults, best-effort graphs are dropped so critical ones keep their
guarantees.  The serving tier treats *overload* the same way.  Every
request carries a criticality class, and the admission layer enforces a
rely-guarantee contract mirrored from mixed-criticality scheduling:
under sustained pressure, best-effort load is shed first, standard load
degrades next, and critical requests keep full service and a stated
latency behavior (strict-priority queueing bounds their wait by the
critical backlog alone, not the total backlog).

Three mechanisms compose here:

* **Classes** — ``critical`` / ``standard`` / ``best-effort``, sent as
  an ``X-Repro-Class`` header or a ``criticality`` request field.
  Unknown names are rejected with the full class list (the ``--method``
  error pattern).  The class maps to a strict priority in the worker
  pool's admission queue (:mod:`repro.serve.pool`), where an aging
  floor keeps best-effort from starving forever under bounded load.
* **Per-client quotas** — a token bucket per ``X-Repro-Client`` id
  (``--quota-rps`` / ``--quota-burst``).  An exhausted bucket answers
  an honest 429 with ``Retry-After`` equal to the time until the next
  token, never less than one second.
* **Brownout** — a hysteretic controller watching the pool's estimated
  queue delay.  Stage 1 sheds best-effort with 503; stage 2 additionally
  serves ``standard`` analyze through a bounded fast-window fallback
  marked ``"degraded": true`` (and sheds other standard compute).
  ``critical`` is never shed or degraded.  Stages clear only after the
  delay stays under the exit threshold for a dwell period, so the
  controller cannot flap at the threshold.

Deadlines propagate end to end: the client sends its remaining budget
as ``X-Repro-Deadline``, admission folds it with any body
``deadline_seconds`` (the tighter wins), and a request whose budget is
already spent fails with 504 *at admission* instead of burning a
worker on an answer nobody is waiting for.
"""

import math
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Mapping, Optional

from repro.errors import ReproError
from repro.obs.metrics import metrics

__all__ = [
    "CLASSES",
    "DEFAULT_CLASS",
    "CLASS_HEADER",
    "CLIENT_HEADER",
    "DEADLINE_HEADER",
    "class_priority",
    "parse_class",
    "parse_client_id",
    "parse_deadline",
    "AdmissionContext",
    "AdmissionDecision",
    "AdmissionController",
    "TokenBucket",
    "ClientQuotas",
    "BrownoutController",
    "QuotaExceeded",
    "BrownoutShed",
]

#: Criticality classes, most critical first; the index is the strict
#: priority used by the worker pool (0 preempts 1 preempts 2 at pickup).
CLASSES = ("critical", "standard", "best-effort")
DEFAULT_CLASS = "standard"

CLASS_HEADER = "X-Repro-Class"
CLIENT_HEADER = "X-Repro-Client"
DEADLINE_HEADER = "X-Repro-Deadline"

#: Client id of requests that did not identify themselves; they share
#: one quota bucket, so anonymous traffic cannot multiply its budget by
#: omitting the header.
ANONYMOUS_CLIENT = "anonymous"

_CLIENT_ID_MAX = 128
_CLIENT_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


class QuotaExceeded(ReproError):
    """The client's token bucket is empty; retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: int):
        super().__init__(message)
        self.retry_after = max(1, int(retry_after))


class BrownoutShed(ReproError):
    """The brownout controller shed this class; 503 + ``Retry-After``."""

    def __init__(self, message: str, retry_after: int):
        super().__init__(message)
        self.retry_after = max(1, int(retry_after))


def class_priority(criticality: str) -> int:
    """The strict queue priority of a class (0 is most urgent)."""
    return CLASSES.index(criticality)


def parse_class(value: Any) -> str:
    """Validate a criticality class name (the ``--method`` UX pattern)."""
    if value is None:
        return DEFAULT_CLASS
    if value not in CLASSES:
        raise ReproError(
            f"unknown criticality class {value!r}; valid classes: "
            f"{', '.join(sorted(CLASSES))}"
        )
    return value


def parse_client_id(value: Any) -> str:
    """Validate an ``X-Repro-Client`` id (quota-bucket key)."""
    if value is None:
        return ANONYMOUS_CLIENT
    if (
        not isinstance(value, str)
        or not value
        or len(value) > _CLIENT_ID_MAX
        or not set(value) <= _CLIENT_ID_CHARS
        or value.startswith(".")
    ):
        raise ReproError(
            f"{CLIENT_HEADER} must be 1-{_CLIENT_ID_MAX} characters of "
            f"[A-Za-z0-9._-] and must not start with '.'"
        )
    return value


def parse_deadline(value: Any) -> Optional[float]:
    """Validate an ``X-Repro-Deadline`` remaining budget in seconds.

    Zero and negative budgets are *accepted* here — a doomed request is
    an admission-time 504 (an answer), not a 400 (a client bug).
    """
    if value is None:
        return None
    try:
        deadline = float(value)
    except (TypeError, ValueError):
        raise ReproError(
            f"{DEADLINE_HEADER} must be the remaining request budget as a "
            f"number of seconds, got {value!r}"
        ) from None
    if math.isnan(deadline) or math.isinf(deadline):
        raise ReproError(
            f"{DEADLINE_HEADER} must be a finite number of seconds, "
            f"got {value!r}"
        )
    return deadline


class AdmissionContext:
    """Who is asking, how urgent it is, and how much budget is left.

    Built from request headers (and optionally body fields, which win
    over headers); carried alongside — never inside — the canonical
    request params, so admission metadata can never split the dedup key
    of an otherwise identical computation.
    """

    __slots__ = ("criticality", "client", "deadline", "received", "decision")

    def __init__(
        self,
        criticality: str = DEFAULT_CLASS,
        client: str = ANONYMOUS_CLIENT,
        deadline_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.criticality = parse_class(criticality)
        self.client = parse_client_id(client)
        self.received = clock()
        #: Filled in by the server once the request is admitted.
        self.decision: Optional["AdmissionDecision"] = None
        #: Absolute monotonic deadline derived from the remaining budget
        #: the client reported, or ``None``.
        self.deadline = (
            self.received + deadline_seconds
            if deadline_seconds is not None
            else None
        )

    @classmethod
    def from_headers(cls, headers: Mapping[str, str]) -> "AdmissionContext":
        """Parse the admission headers; raises :class:`ReproError` (400)
        on malformed values, listing what would have been accepted."""
        return cls(
            criticality=parse_class(headers.get(CLASS_HEADER)),
            client=parse_client_id(headers.get(CLIENT_HEADER)),
            deadline_seconds=parse_deadline(headers.get(DEADLINE_HEADER)),
        )

    def absorb_body_fields(self, payload: Dict[str, Any]) -> None:
        """Pop ``criticality``/``client`` body fields into the context.

        Body fields override headers (they are more specific).  They are
        *removed* from the payload so the canonical request params — and
        therefore the dedup digest — never vary with admission metadata.
        """
        if "criticality" in payload:
            self.criticality = parse_class(payload.pop("criticality"))
        if "client" in payload:
            self.client = parse_client_id(payload.pop("client"))

    @property
    def priority(self) -> int:
        return class_priority(self.criticality)

    def remaining(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds of budget left, or ``None`` when unbounded."""
        if self.deadline is None:
            return None
        return self.deadline - (time.monotonic() if now is None else now)

    def merged_deadline(
        self, body_deadline: Optional[float]
    ) -> Optional[float]:
        """The effective budget in seconds: tighter of header and body."""
        remaining = self.remaining()
        if remaining is None:
            return body_deadline
        if body_deadline is None:
            return remaining
        return min(remaining, body_deadline)


class AdmissionDecision:
    """Outcome of an accepted admission."""

    __slots__ = ("criticality", "priority", "degraded", "stage")

    def __init__(self, criticality: str, degraded: bool, stage: int):
        self.criticality = criticality
        self.priority = class_priority(criticality)
        #: Whether the request must be served through the bounded
        #: fast-window fallback and marked ``"degraded": true``.
        self.degraded = degraded
        #: Brownout stage at admission time (0 = normal).
        self.stage = stage


class TokenBucket:
    """Thread-safe token bucket: ``rate`` tokens/second, ``burst`` cap.

    ``acquire()`` refills from the injected clock, then consumes one
    token if available; otherwise it reports the exact wait until the
    next token.  With a frozen clock the bucket admits exactly ``burst``
    acquisitions no matter how many threads race it — the concurrency
    contract the quota layer relies on.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_clock", "_lock")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate < 0:
            raise ReproError("token bucket rate must be >= 0")
        if burst < 1:
            raise ReproError("token bucket burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._updated = clock()
        self._lock = threading.Lock()

    def acquire(self) -> Optional[float]:
        """Take one token; returns ``None`` on success, else the exact
        number of seconds until a token becomes available."""
        with self._lock:
            now = self._clock()
            if now > self._updated:
                self._tokens = min(
                    self.burst, self._tokens + (now - self._updated) * self.rate
                )
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            if self.rate <= 0:
                return math.inf
            return (1.0 - self._tokens) / self.rate


class ClientQuotas:
    """Per-client token buckets keyed on the ``X-Repro-Client`` id.

    Buckets are created lazily and bounded in number: beyond
    ``max_clients`` the least-recently-used bucket is evicted (a client
    id churned through once does not pin memory forever; an evicted
    repeat offender merely starts from a full bucket again).
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        max_clients: int = 10_000,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ReproError("quota rate must be positive (rps)")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(1.0, 2 * rate)
        if self.burst < 1:
            raise ReproError("quota burst must be >= 1")
        self.max_clients = max_clients
        self._clock = clock
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._lock = threading.Lock()

    def _bucket(self, client: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
                self._buckets[client] = bucket
                while len(self._buckets) > self.max_clients:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(client)
            return bucket

    def check(self, client: str) -> None:
        """Consume one token for ``client``; raises :class:`QuotaExceeded`
        (429) with the honest wait when the bucket is empty."""
        wait = self._bucket(client).acquire()
        if wait is None:
            return
        retry = 1 if math.isinf(wait) else int(math.ceil(wait))
        raise QuotaExceeded(
            f"client {client!r} exceeded its quota of {self.rate:g} "
            f"requests/second (burst {self.burst:g})",
            retry_after=retry,
        )

    @property
    def clients(self) -> int:
        with self._lock:
            return len(self._buckets)


class BrownoutController:
    """Hysteretic overload stages from the pool's estimated queue delay.

    * stage 0 — normal service;
    * stage 1 — entered when the delay exceeds ``enter_seconds``:
      best-effort is shed with 503;
    * stage 2 — entered at ``stage2_factor * enter_seconds``: standard
      analyze degrades to the bounded fast-window fallback, other
      standard compute is shed; critical stays untouched.

    A stage is left only after the delay stays below ``exit_seconds``
    (strictly less than the enter threshold) for ``dwell_seconds`` — the
    classic hysteresis loop, so the controller cannot oscillate when the
    delay hovers at a threshold.  Recovery steps down one stage at a
    time.
    """

    def __init__(
        self,
        enter_seconds: float = 0.75,
        exit_seconds: float = 0.25,
        stage2_factor: float = 2.0,
        dwell_seconds: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if enter_seconds <= 0:
            raise ReproError("brownout enter threshold must be positive")
        if not 0 <= exit_seconds < enter_seconds:
            raise ReproError(
                "brownout exit threshold must satisfy "
                "0 <= exit < enter (hysteresis)"
            )
        if stage2_factor < 1:
            raise ReproError("brownout stage-2 factor must be >= 1")
        if dwell_seconds < 0:
            raise ReproError("brownout dwell must be >= 0")
        self.enter_seconds = enter_seconds
        self.exit_seconds = exit_seconds
        self.stage2_factor = stage2_factor
        self.dwell_seconds = dwell_seconds
        self._clock = clock
        self._stage = 0
        self._calm_since: Optional[float] = None
        self._lock = threading.Lock()

    def update(self, delay_seconds: float) -> int:
        """Feed one delay observation; returns the current stage."""
        with self._lock:
            now = self._clock()
            enter2 = self.enter_seconds * self.stage2_factor
            if delay_seconds > enter2:
                target = 2
            elif delay_seconds > self.enter_seconds:
                target = 1
            else:
                target = None  # no escalation pressure
            if target is not None and target > self._stage:
                self._stage = target
                self._calm_since = None
                metrics().counter("serve.admission.brownout_escalations").inc()
            elif self._stage > 0:
                # Recovery: require the delay to stay under the exit
                # threshold for a full dwell before stepping down.
                if delay_seconds < self.exit_seconds:
                    if self._calm_since is None:
                        self._calm_since = now
                    elif now - self._calm_since >= self.dwell_seconds:
                        self._stage -= 1
                        self._calm_since = now if self._stage else None
                else:
                    self._calm_since = None
            return self._stage

    @property
    def stage(self) -> int:
        with self._lock:
            return self._stage


class AdmissionController:
    """The serving tier's front door: deadline, quota, brownout, class.

    ``admit(endpoint, ctx)`` either returns an
    :class:`AdmissionDecision` (carrying the queue priority and whether
    the response must be degraded) or raises the typed rejection the
    HTTP layer maps onto honest status codes:

    * :class:`~repro.serve.pool.DeadlineExceeded` — budget already spent
      at admission (504, no worker burned);
    * :class:`QuotaExceeded` — per-client token bucket empty (429);
    * :class:`BrownoutShed` — this class is shed at the current
      brownout stage (503).
    """

    def __init__(
        self,
        pool,
        quotas: Optional[ClientQuotas] = None,
        brownout: Optional[BrownoutController] = None,
    ):
        self._pool = pool
        self.quotas = quotas
        self.brownout = brownout

    def current_stage(self) -> int:
        """The brownout stage given the pool's current delay estimate."""
        if self.brownout is None:
            return 0
        stage = self.brownout.update(self._pool.estimated_delay())
        metrics().gauge("serve.admission.brownout_stage").set(stage)
        return stage

    def admit(self, endpoint: str, ctx: AdmissionContext) -> AdmissionDecision:
        from repro.serve.pool import DeadlineExceeded

        registry = metrics()
        label = ctx.criticality.replace("-", "_")
        remaining = ctx.remaining()
        if remaining is not None and remaining <= 0:
            registry.counter("serve.admission.expired").inc()
            raise DeadlineExceeded(
                f"request budget already spent at admission "
                f"({-remaining:.3f}s past the deadline)"
            )
        if self.quotas is not None:
            try:
                self.quotas.check(ctx.client)
            except QuotaExceeded:
                registry.counter("serve.admission.quota_rejected").inc()
                raise
        stage = self.current_stage()
        degraded = False
        if stage >= 1 and ctx.criticality == "best-effort":
            self._count_shed(label)
            raise BrownoutShed(
                f"brownout stage {stage}: best-effort requests are shed; "
                f"retry later or raise the request class",
                retry_after=self._pool.retry_after(),
            )
        if stage >= 2 and ctx.criticality == "standard":
            if endpoint == "analyze":
                degraded = True
                registry.counter("serve.admission.degraded").inc()
            else:
                self._count_shed(label)
                raise BrownoutShed(
                    f"brownout stage {stage}: standard {endpoint} requests "
                    f"are shed (only analyze degrades); retry later",
                    retry_after=self._pool.retry_after(),
                )
        registry.counter(f"serve.admission.accepted.{label}").inc()
        return AdmissionDecision(ctx.criticality, degraded, stage)

    @staticmethod
    def _count_shed(label: str) -> None:
        registry = metrics()
        registry.counter("serve.admission.shed").inc()
        registry.counter(f"serve.admission.shed.{label}").inc()

    def snapshot(self) -> Dict[str, Any]:
        """Admission state for ``/metrics`` and ``/healthz``."""
        registry = metrics()
        return {
            "brownout_stage": (
                self.brownout.stage if self.brownout is not None else 0
            ),
            "brownout_enabled": self.brownout is not None,
            "quota": (
                {
                    "rps": self.quotas.rate,
                    "burst": self.quotas.burst,
                    "clients": self.quotas.clients,
                }
                if self.quotas is not None
                else None
            ),
            "shed": {
                cls: registry.counter(
                    f"serve.admission.shed.{cls.replace('-', '_')}"
                ).value
                for cls in CLASSES
            },
            "degraded": registry.counter("serve.admission.degraded").value,
            "quota_rejected": registry.counter(
                "serve.admission.quota_rejected"
            ).value,
        }
