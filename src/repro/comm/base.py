"""Protocol and shared machinery of the contention-aware comm backends.

A :class:`CommBackend` is an *unbound* latency-model recipe selected by
name from the registry (see :mod:`repro.comm`).  At unroll time
:func:`repro.sched.jobs.unroll` *binds* it to the concrete
``(applications, mapping, architecture)`` triple, which is when the
backend learns which channels actually cross the fabric and therefore
compete — the hardened task set (replica/voter channels included) is
what gets bound, not the source graphs.

A bound model answers per-channel latency queries through
``channel_bounds(src, dst, size, same_processor) -> (best, worst)``.
Best-case latencies are always the *uncontended* transfer time (the
bound of the ``flat`` backend, the paper's §2.1 fabric); contention and
the ARQ message-fault margin widen the worst case only.

**Zero-size semantics.**  A ``size <= 0`` channel is a pure
synchronisation token (a precedence edge with no payload).  Off
processor it is *intentionally asymmetric*: the best case is ``0.0`` —
an empty message can ride an already-open arbitration window for free —
while the worst case charges ``base_latency``, because even a
payload-free message must win one arbitration round on the fabric
before the dependent task may start.  Collapsing either side would
respectively inflate the best-case lower bound past observable
schedules or let the fabric deliver infinitely many sync tokens in zero
time.  Both sides are pinned by regression tests in
``tests/sched/test_comm.py``.

**ARQ message faults.**  A cross-processor transfer can be hit by a
transient fault and be re-sent up to ``k = arq_retries`` times, each
retransmission costing one more worst-case attempt plus the fixed
loss-detection ``arq_timeout`` — the communication analog of the paper's
task re-execution (Eq. (1)):

    ``worst(k) = (k + 1) * worst_attempt + k * arq_timeout``

which is monotonically non-decreasing in ``k`` (the ARQ-monotonicity
oracle of :mod:`repro.verify.oracles` pins this).  Best-case transfers
are fault-free and keep the single-attempt bound.

Bound models expose :attr:`~BoundComm.fingerprint_token`, a canonical
string that :meth:`repro.sched.jobs.JobSet.fingerprint` folds into the
structural digest, so two systems differing only in their comm
configuration can never collide in the ScheduleCache.  The flat model
with no ARQ has the empty token, so the digests of systems that never
opt into contention carry no comm fragment at all.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.model.architecture import Architecture, Interconnect
from repro.model.mapping import Mapping

#: Iteration cap of busy-period fixed points; on non-convergence the
#: backends fall back to a saturated census bound (see
#: :func:`busy_period_table`).
BUSY_PERIOD_ITERATIONS = 256
#: Relative margin by which a row must be overloaded to skip iterating.
_OVERLOAD_MARGIN = 1e-9


@dataclass(frozen=True)
class ArqPolicy:
    """Message-level transient-fault budget of a channel transfer."""

    #: Maximum retransmissions after a lost transfer.
    retries: int = 0
    #: Loss-detection overhead (timeout + re-arbitration) per resend.
    timeout: float = 0.0

    def __post_init__(self):
        if self.retries < 0:
            raise ModelError(f"ARQ retries must be >= 0, got {self.retries}")
        if self.timeout < 0:
            raise ModelError(f"ARQ timeout must be >= 0, got {self.timeout}")

    def fold_worst(self, worst_attempt: float) -> float:
        """Worst-case latency with all ``k`` retransmissions consumed."""
        if self.retries == 0:
            return worst_attempt
        return (self.retries + 1) * worst_attempt + self.retries * self.timeout

    @property
    def active(self) -> bool:
        """Whether the fault model changes any bound."""
        return self.retries > 0

    def token(self) -> str:
        """Canonical fingerprint fragment."""
        return f"arq={self.retries}:{self.timeout.hex()}"


@dataclass(frozen=True)
class ChannelSite:
    """One cross-processor channel as seen by the fabric arbiter."""

    src: str
    dst: str
    size: float
    #: Period of the owning graph (the channel's minimum inter-arrival).
    period: float
    src_pe: str
    dst_pe: str

    @property
    def key(self) -> Tuple[str, str]:
        return (self.src, self.dst)


def channel_sites(
    applications, mapping: Mapping, architecture: Architecture
) -> List[ChannelSite]:
    """Every channel that actually crosses the fabric, arbitration-ordered.

    The list is sorted rate-monotonically — smaller period first, ties
    broken by ``(src, dst)`` — which is the fixed-priority order the
    ``shared-bus`` backend arbitrates in.  Same-processor channels never
    touch the fabric and are excluded.
    """
    sites: List[ChannelSite] = []
    for graph in applications.graphs:
        for channel in graph.channels:
            src_pe = mapping[channel.src]
            dst_pe = mapping[channel.dst]
            if src_pe == dst_pe:
                continue
            sites.append(
                ChannelSite(
                    src=channel.src,
                    dst=channel.dst,
                    size=channel.size,
                    period=graph.period,
                    src_pe=src_pe,
                    dst_pe=dst_pe,
                )
            )
    sites.sort(key=lambda s: (s.period, s.src, s.dst))
    return sites


def attempt_cost(interconnect: Interconnect, size: float) -> float:
    """Uncontended fabric occupancy of one transfer attempt.

    Sized transfers occupy the medium for ``base_latency + size / bw``;
    zero-size transfers are pure synchronisation tokens that still pay
    the arbitration ``base_latency`` in the worst case (see the module
    docstring).
    """
    if size <= 0:
        return interconnect.base_latency
    return interconnect.transfer_time(size)


class BoundComm:
    """Base of every bound contention model.

    Subclasses implement :meth:`attempt_worst` (single-attempt
    worst-case latency of a known cross-processor channel) and
    :meth:`describe` (the backend-specific fingerprint fragment).
    """

    def __init__(self, interconnect: Interconnect, arq: ArqPolicy):
        self._interconnect = interconnect
        self._arq = arq

    # -- protocol ------------------------------------------------------

    def bind(self, applications, mapping: Mapping, architecture: Architecture):
        """A bound model is already bound: binding returns it unchanged."""
        return self

    @property
    def arq_retries(self) -> int:
        """Retransmission budget folded into worst-case bounds."""
        return self._arq.retries

    @property
    def arq_timeout(self) -> float:
        """Per-retransmission loss-detection overhead."""
        return self._arq.timeout

    @property
    def fingerprint_token(self) -> str:
        """Canonical comm identity folded into job-set fingerprints."""
        return f"{self.describe()}|{self._arq.token()}"

    def channel_bounds(
        self, src: str, dst: str, size: float, same_processor: bool
    ) -> Tuple[float, float]:
        """``(best, worst)`` latency of the ``src -> dst`` channel.

        Best is the uncontended transfer time; worst folds contention
        and the full ARQ retransmission margin.
        """
        best, worst = self.attempt_bounds(src, dst, size, same_processor)
        if same_processor:
            return best, worst
        return best, self._arq.fold_worst(worst)

    def attempt_bounds(
        self, src: str, dst: str, size: float, same_processor: bool
    ) -> Tuple[float, float]:
        """``(best, worst)`` of one transfer attempt (no ARQ margin).

        The simulator unrolls with these so it can charge retransmission
        delays per injected message fault instead of always paying the
        folded worst case.  Off-processor ``size <= 0`` tokens are free
        best-case and pay ``base_latency`` worst-case (module docstring).
        """
        if same_processor:
            return 0.0, 0.0
        best = 0.0 if size <= 0 else self._interconnect.transfer_time(size)
        return best, self.attempt_worst(src, dst, size)

    def without_arq(self) -> "BoundComm":
        """This model with the fault margin stripped (for the simulator)."""
        if not self._arq.active:
            return self
        import copy

        clone = copy.copy(self)
        clone._arq = ArqPolicy()
        return clone

    # -- subclass hooks ------------------------------------------------

    def attempt_worst(self, src: str, dst: str, size: float) -> float:
        """Worst-case single-attempt latency of a cross-PE channel."""
        raise NotImplementedError  # pragma: no cover - abstract

    def describe(self) -> str:
        """Backend-specific canonical parameter string."""
        raise NotImplementedError  # pragma: no cover - abstract


class CommBackend:
    """An unbound contention-model recipe (registry entry).

    ``arq_retries``/``arq_timeout`` overrides win over the interconnect's
    serialized fields; ``None`` defers to the model (so a backend built
    from a name alone picks up whatever the system file declares).
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(
        self,
        arq_retries: Optional[int] = None,
        arq_timeout: Optional[float] = None,
    ):
        self._arq_retries = arq_retries
        self._arq_timeout = arq_timeout

    def resolve_arq(self, interconnect: Interconnect) -> ArqPolicy:
        """The effective fault budget for a given fabric."""
        retries = (
            interconnect.arq_retries
            if self._arq_retries is None
            else self._arq_retries
        )
        timeout = (
            interconnect.arq_timeout
            if self._arq_timeout is None
            else self._arq_timeout
        )
        return ArqPolicy(retries=retries, timeout=timeout)

    def bind(
        self, applications, mapping: Mapping, architecture: Architecture
    ):
        """Bind to a concrete system; returns the per-channel model."""
        raise NotImplementedError  # pragma: no cover - abstract

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def busy_period_table(costs, periods, horizon: float) -> np.ndarray:
    """Non-preemptive fixed-priority busy-period response of every site.

    ``costs`` and ``periods`` list the medium occupancy ``C`` and the
    minimum inter-arrival ``T`` of every site in arbitration order
    (highest priority first, as :func:`channel_sites` sorts them).  Site
    ``i`` is delayed by every site ``j < i`` once per release and is
    blocked by ``B_i``, the longest lower-priority transfer already in
    flight (transfers are not preempted).  All rows iterate the classic
    recurrence together

        ``w_i = B_i + C_i + sum_{j<i} max(1, ceil(w_i / T_j - 1e-12)) * C_j``

    (the ``1e-12`` guards against float-noise overshoot) from
    ``w_i = B_i + C_i``; a row settles, with the new iterate, on the
    first sweep that grows it by at most ``1e-12``.  Interference is
    summed left to right over ``j`` (``np.add.accumulate``, not the
    pairwise ``sum``), so every value is bit-identical to solving the
    rows one at a time in plain Python.

    A row that has not settled within :data:`BUSY_PERIOD_ITERATIONS`
    sweeps saturates to a census bound: every competitor is charged one
    release per period in the window ``max(horizon, B_i + C_i)`` plus
    one carry-in — wide, but finite and safe.  The shared-bus backend
    passes the longest channel period as ``horizon``.

    **Overload short-circuit.**  A row whose competitor utilisation
    ``U_i = sum_{j<i} C_j / T_j`` is at least ``1 + 1e-9`` and whose
    ``B_i + C_i`` is at least ``1e-9 * (1 + sum_{j<i} C_j)`` goes straight
    to the census with the identical value, because it can never settle:
    ``max(1, ceil(w/T - 1e-12)) >= w/T - 1e-12`` gives

        ``w' >= B_i + C_i + U_i * w - 1e-12 * sum_{j<i} C_j``
        ``   >= w + (B_i + C_i) - 1e-12 * sum_{j<i} C_j > w + 1e-12``

    for every iterate ``w > 0``.  The margins absorb the float rounding
    of the sweep and of ``U_i`` itself (relative error below ``(2n + 5)``
    ulps for ``n`` sites, far under ``1e-9`` for any table that fits in
    memory); rows nearer the boundary iterate.
    """
    costs = np.asarray(costs, dtype=float)
    periods = np.asarray(periods, dtype=float)
    count = costs.size
    if not count:
        return np.zeros(0)
    blocking = np.zeros(count)
    blocking[:-1] = np.maximum.accumulate(costs[::-1])[::-1][1:]
    own = blocking + costs
    # Row i holds the costs of its competitors j < i, zero elsewhere;
    # trailing zeros leave a left-to-right sum unchanged.
    competitors = np.tril(np.broadcast_to(costs, (count, count)), k=-1)
    utilisation = np.concatenate(([0.0], np.cumsum(costs / periods)[:-1]))
    competing = np.concatenate(([0.0], np.cumsum(costs)[:-1]))
    overloaded = (utilisation >= 1.0 + _OVERLOAD_MARGIN) & (
        own >= _OVERLOAD_MARGIN * (1.0 + competing)
    )

    def interference(rows, width, carry_in=0.0):
        releases = np.maximum(1.0, np.ceil(width[:, None] / periods - 1e-12))
        charged = (releases + carry_in) * competitors[rows]
        return np.add.accumulate(charged, axis=1)[:, -1]

    worst = np.empty(count)
    rows = np.flatnonzero(~overloaded)
    width = own[rows]
    for _ in range(BUSY_PERIOD_ITERATIONS):
        if not rows.size:
            break
        updated = own[rows] + interference(rows, width)
        settled = updated <= width + 1e-12
        worst[rows[settled]] = updated[settled]
        rows, width = rows[~settled], updated[~settled]
    census = np.concatenate((np.flatnonzero(overloaded), rows))
    window = np.maximum(horizon, own[census])
    worst[census] = own[census] + interference(census, window, carry_in=1.0)
    return worst
