"""The ``shared-bus`` backend: fixed-priority arbitration with queueing.

Every cross-processor channel competes for one shared medium.  Messages
are arbitrated rate-monotonically — the channel of the shortest-period
graph wins, ties broken lexicographically by ``(src, dst)`` — and a
transfer in flight is never preempted, so a message additionally suffers
one *blocking* transfer from the longest lower-priority competitor.
The worst-case latency of channel ``i`` is the classic non-preemptive
busy-period fixed point

    ``w_i = B_i + C_i + sum_{j in hp(i)} ceil(w_i / T_j) * C_j``

where ``C`` is the uncontended medium occupancy (``base_latency +
size / bw``; pure-sync zero-size messages still occupy the arbiter for
``base_latency``) and ``T_j`` the competitor's graph period.  With no
competitors this collapses to the flat bound, so ``flat <= shared-bus``
holds channel-wise by construction.  All channels are solved together
by :func:`repro.comm.base.busy_period_table`.
"""

from typing import Dict, Tuple

from repro.comm.base import (
    ArqPolicy,
    BoundComm,
    CommBackend,
    attempt_cost,
    busy_period_table,
    channel_sites,
)
from repro.model.architecture import Architecture, Interconnect
from repro.model.mapping import Mapping


class SharedBusBound(BoundComm):
    """Per-channel busy-period worst cases over one shared medium."""

    def __init__(
        self,
        interconnect: Interconnect,
        arq: ArqPolicy,
        worst_table: Dict[Tuple[str, str], float],
        digest: str,
    ):
        super().__init__(interconnect, arq)
        self._worst_table = worst_table
        self._digest = digest

    def attempt_worst(self, src: str, dst: str, size: float) -> float:
        worst = self._worst_table.get((src, dst))
        if worst is None:
            # Channel unknown to the arbiter (not in the bound task set);
            # fall back to the uncontended occupancy, which still
            # dominates the flat bound.
            return attempt_cost(self._interconnect, size)
        return worst

    def describe(self) -> str:
        return f"shared-bus:{self._digest}"


class SharedBusBackend(CommBackend):
    """Single shared bus with fixed-priority (rate-monotonic) arbitration."""

    name = "shared-bus"

    def bind(self, applications, mapping: Mapping, architecture: Architecture):
        interconnect = architecture.interconnect
        arq = self.resolve_arq(interconnect)
        sites = channel_sites(applications, mapping, architecture)
        costs = [attempt_cost(interconnect, site.size) for site in sites]
        horizon = max((site.period for site in sites), default=0.0)
        worst = busy_period_table(
            costs, [site.period for site in sites], horizon
        )
        worst_table: Dict[Tuple[str, str], float] = dict(
            zip((site.key for site in sites), worst.tolist())
        )
        digest = (
            f"bw={interconnect.bandwidth.hex()}"
            f":lat={interconnect.base_latency.hex()}"
            f":n={len(sites)}"
        )
        return SharedBusBound(interconnect, arq, worst_table, digest)
