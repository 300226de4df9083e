"""The ``flat`` backend: the paper's guaranteed-bandwidth pipe.

Binding with no ARQ budget returns the plain
:class:`~repro.sched.comm.CommModel` itself, so the legacy analysis path
(and every cached fingerprint) stays byte-identical — ``flat`` is the
reference oracle the contended backends are verified against.  With a
retransmission budget the bound model folds the ARQ margin on top of the
uncontended worst case.
"""

from repro.comm.base import BoundComm, CommBackend, attempt_cost
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping
from repro.sched.comm import CommModel


class FlatBound(BoundComm):
    """Uncontended bounds plus the ARQ retransmission margin."""

    def attempt_worst(self, src: str, dst: str, size: float) -> float:
        return attempt_cost(self._interconnect, size)

    def describe(self) -> str:
        ic = self._interconnect
        return f"flat:bw={ic.bandwidth.hex()}:lat={ic.base_latency.hex()}"


class FlatBackend(CommBackend):
    """Guaranteed-bandwidth fabric (paper §2.1)."""

    name = "flat"

    def bind(self, applications, mapping: Mapping, architecture: Architecture):
        interconnect = architecture.interconnect
        arq = self.resolve_arq(interconnect)
        if not arq.active:
            # Byte-identical legacy path: plain CommModel, no
            # channel_bounds attribute, empty fingerprint token.
            return CommModel(interconnect)
        return FlatBound(interconnect, arq)
