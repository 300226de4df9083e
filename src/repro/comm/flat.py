"""The ``flat`` backend: the paper's guaranteed-bandwidth pipe.

Paper §2.1 gives the fabric a maximum bandwidth ``bw_nw`` that it
guarantees to each transfer: between processors a transfer of ``s_e``
bytes takes ``base_latency + s_e / bw``, on one processor it is free.
``flat`` is the reference oracle the contended backends are verified
against.  With a retransmission budget the bound model folds the ARQ
margin on top of the uncontended worst case; without one its fingerprint
token is empty, so job-set digests carry no comm fragment.
"""

from repro.comm.base import BoundComm, CommBackend, attempt_cost
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping


class FlatBound(BoundComm):
    """Uncontended bounds plus the ARQ retransmission margin."""

    def attempt_worst(self, src: str, dst: str, size: float) -> float:
        return attempt_cost(self._interconnect, size)

    @property
    def fingerprint_token(self) -> str:
        # Empty without ARQ (``bus-jobs`` inherits this: its message jobs
        # already shape the structural digest), so job-set digests and
        # cache keys match those computed before comm tokens existed.
        if not self._arq.active:
            return ""
        return super().fingerprint_token

    def describe(self) -> str:
        ic = self._interconnect
        return f"flat:bw={ic.bandwidth.hex()}:lat={ic.base_latency.hex()}"


class FlatBackend(CommBackend):
    """Guaranteed-bandwidth fabric (paper §2.1)."""

    name = "flat"

    def bind(self, applications, mapping: Mapping, architecture: Architecture):
        interconnect = architecture.interconnect
        return FlatBound(interconnect, self.resolve_arq(interconnect))
