"""The ``bus-jobs`` backend: transfers as priority-arbitrated bus jobs.

:func:`repro.sched.jobs.unroll` turns every sized cross-processor
channel into a *message job* on the virtual processor ``BUS_RESOURCE``,
ranked directly after its producer, so concurrent transfers interfere
like jobs on a processor.  BCET is the transfer time; WCET folds the ARQ
margin, ``(k + 1) * transfer + k * arq_timeout``.  Other channels keep
the ``flat`` latencies.  The simulator runs the reservation model
(:meth:`BusJobsBound.without_arq`): simulating ``bus-jobs`` is
simulating ``flat`` with the same ARQ budget.
"""

from typing import Tuple

from repro.comm.base import ArqPolicy, CommBackend
from repro.comm.flat import FlatBound
from repro.model.architecture import Architecture
from repro.model.mapping import Mapping


class BusJobsBound(FlatBound):
    """Flat edge latencies plus message-job bounds for sized transfers."""

    def message_bounds(self, size: float) -> Tuple[float, float]:
        """``(bcet, wcet)`` of the message job of a sized cross-PE channel."""
        transfer = self._interconnect.transfer_time(size)
        return transfer, self._arq.fold_worst(transfer)

    def describe(self) -> str:
        ic = self._interconnect
        return f"bus-jobs:bw={ic.bandwidth.hex()}:lat={ic.base_latency.hex()}"

    def without_arq(self) -> FlatBound:
        """The reservation model the simulator runs: no message jobs."""
        return FlatBound(self._interconnect, ArqPolicy())


class BusJobsBackend(CommBackend):
    """Shared bus arbitrated as a processor of message jobs."""

    name = "bus-jobs"

    def bind(self, applications, mapping: Mapping, architecture: Architecture):
        interconnect = architecture.interconnect
        return BusJobsBound(interconnect, self.resolve_arq(interconnect))
