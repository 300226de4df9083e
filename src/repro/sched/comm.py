"""Communication timing model for the on-chip interconnect.

Channels between tasks mapped on the same processor cost nothing.  Between
processors, a transfer of ``s_e`` bytes takes ``base_latency + s_e / bw``
on the fabric (paper §2.1 gives the fabric a maximum bandwidth ``bw_nw``),
which guarantees its bandwidth to each transfer.  Contended fabrics are
the backends of :mod:`repro.comm`.

**Zero-size semantics.**  A ``size <= 0`` channel is a pure
synchronisation token (a precedence edge with no payload).  Off
processor it is *intentionally asymmetric*: the best case is ``0.0`` —
an empty message can ride an already-open arbitration window for free —
while the worst case charges ``base_latency``, because even a
payload-free message must win one arbitration round on the fabric
before the dependent task may start.  Collapsing either side (charging
``base_latency`` best-case, or making empty messages free worst-case)
would respectively inflate the best-case lower bound past observable
schedules or let the fabric deliver infinitely many sync tokens in zero
time.  Both sides are pinned by regression tests in
``tests/sched/test_comm.py``.
"""

from dataclasses import dataclass

from repro.model.architecture import Interconnect


@dataclass(frozen=True)
class CommModel:
    """Best-/worst-case channel latency over the platform fabric."""

    interconnect: Interconnect

    def best_case(self, size: float, same_processor: bool) -> float:
        """Safe lower bound on the channel latency.

        Off-processor ``size <= 0`` transfers are free: an empty sync
        token can piggyback on an open arbitration window (see the
        module docstring for why this is asymmetric with
        :meth:`worst_case`).
        """
        if same_processor or size <= 0:
            return 0.0
        return self.interconnect.transfer_time(size)

    def worst_case(self, size: float, same_processor: bool) -> float:
        """Safe upper bound on the channel latency.

        Off-processor ``size <= 0`` transfers still pay one arbitration
        round (``base_latency``): a payload-free message must acquire the
        fabric before its consumer may start.
        """
        if same_processor:
            return 0.0
        if size <= 0:
            return self.interconnect.base_latency
        return self.interconnect.transfer_time(size)
