"""MPSoC architecture model ``A = (P, nw)`` (paper §2.1).

The platform consists of a set of (possibly heterogeneous) processors
connected by an on-chip interconnect (shared bus, crossbar or NoC).  Each
processor carries a type, leakage (static) power, dynamic power and a
constant transient-fault rate per time unit; the interconnect provides a
maximum bandwidth.  Faults on communication links are assumed transparent
(protected by low-level error-resilient techniques) and are not modelled.
"""

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Tuple

from repro.errors import ModelError
from repro.model.task import require_finite


@dataclass(frozen=True)
class Processor:
    """A processing element.

    Parameters
    ----------
    name:
        Unique processor identifier.
    ptype:
        Architecture type label (e.g. ``"RISC"``, ``"DSP"``); tasks run
        ``speed`` times faster than their reference execution time on
        processors of higher speed.
    static_power:
        Leakage power ``stat_p`` drawn whenever the processor is allocated.
    dynamic_power:
        Dynamic power ``dyn_p`` drawn in proportion to utilization.
    fault_rate:
        Constant transient-fault rate ``lambda_p`` per time unit.
    speed:
        Relative speed factor; an execution time ``c`` on the reference
        processor takes ``c / speed`` here.  Defaults to 1 (homogeneous
        timing, heterogeneous power/fault characteristics).
    """

    name: str
    ptype: str = "generic"
    static_power: float = 0.0
    dynamic_power: float = 0.0
    fault_rate: float = 0.0
    speed: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise ModelError("processor name must be a non-empty string")
        require_finite(
            f"processor {self.name!r}",
            static_power=self.static_power,
            dynamic_power=self.dynamic_power,
            fault_rate=self.fault_rate,
            speed=self.speed,
        )
        if self.static_power < 0 or self.dynamic_power < 0:
            raise ModelError(f"processor {self.name!r}: power must be >= 0")
        if self.fault_rate < 0:
            raise ModelError(f"processor {self.name!r}: fault rate must be >= 0")
        if self.speed <= 0:
            raise ModelError(f"processor {self.name!r}: speed must be positive")

    def scale_time(self, reference_time: float) -> float:
        """Execution time on this processor for a reference-time budget."""
        return reference_time / self.speed


class InterconnectKind(enum.Enum):
    """Topology family of the on-chip communication fabric."""

    SHARED_BUS = "shared_bus"
    CROSSBAR = "crossbar"
    NOC = "noc"


@dataclass(frozen=True)
class Interconnect:
    """The on-chip communication fabric ``nw``.

    Parameters
    ----------
    bandwidth:
        Maximum bandwidth ``bw_nw`` in bytes per time unit.
    base_latency:
        Fixed per-message latency (arbitration, routing) added to the
        size-proportional transfer time.
    kind:
        Topology family; a :attr:`InterconnectKind.SHARED_BUS` serialises
        all transfers when the contention-aware timing model is selected,
        while crossbars/NoCs only serialise per endpoint pair.
    comm_backend:
        Name of the contention model in :data:`repro.comm.COMM_BACKENDS`
        (``"flat"``, ``"shared-bus"``, ``"tdma"``, ``"noc-xy"``).  The
        default ``"flat"`` is the paper's guaranteed-bandwidth pipe; the
        name is validated lazily by :func:`repro.comm.make_comm` so the
        model layer stays independent of the backend registry.
    arq_retries:
        Transient message faults: a cross-processor transfer may be lost
        and re-sent up to this many times (the communication analog of
        task re-execution).  0 disables the message-fault model.
    arq_timeout:
        Fixed loss-detection overhead paid per retransmission (timeout +
        re-arbitration), in time units.
    mesh_columns:
        Mesh width for the ``noc-xy`` backend; 0 derives a square-ish
        mesh from the processor count.
    hop_latency:
        Per-hop router latency for ``noc-xy``; 0 falls back to
        ``base_latency``.
    slot_length:
        TDMA slot duration for the ``tdma`` backend; 0 derives a default
        64-byte-payload slot (``base_latency + 64 / bandwidth``).
    slot_count:
        TDMA slot-table length (slots per revolution); 0 uses one slot
        per processor.
    """

    bandwidth: float
    base_latency: float = 0.0
    kind: InterconnectKind = InterconnectKind.SHARED_BUS
    comm_backend: str = "flat"
    arq_retries: int = 0
    arq_timeout: float = 0.0
    mesh_columns: int = 0
    hop_latency: float = 0.0
    slot_length: float = 0.0
    slot_count: int = 0

    def __post_init__(self):
        require_finite(
            "interconnect",
            bandwidth=self.bandwidth,
            base_latency=self.base_latency,
            arq_timeout=self.arq_timeout,
            hop_latency=self.hop_latency,
            slot_length=self.slot_length,
        )
        if self.bandwidth <= 0:
            raise ModelError(f"interconnect bandwidth must be positive, got {self.bandwidth}")
        if self.base_latency < 0:
            raise ModelError("interconnect base latency must be >= 0")
        if not self.comm_backend or not isinstance(self.comm_backend, str):
            raise ModelError("comm backend must be a non-empty string")
        if not isinstance(self.arq_retries, int) or self.arq_retries < 0:
            raise ModelError(
                f"ARQ retransmission budget must be an int >= 0, "
                f"got {self.arq_retries!r}"
            )
        if self.arq_timeout < 0:
            raise ModelError("ARQ timeout must be >= 0")
        if self.mesh_columns < 0 or self.slot_count < 0:
            raise ModelError("mesh columns / slot count must be >= 0")
        if self.hop_latency < 0 or self.slot_length < 0:
            raise ModelError("hop latency / slot length must be >= 0")

    def transfer_time(self, size: float) -> float:
        """Uncontended time to move ``size`` bytes across the fabric."""
        if size <= 0:
            return 0.0
        return self.base_latency + size / self.bandwidth


class Architecture:
    """An MPSoC platform: processors plus interconnect."""

    def __init__(self, processors: Iterable[Processor], interconnect: Interconnect):
        self._processors: Dict[str, Processor] = {}
        for processor in processors:
            if processor.name in self._processors:
                raise ModelError(f"duplicate processor {processor.name!r}")
            self._processors[processor.name] = processor
        if not self._processors:
            raise ModelError("architecture must contain at least one processor")
        self._interconnect = interconnect
        self._order: Tuple[str, ...] = tuple(self._processors)

    @property
    def processors(self) -> Tuple[Processor, ...]:
        """All processors, in insertion order."""
        return tuple(self._processors[name] for name in self._order)

    @property
    def processor_names(self) -> Tuple[str, ...]:
        """Processor names, in insertion order."""
        return self._order

    @property
    def interconnect(self) -> Interconnect:
        """The communication fabric."""
        return self._interconnect

    def __len__(self) -> int:
        return len(self._processors)

    def __iter__(self) -> Iterator[Processor]:
        return iter(self.processors)

    def __contains__(self, processor_name: str) -> bool:
        return processor_name in self._processors

    def processor(self, name: str) -> Processor:
        """Look up a processor by name."""
        try:
            return self._processors[name]
        except KeyError:
            raise ModelError(f"no processor named {name!r}") from None

    def with_interconnect(self, interconnect: Interconnect) -> "Architecture":
        """A copy of this platform with the interconnect replaced.

        Used to rewrite fabric contention/ARQ settings without touching
        the processor set (e.g. ``--comm-backend`` overrides and the
        ARQ-monotonicity oracle's ``k -> k+1`` probe).
        """
        return Architecture(self.processors, interconnect)

    def __repr__(self) -> str:
        return (
            f"Architecture({len(self._processors)} processors, "
            f"{self._interconnect.kind.value}, bw={self._interconnect.bandwidth})"
        )


def homogeneous_architecture(
    count: int,
    static_power: float = 1.0,
    dynamic_power: float = 2.0,
    fault_rate: float = 1e-6,
    bandwidth: float = 1e3,
    base_latency: float = 0.0,
    kind: InterconnectKind = InterconnectKind.SHARED_BUS,
    name_prefix: str = "pe",
) -> Architecture:
    """Convenience builder for a platform of identical processors."""
    if count <= 0:
        raise ModelError("processor count must be positive")
    processors = [
        Processor(
            name=f"{name_prefix}{index}",
            ptype="generic",
            static_power=static_power,
            dynamic_power=dynamic_power,
            fault_rate=fault_rate,
        )
        for index in range(count)
    ]
    interconnect = Interconnect(
        bandwidth=bandwidth, base_latency=base_latency, kind=kind
    )
    return Architecture(processors, interconnect)
