"""Pluggable contention-aware communication backends.

This package grows the paper's flat guaranteed-bandwidth fabric
(§2.1 ``bw_nw``) into a registry of interchangeable latency models:

``flat``
    The paper's fabric and the reference oracle; with no ARQ budget its
    fingerprint token is empty.
``shared-bus``
    Fixed-priority (rate-monotonic) arbitration over one medium;
    busy-period queueing delay from competing channels.
``tdma``
    Static slot table; slot-alignment worst case, contention-free.
``noc-xy``
    2D-mesh wormhole NoC with XY routing; per-link contention sets.
``bus-jobs``
    Every sized cross-processor transfer becomes a message job on a
    virtual bus processor, arbitrated by its producer's priority; edge
    latencies stay flat.

All backends keep best-case latencies at the uncontended transfer time
and only widen worst cases, so ``flat <= contended`` holds bound-wise —
the differential oracle in :mod:`repro.verify.oracles` enforces this,
alongside ARQ ``k -> k+1`` monotonicity.  Select a backend per system
via ``Interconnect.comm_backend`` or per run via ``--comm-backend``.
"""

from typing import Optional

from repro.comm.base import ArqPolicy, BoundComm, ChannelSite, CommBackend
from repro.comm.busjobs import BusJobsBackend
from repro.comm.flat import FlatBackend
from repro.comm.noc import NocXYBackend
from repro.comm.sharedbus import SharedBusBackend
from repro.comm.tdma import TdmaBackend
from repro.errors import AnalysisError
from repro.model.architecture import Architecture, Interconnect

_REGISTRY = {}


def register_backend(backend_cls) -> None:
    """Register a :class:`CommBackend` subclass under its ``name``."""
    name = backend_cls.name
    if not name or name == "abstract":
        raise AnalysisError(f"comm backend {backend_cls!r} has no usable name")
    _REGISTRY[name] = backend_cls


for _cls in (
    FlatBackend, SharedBusBackend, TdmaBackend, NocXYBackend, BusJobsBackend
):
    register_backend(_cls)

#: Registered backend names, registration-ordered (``flat`` first).
COMM_BACKENDS = tuple(_REGISTRY)


def check_backend(name: str) -> str:
    """``name`` if it is registered; otherwise an :class:`AnalysisError`
    listing every registered backend."""
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise AnalysisError(
            f"unknown comm backend {name!r}; available: {known}"
        )
    return name


class _DeferredBackend(CommBackend):
    """Backend whose *name* is read off the interconnect at bind time.

    Lets ARQ overrides (``--comm-arq``) apply to whatever backend each
    analyzed architecture declares, without forcing a topology choice.
    """

    name = "auto"

    def bind(self, applications, mapping, architecture: Architecture):
        backend = make_comm(
            architecture.interconnect.comm_backend,
            arq_retries=self._arq_retries,
            arq_timeout=self._arq_timeout,
        )
        return backend.bind(applications, mapping, architecture)


def make_comm(
    name: Optional[str] = None,
    arq_retries: Optional[int] = None,
    arq_timeout: Optional[float] = None,
) -> CommBackend:
    """Instantiate a backend by registry name.

    ``name=None`` defers to the interconnect's ``comm_backend`` field at
    bind time; explicit ARQ arguments override the interconnect's
    serialized budget.  Unknown names raise an :class:`AnalysisError`
    listing every registered backend.
    """
    if name is None:
        return _DeferredBackend(
            arq_retries=arq_retries, arq_timeout=arq_timeout
        )
    backend_cls = _REGISTRY[check_backend(name)]
    return backend_cls(arq_retries=arq_retries, arq_timeout=arq_timeout)


def default_comm(architecture: Architecture) -> CommBackend:
    """The unbound backend an architecture's interconnect names, which
    :func:`repro.sched.jobs.unroll` binds to the hardened task set."""
    return make_comm(architecture.interconnect.comm_backend)


def with_comm(
    architecture: Architecture,
    backend: Optional[str] = None,
    arq_retries: Optional[int] = None,
    arq_timeout: Optional[float] = None,
) -> Architecture:
    """Rewrite the fabric's comm configuration, keeping everything else.

    Used by the API/CLI ``--comm-backend``/``--comm-arq`` overrides and
    by the verification oracles' ``k -> k+1`` probes.  ``None`` leaves a
    field untouched; a backend name is validated against the registry.
    """
    ic = architecture.interconnect
    name = check_backend(ic.comm_backend if backend is None else backend)
    rewritten = Interconnect(
        bandwidth=ic.bandwidth,
        base_latency=ic.base_latency,
        kind=ic.kind,
        comm_backend=name,
        arq_retries=ic.arq_retries if arq_retries is None else arq_retries,
        arq_timeout=ic.arq_timeout if arq_timeout is None else arq_timeout,
        mesh_columns=ic.mesh_columns,
        hop_latency=ic.hop_latency,
        slot_length=ic.slot_length,
        slot_count=ic.slot_count,
    )
    return architecture.with_interconnect(rewritten)


__all__ = [
    "ArqPolicy",
    "BoundComm",
    "BusJobsBackend",
    "COMM_BACKENDS",
    "ChannelSite",
    "CommBackend",
    "FlatBackend",
    "NocXYBackend",
    "SharedBusBackend",
    "TdmaBackend",
    "check_backend",
    "default_comm",
    "make_comm",
    "register_backend",
    "with_comm",
]
