"""Concurrent analysis/exploration service over :mod:`repro.api`.

Stdlib-only JSON-over-HTTP serving layer: a bounded strict-priority
worker pool with backpressure and in-flight request dedup
(:mod:`repro.serve.pool`), durable, crash-resumable
exploration jobs (:mod:`repro.serve.jobs`), a pre-fork multi-process
supervisor (:mod:`repro.serve.supervisor`), a disk-backed cross-process
schedule-cache tier (:mod:`repro.serve.cachestore`), and a fault-
injection chaos harness (:mod:`repro.serve.chaos`).  Start one with
``repro serve``; talk to it with ``repro submit`` or the retrying
:class:`~repro.serve.client.ServeClient`.  See ``docs/serving.md``.
"""

from repro.serve.admission import (
    AdmissionContext,
    AdmissionController,
    BrownoutController,
    BrownoutShed,
    ClientQuotas,
    QuotaExceeded,
    TokenBucket,
)
from repro.serve.app import ReproServer, ServeConfig, ServiceUnavailable
from repro.serve.cachestore import DiskCacheStore, TieredScheduleCache
from repro.serve.client import (
    DeadlineExhausted,
    RetryPolicy,
    ServeClient,
    ServeError,
)
from repro.serve.jobs import Job, JobStore
from repro.serve.pool import DeadlineExceeded, PoolSaturated, WorkerPool
from repro.serve.supervisor import Supervisor, SupervisorConfig

__all__ = [
    "ReproServer",
    "ServeConfig",
    "ServiceUnavailable",
    "ServeClient",
    "ServeError",
    "RetryPolicy",
    "DeadlineExhausted",
    "AdmissionContext",
    "AdmissionController",
    "BrownoutController",
    "BrownoutShed",
    "ClientQuotas",
    "QuotaExceeded",
    "TokenBucket",
    "WorkerPool",
    "PoolSaturated",
    "DeadlineExceeded",
    "DiskCacheStore",
    "TieredScheduleCache",
    "Job",
    "JobStore",
    "Supervisor",
    "SupervisorConfig",
]
