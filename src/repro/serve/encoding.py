"""Canonical request/response encoding for the serving layer.

Two properties drive this module:

* **Determinism** — a served ``analyze`` response must be *byte-identical*
  to what :func:`repro.api.analyze` would produce for the same inputs, no
  matter which worker thread computed it or whether the response was
  shared through the dedup path.  Everything is therefore rendered
  through one canonical JSON encoder (sorted keys, fixed separators,
  ``repr``-exact floats, NaN rejected).
* **Self-containment** — requests carry the *system itself* (the
  ``save_system`` payload), a built-in suite name, or a server-local
  path.  A request is a pure value: its canonical digest identifies the
  computation completely, which is what the worker pool dedups on.
"""

import hashlib
import json
from typing import Any, Dict, Optional, Tuple, Union

from repro.comm import check_backend
from repro.core.analysis import analysis_result_to_dict
from repro.core.factory import DSE_DEFAULT_TOKEN, backend_token
from repro.core.problem import DesignPoint
from repro.dse.request import ExploreRequest, IslandTopology, TOPOLOGY_KINDS
from repro.dse.results import (
    ExplorationResult,
    ExplorationStatistics,
    ParetoPoint,
)
from repro.errors import ReproError
# The system format lives in repro.model.serialization; its two
# functions are re-exported here for callers of the serving layer.
from repro.model.serialization import (
    SystemBundle,
    bundle_from_payload,
    bundle_to_payload,
)
from repro.sim.montecarlo import montecarlo_result_to_dict

__all__ = [
    "canonical_json",
    "canonical_bytes",
    "request_digest",
    "bundle_to_payload",
    "bundle_from_payload",
    "canonical_system",
    "parse_analyze_request",
    "parse_simulate_request",
    "parse_explore_request",
    "parse_shard_request",
    "explore_request_from_params",
    "analysis_result_to_dict",
    "montecarlo_result_to_dict",
    "exploration_result_to_dict",
    "exploration_result_from_dict",
]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, minimal separators, no NaN."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_bytes(obj: Any) -> bytes:
    """:func:`canonical_json` as UTF-8 bytes (HTTP bodies, digests)."""
    return canonical_json(obj).encode("utf-8")


def request_digest(endpoint: str, params: Dict[str, Any]) -> str:
    """The dedup key of one request: sha256 over its canonical form.

    Equal digests mean the canonicalized requests are identical values,
    so the computations are interchangeable and one response body can be
    shared verbatim.  (Cross-request ``sched()`` sharing between *non*-
    identical requests happens one layer down, in the process-wide
    :class:`~repro.core.fastpath.ScheduleCache` keyed by
    :meth:`~repro.sched.jobs.JobSet.fingerprint`.)
    """
    payload = {"endpoint": endpoint, "params": params}
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


# ---------------------------------------------------------------------------
# System specs
# ---------------------------------------------------------------------------


def _resolve_system(
    spec: Union[str, Dict[str, Any]], allow_paths: bool, mapped: bool = False
) -> SystemBundle:
    """A request's ``system`` field as a bundle, via :func:`repro.api.load`.

    Server-local *paths* need ``allow_paths`` (``--allow-local-paths``):
    they let any client read — and probe for — server-side files.  An
    unregistered ``comm_backend``, and with ``mapped`` a system that
    carries no mapping, are rejected here, before the request can take
    a worker.
    """
    from repro.api import load

    bundle = load(spec, allow_paths=allow_paths)
    check_backend(bundle.architecture.interconnect.comm_backend)
    if mapped and bundle.mapping is None:
        label = spec if isinstance(spec, str) else "system"
        raise ReproError(f"{label} carries no mapping; add one or run explore")
    return bundle


def canonical_system(
    spec: Union[str, Dict[str, Any]], allow_paths: bool = False
) -> Dict[str, Any]:
    """Resolve a system spec to its inline payload form.

    Requests are canonicalized *before* dedup keying, so ``"cruise"``
    and the equivalent inline bundle coalesce — and an explore job stored
    for resume-on-restart no longer depends on files that may move.
    """
    return bundle_to_payload(_resolve_system(spec, allow_paths))


# ---------------------------------------------------------------------------
# Request parsing
# ---------------------------------------------------------------------------

_ANALYZE_FIELDS = {
    "system", "method", "backend", "granularity", "dropped", "policy",
    "deadline_seconds",
}
_SIMULATE_FIELDS = {
    "system", "profiles", "seed", "dropped", "policy", "max_faults",
    "worst_bias", "deadline_seconds",
}
_EXPLORE_FIELDS = {
    "system", "generations", "population", "offspring_size", "archive_size",
    "seed", "workers", "checkpoint_every", "eval_retries", "eval_budget",
    "deadline_seconds", "idempotency_key", "islands", "migration_every",
    "migrants", "topology", "backend",
}
_SHARD_FIELDS = _EXPLORE_FIELDS | {"op", "run_id", "island", "stop"}

#: Idempotency keys become marker-file names, so they must be
#: filesystem-safe: short and limited to [A-Za-z0-9._-].
_IDEMPOTENCY_KEY_MAX = 128
_IDEMPOTENCY_KEY_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def _idempotency_key_field(payload: Dict[str, Any]) -> Optional[str]:
    value = payload.get("idempotency_key")
    if value is None:
        return None
    if (
        not isinstance(value, str)
        or not value
        or len(value) > _IDEMPOTENCY_KEY_MAX
        or not set(value) <= _IDEMPOTENCY_KEY_CHARS
        or value.startswith(".")
    ):
        raise ReproError(
            "idempotency_key must be 1-128 characters of [A-Za-z0-9._-] "
            "and must not start with '.'"
        )
    return value


def _reject_unknown(payload: Dict[str, Any], allowed: set, endpoint: str):
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ReproError(
            f"unknown field(s) for {endpoint}: {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(allowed))}"
        )


def _require_system(payload: Dict[str, Any]) -> None:
    if "system" not in payload:
        raise ReproError("request lacks the required 'system' field")


def _int_field(payload, name, default, minimum):
    value = payload.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ReproError(f"{name} must be an integer >= {minimum}")
    return value


def _float_field(payload, name, default):
    value = payload.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ReproError(f"{name} must be a number")
    return float(value)


def _choice_field(payload, name, default, choices):
    value = payload.get(name, default)
    if value is not None and value not in choices:
        raise ReproError(
            f"{name} must be one of {', '.join(map(str, sorted(c for c in choices if c)))}"
        )
    return value


def _dropped_field(payload) -> Tuple[str, ...]:
    dropped = payload.get("dropped", ())
    if isinstance(dropped, str):
        dropped = [n.strip() for n in dropped.split(",")]
    if not isinstance(dropped, (list, tuple)) or not all(
        isinstance(n, str) for n in dropped
    ):
        raise ReproError("dropped must be a list of names or one comma string")
    return tuple(n for n in dropped if n)


def _deadline_field(payload) -> Optional[float]:
    deadline = _float_field(payload, "deadline_seconds", None)
    if deadline is not None and deadline <= 0:
        raise ReproError("deadline_seconds must be positive")
    return deadline


def parse_analyze_request(
    payload: Dict[str, Any], allow_paths: bool = False
) -> Tuple[Dict[str, Any], SystemBundle]:
    """Validate and normalize a ``/v1/analyze`` body.

    Returns the canonical parameters (system inlined) — a plain dict
    ready for :func:`request_digest` — and the system bundle they were
    built from, which the worker analyzes without parsing again.  Every
    spelling of the default back-end digests as ``backend: null``.
    """
    if not isinstance(payload, dict):
        raise ReproError("request body must be a JSON object")
    _reject_unknown(payload, _ANALYZE_FIELDS, "/v1/analyze")
    _require_system(payload)
    bundle = _resolve_system(payload["system"], allow_paths, mapped=True)
    return {
        "system": bundle_to_payload(bundle),
        "method": _choice_field(
            payload, "method", "proposed", ("proposed", "naive", "adhoc")
        ),
        "backend": backend_token(payload.get("backend")),
        "granularity": _choice_field(
            payload, "granularity", "job", ("job", "task")
        ),
        "dropped": list(_dropped_field(payload)),
        "policy": _choice_field(payload, "policy", "fp", ("fp", "edf")),
        "deadline_seconds": _deadline_field(payload),
    }, bundle


def parse_simulate_request(
    payload: Dict[str, Any], allow_paths: bool = False
) -> Tuple[Dict[str, Any], SystemBundle]:
    """Validate and normalize a ``/v1/simulate`` body.

    Returns the canonical parameters and the system bundle, as
    :func:`parse_analyze_request` does.
    """
    if not isinstance(payload, dict):
        raise ReproError("request body must be a JSON object")
    _reject_unknown(payload, _SIMULATE_FIELDS, "/v1/simulate")
    _require_system(payload)
    worst_bias = _float_field(payload, "worst_bias", 0.5)
    if not 0.0 <= worst_bias <= 1.0:
        raise ReproError("worst_bias must lie in [0, 1]")
    bundle = _resolve_system(payload["system"], allow_paths, mapped=True)
    return {
        "system": bundle_to_payload(bundle),
        "profiles": _int_field(payload, "profiles", 500, 1),
        "seed": _int_field(payload, "seed", 0, 0),
        "dropped": list(_dropped_field(payload)),
        "policy": _choice_field(payload, "policy", "fp", ("fp", "edf")),
        "max_faults": _int_field(payload, "max_faults", 3, 0),
        "worst_bias": worst_bias,
        "deadline_seconds": _deadline_field(payload),
    }, bundle


def parse_explore_request(
    payload: Dict[str, Any], allow_paths: bool = False
) -> Dict[str, Any]:
    """Validate and normalize a ``/v1/explore`` body (async job).

    The returned params are the request's *canonical* form: the system
    is inlined, every spelling of the default back-end becomes
    ``"fast"``, and the island topology is normalized through
    :meth:`~repro.dse.request.IslandTopology.normalized` — so every
    spelling of the same exploration (one island with a ring vs. an
    explicit ``none`` topology, ``backend`` omitted vs. ``"window"``)
    digests identically and coalesces in the dedup layer, exactly like
    analyze payloads do.
    """
    if not isinstance(payload, dict):
        raise ReproError("request body must be a JSON object")
    _reject_unknown(payload, _EXPLORE_FIELDS, "/v1/explore")
    _require_system(payload)
    eval_budget = _float_field(payload, "eval_budget", None)
    if eval_budget is not None and eval_budget <= 0:
        raise ReproError("eval_budget must be positive")
    topology = IslandTopology(
        islands=_int_field(payload, "islands", 1, 1),
        migration_every=_int_field(payload, "migration_every", 10, 1),
        migrants=_int_field(payload, "migrants", 2, 0),
        kind=_choice_field(payload, "topology", "ring", TOPOLOGY_KINDS),
    ).normalized()
    population = _int_field(payload, "population", 32, 2)
    return {
        "system": canonical_system(payload["system"], allow_paths=allow_paths),
        "generations": _int_field(payload, "generations", 25, 0),
        "population": population,
        # The offspring/archive sizes default to the population (the CLI
        # triple), resolved here so omitting them and spelling them out
        # digest identically.
        "offspring_size": _int_field(
            payload, "offspring_size", population, 1
        ),
        "archive_size": _int_field(payload, "archive_size", population, 1),
        "seed": _int_field(payload, "seed", 0, 0),
        "workers": _int_field(payload, "workers", 1, 1),
        "checkpoint_every": _int_field(payload, "checkpoint_every", 2, 1),
        "eval_retries": _int_field(payload, "eval_retries", 1, 0),
        "eval_budget": eval_budget,
        "islands": topology.islands,
        "migration_every": topology.migration_every,
        "migrants": topology.migrants,
        "topology": topology.kind,
        "backend": backend_token(payload.get("backend"), DSE_DEFAULT_TOKEN),
        "deadline_seconds": _deadline_field(payload),
        "idempotency_key": _idempotency_key_field(payload),
    }


def _safe_name(value: Any, label: str) -> str:
    if (
        not isinstance(value, str)
        or not value
        or len(value) > _IDEMPOTENCY_KEY_MAX
        or not set(value) <= _IDEMPOTENCY_KEY_CHARS
        or value.startswith(".")
    ):
        raise ReproError(
            f"{label} must be 1-128 characters of [A-Za-z0-9._-] "
            f"and must not start with '.'"
        )
    return value


def parse_shard_request(
    payload: Dict[str, Any], allow_paths: bool = False
) -> Dict[str, Any]:
    """Validate and normalize a ``/v1/shard`` body (island fleet op).

    A shard is one step of a client-coordinated island run: an ``epoch``
    (advance one island to a stop generation), a ``migrate`` barrier, or
    the final ``merge``.  All shards of a run share a filesystem-safe
    ``run_id`` that scopes their state under the server's job directory.
    """
    if not isinstance(payload, dict):
        raise ReproError("request body must be a JSON object")
    _reject_unknown(payload, _SHARD_FIELDS, "/v1/shard")
    base = parse_explore_request(
        {k: v for k, v in payload.items() if k in _EXPLORE_FIELDS},
        allow_paths=allow_paths,
    )
    op = _choice_field(payload, "op", None, ("epoch", "migrate", "merge"))
    if op is None:
        raise ReproError("shard requests need op: epoch, migrate, or merge")
    params = dict(base)
    params["op"] = op
    params["run_id"] = _safe_name(payload.get("run_id"), "run_id")
    params["island"] = None
    params["stop"] = None
    if op == "epoch":
        if "island" not in payload:
            raise ReproError("epoch shards need an island index")
        island = _int_field(payload, "island", 0, 0)
        if island >= base["islands"]:
            raise ReproError(
                f"island {island} out of range for {base['islands']} islands"
            )
        params["island"] = island
    if op in ("epoch", "migrate"):
        if "stop" not in payload:
            raise ReproError(f"{op} shards need a stop generation")
        stop = _int_field(payload, "stop", 0, 0 if op == "epoch" else 1)
        if stop > base["generations"] or (
            op == "migrate" and stop >= base["generations"]
        ):
            raise ReproError(
                f"stop generation {stop} exceeds the run's "
                f"{base['generations']} generations"
            )
        params["stop"] = stop
    return params


def explore_request_from_params(params: Dict[str, Any]) -> ExploreRequest:
    """The typed :class:`ExploreRequest` behind canonical job params.

    Accepts both the canonical layout and legacy pre-island job records
    (which simply lack the island/backend keys), so durable jobs written
    by older servers still resume.
    """
    return ExploreRequest.from_options(
        params["system"],
        backend=params.get("backend"),
        islands=params.get("islands", 1),
        migration_every=params.get("migration_every", 10),
        migrants=params.get("migrants", 2),
        topology=params.get("topology", "ring"),
        generations=params.get("generations", 25),
        population=params.get("population", 32),
        offspring_size=params.get("offspring_size"),
        archive_size=params.get("archive_size"),
        seed=params.get("seed", 0),
        workers=params.get("workers", 1),
        checkpoint_every=params.get("checkpoint_every", 2),
        eval_retries=params.get("eval_retries", 1),
        eval_budget=params.get("eval_budget"),
    )


# ---------------------------------------------------------------------------
# Result encoding
# ---------------------------------------------------------------------------


def exploration_result_to_dict(result: ExplorationResult) -> Dict[str, Any]:
    """An :class:`ExplorationResult` as a JSON-friendly dict."""
    return {
        "kind": "exploration",
        "generations_run": result.generations_run,
        "statistics": result.statistics.to_dict(),
        "pareto": [
            {
                "power": point.power,
                "service": point.service,
                "dropped": list(point.dropped),
                "design": point.design.to_dict(),
            }
            for point in result.pareto
        ],
        "history": [list(entry) for entry in result.history],
        "best_by_drop_set": [
            {
                "power": point.power,
                "service": point.service,
                "design": point.design.to_dict(),
            }
            for _key, point in sorted(result.best_by_drop_set.items())
        ],
    }


def _pareto_point_from_dict(entry: Dict[str, Any]) -> ParetoPoint:
    return ParetoPoint(
        power=entry["power"],
        service=entry["service"],
        design=DesignPoint.from_dict(entry["design"]),
    )


def exploration_result_from_dict(payload: Dict[str, Any]) -> ExplorationResult:
    """Inverse of :func:`exploration_result_to_dict`.

    Island workers persist their results through this round-trip, and
    the fleet coordinator rebuilds merged results from job records —
    JSON round-trips Python floats exactly, so a result that travelled
    through a file or the wire merges byte-identically.
    """
    best: Dict[tuple, ParetoPoint] = {}
    for entry in payload.get("best_by_drop_set", ()):
        point = _pareto_point_from_dict(entry)
        best[point.dropped] = point
    return ExplorationResult(
        pareto=[
            _pareto_point_from_dict(entry)
            for entry in payload.get("pareto", ())
        ],
        statistics=ExplorationStatistics.from_dict(
            payload.get("statistics", {})
        ),
        history=[
            (entry[0], entry[1], entry[2])
            for entry in payload.get("history", ())
        ],
        generations_run=payload.get("generations_run", 0),
        best_by_drop_set=best,
    )
