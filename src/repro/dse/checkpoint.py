"""Crash-safe checkpoint/resume for long exploration runs.

(Distinct from the *hardening* checkpointing of
:mod:`repro.dse.chromosome` — this module snapshots the GA run itself.)

Every N generations the :class:`~repro.dse.ga.Explorer` serializes its
complete loop state — population, archive, RNG state, statistics,
history, and the evaluation cache — into one versioned JSON bundle per
generation.  Writes are atomic (write-temp-then-rename into the same
directory), so a snapshot on disk is either complete or absent; a
SIGKILL mid-write leaves at most a ``*.tmp`` file behind, which is never
considered for resume.

Resume picks the newest *valid* snapshot: corrupt or partial files are
skipped with a warning, unknown bundle versions are skipped, and a
snapshot whose problem digest does not match the loaded system raises
:class:`~repro.errors.CheckpointError` — silently continuing a run
against a different system would corrupt the search.

Because the bundle carries the exact RNG state and evaluation cache, a
resumed run replays the identical search trajectory: the final Pareto
front equals an uninterrupted run with the same seed.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Tuple

from repro.core.evaluator import EvaluationResult
from repro.core.problem import DesignPoint, Problem
from repro.dse.chromosome import Chromosome, TaskGene
from repro.dse.results import ExplorationStatistics
from repro.errors import CheckpointError
from repro.model.serialization import (
    application_set_to_dict,
    architecture_to_dict,
)
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import event, span as trace_span

_LOG = get_logger("checkpoint")

#: Bundle format version; bump on incompatible layout changes.
SNAPSHOT_VERSION = 1

_SNAPSHOT_PREFIX = "checkpoint-"
_SNAPSHOT_SUFFIX = ".json"


def write_json_durably(path: Path, payload: Any) -> None:
    """Commit ``payload`` to ``path`` as sorted-key JSON, all or nothing.

    Writes a sibling ``*.tmp`` file, fsyncs it and renames it over
    ``path``.  On failure the temp file is removed and the ``OSError``
    re-raised; callers map it to their own error.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


def latest_snapshot_generation(directory) -> Optional[int]:
    """Generation of the newest committed snapshot in ``directory``.

    Cheap (file-name scan only, no parse/validation), so status
    endpoints can report the resume point of an interrupted exploration
    — the serve job store does exactly that.  Returns ``None`` when the
    directory is missing or holds no parseable snapshot name.
    """
    root = Path(directory)
    if not root.is_dir():
        return None
    best: Optional[int] = None
    for path in root.glob(f"{_SNAPSHOT_PREFIX}*{_SNAPSHOT_SUFFIX}"):
        stem = path.name[len(_SNAPSHOT_PREFIX):-len(_SNAPSHOT_SUFFIX)]
        try:
            generation = int(stem)
        except ValueError:
            continue
        if best is None or generation > best:
            best = generation
    return best


def problem_digest(problem: Problem) -> str:
    """Stable digest of the optimization problem a snapshot belongs to."""
    payload = {
        "applications": application_set_to_dict(problem.applications),
        "architecture": architecture_to_dict(problem.architecture),
    }
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunSnapshot:
    """The complete, resumable state of an exploration at a generation
    boundary (end of the ``generation``-th loop iteration)."""

    generation: int
    rng_state: Tuple
    population: List[Chromosome]
    archive: List[Chromosome]
    best_power: Optional[float]
    stagnation: int
    statistics: ExplorationStatistics
    history: List[Tuple[int, Optional[float], int]]
    #: Every evaluated candidate: ``(chromosome key, result)``.
    cache: List[Tuple[Tuple, EvaluationResult]] = field(default_factory=list)
    #: Counterfactual feasibility cache: ``(chromosome key, feasible)``.
    without_drop_cache: List[Tuple[Tuple, bool]] = field(default_factory=list)
    #: Trace context of the interrupted run (``SpanContext.to_dict``
    #: shape), so a resumed run continues the same trace.  Optional and
    #: backward-compatible: absent in pre-trace snapshots.
    trace: Optional[dict] = None


# ---------------------------------------------------------------------------
# Encoding helpers
# ---------------------------------------------------------------------------


def _key_to_dict(key: Tuple) -> dict:
    """Encode a ``Chromosome.key()`` tuple as a JSON-friendly dict."""
    allocation, keep_alive, genes = key
    return {
        "allocation": list(allocation),
        "keep_alive": list(keep_alive),
        "genes": [[name, gene.to_dict()] for name, gene in genes],
    }


def _key_from_dict(data: dict) -> Tuple:
    """Inverse of :func:`_key_to_dict`."""
    return (
        tuple(bool(b) for b in data["allocation"]),
        tuple(bool(b) for b in data["keep_alive"]),
        tuple(
            (name, TaskGene.from_dict(gene)) for name, gene in data["genes"]
        ),
    )


def _result_to_dict(result: EvaluationResult) -> dict:
    """Reduced evaluation result: everything the GA needs after a resume.

    The analysis and hardened-system objects are deliberately dropped —
    they are large, derivable, and only consumed at first-evaluation time
    (the hardening histogram is already folded into the statistics).
    """
    return {
        "design": result.design.to_dict() if result.design is not None else None,
        "feasible": result.feasible,
        "violations": list(result.violations),
        "power": result.power,
        "service": result.service,
        "severity": result.severity,
        "fallback": result.fallback,
        "guard_error": result.guard_error,
    }


def _result_from_dict(data: dict) -> EvaluationResult:
    design = data.get("design")
    return EvaluationResult(
        design=DesignPoint.from_dict(design) if design is not None else None,
        feasible=data["feasible"],
        violations=list(data.get("violations", ())),
        power=data.get("power"),
        service=data.get("service"),
        severity=data.get("severity", 0.0),
        fallback=data.get("fallback"),
        guard_error=data.get("guard_error"),
    )


def _rng_state_to_json(state: Tuple) -> list:
    """``random.Random.getstate()`` tuples as nested lists."""
    return [
        list(part) if isinstance(part, tuple) else part for part in state
    ]


def _rng_state_from_json(state: list) -> Tuple:
    return tuple(
        tuple(part) if isinstance(part, list) else part for part in state
    )


def snapshot_to_dict(snapshot: RunSnapshot, digest: str) -> dict:
    """Serialize a snapshot (plus the problem digest) to a JSON bundle."""
    return {
        "version": SNAPSHOT_VERSION,
        "problem_digest": digest,
        "generation": snapshot.generation,
        "rng_state": _rng_state_to_json(snapshot.rng_state),
        "population": [c.to_dict() for c in snapshot.population],
        "archive": [c.to_dict() for c in snapshot.archive],
        "best_power": snapshot.best_power,
        "stagnation": snapshot.stagnation,
        "statistics": snapshot.statistics.to_dict(),
        "history": [list(entry) for entry in snapshot.history],
        "cache": [
            {"key": _key_to_dict(key), "result": _result_to_dict(result)}
            for key, result in snapshot.cache
        ],
        "without_drop_cache": [
            {"key": _key_to_dict(key), "feasible": feasible}
            for key, feasible in snapshot.without_drop_cache
        ],
        "trace": snapshot.trace,
    }


def snapshot_from_dict(payload: dict) -> RunSnapshot:
    """Inverse of :func:`snapshot_to_dict` (digest checked by the caller)."""
    return RunSnapshot(
        generation=payload["generation"],
        rng_state=_rng_state_from_json(payload["rng_state"]),
        population=[Chromosome.from_dict(c) for c in payload["population"]],
        archive=[Chromosome.from_dict(c) for c in payload["archive"]],
        best_power=payload.get("best_power"),
        stagnation=payload.get("stagnation", 0),
        statistics=ExplorationStatistics.from_dict(
            payload.get("statistics", {})
        ),
        history=[
            (entry[0], entry[1], entry[2]) for entry in payload.get("history", ())
        ],
        cache=[
            (_key_from_dict(item["key"]), _result_from_dict(item["result"]))
            for item in payload.get("cache", ())
        ],
        without_drop_cache=[
            (_key_from_dict(item["key"]), item["feasible"])
            for item in payload.get("without_drop_cache", ())
        ],
        trace=payload.get("trace"),
    )


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------


class CheckpointManager:
    """Writes and loads versioned snapshot bundles in one directory."""

    def __init__(self, directory, digest: str, keep: int = 3):
        if keep < 1:
            raise CheckpointError("checkpoint keep count must be >= 1")
        self._directory = Path(directory)
        self._digest = digest
        self._keep = keep
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise CheckpointError(
                f"cannot create checkpoint directory {self._directory}: {error}"
            ) from error

    @property
    def directory(self) -> Path:
        """The snapshot directory."""
        return self._directory

    def path_for(self, generation: int) -> Path:
        """Snapshot file path for one generation."""
        return self._directory / (
            f"{_SNAPSHOT_PREFIX}{generation:08d}{_SNAPSHOT_SUFFIX}"
        )

    def snapshot_paths(self) -> List[Path]:
        """Committed snapshot files, oldest first (``*.tmp`` excluded)."""
        return sorted(
            p
            for p in self._directory.glob(
                f"{_SNAPSHOT_PREFIX}*{_SNAPSHOT_SUFFIX}"
            )
            if p.is_file()
        )

    def save(self, snapshot: RunSnapshot) -> Path:
        """Atomically commit one snapshot; returns its path."""
        started = time.perf_counter()
        with trace_span("dse.checkpoint", generation=snapshot.generation):
            payload = snapshot_to_dict(snapshot, self._digest)
            target = self.path_for(snapshot.generation)
            try:
                write_json_durably(target, payload)
            except OSError as error:
                raise CheckpointError(
                    f"cannot write checkpoint {target}: {error}"
                ) from error
        seconds = time.perf_counter() - started
        size = target.stat().st_size
        metrics().counter("dse.checkpoints").inc()
        metrics().timer("dse.checkpoint_seconds").observe(seconds)
        event(
            "checkpoint-written",
            generation=snapshot.generation,
            path=str(target),
            size_bytes=size,
            seconds=seconds,
        )
        _LOG.info(
            "checkpoint written %s",
            kv(
                generation=snapshot.generation,
                path=str(target),
                bytes=size,
                seconds=round(seconds, 3),
            ),
        )
        self._prune()
        return target

    def load_latest(self) -> Optional[Tuple[RunSnapshot, Path]]:
        """The newest valid snapshot (and its path), or ``None``.

        Corrupt, partial, or unknown-version snapshots are skipped with a
        warning; a digest mismatch raises :class:`CheckpointError`.
        """
        for path in reversed(self.snapshot_paths()):
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                _LOG.warning(
                    "skipping unreadable checkpoint %s",
                    kv(path=str(path), error=str(error)),
                )
                continue
            version = payload.get("version")
            if version != SNAPSHOT_VERSION:
                _LOG.warning(
                    "skipping checkpoint with unsupported version %s",
                    kv(path=str(path), version=version),
                )
                continue
            if payload.get("problem_digest") != self._digest:
                raise CheckpointError(
                    f"checkpoint {path} belongs to a different system "
                    f"(problem digest mismatch)"
                )
            try:
                snapshot = snapshot_from_dict(payload)
            except (KeyError, TypeError, ValueError, IndexError) as error:
                _LOG.warning(
                    "skipping malformed checkpoint %s",
                    kv(path=str(path), error=str(error)),
                )
                continue
            return snapshot, path
        return None

    def _prune(self) -> None:
        """Drop the oldest snapshots beyond the keep count."""
        paths = self.snapshot_paths()
        for path in paths[: -self._keep]:
            try:
                path.unlink()
            except OSError as error:
                _LOG.warning(
                    "cannot prune checkpoint %s",
                    kv(path=str(path), error=str(error)),
                )
