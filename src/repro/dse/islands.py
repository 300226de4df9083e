"""Island-model multi-process exploration.

The population is sharded over N *islands*.  Each island runs the
existing :class:`~repro.dse.ga.Explorer` unchanged on a seeded
sub-population and commits per-island checkpoints through
:mod:`repro.dse.checkpoint`; a coordinator advances all islands in
lock-step *epochs* of ``migration_every`` generations and, at every
barrier, exchanges the best archive members between islands before
releasing the next epoch.  The final island fronts are merged with the
same SPEA2 environmental selection the GA itself uses.

Determinism contract
--------------------

For a fixed ``(system, config, topology)`` the final result is
**byte-identical** regardless of how the islands were scheduled —
inline in one process, as forked/spawned worker processes, or as
durable jobs on a ``repro serve`` fleet — and regardless of crashes:

* Epochs are pure checkpoint replay boundaries.  An island runs with
  its full generation budget and a progress hook raises
  ``KeyboardInterrupt`` exactly at the barrier, which makes the
  Explorer commit its last consistent boundary (generation
  ``barrier - 1``); the next epoch resumes from that snapshot.
* Migration mutates only the on-disk snapshots: migrants are chosen
  from the (immutable) island archives in SPEA2-fitness order with
  archive-position tie-breaks, injected into the target snapshot's
  population and evaluation cache keyed by chromosome identity, and the
  snapshot is atomically rewritten at the same generation.  Re-applying
  a migration is therefore a no-op, which is what makes the coordinator
  journal crash-safe.
* Island results travel through JSON files in every execution mode
  (Python round-trips floats exactly), so inline and multi-process runs
  merge literally the same bytes.

SIGKILL any island mid-epoch and re-run: the coordinator retries the
epoch, the island resumes from its last snapshot, and the final front
equals the uninterrupted run.
"""

import json
import multiprocessing
import os
import shutil
import signal
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import load
from repro.core.factory import make_dse_evaluator
from repro.core.problem import Problem
from repro.dse.checkpoint import (
    CheckpointManager,
    RunSnapshot,
    latest_snapshot_generation,
    problem_digest,
    write_json_durably,
)
from repro.dse.ga import Explorer, ExplorerConfig
from repro.dse.request import ExploreRequest, IslandTopology
from repro.dse.results import (
    ExplorationResult,
    ExplorationStatistics,
    ParetoPoint,
)
from repro.dse.spea2 import Spea2Selector, pareto_filter
from repro.errors import ExplorationError
from repro.model.serialization import bundle_from_payload, bundle_to_payload
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import SpanContext, activate, capture_context, event
from repro.obs.trace import span as trace_span

__all__ = [
    "EXECUTION_MODES",
    "run_explore",
    "merge_island_results",
    "has_island_state",
    "run_shard_epoch",
    "run_shard_migration",
    "run_shard_merge",
]

_LOG = get_logger("dse.islands")

#: How island epochs are executed: in-process (serial reference),
#: worker processes (default), or durable jobs on a serve fleet.
EXECUTION_MODES = ("inline", "process", "serve")

#: Deterministic seed stride between islands; island 0 keeps the base
#: seed so a 1-island run is byte-identical to the plain Explorer.
_SEED_STRIDE = 0x9E3779B1

#: One-shot fault hook for the chaos/CI harness: ``"<island>:<generation>"``
#: SIGKILLs that island's worker process the first time it reaches the
#: generation (a marker file keeps the retry alive).  Only honored in
#: worker processes.
_FAULT_ENV = "REPRO_ISLANDS_FAULT"

#: Override the multiprocessing start method (``fork``/``spawn``/...).
_START_METHOD_ENV = "REPRO_ISLANDS_START_METHOD"

_JOURNAL_NAME = "coordinator.json"
_JOURNAL_VERSION = 1
_RESULT_NAME = "result.json"
_ERROR_NAME = "error.txt"
_FAULT_MARKER = "fault.marker"

#: Attempts per island per epoch before the coordinator gives up.
_EPOCH_ATTEMPTS = 3


# ---------------------------------------------------------------------------
# Layout and sharding
# ---------------------------------------------------------------------------


def _island_dir(state_dir, index: int) -> Path:
    return Path(state_dir) / f"island-{index:02d}"


def _ckpt_dir(state_dir, index: int) -> Path:
    return _island_dir(state_dir, index) / "ckpt"


def has_island_state(state_dir) -> bool:
    """Whether ``state_dir`` holds a (possibly partial) island run."""
    root = Path(state_dir)
    if (root / _JOURNAL_NAME).exists():
        return True
    return any(root.glob("island-*"))


def island_seed(seed: int, index: int) -> int:
    """Deterministic per-island RNG seed (island 0 keeps the base)."""
    return seed + _SEED_STRIDE * index


def shard_config(
    config: ExplorerConfig,
    topology: IslandTopology,
    index: int,
    state_dir,
) -> ExplorerConfig:
    """One island's Explorer config: sharded sizes, derived seed.

    Stagnation early-stopping is disabled inside islands — an island
    stopping early would desynchronize the barrier protocol, and the
    merged front already reflects the full budget.
    """
    n = topology.islands
    island = _island_dir(state_dir, index)
    return replace(
        config,
        population_size=max(2, config.population_size // n),
        offspring_size=max(1, config.offspring_size // n),
        archive_size=max(1, config.archive_size // n),
        seed=island_seed(config.seed, index),
        stagnation_limit=None,
        quarantine_path=(
            str(island / "quarantine.jsonl") if config.quarantine_path else None
        ),
        checkpoint_dir=str(_ckpt_dir(state_dir, index)),
        resume=True,
    )


def _base_config(request: ExploreRequest) -> ExplorerConfig:
    """The pre-shard config: island dirs are derived, not inherited."""
    return replace(request.config, checkpoint_dir=None, resume=False)


# ---------------------------------------------------------------------------
# Epoch execution
# ---------------------------------------------------------------------------


def _parse_fault(value: Optional[str]) -> Optional[Tuple[int, int]]:
    if not value:
        return None
    try:
        island, generation = value.split(":")
        return int(island), int(generation)
    except ValueError:
        raise ExplorationError(
            f"{_FAULT_ENV} must look like '<island>:<generation>', got "
            f"{value!r}"
        )


def _run_epoch(
    problem: Problem,
    config: ExplorerConfig,
    backend: Optional[str],
    state_dir,
    index: int,
    stop: int,
    allow_fault: bool = False,
) -> None:
    """Advance one island from its latest checkpoint to ``stop``.

    ``stop < generations`` runs up to the barrier (the progress hook
    interrupts the Explorer exactly there, committing the boundary
    snapshot at ``stop - 1``); the final epoch runs to completion and
    writes the island's full result file.  Either way the function is
    idempotent: re-running a finished epoch replays cached state.
    """
    island = _island_dir(state_dir, index)
    island.mkdir(parents=True, exist_ok=True)
    total = config.generations
    fault = _parse_fault(os.environ.get(_FAULT_ENV)) if allow_fault else None
    marker = island / _FAULT_MARKER

    def progress(generation: int, _stats: ExplorationStatistics) -> None:
        if (
            fault is not None
            and fault[0] == index
            and generation >= fault[1]
            and not marker.exists()
        ):
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        if stop < total and generation >= stop:
            raise KeyboardInterrupt

    explorer = Explorer(
        problem, config, evaluator=make_dse_evaluator(problem, backend)
    )
    try:
        result = explorer.run(progress)
    finally:
        if explorer.quarantine is not None:
            explorer.quarantine.close()

    if stop < total:
        latest = latest_snapshot_generation(config.checkpoint_dir)
        if latest is None or latest < stop - 1:
            # The interrupt came from outside (user SIGINT), not from
            # the barrier hook: the island did not reach the barrier.
            raise KeyboardInterrupt
        return
    if result.statistics.interrupted:
        raise KeyboardInterrupt
    from repro.serve.encoding import exploration_result_to_dict

    write_json_durably(
        island / _RESULT_NAME, exploration_result_to_dict(result)
    )


def _epoch_spec(
    payload: Dict[str, Any],
    request: ExploreRequest,
    state_dir,
    index: int,
    stop: int,
) -> Dict[str, Any]:
    """A picklable description of one island epoch (worker processes)."""
    topo = request.topology.normalized()
    ctx = capture_context()
    return {
        "system": payload,
        "options": asdict(_base_config(request)),
        "topology": asdict(topo),
        "backend": request.backend,
        "state_dir": str(state_dir),
        "index": index,
        "stop": stop,
        "trace": ctx.to_dict() if ctx is not None else None,
    }


def _epoch_main(spec: Dict[str, Any]) -> None:
    """Worker-process entry point: decode the spec, run the epoch."""
    index = spec["index"]
    island = _island_dir(spec["state_dir"], index)
    try:
        ctx = SpanContext.from_dict(spec.get("trace"))
        bundle = bundle_from_payload(spec["system"])
        problem = Problem(
            applications=bundle.applications,
            architecture=bundle.architecture,
        )
        config = shard_config(
            ExplorerConfig.from_options(**spec["options"]),
            IslandTopology(**spec["topology"]),
            index,
            spec["state_dir"],
        )
        if ctx is not None:
            with activate(ctx):
                _run_epoch(
                    problem, config, spec["backend"], spec["state_dir"],
                    index, spec["stop"], allow_fault=True,
                )
        else:
            _run_epoch(
                problem, config, spec["backend"], spec["state_dir"],
                index, spec["stop"], allow_fault=True,
            )
    except KeyboardInterrupt:
        raise SystemExit(1)
    except BaseException as error:  # surface the reason to the parent
        try:
            island.mkdir(parents=True, exist_ok=True)
            (island / _ERROR_NAME).write_text(
                f"{type(error).__name__}: {error}\n"
            )
        except OSError:
            pass
        raise SystemExit(1)


def _mp_context():
    """Fork when it is safe (fast), spawn otherwise (threaded hosts)."""
    name = os.environ.get(_START_METHOD_ENV)
    if name:
        return multiprocessing.get_context(name)
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


# ---------------------------------------------------------------------------
# Migration
# ---------------------------------------------------------------------------


def _select_migrants(
    snapshot: RunSnapshot, count: int
) -> List[Tuple[Any, Any]]:
    """The island's ``count`` best archive members, deterministically.

    Ranked by SPEA2 fitness (lower is better) over the archive's cached
    objectives, ties broken by archive position, so every re-computation
    picks the same migrants.
    """
    if count <= 0 or not snapshot.archive:
        return []
    cache = dict(snapshot.cache)
    objectives = [cache[c.key()].objectives for c in snapshot.archive]
    fitness = Spea2Selector(len(snapshot.archive)).fitness(objectives)
    order = sorted(range(len(fitness)), key=lambda i: (fitness[i], i))
    return [
        (snapshot.archive[i], cache[snapshot.archive[i].key()])
        for i in order[:count]
    ]


def _apply_migration(
    state_dir, digest: str, topology: IslandTopology, barrier: int
) -> int:
    """Exchange migrants between the barrier snapshots; returns count.

    Loads every island's snapshot (which must sit exactly at
    ``barrier - 1``), computes donations from the *archives* — which the
    injection never touches, making re-application idempotent — then
    appends new chromosomes to the target populations (plus their cached
    evaluations) and atomically rewrites the snapshots in island order.
    """
    n = topology.islands
    managers = []
    snapshots = []
    for index in range(n):
        manager = CheckpointManager(_ckpt_dir(state_dir, index), digest)
        loaded = manager.load_latest()
        if loaded is None or loaded[0].generation != barrier - 1:
            have = None if loaded is None else loaded[0].generation
            raise ExplorationError(
                f"island {index} is not at migration barrier {barrier} "
                f"(snapshot generation: {have})"
            )
        managers.append(manager)
        snapshots.append(loaded[0])

    donations = [
        _select_migrants(snapshot, topology.migrants)
        for snapshot in snapshots
    ]
    moved = 0
    for target in range(n):
        snapshot = snapshots[target]
        resident = {c.key() for c in snapshot.population}
        resident.update(c.key() for c in snapshot.archive)
        cached = {key for key, _ in snapshot.cache}
        injected = 0
        for source in topology.sources(target):
            for chromosome, result in donations[source]:
                key = chromosome.key()
                if key in resident:
                    continue
                resident.add(key)
                snapshot.population.append(chromosome)
                if key not in cached:
                    snapshot.cache.append((key, result))
                    cached.add(key)
                injected += 1
        if injected:
            managers[target].save(snapshot)
        moved += injected
    return moved


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def _merge_statistics(
    parts: List[ExplorationStatistics],
) -> ExplorationStatistics:
    merged = ExplorationStatistics()
    for stats in parts:
        merged.evaluations += stats.evaluations
        merged.cache_hits += stats.cache_hits
        merged.feasible += stats.feasible
        merged.infeasible += stats.infeasible
        merged.repair_failures += stats.repair_failures
        merged.guard_failures += stats.guard_failures
        merged.fallback_evaluations += stats.fallback_evaluations
        merged.stopped_early = merged.stopped_early or stats.stopped_early
        if stats.stopping_generation is not None and (
            merged.stopping_generation is None
            or stats.stopping_generation < merged.stopping_generation
        ):
            merged.stopping_generation = stats.stopping_generation
        merged.interrupted = merged.interrupted or stats.interrupted
        merged.dropping_gain += stats.dropping_gain
        merged.dropping_checked += stats.dropping_checked
        merged.record_hardening(stats.hardening_histogram)
    return merged


def _merge_history(
    parts: List[List[Tuple[int, Optional[float], int]]],
) -> List[Tuple[int, Optional[float], int]]:
    """Per-generation fleet view: best power (min), feasible (sum)."""
    best: Dict[int, Optional[float]] = {}
    feasible: Dict[int, int] = {}
    for history in parts:
        for generation, power, count in history:
            feasible[generation] = feasible.get(generation, 0) + count
            current = best.get(generation)
            if power is not None and (current is None or power < current):
                best[generation] = power
            else:
                best.setdefault(generation, current)
    return [
        (generation, best[generation], feasible[generation])
        for generation in sorted(best)
    ]


def merge_island_results(
    results: List[ExplorationResult], archive_size: int
) -> ExplorationResult:
    """Fold island results into one, via SPEA2 environmental selection.

    The union of the island fronts runs through the same
    ``Spea2Selector.select`` + Pareto filter + objective-dedup pipeline
    the Explorer applies to its own archive, truncated to the request's
    *global* archive size.
    """
    points = [point for result in results for point in result.pareto]
    pareto: List[ParetoPoint] = []
    if points:
        objectives = [(p.power, -p.service) for p in points]
        chosen = [
            points[i]
            for i in Spea2Selector(max(1, archive_size)).select(objectives)
        ]
        front = [
            chosen[i]
            for i in pareto_filter([(p.power, -p.service) for p in chosen])
        ]
        unique: Dict[Tuple, ParetoPoint] = {}
        for point in front:
            unique[(point.power, point.service, point.dropped)] = point
        pareto = sorted(unique.values(), key=lambda p: (p.power, -p.service))

    best: Dict[Tuple[str, ...], ParetoPoint] = {}
    for result in results:
        for key, point in result.best_by_drop_set.items():
            current = best.get(key)
            if current is None or point.power < current.power:
                best[key] = point

    return ExplorationResult(
        pareto=pareto,
        statistics=_merge_statistics([r.statistics for r in results]),
        history=_merge_history([r.history for r in results]),
        generations_run=max(
            (r.generations_run for r in results), default=0
        ),
        best_by_drop_set=best,
    )


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


def _barriers(topology: IslandTopology, generations: int) -> List[int]:
    """Epoch stop generations: migration barriers plus the final stop."""
    if topology.migrates:
        stops = list(range(topology.migration_every, generations,
                           topology.migration_every))
    else:
        stops = []
    stops.append(generations)
    return stops


class _Coordinator:
    """Drives one island run to completion (crash-safe, journaled)."""

    def __init__(
        self,
        request: ExploreRequest,
        problem: Problem,
        payload: Dict[str, Any],
        state_dir,
        execution: str,
        progress: Optional[Callable[[int, ExplorationStatistics], None]],
    ):
        self._request = request
        self._problem = problem
        self._payload = payload
        self._state_dir = Path(state_dir)
        self._execution = execution
        self._progress = progress
        self._topology = request.topology.normalized()
        self._config = _base_config(request)
        self._digest = problem_digest(problem)
        self._done_barrier: Optional[int] = None

    # -- journal ------------------------------------------------------

    def _journal_identity(self) -> Dict[str, Any]:
        options = self._request.canonical_options()
        return {"problem_digest": self._digest, "options": options}

    def _journal_path(self) -> Path:
        return self._state_dir / _JOURNAL_NAME

    def _load_journal(self) -> None:
        path = self._journal_path()
        if not path.exists():
            return
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ExplorationError(
                f"unreadable island journal {path}: {error}"
            )
        identity = self._journal_identity()
        if (
            payload.get("version") != _JOURNAL_VERSION
            or payload.get("problem_digest") != identity["problem_digest"]
            or payload.get("options") != identity["options"]
        ):
            raise ExplorationError(
                f"island state in {self._state_dir} belongs to a different "
                f"exploration request; clear the directory or use a fresh "
                f"checkpoint dir"
            )
        self._done_barrier = payload.get("barrier")

    def _write_journal(self, barrier: int) -> None:
        payload = dict(self._journal_identity())
        payload["version"] = _JOURNAL_VERSION
        payload["barrier"] = barrier
        write_json_durably(self._journal_path(), payload)
        self._done_barrier = barrier

    def _wipe(self) -> None:
        if self._journal_path().exists():
            self._journal_path().unlink()
        for path in self._state_dir.glob("island-*"):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)

    # -- waves --------------------------------------------------------

    def _needs_epoch(self, index: int, stop: int) -> bool:
        if stop < self._config.generations:
            latest = latest_snapshot_generation(
                _ckpt_dir(self._state_dir, index)
            )
            return latest is None or latest < stop - 1
        path = _island_dir(self._state_dir, index) / _RESULT_NAME
        if not path.exists():
            return True
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return True
        if payload.get("generations_run") != self._config.generations:
            path.unlink(missing_ok=True)
            return True
        return False

    def _run_wave(self, stop: int) -> None:
        pending = [
            index
            for index in range(self._topology.islands)
            if self._needs_epoch(index, stop)
        ]
        if not pending:
            return
        with trace_span(
            "islands.epoch",
            barrier=stop,
            islands=len(pending),
            execution=self._execution,
        ):
            if self._execution == "process":
                self._wave_process(pending, stop)
            else:
                self._wave_inline(pending, stop)

    def _wave_inline(self, pending: List[int], stop: int) -> None:
        for index in pending:
            started = time.perf_counter()
            config = shard_config(
                self._config, self._topology, index, self._state_dir
            )
            _run_epoch(
                self._problem, config, self._request.backend,
                self._state_dir, index, stop,
            )
            self._epoch_done(index, stop, time.perf_counter() - started)

    def _wave_process(self, pending: List[int], stop: int) -> None:
        ctx = _mp_context()
        attempts = {index: 0 for index in pending}
        remaining = list(pending)
        while remaining:
            started = time.perf_counter()
            procs = {}
            for index in remaining:
                spec = _epoch_spec(
                    self._payload, self._request, self._state_dir, index,
                    stop,
                )
                proc = ctx.Process(target=_epoch_main, args=(spec,))
                proc.start()
                procs[index] = proc
            failed = []
            for index, proc in procs.items():
                proc.join()
                if proc.exitcode == 0:
                    self._epoch_done(
                        index, stop, time.perf_counter() - started
                    )
                else:
                    failed.append(index)
            for index in failed:
                attempts[index] += 1
                if attempts[index] >= _EPOCH_ATTEMPTS:
                    error_path = (
                        _island_dir(self._state_dir, index) / _ERROR_NAME
                    )
                    detail = ""
                    if error_path.exists():
                        detail = f": {error_path.read_text().strip()}"
                    raise ExplorationError(
                        f"island {index} failed epoch to generation "
                        f"{stop} after {_EPOCH_ATTEMPTS} attempts{detail}"
                    )
                _LOG.warning(
                    "island worker died; retrying %s",
                    kv(island=index, stop=stop, attempt=attempts[index]),
                )
                metrics().counter("dse.islands.worker_retries").inc()
            remaining = failed

    def _epoch_done(self, index: int, stop: int, seconds: float) -> None:
        metrics().counter("dse.islands.epochs").inc()
        metrics().timer("dse.islands.epoch_seconds").observe(seconds)
        event(
            "island-epoch",
            island=index,
            barrier=stop,
            execution=self._execution,
            seconds=seconds,
        )

    # -- the run ------------------------------------------------------

    def run(self) -> ExplorationResult:
        topology = self._topology
        total = self._config.generations
        self._state_dir.mkdir(parents=True, exist_ok=True)
        if not self._request.config.resume and has_island_state(
            self._state_dir
        ):
            self._wipe()
        self._load_journal()

        with trace_span(
            "islands.run",
            islands=topology.islands,
            topology=topology.kind,
            migration_every=topology.migration_every,
            execution=self._execution,
        ):
            try:
                for stop in _barriers(topology, total):
                    if (
                        self._done_barrier is not None
                        and stop <= self._done_barrier
                    ):
                        continue
                    self._run_wave(stop)
                    if stop >= total:
                        break
                    with trace_span("islands.migrate", barrier=stop):
                        moved = _apply_migration(
                            self._state_dir, self._digest, topology, stop
                        )
                    self._write_journal(stop)
                    metrics().counter("dse.islands.migrants").inc(moved)
                    event(
                        "island-migration",
                        barrier=stop,
                        islands=topology.islands,
                        migrants=moved,
                        topology=topology.kind,
                    )
                    _LOG.info(
                        "migration applied %s",
                        kv(
                            barrier=stop,
                            migrants=moved,
                            topology=topology.kind,
                        ),
                    )
                    self._notify(stop)
            except KeyboardInterrupt:
                metrics().counter("dse.islands.interrupts").inc()
                return ExplorationResult(
                    pareto=[],
                    statistics=ExplorationStatistics(interrupted=True),
                    history=[],
                    generations_run=self._done_barrier or 0,
                    best_by_drop_set={},
                )
            return self._collect()

    def _notify(self, generation: int) -> None:
        if self._progress is not None:
            self._progress(generation, ExplorationStatistics())

    def _collect(self) -> ExplorationResult:
        from repro.serve.encoding import exploration_result_from_dict

        results = []
        for index in range(self._topology.islands):
            path = _island_dir(self._state_dir, index) / _RESULT_NAME
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as error:
                raise ExplorationError(
                    f"island {index} left no readable result file: {error}"
                )
            results.append(exploration_result_from_dict(payload))
        return merge_island_results(results, self._config.archive_size)


# ---------------------------------------------------------------------------
# Serve-fleet shard operations (executed inside `repro serve` job workers)
# ---------------------------------------------------------------------------


def _shard_problem(request: ExploreRequest) -> Tuple[Problem, Dict[str, Any]]:
    bundle = load(request.system)
    problem = Problem(
        applications=bundle.applications, architecture=bundle.architecture
    )
    return problem, bundle_to_payload(bundle)


def run_shard_epoch(
    request: ExploreRequest, state_dir, island: int, stop: int
) -> None:
    """One island epoch, run as a durable serve job."""
    problem, _payload = _shard_problem(request)
    config = shard_config(
        _base_config(request), request.topology.normalized(), island,
        state_dir,
    )
    _run_epoch(problem, config, request.backend, state_dir, island, stop)


def run_shard_migration(
    request: ExploreRequest, state_dir, barrier: int
) -> int:
    """One migration barrier, run as a durable serve job."""
    problem, _payload = _shard_problem(request)
    return _apply_migration(
        state_dir, problem_digest(problem), request.topology.normalized(),
        barrier,
    )


def run_shard_merge(request: ExploreRequest, state_dir) -> ExplorationResult:
    """The final merge, run as a durable serve job."""
    from repro.serve.encoding import exploration_result_from_dict

    topology = request.topology.normalized()
    results = []
    for index in range(topology.islands):
        path = _island_dir(state_dir, index) / _RESULT_NAME
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise ExplorationError(
                f"island {index} has no result yet (run its final epoch "
                f"shard first): {error}"
            )
        results.append(exploration_result_from_dict(payload))
    return merge_island_results(results, request.config.archive_size)


def _run_via_fleet(
    request: ExploreRequest,
    payload: Dict[str, Any],
    fleet: str,
    progress: Optional[Callable[[int, ExplorationStatistics], None]],
) -> ExplorationResult:
    """Coordinate the run as durable shard jobs on a serve fleet.

    Every shard job carries a deterministic idempotency key derived from
    the request digest, so a restarted coordinator re-attaches to the
    same durable jobs instead of re-running finished work.
    """
    from repro.serve.client import ServeClient
    from repro.serve.encoding import (
        exploration_result_from_dict,
        request_digest,
    )

    topology = request.topology.normalized()
    total = request.config.generations
    options = request.canonical_options()
    run_id = "isl-" + request_digest(
        "/v1/shard", {"system": payload, "options": options}
    )[:24]
    client = ServeClient(fleet)

    def submit(op: str, island: Optional[int] = None,
               stop: Optional[int] = None) -> str:
        key = run_id + "-" + op
        if stop is not None:
            key += f"-s{stop}"
        if island is not None:
            key += f"-i{island}"
        params: Dict[str, Any] = dict(options)
        params.update(
            system=payload, op=op, run_id=run_id, idempotency_key=key
        )
        if island is not None:
            params["island"] = island
        if stop is not None:
            params["stop"] = stop
        return client.shard(**params)["id"]

    def wait(job_id: str) -> dict:
        record = client.wait_job(job_id)
        if record["status"] != "done":
            raise ExplorationError(
                f"shard job {job_id} ended as {record['status']}: "
                f"{record.get('error')}"
            )
        return record

    with trace_span(
        "islands.run",
        islands=topology.islands,
        topology=topology.kind,
        migration_every=topology.migration_every,
        execution="serve",
    ):
        for stop in _barriers(topology, total):
            for job_id in [
                submit("epoch", island=i, stop=stop)
                for i in range(topology.islands)
            ]:
                wait(job_id)
            if stop >= total:
                break
            wait(submit("migrate", stop=stop))
            if progress is not None:
                progress(stop, ExplorationStatistics())
        record = wait(submit("merge"))
        return exploration_result_from_dict(record["result"])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_explore(
    request: ExploreRequest,
    *,
    execution: Optional[str] = None,
    fleet: Optional[str] = None,
    progress: Optional[Callable[[int, ExplorationStatistics], None]] = None,
) -> ExplorationResult:
    """Execute an :class:`ExploreRequest` end to end.

    A single island short-circuits to the plain single-process Explorer
    (byte-identical to the historical ``api.explore``).  Multi-island
    requests run under the coordinator: ``execution`` picks worker
    processes (default), the inline serial reference, or — with
    ``fleet`` pointing at a ``repro serve`` base URL — durable shard
    jobs on that fleet.  ``progress`` is invoked per generation for a
    single island and per migration barrier otherwise.
    """
    if execution is None:
        execution = "serve" if fleet else "process"
    if execution not in EXECUTION_MODES:
        raise ExplorationError(
            f"unknown execution mode {execution!r}; "
            f"available: {', '.join(EXECUTION_MODES)}"
        )
    if execution == "serve" and not fleet:
        raise ExplorationError("execution='serve' requires a fleet URL")

    topology = request.topology.normalized()
    bundle = load(request.system)
    problem = Problem(
        applications=bundle.applications, architecture=bundle.architecture
    )

    if topology.islands == 1:
        explorer = Explorer(
            problem,
            request.config,
            evaluator=make_dse_evaluator(problem, request.backend),
        )
        try:
            return explorer.run(progress)
        finally:
            if explorer.quarantine is not None:
                explorer.quarantine.close()

    payload = bundle_to_payload(bundle)
    if execution == "serve":
        return _run_via_fleet(request, payload, fleet, progress)

    if request.config.checkpoint_dir is not None:
        coordinator = _Coordinator(
            request, problem, payload, request.config.checkpoint_dir,
            execution, progress,
        )
        return coordinator.run()
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-islands-") as scratch:
        coordinator = _Coordinator(
            request, problem, payload, scratch, execution, progress
        )
        return coordinator.run()
