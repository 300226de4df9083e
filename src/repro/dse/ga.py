"""The genetic-algorithm exploration loop (paper §4).

Generational multi-objective GA with SPEA2 environmental selection:

1. a random initial population is repaired and evaluated;
2. each generation, SPEA2 selects the archive from population ∪ archive,
   parents are drawn by binary tournament on SPEA2 fitness, and offspring
   are produced by uniform crossover + mutation + repair;
3. evaluation results are cached by chromosome identity — the paper
   evaluates candidates in parallel for speed, here a thread pool can be
   enabled via ``workers``.

The paper runs population = parents = offspring = 100 for 5,000
generations; those are the defaults, scaled down in tests and benchmarks.
"""

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.guard import GuardConfig, GuardedEvaluator, QuarantineLog
from repro.core.problem import Problem
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import (
    SpanContext,
    activate,
    annotate,
    capture_context,
    event,
    listening,
    span as trace_span,
)
from repro.dse.checkpoint import (
    CheckpointManager,
    RunSnapshot,
    problem_digest,
)
from repro.dse.chromosome import (
    Chromosome,
    heuristic_chromosome,
    partition_chromosome,
    random_chromosome,
)
from repro.dse.operators import crossover, mutate
from repro.dse.repair import repair
from repro.dse.results import (
    ExplorationResult,
    ExplorationStatistics,
    ParetoPoint,
)
from repro.dse.spea2 import Spea2Selector, pareto_filter
from repro.errors import ExplorationError

_LOG = get_logger("dse")


@dataclass(frozen=True)
class ExplorerConfig:
    """Tuning knobs of the exploration.

    The defaults mirror the paper's experimental setup (§4): population,
    parents and offspring of 100, SPEA2 selection, 5,000 generations.
    """

    population_size: int = 100
    offspring_size: int = 100
    archive_size: int = 100
    generations: int = 5000
    crossover_probability: float = 0.9
    mutation_allocation_rate: float = 0.05
    mutation_keep_alive_rate: float = 0.1
    mutation_gene_rate: float = 0.15
    seed: int = 0
    #: Evaluate each feasible dropping candidate also with ``T_d`` emptied
    #: to collect the §5.2 "feasible only with dropping" statistic.
    track_dropping_gain: bool = False
    reliability_repair_rounds: int = 16
    #: Thread-pool size for candidate evaluation (1 = serial).
    workers: int = 1
    #: Stop early after this many generations without archive improvement
    #: (``None`` disables early stopping).
    stagnation_limit: Optional[int] = None
    #: Mix constructive seed individuals (round-robin mapping, uniform
    #: re-execution, one per candidate drop set) into the initial
    #: population.  Greatly speeds up small-budget runs.
    seed_heuristics: bool = True
    #: Force ``T_d`` empty on every candidate — the "without task
    #: dropping" optimization of the §5.2 power comparison.
    disable_dropping: bool = False
    #: Extra primary-backend attempts after a raising evaluation (the
    #: guard's bounded retry for transient failures).
    eval_retries: int = 1
    #: Per-evaluation wall-clock soft budget in seconds (``None``
    #: disables; opt-in because time cutoffs make runs timing-dependent).
    eval_soft_budget_seconds: Optional[float] = None
    #: Re-evaluate once with the cheap fast-window backend when the
    #: primary backend raises or exceeds its budget.
    eval_fallback: bool = True
    #: JSONL file collecting poison design points (``None`` disables).
    quarantine_path: Optional[str] = None
    #: Directory for crash-safe run snapshots (``None`` disables).
    checkpoint_dir: Optional[str] = None
    #: Snapshot every N generations (when ``checkpoint_dir`` is set).
    checkpoint_every: int = 10
    #: Restart from the latest valid snapshot in ``checkpoint_dir``.
    resume: bool = False

    def __post_init__(self):
        if self.population_size < 2:
            raise ExplorationError("population size must be >= 2")
        if self.offspring_size < 1:
            raise ExplorationError("offspring size must be >= 1")
        if self.archive_size < 1:
            raise ExplorationError("archive size must be >= 1")
        if self.generations < 0:
            raise ExplorationError("generations must be >= 0")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise ExplorationError("crossover probability must lie in [0, 1]")
        for label, rate in (
            ("mutation allocation rate", self.mutation_allocation_rate),
            ("mutation keep-alive rate", self.mutation_keep_alive_rate),
            ("mutation gene rate", self.mutation_gene_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ExplorationError(f"{label} must lie in [0, 1]")
        if self.workers < 1:
            raise ExplorationError("workers must be >= 1")
        if self.stagnation_limit is not None and self.stagnation_limit < 1:
            raise ExplorationError("stagnation limit must be >= 1")
        if self.eval_retries < 0:
            raise ExplorationError("evaluation retries must be >= 0")
        if (
            self.eval_soft_budget_seconds is not None
            and self.eval_soft_budget_seconds <= 0
        ):
            raise ExplorationError("evaluation soft budget must be positive")
        if self.checkpoint_every < 1:
            raise ExplorationError("checkpoint interval must be >= 1")

    @classmethod
    def from_options(
        cls,
        *,
        population: int = 32,
        generations: int = 25,
        seed: int = 0,
        workers: int = 1,
        population_size: Optional[int] = None,
        offspring_size: Optional[int] = None,
        archive_size: Optional[int] = None,
        crossover_probability: float = 0.9,
        mutation_allocation_rate: float = 0.05,
        mutation_keep_alive_rate: float = 0.1,
        mutation_gene_rate: float = 0.15,
        track_dropping_gain: bool = False,
        reliability_repair_rounds: int = 16,
        stagnation_limit: Optional[int] = None,
        seed_heuristics: bool = True,
        disable_dropping: bool = False,
        eval_retries: int = 1,
        eval_budget: Optional[float] = None,
        eval_soft_budget_seconds: Optional[float] = None,
        eval_fallback: bool = True,
        quarantine: Optional[str] = None,
        quarantine_path: Optional[str] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 10,
        resume: bool = False,
    ) -> "ExplorerConfig":
        """The one construction path shared by CLI, HTTP, api, experiments.

        ``population`` expands to the paper's population = parents =
        offspring = archive triple unless the individual sizes are given
        explicitly, ``eval_budget``/``quarantine`` are the user-facing
        spellings of ``eval_soft_budget_seconds``/``quarantine_path``,
        and checkpointed runs get a quarantine log beside their
        snapshots unless one is configured explicitly.  Because every
        entry point funnels through here, the same logical inputs
        provably yield identical configs everywhere.
        """
        if resume and not checkpoint_dir:
            raise ExplorationError("resume requires a checkpoint directory")
        if eval_soft_budget_seconds is None:
            eval_soft_budget_seconds = eval_budget
        if quarantine_path is None:
            quarantine_path = quarantine
        if quarantine_path is None and checkpoint_dir:
            quarantine_path = str(Path(checkpoint_dir) / "quarantine.jsonl")
        return cls(
            population_size=(
                population if population_size is None else population_size
            ),
            offspring_size=(
                population if offspring_size is None else offspring_size
            ),
            archive_size=population if archive_size is None else archive_size,
            generations=generations,
            crossover_probability=crossover_probability,
            mutation_allocation_rate=mutation_allocation_rate,
            mutation_keep_alive_rate=mutation_keep_alive_rate,
            mutation_gene_rate=mutation_gene_rate,
            seed=seed,
            track_dropping_gain=track_dropping_gain,
            reliability_repair_rounds=reliability_repair_rounds,
            workers=workers,
            stagnation_limit=stagnation_limit,
            seed_heuristics=seed_heuristics,
            disable_dropping=disable_dropping,
            eval_retries=eval_retries,
            eval_soft_budget_seconds=eval_soft_budget_seconds,
            eval_fallback=eval_fallback,
            quarantine_path=quarantine_path,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
            resume=resume,
        )


@dataclass
class _Boundary:
    """Consistent loop state captured at the end of one generation.

    Mutable run state (statistics, caches) is referenced by size/copy at
    capture time, so an interrupt mid-generation can still commit the
    last *consistent* snapshot instead of a torn one.
    """

    generation: int
    population: List[Chromosome]
    archive: List[Chromosome]
    rng_state: Tuple
    best_power: Optional[float]
    stagnation: int
    history_len: int
    statistics: dict = field(default_factory=dict)
    cache_size: int = 0
    without_drop_size: int = 0


class Explorer:
    """Runs the GA for a problem instance.

    Every evaluation goes through a :class:`GuardedEvaluator`, so a
    pathological design point cannot abort a long run; pass an already
    guarded evaluator to customise the guard beyond the config knobs.
    """

    def __init__(
        self,
        problem: Problem,
        config: Optional[ExplorerConfig] = None,
        evaluator: Optional[Evaluator] = None,
    ):
        self._problem = problem
        self._config = config or ExplorerConfig.from_options(
            population=100, generations=5000
        )
        base = evaluator or Evaluator(problem)
        if isinstance(base, GuardedEvaluator):
            self._evaluator = base
        else:
            quarantine = (
                QuarantineLog(self._config.quarantine_path)
                if self._config.quarantine_path
                else None
            )
            self._evaluator = GuardedEvaluator(
                base,
                config=GuardConfig(
                    retries=self._config.eval_retries,
                    soft_budget_seconds=self._config.eval_soft_budget_seconds,
                    fallback=self._config.eval_fallback,
                ),
                quarantine=quarantine,
            )
        self._cache: Dict[Tuple, EvaluationResult] = {}
        self._without_drop_cache: Dict[Tuple, bool] = {}
        self._stats = ExplorationStatistics()

    @property
    def quarantine(self) -> Optional[QuarantineLog]:
        """The evaluation guard's quarantine log, if one is attached."""
        return self._evaluator.quarantine

    @property
    def statistics(self) -> ExplorationStatistics:
        """Statistics accumulated so far (live view)."""
        return self._stats

    def run(
        self,
        progress: Optional[Callable[[int, ExplorationStatistics], None]] = None,
    ) -> ExplorationResult:
        """Execute the configured number of generations.

        With ``checkpoint_dir`` configured, the complete loop state is
        snapshotted every ``checkpoint_every`` generations (atomically),
        and ``resume=True`` restarts from the latest valid snapshot.  A
        ``KeyboardInterrupt`` commits a final checkpoint and returns the
        partial result instead of losing the run.
        """
        # One root span per run so every generation hangs off a single
        # tree even when the Explorer is driven directly (CLI, jobs)
        # rather than through the api.explore facade.
        with trace_span(
            "dse.run",
            generations=self._config.generations,
            population=self._config.population_size,
            workers=self._config.workers,
        ) as run_span:
            result = self._run_impl(progress)
            run_span.set_attributes(
                generations_run=result.generations_run,
                evaluations=result.statistics.evaluations,
                interrupted=result.statistics.interrupted,
            )
            return result

    def _run_impl(
        self,
        progress: Optional[Callable[[int, ExplorationStatistics], None]] = None,
    ) -> ExplorationResult:
        config = self._config
        rng = random.Random(config.seed)
        selector = Spea2Selector(config.archive_size)
        # The run's trace position, serialized into checkpoints so a
        # resumed run can rejoin the same trace.
        self._trace_ctx = capture_context()

        manager: Optional[CheckpointManager] = None
        if config.checkpoint_dir is not None:
            manager = CheckpointManager(
                config.checkpoint_dir, problem_digest(self._problem)
            )

        archive: List[Chromosome] = []
        history: List[Tuple[int, Optional[float], int]] = []
        best_power: Optional[float] = None
        stagnation = 0
        start_generation = 0

        resumed = (
            manager.load_latest() if manager is not None and config.resume
            else None
        )
        if resumed is not None:
            snapshot, snapshot_path = resumed
            rng.setstate(snapshot.rng_state)
            population = list(snapshot.population)
            archive = list(snapshot.archive)
            history = list(snapshot.history)
            best_power = snapshot.best_power
            stagnation = snapshot.stagnation
            self._stats = snapshot.statistics
            self._cache = dict(snapshot.cache)
            self._without_drop_cache = dict(snapshot.without_drop_cache)
            start_generation = snapshot.generation + 1
            metrics().counter("dse.resumes").inc()
            restored_ctx = SpanContext.from_dict(snapshot.trace)
            if restored_ctx is not None:
                if self._trace_ctx is None:
                    # No enclosing span: adopt the checkpointed trace as
                    # this thread's root so the resumed generations
                    # continue the original trace.
                    activate(restored_ctx).__enter__()
                    self._trace_ctx = restored_ctx
                else:
                    annotate(resumed_trace_id=restored_ctx.trace_id)
            event(
                "run-resumed",
                generation=snapshot.generation,
                path=str(snapshot_path),
                cache_entries=len(self._cache),
            )
            _LOG.info(
                "resumed from checkpoint %s",
                kv(
                    generation=snapshot.generation,
                    path=str(snapshot_path),
                    cache=len(self._cache),
                ),
            )
        else:
            if config.resume and manager is not None:
                _LOG.warning(
                    "resume requested but no valid checkpoint in %s; "
                    "starting fresh",
                    manager.directory,
                )
            population = []
            if config.seed_heuristics:
                population.extend(self._heuristic_seeds(rng))
            while len(population) < config.population_size:
                population.append(random_chromosome(self._problem, rng))
            population = [
                self._finalize(
                    repair(
                        chromosome,
                        self._problem,
                        rng,
                        reliability_rounds=config.reliability_repair_rounds,
                    )
                )
                for chromosome in population[: config.population_size]
            ]
            self._evaluate_all(population)

        generation = max(start_generation - 1, 0)
        boundary: Optional[_Boundary] = None
        last_checkpoint: Optional[int] = None

        registry = metrics()
        generation_timer = registry.timer("dse.generation_seconds")
        generation_counter = registry.counter("dse.generations")
        generation_started = time.perf_counter()

        try:
            for generation in range(start_generation, config.generations + 1):
                with trace_span(
                    "ga.generation", generation=generation
                ):
                    pool = _unique(archive + population)
                    results = [self._cache[c.key()] for c in pool]
                    objectives = [r.objectives for r in results]
                    with trace_span("dse.select"):
                        archive = [pool[i] for i in selector.select(objectives)]

                    feasible_in_archive = [
                        self._cache[c.key()]
                        for c in archive
                        if self._cache[c.key()].feasible
                    ]
                    generation_best = (
                        min(r.power for r in feasible_in_archive)
                        if feasible_in_archive
                        else None
                    )
                    history.append(
                        (generation, generation_best, len(feasible_in_archive))
                    )
                    if progress is not None:
                        progress(generation, self._stats)

                    improved = generation_best is not None and (
                        best_power is None or generation_best < best_power - 1e-12
                    )
                    now = time.perf_counter()
                    wall_seconds = now - generation_started
                    generation_started = now
                    generation_counter.inc()
                    generation_timer.observe(wall_seconds)
                    if listening():
                        event(
                            "generation-complete",
                            generation=generation,
                            archive_size=len(archive),
                            feasible_in_archive=len(feasible_in_archive),
                            best_power=generation_best,
                            hypervolume=_hypervolume_proxy(
                                [
                                    (r.power, r.service)
                                    for r in feasible_in_archive
                                ]
                            ),
                            evaluations=self._stats.evaluations,
                            cache_hits=self._stats.cache_hits,
                            cache_hit_rate=self._stats.cache_hit_rate,
                            repair_failures=self._stats.repair_failures,
                            wall_seconds=wall_seconds,
                        )
                    _LOG.debug(
                        "generation done %s",
                        kv(
                            generation=generation,
                            archive=len(archive),
                            feasible=len(feasible_in_archive),
                            best=generation_best,
                            wall_seconds=wall_seconds,
                        ),
                    )

                    if improved:
                        best_power = generation_best
                        stagnation = 0
                    else:
                        stagnation += 1
                    if (
                        config.stagnation_limit is not None
                        and stagnation >= config.stagnation_limit
                    ):
                        self._stats.stopped_early = True
                        self._stats.stopping_generation = generation
                        registry.counter("dse.early_stops").inc()
                        event(
                            "early-stop",
                            generation=generation,
                            stagnation=stagnation,
                            best_power=best_power,
                        )
                        _LOG.info(
                            "early stop %s",
                            kv(
                                generation=generation,
                                stagnation=stagnation,
                                limit=config.stagnation_limit,
                                best=best_power,
                            ),
                        )
                        break
                    if generation == config.generations:
                        break

                    archive_objectives = [
                        self._cache[c.key()].objectives for c in archive
                    ]
                    with trace_span("dse.select"):
                        fitness = selector.fitness(archive_objectives)
                    offspring: List[Chromosome] = []
                    for _ in range(config.offspring_size):
                        parent_a = archive[selector.tournament(fitness, rng)]
                        parent_b = archive[selector.tournament(fitness, rng)]
                        if rng.random() < config.crossover_probability:
                            child = crossover(parent_a, parent_b, rng)
                        else:
                            child = parent_a
                        child = mutate(
                            child,
                            self._problem,
                            rng,
                            allocation_rate=config.mutation_allocation_rate,
                            keep_alive_rate=config.mutation_keep_alive_rate,
                            gene_rate=config.mutation_gene_rate,
                        )
                        child = repair(
                            child,
                            self._problem,
                            rng,
                            reliability_rounds=config.reliability_repair_rounds,
                        )
                        offspring.append(self._finalize(child))
                    self._evaluate_all(offspring)
                    population = offspring

                    if manager is not None:
                        boundary = _Boundary(
                            generation=generation,
                            population=population,
                            archive=archive,
                            rng_state=rng.getstate(),
                            best_power=best_power,
                            stagnation=stagnation,
                            history_len=len(history),
                            statistics=self._stats.to_dict(),
                            cache_size=len(self._cache),
                            without_drop_size=len(self._without_drop_cache),
                        )
                        if generation % config.checkpoint_every == 0:
                            self._write_checkpoint(manager, boundary, history)
                            last_checkpoint = generation
        except KeyboardInterrupt:
            self._stats.interrupted = True
            registry.counter("dse.interrupts").inc()
            checkpoint_path: Optional[str] = None
            if manager is not None and boundary is not None:
                if boundary.generation != last_checkpoint:
                    checkpoint_path = str(
                        self._write_checkpoint(manager, boundary, history)
                    )
                else:
                    checkpoint_path = str(
                        manager.path_for(boundary.generation)
                    )
            event(
                "run-interrupted",
                generation=generation,
                checkpoint_path=checkpoint_path,
            )
            _LOG.warning(
                "run interrupted %s",
                kv(generation=generation, checkpoint=checkpoint_path),
            )

        return ExplorationResult(
            pareto=self._pareto_points(archive),
            statistics=self._stats,
            history=history,
            generations_run=generation,
            best_by_drop_set=self._best_by_drop_set(),
        )

    def _write_checkpoint(
        self,
        manager: CheckpointManager,
        boundary: _Boundary,
        history: List[Tuple[int, Optional[float], int]],
    ) -> Path:
        """Commit the last consistent generation boundary as a snapshot.

        The caches are sliced to their boundary sizes (dict insertion
        order is append-only here), so a snapshot taken after an
        interrupt excludes torn mid-generation state.
        """
        snapshot = RunSnapshot(
            generation=boundary.generation,
            rng_state=boundary.rng_state,
            population=boundary.population,
            archive=boundary.archive,
            best_power=boundary.best_power,
            stagnation=boundary.stagnation,
            statistics=ExplorationStatistics.from_dict(boundary.statistics),
            history=list(history[: boundary.history_len]),
            cache=list(islice(self._cache.items(), boundary.cache_size)),
            without_drop_cache=list(
                islice(
                    self._without_drop_cache.items(),
                    boundary.without_drop_size,
                )
            ),
            trace=(
                self._trace_ctx.to_dict()
                if getattr(self, "_trace_ctx", None) is not None
                else None
            ),
        )
        return manager.save(snapshot)

    def _best_by_drop_set(self) -> Dict[Tuple[str, ...], ParetoPoint]:
        """Cheapest feasible evaluated design per dropped set."""
        best: Dict[Tuple[str, ...], ParetoPoint] = {}
        for result in self._cache.values():
            if not result.feasible or result.design is None:
                continue
            key = tuple(sorted(result.design.dropped))
            current = best.get(key)
            if current is None or result.power < current.power:
                best[key] = ParetoPoint(
                    power=result.power,
                    service=result.service,
                    design=result.design,
                )
        return best

    def _finalize(self, chromosome: Chromosome) -> Chromosome:
        """Apply global candidate constraints (e.g. dropping disabled)."""
        if self._config.disable_dropping and not all(chromosome.keep_alive):
            chromosome = chromosome.with_keep_alive(
                tuple(True for _ in chromosome.keep_alive)
            )
        return chromosome

    def _heuristic_seeds(self, rng: random.Random) -> List[Chromosome]:
        """Constructive seeds: one per easy-to-enumerate drop set."""
        droppable = [
            g.name for g in self._problem.applications.droppable_graphs
        ]
        drop_sets: List[Tuple[str, ...]] = [tuple(droppable), ()]
        for name in droppable:
            drop_sets.append(tuple(n for n in droppable if n != name))
            drop_sets.append((name,))
        seeds = []
        seen = set()
        for drop_set in drop_sets:
            key = tuple(sorted(drop_set))
            if key in seen:
                continue
            seen.add(key)
            seeds.append(
                heuristic_chromosome(self._problem, rng, dropped=drop_set)
            )
            seeds.append(
                partition_chromosome(self._problem, rng, dropped=drop_set)
            )
        return seeds

    # ------------------------------------------------------------------
    # Evaluation with caching and statistics
    # ------------------------------------------------------------------

    def _evaluate_all(self, chromosomes: List[Chromosome]) -> None:
        fresh = []
        seen = set()
        cache_hit_counter = metrics().counter("dse.cache_hits")
        for chromosome in chromosomes:
            key = chromosome.key()
            if key in self._cache:
                self._stats.cache_hits += 1
                cache_hit_counter.inc()
            elif key not in seen:
                seen.add(key)
                fresh.append((key, chromosome))
        if not fresh:
            return
        with trace_span(
            "ga.evaluate_batch",
            batch=len(fresh),
            workers=self._config.workers,
        ):
            if self._config.workers > 1:
                results = self._evaluate_parallel(fresh)
            else:
                results = [self._evaluate_one(c) for _key, c in fresh]
        for (key, chromosome), result in zip(fresh, results):
            self._cache[key] = result
            self._record(key, chromosome, result)

    def _evaluate_parallel(
        self, fresh: List[Tuple[Tuple, Chromosome]]
    ) -> List[EvaluationResult]:
        """Evaluate candidates on a thread pool, isolating each failure.

        Results are collected in submission order, so serial and parallel
        runs with the same seed produce byte-identical outcomes.  An
        exception escaping a worker (i.e. past the guard — a broken custom
        evaluator, say) poisons only its own candidate, not the batch.
        """
        results: List[EvaluationResult] = []
        # Capture the batch's trace position once; each worker re-roots
        # its spans there, so parent links stay intact across threads
        # and the span tree matches the serial run's shape.
        ctx = capture_context()
        with ThreadPoolExecutor(max_workers=self._config.workers) as pool:
            futures = [
                pool.submit(self._evaluate_one_in_context, ctx, chromosome)
                for _key, chromosome in fresh
            ]
            try:
                for future, (_key, chromosome) in zip(futures, fresh):
                    try:
                        results.append(future.result())
                    except Exception as error:  # noqa: BLE001
                        results.append(
                            self._evaluator.failure_result(
                                error, context=chromosome, stage="evaluate"
                            )
                        )
            except KeyboardInterrupt:
                # Only the main thread sees SIGINT: abandon the batch so
                # run() can commit the last consistent checkpoint.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        return results

    def _evaluate_one_in_context(
        self, ctx: Optional[SpanContext], chromosome: Chromosome
    ) -> EvaluationResult:
        """Worker-thread wrapper adopting the submitter's trace context."""
        with activate(ctx):
            return self._evaluate_one(chromosome)

    def _evaluate_one(self, chromosome: Chromosome) -> EvaluationResult:
        try:
            design = chromosome.decode(self._problem)
        except ExplorationError as error:
            # Structurally undecodable even after repair: an expected
            # dead-end of the search, hard-penalized but not quarantined.
            return EvaluationResult(
                design=None,
                feasible=False,
                violations=[f"decode: {error}"],
            )
        except Exception as error:  # noqa: BLE001 — poison genotype
            return self._evaluator.failure_result(
                error, context=chromosome, stage="decode"
            )
        return self._evaluator.evaluate(design, context=chromosome)

    def _record(
        self, key: Tuple, chromosome: Chromosome, result: EvaluationResult
    ) -> None:
        self._stats.evaluations += 1
        metrics().counter("dse.evaluations").inc()
        if result.design is None:
            self._stats.repair_failures += 1
            metrics().counter("dse.repair_failures").inc()
        if result.guard_error is not None:
            self._stats.guard_failures += 1
        if result.fallback is not None:
            self._stats.fallback_evaluations += 1
        if result.feasible:
            self._stats.feasible += 1
            if result.hardened is not None:
                self._stats.record_hardening(result.hardened.plan.kind_histogram())
        else:
            self._stats.infeasible += 1
        if (
            self._config.track_dropping_gain
            and result.feasible
            and result.design is not None
            and result.design.dropped
        ):
            self._stats.dropping_checked += 1
            if not self._counterfactual_feasible(chromosome, result):
                self._stats.dropping_gain += 1

    def _counterfactual_feasible(
        self, chromosome: Chromosome, result: EvaluationResult
    ) -> bool:
        """Whether the design stays feasible with ``T_d`` emptied.

        Cached: distinct chromosomes frequently share the all-alive
        counterfactual, so repeated drop-set checks are served from the
        main evaluation cache or a dedicated feasibility cache instead of
        re-running the analysis (and ``stats.evaluations`` stays truthful).
        """
        counter_key = chromosome.with_keep_alive(
            tuple(True for _ in chromosome.keep_alive)
        ).key()
        cached = self._cache.get(counter_key)
        if cached is not None:
            self._stats.cache_hits += 1
            metrics().counter("dse.cache_hits").inc()
            return cached.feasible
        known = self._without_drop_cache.get(counter_key)
        if known is not None:
            self._stats.cache_hits += 1
            metrics().counter("dse.cache_hits").inc()
            return known
        counterfactual = self._evaluator.evaluate(
            result.design.without_dropping(), context=chromosome
        )
        self._stats.evaluations += 1
        metrics().counter("dse.evaluations").inc()
        feasible = counterfactual.feasible
        self._without_drop_cache[counter_key] = feasible
        return feasible

    def _pareto_points(self, archive: List[Chromosome]) -> List[ParetoPoint]:
        feasible = [
            self._cache[c.key()]
            for c in archive
            if self._cache[c.key()].feasible
        ]
        if not feasible:
            return []
        objectives = [r.objectives for r in feasible]
        points = [
            ParetoPoint(
                power=feasible[i].power,
                service=feasible[i].service,
                design=feasible[i].design,
            )
            for i in pareto_filter(objectives)
        ]
        # Deduplicate identical objective vectors.
        unique: Dict[Tuple[float, float, Tuple[str, ...]], ParetoPoint] = {}
        for point in points:
            unique[(point.power, point.service, point.dropped)] = point
        return sorted(unique.values(), key=lambda p: (p.power, -p.service))


def _hypervolume_proxy(
    points: Sequence[Tuple[Optional[float], Optional[float]]],
) -> float:
    """2-D hypervolume of feasible ``(power, service)`` points.

    Reference point: ``(max power in the set + 1, service 0)`` — per
    generation, so values are only comparable as a convergence *proxy*
    (the paper's archive quality trend), not across problem instances.
    """
    cleaned = [
        (power, service)
        for power, service in points
        if power is not None and service is not None
    ]
    if not cleaned:
        return 0.0
    ref_power = max(power for power, _service in cleaned) + 1.0
    # Non-dominated staircase: power ascending, keep strictly rising
    # service (minimize power, maximize service).
    front: List[Tuple[float, float]] = []
    for power, service in sorted(set(cleaned)):
        if not front or service > front[-1][1]:
            front.append((power, service))
    volume = 0.0
    previous_service = 0.0
    for power, service in front:
        volume += (ref_power - power) * (service - previous_service)
        previous_service = service
    return volume


def _unique(chromosomes: List[Chromosome]) -> List[Chromosome]:
    seen = set()
    result = []
    for chromosome in chromosomes:
        key = chromosome.key()
        if key not in seen:
            seen.add(key)
            result.append(chromosome)
    return result
