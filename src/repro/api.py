"""Stable high-level facade over the toolkit.

Scripts used to assemble every experiment from six deep modules (load a
bundle, build a plan, harden, pick a back-end, wire an evaluator, ...).
This module condenses the four everyday flows into one import::

    import repro
    from repro.dse import ExploreRequest

    bundle = repro.api.load("cruise.json")          # or a suite name
    result = repro.api.analyze(bundle, dropped=("info", "log"))
    sim = repro.api.simulate(bundle, profiles=500)
    front = repro.api.explore(
        ExploreRequest.from_options(bundle, generations=25)
    )
    report = repro.api.verify(bundle, budget=200)

Each function returns the *existing* result dataclasses —
:class:`~repro.core.analysis.MCAnalysisResult`,
:class:`~repro.sim.montecarlo.MonteCarloResult`,
:class:`~repro.dse.results.ExplorationResult` — so code written against
the deep modules keeps working and code written against the facade can
drop down a layer when it needs to.

Every ``system`` argument goes through :func:`load`, the one resolver
of the four system sources: a :class:`~repro.model.serialization
.SystemBundle`, an inline system-format dict, the name of a built-in
benchmark suite (``cruise``, ``dt-med``, ``dt-large``, ``synth-1``,
``synth-2``), or a path to a system JSON file.
"""

import os
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from repro.comm import CommBackend
from repro.core.analysis import MCAnalysisResult
from repro.core.factory import make_analysis
from repro.core.fastpath import FastPathConfig
from repro.errors import ModelError, ReproError
from repro.hardening.spec import HardeningPlan
from repro.hardening.transform import harden
from repro.model.application import ApplicationSet
from repro.model.mapping import Mapping
from repro.model.serialization import (
    SystemBundle,
    bundle_from_payload,
    load_system,
)
from repro.obs.trace import span
from repro.sched.wcrt import SchedBackend

__all__ = [
    "load",
    "analyze",
    "simulate",
    "explore",
    "verify",
    "validate_dropped",
    "cache_stats",
    "cache_clear",
]

SystemLike = Union[SystemBundle, Dict[str, Any], str, "os.PathLike[str]"]

#: Accepted drop-set spellings: an iterable of names or one
#: comma-separated string (the CLI's ``--dropped`` syntax).
DroppedLike = Union[str, Iterable[str]]


def load(source: SystemLike, allow_paths: bool = True) -> SystemBundle:
    """The one resolver of a system source (see ``docs/api.md``).

    A :class:`SystemBundle` is returned untouched, an inline dict goes
    through :func:`~repro.model.serialization.bundle_from_payload`, a
    built-in suite name gives a fresh benchmark instance (no mapping, no
    plan) and anything else is read as a system file.  With
    ``allow_paths=False`` (the server default) a non-suite string is
    refused with one error whether or not the file exists.
    """
    if isinstance(source, SystemBundle):
        return source
    if isinstance(source, dict):
        return bundle_from_payload(source)
    if not isinstance(source, (str, os.PathLike)):
        raise ModelError(
            f"system must be a SystemBundle, an inline system object, a "
            f"suite name or a path, got {type(source).__name__}"
        )
    from repro.suites import benchmark_names, get_benchmark

    if isinstance(source, str) and source in benchmark_names():
        benchmark = get_benchmark(source)
        return SystemBundle(
            applications=benchmark.problem.applications,
            architecture=benchmark.problem.architecture,
            mapping=None,
            plan=None,
        )
    if not allow_paths:
        raise ReproError(
            f"unknown suite {str(source)!r}; known suites: "
            f"{', '.join(sorted(benchmark_names()))}. Server-local file "
            f"paths are disabled (start the server with "
            f"--allow-local-paths to accept them)"
        )
    return load_system(source)


def validate_dropped(
    applications: ApplicationSet, dropped: DroppedLike
) -> Tuple[str, ...]:
    """Normalise a drop set and reject names missing from the task graphs.

    Accepts an iterable of application names or one comma-separated
    string; surrounding whitespace is stripped and empty entries are
    discarded.  Raises :class:`~repro.errors.ReproError` listing *all*
    unknown names, not just the first.
    """
    if isinstance(dropped, str):
        dropped = dropped.split(",")
    names = tuple(n.strip() for n in dropped if n and n.strip())
    known = {graph.name for graph in applications.graphs}
    unknown = sorted(set(names) - known)
    if unknown:
        raise ReproError(
            f"unknown application(s) in drop set: {', '.join(unknown)}; "
            f"known applications: {', '.join(sorted(known))}"
        )
    return names


def cache_stats() -> dict:
    """Hit/miss/occupancy statistics of the process-wide schedule cache.

    The cache is the :func:`repro.core.fastpath.shared_cache` LRU used by
    every analysis running with :meth:`FastPathConfig.shared` (the serving
    layer's default).  Analyses with a private cache (the CLI default, the
    DSE evaluator) do not show up here.
    """
    from repro.core.fastpath import shared_cache

    return shared_cache().stats()


def cache_clear() -> None:
    """Drop every entry of the process-wide schedule cache.

    Hit/miss tallies are kept (they are lifetime counters); only the
    memoized :class:`~repro.sched.wcrt.ScheduleBounds` entries go.
    """
    from repro.core.fastpath import shared_cache

    shared_cache().clear()


def _apply_comm_overrides(
    bundle: SystemBundle,
    comm_backend: Optional[str],
    comm_arq: Optional[int],
    comm_arq_timeout: Optional[float],
) -> SystemBundle:
    """Rewrite the bundle's fabric comm configuration (``--comm-*``).

    Overrides land on the interconnect itself (not just the model
    object), so everything downstream — default comm resolution, job-set
    fingerprints, the verification oracles — sees one consistent
    configuration.  All-``None`` is the no-op fast path.
    """
    if comm_backend is None and comm_arq is None and comm_arq_timeout is None:
        return bundle
    from repro.comm import with_comm

    architecture = with_comm(
        bundle.architecture,
        backend=comm_backend,
        arq_retries=comm_arq,
        arq_timeout=comm_arq_timeout,
    )
    return SystemBundle(
        bundle.applications, architecture, bundle.mapping, bundle.plan
    )


def _prepare(
    system: SystemLike,
    mapping: Optional[Mapping] = None,
    plan: Optional[HardeningPlan] = None,
    dropped: DroppedLike = (),
    comm_backend: Optional[str] = None,
    comm_arq: Optional[int] = None,
    comm_arq_timeout: Optional[float] = None,
) -> Tuple[SystemBundle, ApplicationSet, Tuple[str, ...]]:
    """Load a mapped system: ``(bundle, T', drop set)``.

    The bundle carries the resolved mapping and plan (``mapping``/``plan``
    default to its own; no plan means unhardened) and the ``--comm-*``
    overrides; ``T'`` is the plan applied and the drop set is validated.
    Shared by :func:`analyze`, :func:`simulate` and ``repro margins``.
    """
    bundle = _apply_comm_overrides(
        load(system), comm_backend, comm_arq, comm_arq_timeout
    )
    mapping = mapping if mapping is not None else bundle.mapping
    if mapping is None:
        label = system if isinstance(system, str) else "system"
        raise ReproError(f"{label} carries no mapping; add one or run explore")
    plan = plan if plan is not None else (bundle.plan or HardeningPlan())
    return (
        SystemBundle(bundle.applications, bundle.architecture, mapping, plan),
        harden(bundle.applications, plan),
        validate_dropped(bundle.applications, dropped),
    )


def analyze(
    system: SystemLike,
    *,
    method: str = "proposed",
    backend: Union[SchedBackend, str, None] = None,
    granularity: str = "job",
    dropped: DroppedLike = (),
    plan: Optional[HardeningPlan] = None,
    mapping: Optional[Mapping] = None,
    policy: str = "fp",
    comm: Union[CommBackend, str, None] = None,
    comm_backend: Optional[str] = None,
    comm_arq: Optional[int] = None,
    comm_arq_timeout: Optional[float] = None,
    fast_path: Optional[FastPathConfig] = None,
) -> MCAnalysisResult:
    """WCRT analysis of a mapped system (the CLI ``analyze`` flow).

    ``plan``/``mapping`` default to the bundle's own; ``method`` is one
    of ``proposed``/``naive``/``adhoc`` and ``backend`` one of
    :data:`repro.core.factory.SCHED_BACKENDS` (or a back-end instance),
    both routed through :func:`repro.core.factory.make_analysis`.

    ``comm_backend``/``comm_arq``/``comm_arq_timeout`` rewrite the
    system's interconnect comm configuration before analysis (the CLI's
    ``--comm-backend``/``--comm-arq`` flags; names are validated against
    :data:`repro.comm.COMM_BACKENDS`).  ``comm`` still accepts a
    ready-made model/backend instance, which then wins outright.
    """
    with span("api.analyze", method=method, granularity=granularity):
        bundle, hardened, dropped = _prepare(
            system, mapping, plan, dropped,
            comm_backend, comm_arq, comm_arq_timeout,
        )
        analysis = make_analysis(
            method=method,
            backend=backend,
            granularity=granularity,
            comm=comm,
            policy=policy,
            fast_path=fast_path,
        )
        return analysis.analyze(
            hardened, bundle.architecture, bundle.mapping, dropped
        )


def simulate(
    system: SystemLike,
    *,
    profiles: int = 500,
    seed: int = 0,
    rng=None,
    dropped: DroppedLike = (),
    plan: Optional[HardeningPlan] = None,
    mapping: Optional[Mapping] = None,
    policy: str = "fp",
    max_faults: int = 3,
    worst_bias: float = 0.5,
    comm_backend: Optional[str] = None,
    comm_arq: Optional[int] = None,
    comm_arq_timeout: Optional[float] = None,
):
    """Monte-Carlo fault-injection campaign (the CLI ``simulate`` flow).

    Returns the :class:`~repro.sim.montecarlo.MonteCarloResult` of a
    WC-Sim estimator over ``profiles`` random fault profiles.  Pass an
    externally owned ``random.Random`` as ``rng`` to share a generator
    with a larger campaign; it takes precedence over ``seed`` and the
    result records ``seed=None``.  ``comm_backend``/``comm_arq``/
    ``comm_arq_timeout`` rewrite the fabric comm configuration exactly
    as in :func:`analyze`.
    """
    from repro.sim import BiasedSampler, MonteCarloEstimator, Simulator

    with span("api.simulate", profiles=profiles, policy=policy):
        bundle, hardened, dropped = _prepare(
            system, mapping, plan, dropped,
            comm_backend, comm_arq, comm_arq_timeout,
        )
        simulator = Simulator(
            hardened, bundle.architecture, bundle.mapping,
            dropped=dropped, policy=policy,
        )
        estimator = MonteCarloEstimator(
            simulator, sampler=BiasedSampler(worst_bias), max_faults=max_faults
        )
        return estimator.estimate(profiles=profiles, seed=seed, rng=rng)


def verify(
    system: SystemLike,
    *,
    budget: int = 200,
    seed: int = 0,
    granularity: str = "job",
    policy: str = "fp",
    max_faults: int = 3,
    shrink: bool = True,
    metamorphic: bool = True,
    corpus_dir: Union[str, Path, None] = None,
    backend: Optional[SchedBackend] = None,
    label: Optional[str] = None,
    config=None,
    comm_backend: Optional[str] = None,
    comm_arq: Optional[int] = None,
    comm_arq_timeout: Optional[float] = None,
):
    """Adversarial soundness campaign (the CLI ``verify`` flow).

    Runs directed + exhaustive + random fault-injection scenarios, the
    differential oracle lattice, fast-path/warm-start consistency, and
    the metamorphic properties against ``system``; shrinks any violation
    and (when ``corpus_dir`` is set) writes self-contained reproducer
    JSON files.  Returns the deterministic
    :class:`~repro.verify.campaign.VerificationReport` — two calls with
    the same system, ``seed`` and ``budget`` produce identical reports.

    Suites without a mapping get a deterministic seeded design.  Pass a
    full :class:`~repro.verify.campaign.CampaignConfig` as ``config`` to
    override more than the common knobs (it wins over the keyword
    shortcuts); ``backend`` swaps the analysis back-end under test — the
    hook the harness's own broken-backend tests use.
    """
    from repro.verify.campaign import (
        CampaignConfig,
        run_campaign,
        state_from_bundle,
    )

    bundle = load(system)
    bundle = _apply_comm_overrides(
        bundle, comm_backend, comm_arq, comm_arq_timeout
    )
    state = state_from_bundle(bundle, seed=seed)
    if config is None:
        config = CampaignConfig(
            budget=budget,
            seed=seed,
            granularity=granularity,
            policy=policy,
            max_faults=max_faults,
            shrink=shrink,
            metamorphic=metamorphic,
            corpus_dir=corpus_dir,
            backend=backend,
        )
    if label is None:
        label = system if isinstance(system, str) else "system"
    return run_campaign(state, config, label=label)


def explore(
    request,
    *,
    execution: Optional[str] = None,
    fleet: Optional[str] = None,
):
    """GA design-space exploration (the CLI ``explore`` flow).

    Takes one :class:`~repro.dse.request.ExploreRequest` — the same typed
    value the CLI and the HTTP job layer build — and returns the
    :class:`~repro.dse.results.ExplorationResult`::

        request = repro.dse.ExploreRequest.from_options(
            "cruise", generations=50, population=64, islands=4,
        )
        result = repro.api.explore(request)

    The request carries the evaluator's schedulability back-end and the
    island topology; islands > 1 shard the run over island worker
    processes (``execution`` picks ``process``/``inline``/``serve``;
    ``fleet`` is the serve base URL for the durable-job fleet mode).
    """
    from repro.dse.islands import run_explore
    from repro.dse.request import ExploreRequest

    if not isinstance(request, ExploreRequest):
        raise TypeError(
            f"api.explore takes one repro.dse.ExploreRequest (build it with "
            f"ExploreRequest.from_options), got {type(request).__name__}"
        )
    with span(
        "api.explore",
        generations=request.config.generations,
        population=request.config.population_size,
        workers=request.config.workers,
        islands=request.topology.islands,
    ):
        return run_explore(request, execution=execution, fleet=fleet)
