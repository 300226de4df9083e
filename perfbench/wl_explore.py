"""Workload ``explore-dt-large``: fixed-budget DT-large explorations.

Each request is built like every entry point builds it
(``ExploreRequest.from_options("dt-large", population=32, ...)``) and run
inline through ``repro.api.explore``: one island, one worker, the default
(``fast``) evaluator.  A fixed pool of GA seeds is explored in rounds, in
an order drawn from the run seed; each GA seed's time is its best round
(contention on a shared box only ever adds time).  The pool is fixed
because one GA seed alone moves the run time by ~20 %.
"""

import random

from repro import api
from repro.core.fastpath import FastPathConfig
from repro.core.problem import Problem
from repro.dse import ExploreRequest
from repro.dse.ga import Explorer
from repro.obs.trace import span
from repro.sched.fast import FastWindowAnalysisBackend
from repro.serve.encoding import canonical_bytes, exploration_result_to_dict

from benchmarks.bench_explore import front_hypervolume
from perfbench.common import (
    OUT_DIR, SETUP_REPEATS, Stopwatch, median, sha256_bytes,
)
from perfbench.inputs import (
    EXPLORE_GENERATIONS, EXPLORE_POPULATION, EXPLORE_SUITE,
)
from perfbench.probes import (
    LayerTotals, ProbedAnalysis, ProbedEvaluator, SpanRecorder, empty_layers,
    overhead_pct,
)

#: Hypervolume reference power for DT-large fronts, fixed so ``front_hv``
#: compares across seeds and commits (above every DT-large design's power).
REFERENCE_POWER = 60.0
#: GA seeds explored by every run.
GA_SEEDS = (1, 2, 3)
#: Seconds of the run budget per round over ``GA_SEEDS`` (one exploration
#: takes ~1.6 s on a 2-core VM).  Short explorations, many rounds: a best
#: of five finds a quiet moment on a shared host more often than a best of
#: three (ten-seed IQR / median on that VM: 0.17 with three rounds of three
#: generations, 0.06 with five rounds of two).
SECONDS_PER_ROUND = 4.8


def build_request(ga_seed: int, smoke: bool) -> ExploreRequest:
    return ExploreRequest.from_options(
        EXPLORE_SUITE,
        population=8 if smoke else EXPLORE_POPULATION,
        generations=1 if smoke else EXPLORE_GENERATIONS,
        seed=ga_seed,
    )


def build_requests(seed: int, seconds: float, smoke: bool):
    """The run's requests: every GA seed once per round, seeded order."""
    rounds = 2 if smoke else max(5, round(seconds / SECONDS_PER_ROUND))
    rng = random.Random(f"explore:{seed}")
    order = []
    for _ in range(rounds):
        ga_seeds = list(GA_SEEDS)
        rng.shuffle(ga_seeds)
        order.extend(ga_seeds)
    return [build_request(ga_seed, smoke) for ga_seed in order]


def front_bytes(result) -> bytes:
    return canonical_bytes(exploration_result_to_dict(result))


def run(args, report, contract, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        with Stopwatch() as watch:
            requests = build_requests(args.seed, args.seconds, args.smoke)
            api.load(EXPLORE_SUITE)
        setups.append(watch.seconds)
    setup_s = import_s + median(setups)

    best, fronts, results = {}, {}, {}
    for request in requests:
        ga_seed = request.config.seed
        try:
            with Stopwatch() as watch:
                result = api.explore(request)
        except Exception as error:  # noqa: BLE001 — tallied, then re-raised
            report.count(False, f"explore: {type(error).__name__}: {error}")
            raise
        report.count(True)
        front = front_bytes(result)
        if fronts.setdefault(ga_seed, front) != front:
            report.mismatch(f"explore: GA seed {ga_seed} changed its front")
        best[ga_seed] = min(best.get(ga_seed, watch.seconds), watch.seconds)
        results[ga_seed] = result
        report.speed.sample()
    report.check_digest(
        sha256_bytes(fronts[ga_seed] for ga_seed in sorted(fronts)), args.smoke
    )

    seeds = sorted(best)
    evaluations = {k: results[k].statistics.evaluations for k in seeds}
    hvs = [front_hypervolume(results[k].pareto, REFERENCE_POWER) for k in seeds]
    explore_s = median([best[k] for k in seeds])
    # Contract times at the nominal machine speed (see MachineSpeed).
    scaled = {k: report.speed.scale(best[k]) for k in seeds}
    report.metrics = {
        "setup_s": report.speed.scale(setup_s),
        "typical_ms": 1000 * median(list(scaled.values())),
        "tail_ms": 1000 * max(scaled.values()),
        "secondary_ms": 1000 * median([scaled[k] / evaluations[k] for k in seeds]),
        "rate_per_s": sum(evaluations.values()) / sum(scaled.values()),
    }
    report.named_metric("setup_s", setup_s, "s", SETUP_REPEATS)
    report.named_metric(
        "explore_s", explore_s, "s",
        f"{len(seeds)} GA seeds x {len(requests) // len(seeds)} rounds",
    )
    report.named_metric("front_hv", median(hvs), "power*service", len(hvs))
    report.tables["explorations (best round per GA seed)"] = [
        {"ga_seed": k, "seconds": best[k], "evaluations": evaluations[k],
         "front": len(results[k].pareto), "front_hv": hv}
        for k, hv in zip(seeds, hvs)
    ]
    if args.trace:
        first = requests[0]
        _traced_run(
            args, report, contract, first, fronts[first.config.seed],
            best[first.config.seed],
        )


def _traced_run(args, report, contract, request, reference, explore_s):
    """The same request once, through ``Explorer(evaluator=...)`` probes.

    Built like ``run_explore`` builds a single island: the problem from
    the resolved bundle and ``Evaluator(problem, analysis=...)`` with the
    DSE defaults (fast back-end, task granularity, the problem's comm
    model, ``FastPathConfig.for_dse()``).
    """
    totals = LayerTotals()
    with SpanRecorder() as recorder:
        bundle = api.load(request.system)
        problem = Problem(
            applications=bundle.applications, architecture=bundle.architecture
        )
        config = FastPathConfig.for_dse()
        analysis = ProbedAnalysis(
            totals, backend=FastWindowAnalysisBackend(), granularity="task",
            comm=problem.comm_model(), fast_path=config,
        )
        explorer = Explorer(
            problem, request.config, evaluator=ProbedEvaluator(problem, analysis)
        )
        with span("bench.explore"):
            with Stopwatch() as watch:
                result = explorer.run()
    recorder.write(OUT_DIR / f"spans_explore_seed{args.seed}.jsonl")
    print(recorder.summary_text())
    report.count(True)
    if front_bytes(result) != reference:
        report.mismatch("traced explore: front differs from the untraced run")

    # The probe's side unroll is extra work: leave it out of the run time.
    traced_s = watch.seconds - totals.unroll_s
    totals.add_cache(config.cache.stats())
    layers = empty_layers(contract)
    layers.update(totals.layer_metrics())
    layers.update({
        "dse.evaluations": totals.evaluations,
        "dse.feasible_ratio": (
            totals.feasible / totals.evaluations if totals.evaluations else 0.0
        ),
        "dse.eval_s": totals.eval_s,
        "dse.ga_s": traced_s - totals.eval_s,
        "trace.overhead_pct": overhead_pct(traced_s, explore_s),
    })
    report.layers = layers
    report.named_metric("explore_s", traced_s, "s", "1 run", traced=True)
