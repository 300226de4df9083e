"""Workload ``analyze``: CLI-default ``repro.api.analyze`` in a closed loop.

One thread calls ``api.analyze`` with the ``repro analyze`` defaults
(proposed method, window back-end, job granularity, a fresh
``FastPathConfig()`` per call) in cycles over the small set (paper suites
and the shared-bus comm-dominated system, heuristic designs), with a pass
over the large set (tgff systems of ~60 and ~130 tasks) after every
``CYCLES_PER_PASS`` cycles, so both sets are sampled across the whole run.
"""

import hashlib
import random
import time

from repro import api
from repro.core.fastpath import FastPathConfig
from repro.hardening.spec import HardeningPlan
from repro.hardening.transform import harden
from repro.obs.trace import span
from repro.sched.wcrt import WindowAnalysisBackend
from repro.serve.encoding import analysis_result_to_dict, canonical_bytes

from perfbench.common import (
    OUT_DIR, SETUP_REPEATS, Stopwatch, beyond, median, percentile, record,
    recorded_large_cold, sha256_bytes,
)
from perfbench.inputs import large_inputs, small_inputs
from perfbench.probes import (
    LayerTotals, ProbedAnalysis, SpanRecorder, cost_row, empty_layers,
)

#: Small-set cycles per large-set pass (about half the time each).
CYCLES_PER_PASS = 3
#: Enough small-set calls to put at least ten beyond p95.
MIN_SMALL_CALLS = 210
MIN_LARGE_PASSES = 3


def build_inputs(smoke: bool):
    if smoke:
        return small_inputs(count=6), large_inputs(limit=1)
    return small_inputs(), large_inputs()


def result_digest(result) -> str:
    """sha256 of the result's canonical (served) bytes."""
    return hashlib.sha256(
        canonical_bytes(analysis_result_to_dict(result))
    ).hexdigest()


def cold_digest(item) -> str:
    """The reference: the same input analyzed with no fast path."""
    return result_digest(api.analyze(item.bundle, dropped=item.dropped))


def cold_references(small, large, recording: bool) -> dict:
    """Reference digest per input label.

    Small inputs are analyzed cold here.  The large set is the same for
    every seed, so its cold digests come from ``digests.json`` (recorded
    with ``--record-digests``) instead of a ~10 s cold run per run.
    """
    references = {item.label: cold_digest(item) for item in small}
    recorded = recorded_large_cold()
    fresh = {}
    for item in large:
        if recording or item.label not in recorded:
            fresh[item.label] = cold_digest(item)
        references[item.label] = fresh.get(item.label, recorded.get(item.label))
    if recording:
        record("large_cold", fresh)
    return references


def output_digest(references: dict) -> str:
    """One digest over every input's reference digest."""
    return sha256_bytes(
        f"{label}={references[label]}".encode() for label in sorted(references)
    )


def _call(item, reference, report):
    """One timed CLI-default analyze; returns seconds (None on failure)."""
    try:
        started = time.perf_counter()
        result = api.analyze(
            item.bundle, dropped=item.dropped, fast_path=FastPathConfig()
        )
        seconds = time.perf_counter() - started
    except Exception as error:  # noqa: BLE001 — tallied, the loop goes on
        report.count(False, f"{item.label}: {type(error).__name__}: {error}")
        return None
    report.count(True)
    if result_digest(result) != reference:
        report.mismatch(f"{item.label}: bounds differ from the cold run")
    return seconds


def run(args, report, contract, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        with Stopwatch() as watch:
            small, large = build_inputs(args.smoke)
        setups.append(watch.seconds)
    setup_s = import_s + median(setups)

    # Output check: every call's bounds equal a cold (no fast path) run.
    references = cold_references(small, large, report.recording)
    report.check_digest(output_digest(references), args.smoke)

    order = list(small)
    random.Random(f"analyze-order:{args.seed}").shuffle(order)
    min_cycles = 1 if args.smoke else -(-MIN_SMALL_CALLS // len(order))
    min_passes = 1 if args.smoke else MIN_LARGE_PASSES
    small_times = {item.label: [] for item in small}
    large_times = {item.label: [] for item in large}
    pass_means = []
    small_wall = 0.0
    cycles = 0
    started = time.perf_counter()
    while cycles < min_cycles or len(pass_means) < min_passes or (
        time.perf_counter() - started < args.seconds
    ):
        with Stopwatch() as watch:
            for item in order:
                seconds = _call(item, references[item.label], report)
                if seconds is not None:
                    small_times[item.label].append(seconds)
        small_wall += watch.seconds
        cycles += 1
        report.speed.sample()
        if cycles % CYCLES_PER_PASS:
            continue
        times = [_call(item, references[item.label], report) for item in large]
        for item, seconds in zip(large, times):
            if seconds is not None:
                large_times[item.label].append(seconds)
        if None not in times:
            pass_means.append(sum(times) / len(times))
        report.speed.sample()

    # Contract metrics: each input's best call (contention on a shared box
    # only ever adds time), at the nominal machine speed.
    scale = report.speed.scale
    small_best = [scale(min(times)) for times in small_times.values()]
    large_best = [scale(min(times)) for times in large_times.values()]
    calls = [t for times in small_times.values() for t in times]
    report.metrics = {
        "setup_s": scale(setup_s),
        "typical_ms": 1000 * median(small_best),
        "tail_ms": 1000 * percentile(small_best, 0.95),
        "secondary_ms": 1000 * sum(large_best) / len(large_best),
        "rate_per_s": len(small_best) / sum(small_best),
    }
    report.named_metric("setup_s", setup_s, "s", SETUP_REPEATS)
    report.named_metric(
        "analyze_small_p50_ms", 1000 * median(calls), "ms", len(calls)
    )
    report.named_metric(
        "analyze_small_p95_ms", 1000 * percentile(calls, 0.95), "ms",
        f"{len(calls)} ({beyond(calls, 0.95)} beyond)",
    )
    report.named_metric(
        "analyze_large_s", median(pass_means), "s", f"{len(pass_means)} passes"
    )
    report.named_metric(
        "analyze_small_calls_per_s", len(calls) / small_wall, "1/s", len(calls)
    )
    if args.trace:
        _traced_pass(args, report, contract, small, large, references, small_times)


def _traced_pass(args, report, contract, small, large, references, untraced):
    """Each input once, with every layer call wrapped and spans on."""
    totals = LayerTotals()
    rows = []
    small_times, large_times, ratios = [], [], []
    with SpanRecorder() as recorder:
        for position, item in enumerate(small + large):
            layer = LayerTotals()
            config = FastPathConfig()
            analysis = ProbedAnalysis(
                layer, backend=WindowAnalysisBackend(), granularity="job",
                fast_path=config,
            )
            bundle = item.bundle
            with span("bench.analyze", system=item.label):
                started = time.perf_counter()
                with span("hardening.harden"):
                    with Stopwatch() as watch:
                        hardened = harden(
                            bundle.applications, bundle.plan or HardeningPlan()
                        )
                layer.harden_s += watch.seconds
                layer.harden_calls += 1
                dropped = api.validate_dropped(bundle.applications, item.dropped)
                result = analysis.analyze(
                    hardened, bundle.architecture, bundle.mapping, dropped
                )
                # The side unroll is the probe's own work, not the call's.
                seconds = time.perf_counter() - started - layer.unroll_s
            report.count(True)
            if result_digest(result) != references[item.label]:
                report.mismatch(f"traced {item.label}: bounds differ")
            layer.add_cache(config.cache.stats())
            rows.append(cost_row(item.label, item.tasks, layer))
            totals.merge(layer)
            if position < len(small):
                small_times.append(seconds)
                ratios.append(seconds / median(untraced[item.label]))
            else:
                large_times.append(seconds)
    recorder.write(OUT_DIR / f"spans_analyze_seed{args.seed}.jsonl")
    print(recorder.summary_text())

    traced_p50 = 1000 * median(small_times)
    report.named_metric(
        "analyze_small_p50_ms", traced_p50, "ms", len(small_times), traced=True
    )
    report.named_metric(
        "analyze_large_s", sum(large_times) / len(large_times), "s",
        "1 pass", traced=True,
    )
    layers = empty_layers(contract)
    layers.update(totals.layer_metrics())
    # Per input: the traced call against the same input's untraced median.
    layers["trace.overhead_pct"] = 100.0 * (median(ratios) - 1.0)
    report.layers = layers
    report.tables["cost model (traced pass, one row per system)"] = rows
