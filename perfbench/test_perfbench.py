"""The benchmark's own tests: determinism, probes, and tiny smoke runs.

Run from the checkout root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench.common import OUT_DIR, ROOT, load_contract, use_checkout

use_checkout()

from repro.core.fastpath import FastPathConfig  # noqa: E402
from repro.hardening.transform import harden  # noqa: E402
from repro.sched.wcrt import WindowAnalysisBackend  # noqa: E402
from repro.serve.encoding import canonical_bytes  # noqa: E402

from perfbench import wl_analyze, wl_explore  # noqa: E402
from perfbench.common import recorded_large_cold  # noqa: E402
from perfbench.inputs import large_inputs, serve_requests, small_inputs  # noqa: E402
from perfbench.probes import LayerTotals, ProbedAnalysis, base_jobset  # noqa: E402


def _fingerprint(item):
    return (
        item.label,
        item.dropped,
        tuple(sorted(item.bundle.mapping.items())),
        canonical_bytes(item.bundle.plan.to_dict()),
    )


def test_same_seed_gives_the_same_inputs():
    assert [_fingerprint(i) for i in small_inputs()] == [
        _fingerprint(i) for i in small_inputs()
    ]
    first, second = serve_requests(5, 30), serve_requests(5, 30)
    assert [canonical_bytes(r.payload) for r in first] == [
        canonical_bytes(r.payload) for r in second
    ]
    assert [(r.repeat_of, r.with_previous) for r in first] == [
        (r.repeat_of, r.with_previous) for r in second
    ]


def test_seeds_reorder_the_same_work():
    first, second = serve_requests(5, 30), serve_requests(6, 30)
    assert [r.item.label for r in first] != [r.item.label for r in second]
    for phase in (slice(0, 30), slice(30, 60)):
        assert sorted(
            r.item.label for r in first[phase] if r.repeat_of is None
        ) == sorted(
            r.item.label for r in second[phase] if r.repeat_of is None
        )
    repeats = [r for r in first if r.repeat_of is not None]
    assert len(repeats) == 12 and any(r.with_previous for r in repeats)
    assert all(first[r.repeat_of].payload is r.payload for r in repeats)


def test_same_seed_gives_the_same_digests():
    small, _large = wl_analyze.build_inputs(smoke=True)
    once = {i.label: wl_analyze.cold_digest(i) for i in small}
    again = {i.label: wl_analyze.cold_digest(i) for i in small}
    assert wl_analyze.output_digest(once) == wl_analyze.output_digest(again)

    from repro import api

    request = wl_explore.build_requests(4, 1, smoke=True)[0]
    assert wl_explore.front_bytes(api.explore(request)) == wl_explore.front_bytes(
        api.explore(request)
    )


def test_recorded_large_cold_digests_match_a_cold_run():
    recorded = recorded_large_cold()
    for item in large_inputs(limit=1):
        assert recorded[item.label] == wl_analyze.cold_digest(item)


def test_side_unroll_matches_the_analysis_job_set():
    item = small_inputs(count=1)[0]
    hardened = harden(item.bundle.applications, item.bundle.plan)
    seen = []

    class Recording(WindowAnalysisBackend):
        def analyze(self, jobset, **kwargs):
            seen.append(jobset.fingerprint())
            return super().analyze(jobset, **kwargs)

    totals = LayerTotals()
    analysis = ProbedAnalysis(
        totals, backend=Recording(), granularity="job",
        fast_path=FastPathConfig(),
    )
    analysis.analyze(
        hardened, item.bundle.architecture, item.bundle.mapping, item.dropped
    )
    side = base_jobset(hardened, item.bundle.architecture, item.bundle.mapping)
    assert seen[0] == side.fingerprint()
    assert totals.backend_calls == len(seen)
    assert totals.unroll_calls == 1 and totals.jobs == len(side)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize(
    "workload", ["analyze", "explore-dt-large", "serve-analyze"]
)
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    names = [entry["name"] for entry in load_contract()[section]]
    assert list(result["metrics"]) == names
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program():
    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        ROOT / "perfbench", bare / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    try:
        done = _run("--workload", "analyze", "--seed", "1", "--seconds", "1",
                    cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
