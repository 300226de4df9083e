"""Per-layer probes for the traced run, attached from outside the program.

The program is never patched: each probe is handed to it through a public
injection point and is built exactly like the default it stands in for.

* :class:`BackendProxy` — a forwarding ``SchedBackend`` passed as
  ``backend=``; times every back-end run and reads ``ScheduleBounds.sweeps``
  and ``.converged``.
* :class:`ProbedAnalysis` — ``MixedCriticalityAnalysis`` with the same
  arguments as the default; times ``analyze`` and, beside it, ``unroll()``
  called with the analysis's own inputs.
* :class:`ProbedEvaluator` — ``Evaluator`` passed to
  ``Explorer(evaluator=...)``; times ``evaluate`` and counts feasibility.
* :class:`SpanRecorder` — keeps the ``repro.obs.trace`` span records in
  memory while tracing is on and writes them out when the run ends.

Every layer call the probes wrap also opens a ``repro.obs.trace.span``, so
the span dump's self-time table (``repro.obs.export.summarize``) lines up
with the probe totals.
"""

import json
import time
from pathlib import Path
from typing import List

from repro.comm import default_comm
from repro.core.analysis import MixedCriticalityAnalysis
from repro.core.evaluator import Evaluator
from repro.obs.export import format_summary, summarize
from repro.obs.trace import span, tracer
from repro.sched.jobs import unroll
from repro.sched.priority import assign_priorities


class LayerTotals:
    """Work counts and busy seconds per layer, summed over a traced run."""

    def __init__(self):
        self.harden_s = 0.0
        self.harden_calls = 0
        self.unroll_s = 0.0
        self.unroll_calls = 0
        self.jobs = 0
        self.backend_s = 0.0
        self.backend_calls = 0
        self.sweeps = 0
        self.unconverged = 0
        self.job_sweeps = 0
        self.analysis_s = 0.0
        self.transitions = 0
        self.pruned = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self.eval_s = 0.0
        self.evaluations = 0
        self.feasible = 0

    def add_cache(self, stats: dict) -> None:
        self.cache_hits += stats["hits"]
        self.cache_lookups += stats["hits"] + stats["misses"]

    def merge(self, other: "LayerTotals") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)

    def layer_metrics(self) -> dict:
        """The ``sched.*`` and ``core.*`` per-layer metrics."""
        analyzed = self.transitions + self.pruned
        return {
            "hardening.harden_ms": _mean_ms(self.harden_s, self.harden_calls),
            "sched.unroll_ms": _mean_ms(self.unroll_s, self.unroll_calls),
            "sched.jobs": self.jobs / self.unroll_calls if self.unroll_calls else 0.0,
            "sched.backend_s": self.backend_s,
            "sched.backend_calls": self.backend_calls,
            "sched.sweeps": self.sweeps,
            "sched.unconverged": self.unconverged,
            "sched.us_per_job_sweep": (
                1e6 * self.backend_s / self.job_sweeps if self.job_sweeps else 0.0
            ),
            "core.analysis_s": self.analysis_s,
            "core.mc_self_s": max(
                0.0, self.analysis_s - self.backend_s - self.unroll_s
            ),
            "core.transitions": self.transitions,
            "core.prune_ratio": self.pruned / analyzed if analyzed else 0.0,
            "core.cache_hit_ratio": (
                self.cache_hits / self.cache_lookups if self.cache_lookups else 0.0
            ),
        }


def _mean_ms(seconds: float, calls: int) -> float:
    return 1000.0 * seconds / calls if calls else 0.0


class BackendProxy:
    """A ``SchedBackend`` that forwards to ``inner`` and records each run."""

    def __init__(self, inner, totals: LayerTotals):
        self._inner = inner
        self._totals = totals
        self.supports_warm_start = getattr(inner, "supports_warm_start", False)

    def analyze(self, jobset, **kwargs):
        with span("sched.backend", jobs=len(jobset)):
            started = time.perf_counter()
            bounds = self._inner.analyze(jobset, **kwargs)
            seconds = time.perf_counter() - started
        totals = self._totals
        totals.backend_s += seconds
        totals.backend_calls += 1
        totals.sweeps += bounds.sweeps
        totals.unconverged += 0 if bounds.converged else 1
        totals.job_sweeps += len(jobset) * bounds.sweeps
        return bounds


def base_jobset(hardened, architecture, mapping, comm=None):
    """``unroll()`` with the inputs Algorithm 1 unrolls for its normal state.

    Normal-state bounds per task, passive copies idle, the architecture's
    default comm model and the standard priority assignment — the same
    arguments ``MixedCriticalityAnalysis`` passes.
    """
    bounds = {
        task.name: hardened.nominal_bounds(task.name)
        for task in hardened.applications.all_tasks
    }
    for passive in hardened.passive_tasks:
        bounds[passive] = (0.0, 0.0)
    return unroll(
        hardened.applications,
        mapping,
        architecture,
        comm=comm if comm is not None else default_comm(architecture),
        priorities=assign_priorities(hardened.applications),
        bounds=bounds,
    )


class ProbedAnalysis(MixedCriticalityAnalysis):
    """Algorithm 1 built like the default, with its layers timed."""

    def __init__(self, totals: LayerTotals, *, backend, granularity,
                 comm=None, fast_path=None):
        super().__init__(
            backend=BackendProxy(backend, totals),
            granularity=granularity,
            comm=comm,
            fast_path=fast_path,
        )
        self.totals = totals
        self._probe_comm = comm

    def analyze(self, hardened, architecture, mapping, dropped=()):
        totals = self.totals
        with span("sched.unroll"):
            started = time.perf_counter()
            jobs = base_jobset(hardened, architecture, mapping, self._probe_comm)
            seconds = time.perf_counter() - started
        totals.unroll_s += seconds
        totals.unroll_calls += 1
        totals.jobs += len(jobs)
        with span("core.analysis"):
            started = time.perf_counter()
            result = super().analyze(hardened, architecture, mapping, dropped)
            totals.analysis_s += time.perf_counter() - started
        totals.transitions += result.transitions_analyzed
        totals.pruned += result.transitions_pruned
        return result


class ProbedEvaluator(Evaluator):
    """The DSE evaluator with busy time and feasibility counted.

    The side ``unroll()`` of :class:`ProbedAnalysis` is extra work the
    program does not do, so its time is left out of ``eval_s``.
    """

    def __init__(self, problem, analysis: ProbedAnalysis):
        super().__init__(problem, analysis=analysis)
        self.totals = analysis.totals

    def evaluate(self, design):
        totals = self.totals
        side_unroll = totals.unroll_s
        with span("dse.evaluate"):
            started = time.perf_counter()
            result = super().evaluate(design)
            seconds = time.perf_counter() - started
        totals.eval_s += seconds - (totals.unroll_s - side_unroll)
        totals.evaluations += 1
        totals.feasible += 1 if result.feasible else 0
        return result


class SpanRecorder:
    """In-memory span sink for the process-wide tracer."""

    def __init__(self):
        self.spans: List[dict] = []

    def __enter__(self) -> "SpanRecorder":
        tracer().reset()
        tracer().enable(self.spans.append)
        return self

    def __exit__(self, *_exc) -> bool:
        tracer().reset()
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def summary_text(self, top: int = 16) -> str:
        return format_summary(summarize(self.spans), top=top)


def empty_layers(contract: dict) -> dict:
    """Every per-layer metric at 0: the layers a workload does not run."""
    return {entry["name"]: 0.0 for entry in contract["per_layer"]}


def overhead_pct(traced: float, untraced: float) -> float:
    return 100.0 * (traced / untraced - 1.0) if untraced else 0.0


def cost_row(label: str, tasks: int, totals: LayerTotals) -> dict:
    """One row of the cost-model table: work and back-end time per system."""
    return {
        "system": label,
        "tasks": tasks,
        "jobs": totals.jobs,
        "transitions": totals.transitions,
        "sweeps": totals.sweeps,
        "backend_s": totals.backend_s,
        "us_per_job_sweep": (
            1e6 * totals.backend_s / totals.job_sweeps
            if totals.job_sweeps else 0.0
        ),
    }
