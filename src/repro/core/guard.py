"""The evaluation guard: exception isolation for long-running DSE.

The paper's experimental setup runs the GA for 5,000 generations; at that
scale a single pathological design point that blows up the analysis (a
diverging fixed-point sweep, a degenerate hardening transform, a numeric
edge case) must not kill the whole exploration.  :class:`GuardedEvaluator`
wraps an :class:`~repro.core.evaluator.Evaluator` so that *any* exception
is converted into an infeasible :class:`EvaluationResult` carrying the
exception as a violation, with

* a **bounded retry** for transient failures,
* a **wall-clock soft budget** per evaluation,
* **graceful degradation**: when the configured backend raises or blows
  its budget, the design is re-evaluated once with the default
  evaluator — task granularity on the numpy
  :class:`~repro.sched.wcrt.WindowAnalysisBackend` — before giving up,
  and the substitution is recorded in ``EvaluationResult.fallback``;
* a **quarantine log**: each guarded failure appends one JSON line
  (chromosome/context, design JSON, traceback) so poison points stay
  reproducible outside the run.  The first line of a fresh log is a
  header carrying the problem serialization, which makes the file
  self-contained: ``repro verify --replay`` re-evaluates every
  quarantined design from the JSONL alone.

Guard activity is surfaced through ``eval.guard.*`` counters and the
``evaluation-failed`` / ``backend-fallback`` events.
"""

import json
import threading
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Optional

from repro.core.evaluator import EvaluationResult, Evaluator
from repro.core.problem import DesignPoint, Problem
from repro.errors import EvaluationGuardError
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import metrics
from repro.obs.trace import event, span as trace_span

_LOG = get_logger("guard")

#: ``EvaluationResult.fallback`` marker of degraded-backend results.
FALLBACK_BACKEND = "fast-window"


@dataclass(frozen=True)
class GuardConfig:
    """Tuning knobs of the evaluation guard."""

    #: Extra primary-backend attempts after a raising evaluation
    #: (transient states; deterministic failures fail every attempt).
    retries: int = 1
    #: Per-evaluation wall-clock soft budget in seconds.  A successful but
    #: over-budget evaluation triggers the fallback backend; ``None``
    #: disables the budget (the default — a time-based cutoff makes runs
    #: timing-dependent, so it is opt-in).
    soft_budget_seconds: Optional[float] = None
    #: Re-evaluate once with the cheap fast-window backend when the
    #: primary backend raises or exceeds its budget.
    fallback: bool = True

    def __post_init__(self):
        if self.retries < 0:
            raise EvaluationGuardError("guard retries must be >= 0")
        if self.soft_budget_seconds is not None and self.soft_budget_seconds <= 0:
            raise EvaluationGuardError("guard soft budget must be positive")


class QuarantineLog:
    """Append-only JSONL log of poison design points.

    The file is opened lazily on the first record, so a fully healthy run
    leaves no file behind.  Write failures *during* a run disable the log
    with a warning instead of killing the exploration (that would defeat
    the guard); only an uncreatable parent directory raises.

    When a header supplier is installed (see :meth:`set_header`), a fresh
    log starts with one header line before the first record; appending to
    an existing non-empty file skips the header (it is already there, or
    the file predates the header format).
    """

    def __init__(self, path):
        self._path = Path(path)
        self._lock = threading.Lock()
        self._handle = None
        self._disabled = False
        self._header_supplier = None
        self.records_written = 0
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise EvaluationGuardError(
                f"cannot create quarantine directory {self._path.parent}: {error}"
            ) from error

    def set_header(self, supplier) -> None:
        """Install a ``() -> dict`` called once if a fresh log is started.

        Lazy so healthy runs never pay for serializing the header (the
        problem serialization is not small).
        """
        with self._lock:
            self._header_supplier = supplier

    @property
    def path(self) -> Path:
        """Where the JSONL records go."""
        return self._path

    @property
    def active(self) -> bool:
        """Whether records are still being accepted."""
        return not self._disabled

    def record(self, payload: dict) -> None:
        """Append one JSON line (thread-safe; never raises)."""
        with self._lock:
            if self._disabled:
                return
            try:
                if self._handle is None:
                    fresh = (
                        not self._path.exists()
                        or self._path.stat().st_size == 0
                    )
                    self._handle = open(self._path, "a")
                    if fresh and self._header_supplier is not None:
                        self._handle.write(
                            json.dumps(self._header_supplier(), sort_keys=True)
                            + "\n"
                        )
                self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
                self._handle.flush()
                self.records_written += 1
            except (OSError, TypeError, ValueError) as error:
                self._disabled = True
                _LOG.warning(
                    "quarantine log disabled %s",
                    kv(path=str(self._path), error=str(error)),
                )

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False


class GuardedEvaluator:
    """Wraps an evaluator so evaluation failures cannot abort a run.

    Drop-in for :class:`~repro.core.evaluator.Evaluator` on the
    :meth:`evaluate` call; the extra ``context`` argument carries the
    genotype (anything with a ``to_dict``) into the quarantine record.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        config: Optional[GuardConfig] = None,
        quarantine: Optional[QuarantineLog] = None,
    ):
        self._evaluator = evaluator
        self._config = config or GuardConfig()
        self._quarantine = quarantine
        self._fallback_evaluator: Optional[Evaluator] = None
        self._fallback_lock = threading.Lock()
        if quarantine is not None:
            quarantine.set_header(self._quarantine_header)

    def _quarantine_header(self) -> dict:
        """The self-describing first line of a fresh quarantine log."""
        from repro.model.serialization import (
            application_set_to_dict,
            architecture_to_dict,
        )
        from repro.verify.reproducer import QUARANTINE_HEADER_SCHEMA

        problem = self._evaluator.problem
        return {
            "schema": QUARANTINE_HEADER_SCHEMA,
            "applications": application_set_to_dict(problem.applications),
            "architecture": architecture_to_dict(problem.architecture),
        }

    @property
    def problem(self) -> Problem:
        """The problem instance the wrapped evaluator serves."""
        return self._evaluator.problem

    @property
    def quarantine(self) -> Optional[QuarantineLog]:
        """The attached quarantine log, if any."""
        return self._quarantine

    def evaluate(
        self, design: DesignPoint, context: Any = None
    ) -> EvaluationResult:
        """Evaluate ``design``; never raises (except ``KeyboardInterrupt``)."""
        with trace_span("eval.guarded") as sp:
            result = self._evaluate_impl(design, context)
            sp.set_attributes(
                feasible=result.feasible,
                fallback=result.fallback is not None,
                guarded_failure=result.guard_error is not None,
            )
            return result

    def _evaluate_impl(
        self, design: DesignPoint, context: Any = None
    ) -> EvaluationResult:
        config = self._config
        attempts = 1 + config.retries
        retry_counter = metrics().counter("eval.guard.retries")
        result: Optional[EvaluationResult] = None
        error: Optional[BaseException] = None
        trace: Optional[str] = None
        elapsed = 0.0
        for attempt in range(1, attempts + 1):
            if attempt > 1:
                retry_counter.inc()
            started = time.perf_counter()
            try:
                result = self._evaluator.evaluate(design)
            except Exception as exc:  # noqa: BLE001 — the guard's whole job
                elapsed = time.perf_counter() - started
                error = exc
                trace = traceback.format_exc()
                result = None
                continue
            elapsed = time.perf_counter() - started
            error = None
            break

        budget = config.soft_budget_seconds
        over_budget = (
            result is not None and budget is not None and elapsed > budget
        )
        if result is not None and not over_budget:
            return result

        registry = metrics()
        if over_budget:
            registry.counter("eval.guard.budget_exceeded").inc()
            _LOG.warning(
                "evaluation exceeded soft budget %s",
                kv(budget=budget, seconds=round(elapsed, 3)),
            )

        fallback_result: Optional[EvaluationResult] = None
        if config.fallback:
            try:
                fallback_result = self._fallback().evaluate(design)
            except Exception as exc:  # noqa: BLE001
                _LOG.warning(
                    "fallback evaluation failed too %s",
                    kv(error=f"{type(exc).__name__}: {exc}"),
                )

        if fallback_result is not None:
            registry.counter("eval.guard.fallbacks").inc()
            fallback_result = replace(
                fallback_result, fallback=FALLBACK_BACKEND
            )
            event(
                "backend-fallback",
                reason="error" if error is not None else "budget",
                error_type=type(error).__name__ if error is not None else None,
                seconds=elapsed,
            )
            if error is not None:
                self._note_failure(
                    error,
                    trace,
                    design=design,
                    context=context,
                    stage="evaluate",
                    attempts=attempts,
                    fallback_used=True,
                )
            return fallback_result

        if error is None:
            # Over budget but the primary result exists and no fallback
            # came through: the slow result is still the best available.
            return result
        return self.failure_result(
            error,
            design=design,
            context=context,
            stage="evaluate",
            traceback_text=trace,
            attempts=attempts,
        )

    def failure_result(
        self,
        error: BaseException,
        design: Optional[DesignPoint] = None,
        context: Any = None,
        stage: str = "evaluate",
        traceback_text: Optional[str] = None,
        attempts: int = 1,
    ) -> EvaluationResult:
        """Convert an exception into an infeasible result (and quarantine it).

        Public so callers owning pipeline stages the guard cannot see
        (e.g. chromosome decode) get the same conversion and telemetry.
        """
        if traceback_text is None:
            traceback_text = "".join(
                traceback.format_exception(
                    type(error), error, error.__traceback__
                )
            )
        self._note_failure(
            error,
            traceback_text,
            design=design,
            context=context,
            stage=stage,
            attempts=attempts,
            fallback_used=False,
        )
        message = f"{type(error).__name__}: {error}"
        return EvaluationResult(
            design=design,
            feasible=False,
            violations=[f"guard[{stage}]: {message}"],
            guard_error=message,
        )

    def _fallback(self) -> Evaluator:
        """The lazily built degraded evaluator (default evaluator settings)."""
        with self._fallback_lock:
            if self._fallback_evaluator is None:
                self._fallback_evaluator = Evaluator(self._evaluator.problem)
            return self._fallback_evaluator

    def _note_failure(
        self,
        error: BaseException,
        traceback_text: Optional[str],
        design: Optional[DesignPoint],
        context: Any,
        stage: str,
        attempts: int,
        fallback_used: bool,
    ) -> None:
        metrics().counter("eval.guard.failures").inc()
        quarantined = False
        if self._quarantine is not None and self._quarantine.active:
            self._quarantine.record(
                {
                    "stage": stage,
                    "error_type": type(error).__name__,
                    "error": str(error),
                    "traceback": traceback_text,
                    "attempts": attempts,
                    "fallback_used": fallback_used,
                    "design": design.to_dict() if design is not None else None,
                    "context": _context_payload(context),
                }
            )
            quarantined = self._quarantine.active
            if quarantined:
                metrics().counter("eval.guard.quarantined").inc()
        event(
            "evaluation-failed",
            stage=stage,
            error_type=type(error).__name__,
            error=str(error),
            attempts=attempts,
            fallback_used=fallback_used,
            quarantined=quarantined,
        )
        _LOG.warning(
            "evaluation failed %s",
            kv(
                stage=stage,
                error=f"{type(error).__name__}: {error}",
                attempts=attempts,
                fallback=fallback_used,
                quarantined=quarantined,
            ),
        )


def _context_payload(context: Any) -> Any:
    """JSON-friendly form of the quarantine context (genotype, key, ...)."""
    if context is None:
        return None
    to_dict = getattr(context, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    try:
        json.dumps(context)
    except (TypeError, ValueError):
        return repr(context)
    return context
