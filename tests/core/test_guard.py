"""Unit tests for the evaluation guard."""

import json

import pytest

from repro.core.evaluator import Evaluator
from repro.core.guard import (
    FALLBACK_BACKEND,
    GuardConfig,
    GuardedEvaluator,
    QuarantineLog,
)
from repro.dse.chromosome import random_chromosome
from repro.errors import EvaluationGuardError
from repro.obs.trace import capture

import random


def make_design(problem, seed=0):
    rng = random.Random(seed)
    from repro.dse.repair import repair

    chromosome = repair(random_chromosome(problem, rng), problem, rng)
    return chromosome.decode(problem)


class RaisingEvaluator(Evaluator):
    """Raises for the first ``failures`` evaluations, then succeeds."""

    def __init__(self, problem, failures=10**9, exc=RuntimeError("boom")):
        super().__init__(problem)
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def evaluate(self, design):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return super().evaluate(design)


class TestGuardConfig:
    def test_negative_retries_rejected(self):
        with pytest.raises(EvaluationGuardError):
            GuardConfig(retries=-1)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(EvaluationGuardError):
            GuardConfig(soft_budget_seconds=0.0)

    def test_defaults(self):
        config = GuardConfig()
        assert config.retries == 1
        assert config.soft_budget_seconds is None
        assert config.fallback is True


class TestQuarantineLog:
    def test_lazy_file_creation(self, tmp_path):
        log = QuarantineLog(tmp_path / "q.jsonl")
        assert not (tmp_path / "q.jsonl").exists()
        log.record({"stage": "evaluate"})
        assert (tmp_path / "q.jsonl").exists()
        assert log.records_written == 1
        log.close()

    def test_appends_jsonl(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with QuarantineLog(path) as log:
            log.record({"a": 1})
            log.record({"b": 2})
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [{"a": 1}, {"b": 2}]

    def test_unserializable_record_disables_not_raises(self, tmp_path):
        log = QuarantineLog(tmp_path / "q.jsonl")
        log.record({"bad": object()})
        assert not log.active
        log.record({"ok": 1})  # silently dropped
        assert log.records_written == 0
        log.close()

    def test_uncreatable_directory_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(EvaluationGuardError):
            QuarantineLog(blocker / "sub" / "q.jsonl")


class TestGuardedEvaluator:
    def test_passthrough_on_success(self, problem):
        design = make_design(problem)
        plain = Evaluator(problem).evaluate(design)
        guarded = GuardedEvaluator(Evaluator(problem)).evaluate(design)
        assert guarded.feasible == plain.feasible
        assert guarded.power == plain.power
        assert guarded.fallback is None
        assert guarded.guard_error is None

    def test_retry_recovers_transient_failure(self, problem):
        design = make_design(problem)
        backend = RaisingEvaluator(problem, failures=1)
        guarded = GuardedEvaluator(backend, config=GuardConfig(retries=1))
        result = guarded.evaluate(design)
        assert backend.calls == 2
        assert result.guard_error is None

    def test_fallback_rescues_raising_backend(self, problem):
        design = make_design(problem)
        guarded = GuardedEvaluator(RaisingEvaluator(problem))
        with capture("backend-fallback") as fell_back:
            result = guarded.evaluate(design)
        assert result.fallback == FALLBACK_BACKEND
        # The fast-window fallback is the default evaluator, so the
        # rescued result matches a plain evaluation.
        plain = Evaluator(problem).evaluate(design)
        assert result.feasible == plain.feasible
        assert result.power == plain.power
        assert fell_back and fell_back[0]["attrs"]["reason"] == "error"

    def test_failure_becomes_infeasible_result(self, problem):
        design = make_design(problem)
        guarded = GuardedEvaluator(
            RaisingEvaluator(problem, exc=ValueError("bad state")),
            config=GuardConfig(retries=2, fallback=False),
        )
        with capture("evaluation-failed") as failed:
            result = guarded.evaluate(design)
        assert not result.feasible
        assert result.guard_error == "ValueError: bad state"
        assert any("guard[evaluate]" in v for v in result.violations)
        assert failed[0]["attrs"]["attempts"] == 3
        assert failed[0]["attrs"]["error_type"] == "ValueError"

    def test_soft_budget_triggers_fallback(self, problem):
        design = make_design(problem)

        class SlowEvaluator(Evaluator):
            def evaluate(self, design):
                import time

                time.sleep(0.02)
                return super().evaluate(design)

        guarded = GuardedEvaluator(
            SlowEvaluator(problem),
            config=GuardConfig(soft_budget_seconds=1e-6),
        )
        with capture("backend-fallback") as fell_back:
            result = guarded.evaluate(design)
        assert result.fallback == FALLBACK_BACKEND
        assert fell_back[0]["attrs"]["reason"] == "budget"

    def test_over_budget_without_fallback_keeps_primary_result(self, problem):
        design = make_design(problem)
        guarded = GuardedEvaluator(
            Evaluator(problem),
            config=GuardConfig(soft_budget_seconds=1e-9, fallback=False),
        )
        result = guarded.evaluate(design)
        assert result.fallback is None
        assert result.guard_error is None

    def test_quarantine_records_poison_point(self, problem, tmp_path):
        design = make_design(problem)
        log = QuarantineLog(tmp_path / "q.jsonl")
        guarded = GuardedEvaluator(
            RaisingEvaluator(problem),
            config=GuardConfig(retries=0, fallback=False),
            quarantine=log,
        )
        guarded.evaluate(design, context={"key": "value"})
        log.close()
        lines = (tmp_path / "q.jsonl").read_text().splitlines()
        # a fresh guarded log starts with the self-describing header
        header = json.loads(lines[0])
        assert header["schema"] == "repro.verify.quarantine-header/1"
        assert "applications" in header and "architecture" in header
        record = json.loads(lines[1])
        assert record["stage"] == "evaluate"
        assert record["error_type"] == "RuntimeError"
        assert "Traceback" in record["traceback"]
        assert record["design"] == design.to_dict()
        assert record["context"] == {"key": "value"}

    def test_keyboard_interrupt_propagates(self, problem):
        design = make_design(problem)
        guarded = GuardedEvaluator(
            RaisingEvaluator(problem, exc=KeyboardInterrupt())
        )
        with pytest.raises(KeyboardInterrupt):
            guarded.evaluate(design)

    def test_failure_result_decode_stage(self, problem):
        guarded = GuardedEvaluator(Evaluator(problem))
        result = guarded.failure_result(
            TypeError("broken gene"), stage="decode"
        )
        assert not result.feasible
        assert result.design is None
        assert result.violations == ["guard[decode]: TypeError: broken gene"]
