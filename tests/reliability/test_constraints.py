"""Unit tests for reliability constraint checking and hardening sizing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.hardening.spec import HardeningKind, HardeningPlan, HardeningSpec
from repro.model.application import ApplicationSet
from repro.model.mapping import Mapping
from repro.model.task import Task
from repro.model.taskgraph import TaskGraph
from repro.reliability.constraints import (
    MAX_REEXECUTIONS,
    check_reliability,
    minimal_reexecutions,
    minimal_replicas,
    strengthen_spec,
)


class TestCheckReliability:
    def make(self, plan):
        graph = TaskGraph(
            "g",
            tasks=[Task("a", 1.0, 100.0)],
            channels=[],
            period=100.0,
            reliability_target=1e-8,
        )
        return ApplicationSet([graph]), plan

    def test_violation_detected(self, architecture):
        apps, plan = self.make(HardeningPlan())
        mapping = Mapping({"a": "pe0"})
        violations = check_reliability(apps, plan, mapping, architecture)
        assert len(violations) == 1
        assert violations[0].graph == "g"
        assert violations[0].failure_rate > violations[0].target
        assert "exceeds target" in str(violations[0])

    def test_hardening_fixes_violation(self, architecture):
        apps, plan = self.make(HardeningPlan({"a": HardeningSpec.reexecution(3)}))
        mapping = Mapping({"a": "pe0"})
        assert check_reliability(apps, plan, mapping, architecture) == []


class TestMinimalReexecutions:
    def test_zero_fault_needs_nothing(self):
        assert minimal_reexecutions(0.0, 1e-9) == 0

    def test_already_satisfied(self):
        assert minimal_reexecutions(1e-10, 1e-9) == 0

    def test_known_case(self):
        # q = 1e-3, budget 1e-8: q^3 = 1e-9 <= 1e-8, q^2 = 1e-6 > 1e-8 -> k=2
        assert minimal_reexecutions(1e-3, 1e-8) == 2

    def test_impossible_budget(self):
        assert minimal_reexecutions(0.9, 1e-300) is None

    def test_certain_fault(self):
        assert minimal_reexecutions(1.0, 0.5) is None

    def test_nonpositive_budget(self):
        assert minimal_reexecutions(0.5, 0.0) is None

    def test_invalid_probability_rejected(self):
        with pytest.raises(AnalysisError):
            minimal_reexecutions(1.5, 1e-3)

    @given(
        st.floats(min_value=1e-6, max_value=0.5),
        st.floats(min_value=1e-12, max_value=1e-2),
    )
    def test_result_meets_budget(self, q, budget):
        k = minimal_reexecutions(q, budget)
        if k is not None:
            assert q ** (k + 1) <= budget
            assert k <= MAX_REEXECUTIONS
            if k > 0:
                assert q**k > budget  # minimality


class TestMinimalReplicas:
    def test_duplication_suffices(self):
        # q = 1e-3: 2 copies unsafe only if both faulty = q^2 = 1e-6 <= 1e-5
        assert minimal_replicas(1e-3, 1e-5) == 2

    def test_four_copies_needed(self):
        # budget below q^2 (1e-6) and 2-of-3 (~3e-6) but above 3-of-4 (~4e-9)
        assert minimal_replicas(1e-3, 5e-7) == 4

    def test_impossible(self):
        assert minimal_replicas(0.9, 1e-12) is None
        assert minimal_replicas(0.1, 0.0) is None


class TestStrengthenLadder:
    def test_starts_with_reexecution(self):
        spec = strengthen_spec(HardeningSpec.none())
        assert spec.kind is HardeningKind.REEXECUTION
        assert spec.reexecutions == 1

    def test_ladder_terminates(self):
        spec = HardeningSpec.none()
        steps = 0
        while spec is not None:
            spec = strengthen_spec(spec)
            steps += 1
            assert steps < 50, "ladder must terminate"
        assert steps > 3

    def test_every_rung_is_valid(self):
        spec = HardeningSpec.none()
        while True:
            next_spec = strengthen_spec(spec)
            if next_spec is None:
                break
            # Construction validates; also the ladder never repeats a rung.
            assert next_spec != spec
            spec = next_spec

    def test_reexecution_deepens(self):
        spec = strengthen_spec(HardeningSpec.reexecution(1))
        assert spec == HardeningSpec.reexecution(2)

    def test_reexecution_escalates_to_replication(self):
        spec = strengthen_spec(HardeningSpec.reexecution(2))
        assert spec.is_replicated
