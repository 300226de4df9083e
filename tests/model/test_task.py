"""Unit tests for tasks and channels."""

import pytest

from repro.errors import ModelError
from repro.model.task import Channel, Task, TaskRole


class TestTaskValidation:
    def test_basic_construction(self):
        task = Task("t", 1.0, 2.0, voting_overhead=0.3, detection_overhead=0.1)
        assert task.name == "t"
        assert task.bcet == 1.0
        assert task.wcet == 2.0
        assert task.voting_overhead == 0.3
        assert task.detection_overhead == 0.1
        assert task.role is TaskRole.PRIMARY

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            Task("", 1.0, 2.0)

    def test_negative_bcet_rejected(self):
        with pytest.raises(ModelError):
            Task("t", -0.1, 2.0)

    def test_wcet_below_bcet_rejected(self):
        with pytest.raises(ModelError):
            Task("t", 2.0, 1.0)

    def test_equal_bcet_wcet_allowed(self):
        task = Task("t", 2.0, 2.0)
        assert task.bcet == task.wcet

    def test_zero_times_allowed(self):
        task = Task("t", 0.0, 0.0)
        assert task.wcet == 0.0

    def test_negative_voting_overhead_rejected(self):
        with pytest.raises(ModelError):
            Task("t", 1.0, 2.0, voting_overhead=-1.0)

    def test_negative_detection_overhead_rejected(self):
        with pytest.raises(ModelError):
            Task("t", 1.0, 2.0, detection_overhead=-1.0)

    def test_primary_must_not_set_origin(self):
        with pytest.raises(ModelError):
            Task("t", 1.0, 2.0, origin="other")

    def test_replica_requires_origin(self):
        with pytest.raises(ModelError):
            Task("t", 1.0, 2.0, role=TaskRole.REPLICA)

    def test_voter_requires_origin(self):
        with pytest.raises(ModelError):
            Task("t", 1.0, 2.0, role=TaskRole.VOTER)

    def test_replica_with_origin(self):
        replica = Task("t#r1", 1.0, 2.0, role=TaskRole.REPLICA, origin="t", replica_index=1)
        assert replica.replica_index == 1


class TestTaskDerivation:
    def test_with_times(self):
        task = Task("t", 1.0, 2.0)
        updated = task.with_times(0.5, 3.0)
        assert (updated.bcet, updated.wcet) == (0.5, 3.0)
        assert task.bcet == 1.0  # original untouched

    def test_with_times_validates(self):
        with pytest.raises(ModelError):
            Task("t", 1.0, 2.0).with_times(3.0, 2.0)

    def test_tasks_are_hashable_value_objects(self):
        assert Task("t", 1.0, 2.0) == Task("t", 1.0, 2.0)
        assert hash(Task("t", 1.0, 2.0)) == hash(Task("t", 1.0, 2.0))
        assert Task("t", 1.0, 2.0) != Task("t", 1.0, 2.5)


class TestChannel:
    def test_basic(self):
        channel = Channel("a", "b", 16.0)
        assert channel.key == ("a", "b")
        assert not channel.on_demand

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError):
            Channel("a", "a", 1.0)

    def test_empty_endpoint_rejected(self):
        with pytest.raises(ModelError):
            Channel("", "b")
        with pytest.raises(ModelError):
            Channel("a", "")

    def test_negative_size_rejected(self):
        with pytest.raises(ModelError):
            Channel("a", "b", -1.0)

    def test_zero_size_allowed(self):
        assert Channel("a", "b", 0.0).size == 0.0

    def test_on_demand_flag(self):
        assert Channel("a", "b", 1.0, on_demand=True).on_demand
