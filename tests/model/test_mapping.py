"""Unit tests for task-to-processor mappings."""

import pytest

from repro.errors import MappingError
from repro.model.mapping import Mapping


@pytest.fixture
def simple_mapping():
    return Mapping({"a": "pe0", "b": "pe0", "c": "pe1", "x": "pe2", "y": "pe2"})


class TestAccess:
    def test_getitem(self, simple_mapping):
        assert simple_mapping["a"] == "pe0"

    def test_missing_raises(self, simple_mapping):
        with pytest.raises(MappingError):
            simple_mapping["nope"]

    def test_get_default(self, simple_mapping):
        assert simple_mapping.get("nope") is None
        assert simple_mapping.get("nope", "pe9") == "pe9"

    def test_contains_len_iter(self, simple_mapping):
        assert "a" in simple_mapping
        assert len(simple_mapping) == 5
        assert set(simple_mapping) == {"a", "b", "c", "x", "y"}

    def test_as_dict_is_copy(self, simple_mapping):
        d = simple_mapping.as_dict()
        d["a"] = "pe9"
        assert simple_mapping["a"] == "pe0"

    def test_empty_names_rejected(self):
        with pytest.raises(MappingError):
            Mapping({"": "pe0"})
        with pytest.raises(MappingError):
            Mapping({"a": ""})


class TestQueries:
    def test_used_processors(self, simple_mapping):
        assert simple_mapping.used_processors == {"pe0", "pe1", "pe2"}


class TestDerivation:
    def test_with_assignment(self, simple_mapping):
        updated = simple_mapping.with_assignment("a", "pe1")
        assert updated["a"] == "pe1"
        assert simple_mapping["a"] == "pe0"

    def test_equality_and_hash(self, simple_mapping):
        clone = Mapping(simple_mapping.as_dict())
        assert clone == simple_mapping
        assert hash(clone) == hash(simple_mapping)
        assert simple_mapping != simple_mapping.with_assignment("a", "pe1")


class TestValidation:
    def test_valid(self, apps, architecture, simple_mapping):
        simple_mapping.validate(apps, architecture)

    def test_unmapped_task(self, apps, architecture):
        with pytest.raises(MappingError, match="unmapped"):
            Mapping({"a": "pe0"}).validate(apps, architecture)

    def test_unknown_processor(self, apps, architecture, simple_mapping):
        bad = simple_mapping.with_assignment("a", "pe99")
        with pytest.raises(MappingError, match="unknown processor"):
            bad.validate(apps, architecture)

    def test_unallocated_processor(self, apps, architecture, simple_mapping):
        with pytest.raises(MappingError, match="unallocated"):
            simple_mapping.validate(apps, architecture, allocated=["pe0", "pe1"])

    def test_unknown_allocated_name(self, apps, architecture, simple_mapping):
        with pytest.raises(MappingError, match="unknown allocated"):
            simple_mapping.validate(apps, architecture, allocated=["pe0", "zz"])

    def test_extra_mapped_tasks_allowed(self, apps, architecture, simple_mapping):
        extended = simple_mapping.with_assignment("extra_task", "pe0")
        extended.validate(apps, architecture)
