"""Round-trip tests for model serialization."""

import json

import pytest

from repro.errors import ModelError
from repro.model.serialization import (
    application_set_from_dict,
    application_set_to_dict,
    architecture_from_dict,
    architecture_to_dict,
    bundle_from_payload,
    bundle_to_payload,
    load_system,
    mapping_from_dict,
    mapping_to_dict,
    SystemBundle,
    save_system,
    task_from_dict,
    task_graph_from_dict,
    task_graph_to_dict,
    task_to_dict,
)
from repro.model.task import Task, TaskRole
from tests.malformed_systems import MALFORMED_SYSTEMS


class TestTaskRoundTrip:
    def test_primary(self):
        task = Task("t", 1.0, 2.0, voting_overhead=0.3, detection_overhead=0.1)
        assert task_from_dict(task_to_dict(task)) == task

    def test_replica_keeps_provenance(self):
        replica = Task(
            "t#r1", 1.0, 2.0, role=TaskRole.REPLICA, origin="t", replica_index=1
        )
        restored = task_from_dict(task_to_dict(replica))
        assert restored == replica
        assert restored.role is TaskRole.REPLICA


class TestGraphRoundTrip:
    def test_droppable(self, droppable_graph):
        restored = task_graph_from_dict(task_graph_to_dict(droppable_graph))
        assert restored == droppable_graph

    def test_critical(self, critical_graph):
        restored = task_graph_from_dict(task_graph_to_dict(critical_graph))
        assert restored == critical_graph
        assert restored.reliability_target == critical_graph.reliability_target


class TestSetRoundTrips:
    def test_application_set(self, apps):
        restored = application_set_from_dict(application_set_to_dict(apps))
        assert restored.graph_names == apps.graph_names
        assert restored.graph("hi") == apps.graph("hi")

    def test_architecture(self, architecture):
        restored = architecture_from_dict(architecture_to_dict(architecture))
        assert restored.processor_names == architecture.processor_names
        assert restored.interconnect == architecture.interconnect

    def test_mapping(self, mapping):
        assert mapping_from_dict(mapping_to_dict(mapping)) == mapping

    def test_version_check(self, apps):
        data = application_set_to_dict(apps)
        data["format_version"] = 99
        with pytest.raises(ModelError, match="format version"):
            application_set_from_dict(data)


class TestSystemFile:
    def test_save_and_load(self, tmp_path, apps, architecture, mapping):
        path = tmp_path / "system.json"
        save_system(path, apps, architecture, mapping=mapping)
        bundle = load_system(path)
        assert bundle.applications.graph_names == apps.graph_names
        assert bundle.architecture.processor_names == architecture.processor_names
        assert bundle.mapping == mapping
        assert bundle.plan is None

    def test_save_without_mapping(self, tmp_path, apps, architecture):
        path = tmp_path / "system.json"
        save_system(path, apps, architecture)
        bundle = load_system(path)
        assert bundle.mapping is None

    def test_save_with_plan(self, tmp_path, apps, architecture, plan):
        path = tmp_path / "system.json"
        save_system(path, apps, architecture, plan=plan)
        bundle = load_system(path)
        assert bundle.plan == plan


class TestOneReader:
    """``bundle_from_payload`` is the one parser; files wrap it."""

    def test_payload_round_trip(self, apps, architecture, mapping, plan):
        bundle = SystemBundle(apps, architecture, mapping, plan)
        payload = bundle_to_payload(bundle)
        assert bundle_to_payload(bundle_from_payload(payload)) == payload

    def test_file_is_the_indented_payload(
        self, tmp_path, apps, architecture, mapping, plan
    ):
        path = tmp_path / "system.json"
        save_system(path, apps, architecture, mapping=mapping, plan=plan)
        bundle = SystemBundle(apps, architecture, mapping, plan)
        assert json.loads(path.read_text()) == bundle_to_payload(bundle)

    def test_unsupported_top_level_version(self, tmp_path, apps, architecture):
        bundle = SystemBundle(apps, architecture, None, None)
        payload = bundle_to_payload(bundle)
        payload["format_version"] = 99
        with pytest.raises(ModelError, match="format version 99"):
            bundle_from_payload(payload)
        path = tmp_path / "system.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError, match="format version 99"):
            load_system(path)

    @pytest.mark.parametrize(
        "payload, field",
        MALFORMED_SYSTEMS + [({"architecture": {}}, "'applications'")],
    )
    def test_malformed_payload_names_the_field(self, payload, field):
        with pytest.raises(ModelError, match=field):
            bundle_from_payload(payload)

    @pytest.mark.parametrize(
        "section, key, value, field",
        [
            ("architecture", "interconnect", None, "'interconnect'"),
            ("architecture", "processors", 3, "'architecture'"),
            (None, "mapping", [], "'mapping'"),
            (None, "hardening_plan", {"t": 1}, "'hardening_plan'"),
        ],
    )
    def test_malformed_section_names_the_field(
        self, apps, architecture, section, key, value, field
    ):
        bundle = SystemBundle(apps, architecture, None, None)
        payload = bundle_to_payload(bundle)
        target = payload[section] if section else payload
        if value is None:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(ModelError, match=field):
            bundle_from_payload(payload)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ModelError, match="cannot read system file"):
            load_system(tmp_path / "absent.json")
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ModelError, match="not valid JSON"):
            load_system(path)
