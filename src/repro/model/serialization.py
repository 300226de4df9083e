"""JSON (de)serialization of application, architecture and mapping models.

The dictionary formats are stable and versioned so benchmark systems can be
shipped as plain ``.json`` files and reloaded bit-exactly.
"""

import json
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Union

from repro.errors import ModelError
from repro.model.application import ApplicationSet
from repro.model.architecture import (
    Architecture,
    Interconnect,
    InterconnectKind,
    Processor,
)
from repro.model.mapping import Mapping
from repro.model.task import Channel, Task, TaskRole
from repro.model.taskgraph import TaskGraph

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Tasks and channels
# ----------------------------------------------------------------------

def task_to_dict(task: Task) -> Dict[str, Any]:
    """Serialize a task."""
    data: Dict[str, Any] = {
        "name": task.name,
        "bcet": task.bcet,
        "wcet": task.wcet,
        "voting_overhead": task.voting_overhead,
        "detection_overhead": task.detection_overhead,
    }
    if task.role is not TaskRole.PRIMARY:
        data["role"] = task.role.value
        data["origin"] = task.origin
        data["replica_index"] = task.replica_index
    return data


def task_from_dict(data: Dict[str, Any]) -> Task:
    """Deserialize a task."""
    return Task(
        name=data["name"],
        bcet=data["bcet"],
        wcet=data["wcet"],
        voting_overhead=data.get("voting_overhead", 0.0),
        detection_overhead=data.get("detection_overhead", 0.0),
        role=TaskRole(data.get("role", "primary")),
        origin=data.get("origin"),
        replica_index=data.get("replica_index", 0),
    )


def channel_to_dict(channel: Channel) -> Dict[str, Any]:
    """Serialize a channel."""
    data: Dict[str, Any] = {
        "src": channel.src,
        "dst": channel.dst,
        "size": channel.size,
    }
    if channel.on_demand:
        data["on_demand"] = True
    return data


def channel_from_dict(data: Dict[str, Any]) -> Channel:
    """Deserialize a channel."""
    return Channel(
        src=data["src"],
        dst=data["dst"],
        size=data.get("size", 0.0),
        on_demand=data.get("on_demand", False),
    )


# ----------------------------------------------------------------------
# Task graphs and application sets
# ----------------------------------------------------------------------

def task_graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    """Serialize a task graph."""
    return {
        "name": graph.name,
        "period": graph.period,
        "deadline": graph.deadline,
        "reliability_target": graph.reliability_target,
        "service_value": None if not graph.droppable else graph.service_value,
        "tasks": [task_to_dict(t) for t in graph.tasks],
        "channels": [channel_to_dict(c) for c in graph.channels],
    }


def task_graph_from_dict(data: Dict[str, Any]) -> TaskGraph:
    """Deserialize a task graph."""
    return TaskGraph(
        name=data["name"],
        tasks=[task_from_dict(t) for t in data["tasks"]],
        channels=[channel_from_dict(c) for c in data.get("channels", [])],
        period=data["period"],
        deadline=data.get("deadline"),
        reliability_target=data.get("reliability_target"),
        service_value=data.get("service_value"),
    )


def application_set_to_dict(applications: ApplicationSet) -> Dict[str, Any]:
    """Serialize an application set."""
    return {
        "format_version": FORMAT_VERSION,
        "graphs": [task_graph_to_dict(g) for g in applications.graphs],
    }


def application_set_from_dict(data: Dict[str, Any]) -> ApplicationSet:
    """Deserialize an application set."""
    _check_version(data)
    return ApplicationSet(task_graph_from_dict(g) for g in data["graphs"])


# ----------------------------------------------------------------------
# Architecture
# ----------------------------------------------------------------------

#: Contention/ARQ fields of :class:`Interconnect`, serialized only when
#: they differ from the default so legacy system files stay byte-stable.
_INTERCONNECT_OPTIONALS = (
    ("comm_backend", "flat"),
    ("arq_retries", 0),
    ("arq_timeout", 0.0),
    ("mesh_columns", 0),
    ("hop_latency", 0.0),
    ("slot_length", 0.0),
    ("slot_count", 0),
)


def architecture_to_dict(architecture: Architecture) -> Dict[str, Any]:
    """Serialize an architecture."""
    fabric = architecture.interconnect
    fabric_data: Dict[str, Any] = {
        "bandwidth": fabric.bandwidth,
        "base_latency": fabric.base_latency,
        "kind": fabric.kind.value,
    }
    for field_name, default in _INTERCONNECT_OPTIONALS:
        value = getattr(fabric, field_name)
        if value != default:
            fabric_data[field_name] = value
    return {
        "format_version": FORMAT_VERSION,
        "processors": [
            {
                "name": p.name,
                "ptype": p.ptype,
                "static_power": p.static_power,
                "dynamic_power": p.dynamic_power,
                "fault_rate": p.fault_rate,
                "speed": p.speed,
            }
            for p in architecture.processors
        ],
        "interconnect": fabric_data,
    }


def architecture_from_dict(data: Dict[str, Any]) -> Architecture:
    """Deserialize an architecture."""
    _check_version(data)
    processors = [
        Processor(
            name=p["name"],
            ptype=p.get("ptype", "generic"),
            static_power=p.get("static_power", 0.0),
            dynamic_power=p.get("dynamic_power", 0.0),
            fault_rate=p.get("fault_rate", 0.0),
            speed=p.get("speed", 1.0),
        )
        for p in data["processors"]
    ]
    fabric_data = data["interconnect"]
    interconnect = Interconnect(
        bandwidth=fabric_data["bandwidth"],
        base_latency=fabric_data.get("base_latency", 0.0),
        kind=InterconnectKind(fabric_data.get("kind", "shared_bus")),
        **{
            field_name: fabric_data.get(field_name, default)
            for field_name, default in _INTERCONNECT_OPTIONALS
        },
    )
    return Architecture(processors, interconnect)


# ----------------------------------------------------------------------
# Mapping
# ----------------------------------------------------------------------

def mapping_to_dict(mapping: Mapping) -> Dict[str, Any]:
    """Serialize a mapping."""
    return {
        "format_version": FORMAT_VERSION,
        "assignment": mapping.as_dict(),
    }


def mapping_from_dict(data: Dict[str, Any]) -> Mapping:
    """Deserialize a mapping."""
    _check_version(data)
    return Mapping(data["assignment"])


# ----------------------------------------------------------------------
# Whole-system convenience I/O
# ----------------------------------------------------------------------

class SystemBundle(NamedTuple):
    """Everything a system file can carry.

    ``applications`` are the *source* (unhardened) task graphs; when a
    ``plan`` is present, analyses apply it first and the ``mapping`` is
    expected to cover the transformed task set ``T'``.
    """

    applications: ApplicationSet
    architecture: Architecture
    mapping: Optional[Mapping]
    plan: Optional["HardeningPlan"]


def bundle_to_payload(bundle: SystemBundle) -> Dict[str, Any]:
    """A :class:`SystemBundle` as the system-format dict.

    The one writer of the format: :func:`save_system` writes this dict
    to a file, the serving layer inlines it into requests.
    """
    payload: Dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "applications": application_set_to_dict(bundle.applications),
        "architecture": architecture_to_dict(bundle.architecture),
    }
    if bundle.mapping is not None:
        payload["mapping"] = mapping_to_dict(bundle.mapping)
    if bundle.plan is not None:
        payload["hardening_plan"] = bundle.plan.to_dict()
    return payload


def bundle_from_payload(payload: Any) -> SystemBundle:
    """Inverse of :func:`bundle_to_payload`: the one reader of the format.

    Raises :class:`~repro.errors.ModelError` naming the bad field for a
    non-object payload, an unsupported ``format_version``, a missing
    ``applications``/``architecture`` section, or a malformed section.
    """
    from repro.hardening.spec import HardeningPlan

    if not isinstance(payload, dict):
        raise ModelError(
            f"system must be a JSON object, got {type(payload).__name__}"
        )
    _check_version(payload)
    for field in ("applications", "architecture"):
        if field not in payload:
            raise ModelError(f"system lacks the {field!r} section")
    return SystemBundle(
        _section(payload, "applications", application_set_from_dict),
        _section(payload, "architecture", architecture_from_dict),
        _section(payload, "mapping", mapping_from_dict),
        _section(payload, "hardening_plan", HardeningPlan.from_dict),
    )


def _section(payload: Dict[str, Any], field: str, parse) -> Any:
    """Parse one top-level section (``None`` when absent).

    Structural faults inside it raise a :class:`ModelError` naming it.
    """
    if field not in payload:
        return None
    data = payload[field]
    try:
        if not isinstance(data, dict):
            raise TypeError(f"expected an object, got {type(data).__name__}")
        return parse(data)
    except KeyError as error:
        raise ModelError(
            f"system section {field!r} lacks the key {error.args[0]!r}"
        ) from None
    except (AttributeError, TypeError, ValueError) as error:
        raise ModelError(
            f"system section {field!r} is malformed: {error}"
        ) from None


def save_system(
    path: Union[str, Path],
    applications: ApplicationSet,
    architecture: Architecture,
    mapping: Optional[Mapping] = None,
    plan: Optional["HardeningPlan"] = None,
) -> None:
    """Write a system bundle to JSON.

    ``applications`` should be the source (unhardened) task graphs; pass
    the hardening decisions via ``plan`` so they can be re-applied on
    load (re-execution is invisible in the graph topology).
    """
    payload = bundle_to_payload(
        SystemBundle(applications, architecture, mapping, plan)
    )
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_system(path: Union[str, Path]) -> SystemBundle:
    """Read a system bundle previously written by :func:`save_system`."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as error:
        raise ModelError(
            f"cannot read system file {str(path)!r}: {error.strerror or error}"
        ) from None
    except ValueError as error:
        raise ModelError(
            f"system file {str(path)!r} is not valid JSON: {error}"
        ) from None
    return bundle_from_payload(payload)


def _check_version(data: Dict[str, Any]) -> None:
    version = data.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ModelError(
            f"unsupported serialization format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
