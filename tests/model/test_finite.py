"""Model constructors reject NaN and infinite numbers, naming the field.

``json.loads`` accepts ``NaN`` and ``Infinity`` literals, so system files
and served request bodies can carry them into the model.
"""

import pytest

from repro.errors import ModelError
from repro.model.architecture import Interconnect, Processor
from repro.model.task import Channel, Task
from repro.model.taskgraph import TaskGraph


def _task(**fields):
    return Task(**{"name": "t", "bcet": 1.0, "wcet": 2.0, **fields})


def _graph(**fields):
    return TaskGraph(
        **{
            "name": "g",
            "tasks": [_task()],
            "channels": [],
            "period": 10.0,
            "reliability_target": 1e-6,
            **fields,
        }
    )


#: ``(constructor taking the field as a keyword, field name)``, one per
#: float field of the model.
FIELDS = [
    (_task, "bcet"),
    (_task, "wcet"),
    (_task, "voting_overhead"),
    (_task, "detection_overhead"),
    (lambda **f: Channel("a", "b", **f), "size"),
    (_graph, "period"),
    (_graph, "deadline"),
    (lambda **f: Processor("p", **f), "static_power"),
    (lambda **f: Processor("p", **f), "dynamic_power"),
    (lambda **f: Processor("p", **f), "fault_rate"),
    (lambda **f: Processor("p", **f), "speed"),
    (lambda **f: Interconnect(**{"bandwidth": 1.0, **f}), "bandwidth"),
    (lambda **f: Interconnect(**{"bandwidth": 1.0, **f}), "base_latency"),
    (lambda **f: Interconnect(**{"bandwidth": 1.0, **f}), "arq_timeout"),
    (lambda **f: Interconnect(**{"bandwidth": 1.0, **f}), "hop_latency"),
    (lambda **f: Interconnect(**{"bandwidth": 1.0, **f}), "slot_length"),
]


@pytest.mark.parametrize(
    "build, field", FIELDS, ids=[f"{build.__name__}-{field}" for build, field in FIELDS]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_rejected(build, field, value):
    with pytest.raises(ModelError, match=f"{field} must be a finite number"):
        build(**{field: value})


def test_finite_values_still_accepted():
    _task(bcet=0.5, wcet=0.5, voting_overhead=0.1, detection_overhead=0.2)
    _graph(period=5.0, deadline=4.0)
    Processor("p", static_power=1.0, dynamic_power=2.0, fault_rate=1e-9, speed=2.0)
    Interconnect(bandwidth=10.0, base_latency=0.5, arq_timeout=1.0)
