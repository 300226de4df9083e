"""Bound semantics of the four communication backends."""

import pytest

from repro.comm import make_comm
from repro.comm.base import busy_period_table
from repro.model.application import ApplicationSet
from repro.model.architecture import Architecture, Interconnect, Processor
from repro.model.mapping import Mapping
from repro.model.task import Channel, Task
from repro.model.taskgraph import TaskGraph


def _system(fabric=None, processors=2):
    graph = TaskGraph(
        "g",
        tasks=[Task("a", 1.0, 2.0), Task("b", 1.0, 2.0)],
        channels=[Channel("a", "b", 200.0)],
        period=20.0,
        reliability_target=1e-6,
    )
    apps = ApplicationSet([graph])
    arch = Architecture(
        [Processor(f"pe{i}") for i in range(processors)],
        fabric or Interconnect(bandwidth=100.0, base_latency=1.0),
    )
    mapping = Mapping({"a": "pe0", "b": "pe1"})
    return apps, mapping, arch


def _bind(name, fabric=None, **arq):
    apps, mapping, arch = _system(fabric)
    return make_comm(name, **arq).bind(apps, mapping, arch)


class TestFlatBackend:
    def test_no_arq_binds_to_the_legacy_model(self):
        bound = _bind("flat")
        assert bound.channel_bounds("a", "b", 200.0, False) == (3.0, 3.0)
        assert bound.fingerprint_token == ""

    def test_arq_folds_into_worst_only(self):
        bound = _bind("flat", arq_retries=2, arq_timeout=0.5)
        best, worst = bound.channel_bounds("a", "b", 200.0, False)
        # One attempt costs base + size/bw = 3.0; k=2 lost attempts add
        # two more sends and two timeouts.
        assert best == pytest.approx(3.0)
        assert worst == pytest.approx(3 * 3.0 + 2 * 0.5)

    def test_same_processor_is_free(self):
        bound = _bind("flat", arq_retries=2, arq_timeout=0.5)
        assert bound.channel_bounds("a", "b", 200.0, True) == (0.0, 0.0)

    def test_without_arq_strips_the_margin(self):
        bound = _bind("flat", arq_retries=2, arq_timeout=0.5).without_arq()
        _, worst = bound.channel_bounds("a", "b", 200.0, False)
        assert worst == pytest.approx(3.0)

    def test_zero_size_keeps_the_pinned_asymmetry(self):
        bound = _bind("flat", arq_retries=1)
        best, worst = bound.channel_bounds("a", "b", 0.0, False)
        assert best == 0.0
        # One arbitration round per attempt, two attempts in the fold.
        assert worst == pytest.approx(2.0)


class TestSharedBus:
    def test_single_channel_collapses_to_flat(self):
        bound = _bind("shared-bus")
        _, worst = bound.channel_bounds("a", "b", 200.0, False)
        assert worst == pytest.approx(3.0)

    def test_competing_channels_interfere(self):
        graph_a = TaskGraph(
            "ga",
            tasks=[Task("a", 1.0, 2.0), Task("b", 1.0, 2.0)],
            channels=[Channel("a", "b", 200.0)],
            period=20.0,
            reliability_target=1e-6,
        )
        graph_b = TaskGraph(
            "gb",
            tasks=[Task("x", 1.0, 2.0), Task("y", 1.0, 2.0)],
            channels=[Channel("x", "y", 100.0)],
            period=10.0,
            service_value=1.0,
        )
        apps = ApplicationSet([graph_a, graph_b])
        arch = Architecture(
            [Processor("pe0"), Processor("pe1")],
            Interconnect(bandwidth=100.0, base_latency=1.0),
        )
        mapping = Mapping({"a": "pe0", "b": "pe1", "x": "pe0", "y": "pe1"})
        bound = make_comm("shared-bus").bind(apps, mapping, arch)
        # x>y (period 10) wins arbitration but suffers one blocking
        # transfer from a>b already in flight: 2.0 + 3.0.
        assert bound.attempt_worst("x", "y", 100.0) == pytest.approx(5.0)
        # a>b additionally suffers one x>y release in its busy period.
        assert bound.attempt_worst("a", "b", 200.0) == pytest.approx(5.0)

    def test_unknown_channel_falls_back_to_uncontended(self):
        bound = _bind("shared-bus")
        assert bound.attempt_worst("ghost", "b", 100.0) == pytest.approx(2.0)


class TestBusyPeriod:
    def test_no_competitors(self):
        # Row 0 wins arbitration, blocked once by the 2.0 transfer below it.
        worst = busy_period_table([3.0, 2.0], [10.0, 20.0], 100.0)
        assert worst[0] == 5.0

    def test_convergent_fixed_point(self):
        worst = busy_period_table([2.0, 3.0], [10.0, 20.0], 20.0)
        assert worst[1] == 5.0

    def test_overload_saturates_finitely(self):
        # Utilization > 1: the recurrence diverges; the census fallback
        # must stay finite and scale with the horizon, not with the
        # diverged iterate.
        worst = busy_period_table([5.0, 1.0], [1.0, 10.0], 10.0)
        assert worst[1] == 1.0 + (10 + 1) * 5.0

    def test_overload_bound_dominates_own_cost(self):
        worst = busy_period_table(
            [5.0, 3.0, 1.0, 2.0], [1.0, 2.0, 10.0, 10.0], 10.0
        )
        assert worst[2] >= 3.0
        assert worst[2] < 1e6


class TestTdma:
    def test_slot_alignment_worst_case(self):
        bound = _bind("tdma")
        # Derived slot: L = base + 64/bw = 1.64, payload/slot = 164 B,
        # 200 B needs 2 slots; S = 2 slots per revolution.
        _, worst = bound.channel_bounds("a", "b", 200.0, False)
        assert worst == pytest.approx(1.0 + 2 * 2 * 1.64)

    def test_explicit_slot_table(self):
        fabric = Interconnect(
            bandwidth=100.0,
            base_latency=1.0,
            comm_backend="tdma",
            slot_length=2.0,
            slot_count=4,
        )
        bound = _bind("tdma", fabric=fabric)
        # payload/slot = 200 B: one slot, one full revolution of 4 slots.
        _, worst = bound.channel_bounds("a", "b", 200.0, False)
        assert worst == pytest.approx(1.0 + 1 * 4 * 2.0)

    def test_zero_size_occupies_one_slot(self):
        bound = _bind("tdma")
        _, worst = bound.channel_bounds("a", "b", 0.0, False)
        assert worst == pytest.approx(1.0 + 1 * 2 * 1.64)


class TestNocXY:
    def test_single_hop_route(self):
        bound = _bind("noc-xy")
        # Two PEs on a 2-wide mesh: one hop, hop latency falls back to
        # base latency, no competing channels.
        _, worst = bound.channel_bounds("a", "b", 200.0, False)
        assert worst == pytest.approx(1.0 + 1 * 1.0 + 2.0)

    def test_longer_routes_cost_more_hops(self):
        fabric = Interconnect(
            bandwidth=100.0,
            base_latency=1.0,
            comm_backend="noc-xy",
            mesh_columns=4,
            hop_latency=0.25,
        )
        apps, _, _ = _system()
        arch = Architecture(
            [Processor(f"pe{i}") for i in range(4)], fabric
        )
        mapping = Mapping({"a": "pe0", "b": "pe3"})
        bound = make_comm("noc-xy").bind(apps, mapping, arch)
        # pe0 -> pe3 on a 1x4 row: three X hops.
        _, worst = bound.channel_bounds("a", "b", 200.0, False)
        assert worst == pytest.approx(1.0 + 3 * 0.25 + 2.0)


class TestLattice:
    @pytest.mark.parametrize("name", ("shared-bus", "tdma", "noc-xy"))
    def test_contended_dominates_flat(self, name):
        # The bound tables are computed for the channel's declared
        # payload (200 B), so domination is asserted at that size.
        flat = _bind("flat", arq_retries=0)
        contended = _bind(name)
        size = 200.0
        best, worst = contended.channel_bounds("a", "b", size, False)
        flat_best, flat_worst = flat.channel_bounds("a", "b", size, False)
        assert best == pytest.approx(flat_best)
        assert worst >= flat_worst - 1e-9

    @pytest.mark.parametrize("name", ("flat", "shared-bus", "tdma", "noc-xy"))
    def test_arq_fold_is_monotone(self, name):
        previous = None
        for retries in range(1, 4):
            bound = _bind(name, arq_retries=retries, arq_timeout=0.5)
            _, worst = bound.channel_bounds("a", "b", 200.0, False)
            if previous is not None:
                assert worst >= previous - 1e-9
            previous = worst

    @pytest.mark.parametrize("name", ("shared-bus", "tdma", "noc-xy"))
    def test_fingerprint_tokens_differ(self, name):
        flat = _bind("flat", arq_retries=1)
        contended = _bind(name, arq_retries=1)
        assert flat.fingerprint_token != contended.fingerprint_token

    def test_arq_changes_the_token(self):
        assert (
            _bind("tdma", arq_retries=1).fingerprint_token
            != _bind("tdma", arq_retries=2).fingerprint_token
        )
