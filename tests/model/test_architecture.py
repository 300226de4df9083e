"""Unit tests for the architecture model."""

import pytest

from repro.errors import ModelError
from repro.model.architecture import (
    Architecture,
    Interconnect,
    InterconnectKind,
    Processor,
    homogeneous_architecture,
)


class TestProcessor:
    def test_defaults(self):
        p = Processor("pe0")
        assert p.ptype == "generic"
        assert p.speed == 1.0

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            Processor("")

    def test_negative_power_rejected(self):
        with pytest.raises(ModelError):
            Processor("p", static_power=-1.0)
        with pytest.raises(ModelError):
            Processor("p", dynamic_power=-1.0)

    def test_negative_fault_rate_rejected(self):
        with pytest.raises(ModelError):
            Processor("p", fault_rate=-1e-9)

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ModelError):
            Processor("p", speed=0.0)

    def test_scale_time(self):
        assert Processor("p", speed=2.0).scale_time(10.0) == 5.0
        assert Processor("p").scale_time(10.0) == 10.0


class TestInterconnect:
    def test_transfer_time(self):
        fabric = Interconnect(bandwidth=100.0, base_latency=1.0)
        assert fabric.transfer_time(200.0) == pytest.approx(3.0)

    def test_zero_size_is_free(self):
        fabric = Interconnect(bandwidth=100.0, base_latency=1.0)
        assert fabric.transfer_time(0.0) == 0.0

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ModelError):
            Interconnect(bandwidth=0.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ModelError):
            Interconnect(bandwidth=1.0, base_latency=-0.5)

    def test_kind(self):
        fabric = Interconnect(bandwidth=1.0, kind=InterconnectKind.NOC)
        assert fabric.kind is InterconnectKind.NOC


class TestArchitecture:
    def test_lookup(self, architecture):
        assert architecture.processor("pe0").name == "pe0"
        with pytest.raises(ModelError):
            architecture.processor("nope")

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            Architecture([], Interconnect(bandwidth=1.0))

    def test_duplicate_rejected(self):
        with pytest.raises(ModelError):
            Architecture(
                [Processor("p"), Processor("p")], Interconnect(bandwidth=1.0)
            )

    def test_iteration_and_membership(self, architecture):
        assert len(architecture) == 3
        assert "pe1" in architecture
        assert [p.name for p in architecture] == ["pe0", "pe1", "pe2"]


class TestHomogeneousBuilder:
    def test_builds_requested_count(self):
        arch = homogeneous_architecture(4, static_power=0.5)
        assert len(arch) == 4
        assert all(p.static_power == 0.5 for p in arch)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ModelError):
            homogeneous_architecture(0)

    def test_name_prefix(self):
        arch = homogeneous_architecture(2, name_prefix="core")
        assert arch.processor_names == ("core0", "core1")
