"""Registry, factory and override plumbing of :mod:`repro.comm`."""

import pytest

from repro.comm import (
    COMM_BACKENDS,
    CommBackend,
    default_comm,
    make_comm,
    register_backend,
    with_comm,
)
from repro.errors import AnalysisError
from repro.model.architecture import Architecture, Interconnect, Processor


def _arch(**fabric):
    options = dict(bandwidth=100.0, base_latency=1.0)
    options.update(fabric)
    return Architecture(
        [Processor("pe0"), Processor("pe1")], Interconnect(**options)
    )


class TestRegistry:
    def test_all_backends_registered(self):
        assert COMM_BACKENDS == ("flat", "shared-bus", "tdma", "noc-xy", "bus-jobs")

    def test_make_comm_by_name(self):
        for name in COMM_BACKENDS:
            backend = make_comm(name)
            assert isinstance(backend, CommBackend)
            assert backend.name == name

    def test_unknown_name_lists_every_backend(self):
        with pytest.raises(AnalysisError) as error:
            make_comm("token-ring")
        text = str(error.value)
        assert "token-ring" in text
        for name in COMM_BACKENDS:
            assert name in text

    def test_nameless_backend_rejected(self):
        class Anonymous(CommBackend):
            name = ""

        with pytest.raises(AnalysisError):
            register_backend(Anonymous)

    def test_deferred_backend_resolves_at_bind_time(self):
        backend = make_comm(None, arq_retries=1)
        assert backend.name == "auto"


class TestDefaultComm:
    def test_flat_without_arq_is_the_legacy_model(self):
        comm = default_comm(_arch())
        assert comm.name == "flat"
        # The flat fabric's bounds do not depend on the task set.
        bound = comm.bind(None, None, _arch())
        assert (bound.arq_retries, bound.fingerprint_token) == (0, "")

    def test_contended_fabric_returns_a_backend(self):
        comm = default_comm(_arch(comm_backend="tdma"))
        assert isinstance(comm, CommBackend)
        assert comm.name == "tdma"

    def test_flat_with_arq_returns_a_backend(self):
        comm = default_comm(_arch(arq_retries=2))
        assert isinstance(comm, CommBackend)
        assert comm.name == "flat"


class TestWithComm:
    def test_rewrites_only_comm_fields(self):
        arch = _arch(mesh_columns=3, slot_count=5)
        rewritten = with_comm(arch, backend="noc-xy", arq_retries=2)
        fabric = rewritten.interconnect
        assert fabric.comm_backend == "noc-xy"
        assert fabric.arq_retries == 2
        assert fabric.bandwidth == arch.interconnect.bandwidth
        assert fabric.mesh_columns == 3
        assert fabric.slot_count == 5
        assert rewritten.processor_names == arch.processor_names

    def test_none_leaves_fields_untouched(self):
        arch = _arch(comm_backend="tdma", arq_retries=1, arq_timeout=0.5)
        rewritten = with_comm(arch)
        assert rewritten.interconnect == arch.interconnect

    def test_unknown_backend_rejected_with_listing(self):
        with pytest.raises(AnalysisError) as error:
            with_comm(_arch(), backend="token-ring")
        for name in COMM_BACKENDS:
            assert name in str(error.value)
