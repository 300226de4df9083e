"""The ``flat`` backend gives byte-identical results however it is built.

Acceptance gate of the comm subsystem: on every built-in suite, the
Proposed analysis produces the exact same result digest whether the comm
model is left to default, selected as the ``flat`` backend by name, or
built by hand as the zero-ARQ :class:`FlatBound` — any drift means the
reference oracle broke.
"""

import json

import pytest

from repro.comm import ArqPolicy
from repro.comm.flat import FlatBound
from repro.core.factory import make_analysis
from repro.model.serialization import SystemBundle
from repro.suites import benchmark_names, get_benchmark
from repro.verify.campaign import state_from_bundle
from repro.verify.oracles import result_digest


def _digest(state, comm):
    result = make_analysis(comm=comm).analyze(
        state.hardened(), state.architecture, state.mapping, state.dropped
    )
    return json.dumps(result_digest(result), sort_keys=True)


def test_five_suites_registered():
    assert len(benchmark_names()) >= 5


@pytest.mark.parametrize("suite", benchmark_names())
def test_flat_backend_byte_identical(suite):
    problem = get_benchmark(suite).problem
    bundle = SystemBundle(
        applications=problem.applications,
        architecture=problem.architecture,
        mapping=None,
        plan=None,
    )
    state = state_from_bundle(bundle, seed=0)
    reference = _digest(state, None)
    assert _digest(state, "flat") == reference
    flat = FlatBound(state.architecture.interconnect, ArqPolicy())
    assert _digest(state, flat) == reference
