"""Soundness of the shared-fabric backends on an overloaded medium.

Under the campaign's round-robin design, 20 of the comm-dominated
system's 35 cross-processor channels see a higher-priority utilisation
of at least 1, so their busy periods take the overload short-circuit of
:func:`repro.comm.base.busy_period_table`.  Under ``bus-jobs`` the same
transfers are message jobs that queue on the virtual bus processor.  A
seeded campaign must still find simulated responses within the Proposed
bounds and an intact comm lattice.
"""

import pytest

from repro.benchgen.tgff import comm_dominated_problem
from repro.model.serialization import SystemBundle
from repro.verify.campaign import (
    CampaignConfig,
    run_campaign,
    scatter_state,
    state_from_bundle,
)


@pytest.mark.parametrize(
    "comm_backend, retries",
    [
        pytest.param("shared-bus", 0, id="0"),
        pytest.param("shared-bus", 2, id="2"),
        pytest.param("bus-jobs", 0, id="bus-jobs-0"),
        pytest.param("bus-jobs", 2, id="bus-jobs-2"),
    ],
)
def test_overloaded_shared_bus_campaign_is_clean(comm_backend, retries):
    problem = comm_dominated_problem(
        comm_backend=comm_backend, arq_retries=retries
    )
    assert problem.architecture.interconnect.comm_backend == comm_backend
    bundle = SystemBundle(
        problem.applications, problem.architecture, mapping=None, plan=None
    )
    state = scatter_state(state_from_bundle(bundle, seed=7))
    report = run_campaign(
        state, CampaignConfig(budget=120, seed=7), label="overloaded-bus"
    )
    assert report.ok, report.violations
    for oracle in ("sim-le-proposed", "flat-le-contended", "arq-monotone"):
        entry = report.oracles[oracle]
        assert entry["checks"] >= 1 and entry["violations"] == 0, oracle
