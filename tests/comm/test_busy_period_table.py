"""``busy_period_table`` against the scalar reference, compared with ``==``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import make_comm
from repro.comm.base import attempt_cost, busy_period_table, channel_sites
from repro.hardening.spec import HardeningPlan
from repro.hardening.transform import harden
from repro.model.architecture import Interconnect
from tests.comm.reference import busy_period_worst, reference_table


def _sites(pairs):
    """``(cost, period)`` pairs in arbitration order (stable by period)."""
    ordered = sorted(pairs, key=lambda pair: pair[1])
    return [c for c, _ in ordered], [t for _, t in ordered]


def _assert_matches(costs, periods, horizon=None):
    if horizon is None:
        horizon = max(periods, default=0.0)
    table = busy_period_table(costs, periods, horizon)
    assert table.tolist() == reference_table(costs, periods, horizon)
    return table


def _utilisation(costs, periods):
    """Competitor utilisation of every row."""
    return [
        sum(c / t for c, t in zip(costs[:index], periods[:index]))
        for index in range(len(costs))
    ]


class TestShapes:
    def test_no_sites(self):
        table = busy_period_table([], [], 0.0)
        assert table.shape == (0,)

    def test_one_site(self):
        assert _assert_matches([2.5], [10.0]).tolist() == [2.5]

    def test_period_ties(self):
        _assert_matches([1.0, 2.0, 1.5, 0.5], [5.0, 5.0, 5.0, 5.0])

    def test_zero_size_channels_cost_the_base_latency(self):
        fabric = Interconnect(bandwidth=200.0, base_latency=0.5)
        sizes = [0.0, 120.0, 0.0, 40.0, 0.0]
        costs = [attempt_cost(fabric, size) for size in sizes]
        assert costs[0] == costs[2] == costs[4] == 0.5
        _assert_matches(costs, [4.0, 6.0, 6.0, 9.0, 12.0])

    def test_zero_blocking(self):
        # Free pure-sync tokens at the tail leave every row unblocked.
        costs = [1.0, 2.0, 0.0, 0.0]
        table = _assert_matches(costs, [10.0, 10.0, 20.0, 20.0])
        assert table[1] == 2.0 + 1.0


class TestRegimes:
    def test_convergent_rows(self):
        costs, periods = [1.0, 1.0, 2.0, 1.0], [10.0, 12.0, 20.0, 40.0]
        assert max(_utilisation(costs, periods)) < 1.0
        table = _assert_matches(costs, periods)
        # Row 1: one release of row 0 plus the longest blocker (2.0).
        assert table[1] == 2.0 + 1.0 + 1.0

    def test_overloaded_rows(self):
        costs, periods = [3.0, 4.0, 1.0, 2.0, 1.0], [2.0, 3.0, 5.0, 8.0, 8.0]
        assert _utilisation(costs, periods)[2] > 2.0
        _assert_matches(costs, periods)

    @pytest.mark.parametrize(
        "offset", (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1.9e-9, 2e-9, -2e-9)
    )
    def test_utilisation_within_1e_9_of_one(self, offset):
        # Two competitors at exactly half the medium each, nudged by
        # ``offset``: row 2 sits at U = 1 + offset / 2, on either side of
        # the short-circuit margin.
        costs = [2.0, 4.0 * (1.0 + offset), 0.25, 0.5]
        periods = [4.0, 8.0, 16.0, 16.0]
        assert abs(_utilisation(costs, periods)[2] - 1.0) <= 1e-9 + 1e-15
        _assert_matches(costs, periods)

    def test_extreme_overload_skips_the_diverging_iterates(self):
        # U = 100: the scalar recurrence overflows long before its
        # iteration cap; the table goes straight to the finite census.
        costs, periods = [100.0, 1.0], [1.0, 10.0]
        with pytest.raises(OverflowError):
            busy_period_worst(1.0, 0.0, [(100.0, 1.0)], 10.0)
        table = busy_period_table(costs, periods, 10.0)
        assert table.tolist() == [101.0, 1.0 + (10 + 1) * 100.0]

    def test_horizon_below_own_cost(self):
        _assert_matches([2.0, 9.0, 3.0], [1.0, 1.5, 4.0], horizon=0.5)


def _random_table(rng):
    count = rng.randrange(0, 13)
    costs = []
    periods = []
    for _ in range(count):
        regime = rng.random()
        period = rng.choice((2.0, 5.0, 10.0, 20.0, 40.0))
        period *= rng.choice((1, 1, 3))
        if regime < 0.15:
            cost = 0.5  # zero-size channel: base latency only
        elif regime < 0.25:
            cost = 0.0
        else:
            cost = round(rng.uniform(0.05, 0.6) * period, 3)
        costs.append(cost)
        periods.append(period)
    return _sites(zip(costs, periods))


def test_seeded_tables_match_the_scalar():
    rng = random.Random(20140601)
    overloaded = 0
    for _ in range(300):
        costs, periods = _random_table(rng)
        _assert_matches(costs, periods)
        overloaded += sum(u >= 1.0 for u in _utilisation(costs, periods))
    assert overloaded > 100


_positive = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
_period = st.floats(min_value=0.5, max_value=100.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_positive, _period), max_size=8),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)
def test_property_matches_the_scalar(pairs, horizon):
    costs, periods = _sites(pairs)
    # Keep the scalar finite: 256 iterates at U <= 8 stay below 1e308.
    if any(u > 8.0 for u in _utilisation(costs, periods)):
        return
    _assert_matches(costs, periods, horizon)


def test_perfbench_comm_bus_site_tables():
    from perfbench.inputs import small_inputs

    designs = [
        item for item in small_inputs() if item.label.startswith("comm-bus")
    ]
    assert len(designs) == 4
    for item in designs:
        bundle = item.bundle
        hardened = harden(
            bundle.applications, bundle.plan or HardeningPlan()
        ).applications
        sites = channel_sites(hardened, bundle.mapping, bundle.architecture)
        fabric = bundle.architecture.interconnect
        costs = [attempt_cost(fabric, site.size) for site in sites]
        periods = [site.period for site in sites]
        table = _assert_matches(costs, periods)
        assert sum(u >= 1.0 for u in _utilisation(costs, periods)) > 0
        bound = make_comm("shared-bus").bind(
            hardened, bundle.mapping, bundle.architecture
        )
        assert [
            bound.attempt_worst(site.src, site.dst, site.size)
            for site in sites
        ] == table.tolist()
