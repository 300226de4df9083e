"""Unit tests for the flat communication timing model."""

import pytest

from repro.comm import ArqPolicy
from repro.comm.flat import FlatBound
from repro.model.architecture import Interconnect


@pytest.fixture
def fabric():
    return Interconnect(bandwidth=100.0, base_latency=1.0)


def bounds(fabric, size, same_processor):
    """``(best, worst)`` of a channel over the zero-ARQ flat model."""
    model = FlatBound(fabric, ArqPolicy())
    return model.channel_bounds("a", "b", size, same_processor)


class TestLatencyModel:
    def test_same_processor_is_free(self, fabric):
        assert bounds(fabric, 1000.0, same_processor=True) == (0.0, 0.0)

    def test_cross_processor_transfer(self, fabric):
        best, worst = bounds(fabric, 200.0, same_processor=False)
        assert best == pytest.approx(3.0)
        assert worst == pytest.approx(3.0)

    def test_zero_size_best_is_free(self, fabric):
        best, _ = bounds(fabric, 0.0, same_processor=False)
        assert best == 0.0

    def test_zero_size_worst_charges_base_latency(self, fabric):
        _, worst = bounds(fabric, 0.0, same_processor=False)
        assert worst == pytest.approx(1.0)

    def test_zero_size_asymmetry_pinned(self, fabric):
        """Regression pin for the documented zero-size semantics.

        Off-processor ``size <= 0`` transfers are pure synchronisation
        tokens: best-case they ride an open arbitration window (0.0),
        worst-case they still pay one arbitration round —
        ``base_latency`` — never the bandwidth term.
        """
        for size in (0.0, -1.0, -1e6):
            assert bounds(fabric, size, same_processor=False) == (
                0.0, fabric.base_latency,
            )


class TestContention:
    def test_best_never_exceeds_worst(self, fabric):
        for size in (0.0, 1.0, 100.0, 1e4):
            best, worst = bounds(fabric, size, False)
            assert best <= worst
