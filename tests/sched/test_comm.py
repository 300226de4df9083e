"""Unit tests for the communication timing model."""

import pytest

from repro.model.architecture import Interconnect
from repro.sched.comm import CommModel


@pytest.fixture
def fabric():
    return Interconnect(bandwidth=100.0, base_latency=1.0)


class TestLatencyModel:
    def test_same_processor_is_free(self, fabric):
        model = CommModel(fabric)
        assert model.best_case(1000.0, same_processor=True) == 0.0
        assert model.worst_case(1000.0, same_processor=True) == 0.0

    def test_cross_processor_transfer(self, fabric):
        model = CommModel(fabric)
        assert model.best_case(200.0, same_processor=False) == pytest.approx(3.0)
        assert model.worst_case(200.0, same_processor=False) == pytest.approx(3.0)

    def test_zero_size_best_is_free(self, fabric):
        model = CommModel(fabric)
        assert model.best_case(0.0, same_processor=False) == 0.0

    def test_zero_size_worst_charges_base_latency(self, fabric):
        model = CommModel(fabric)
        assert model.worst_case(0.0, same_processor=False) == pytest.approx(1.0)

    def test_zero_size_asymmetry_pinned(self, fabric):
        """Regression pin for the documented zero-size semantics.

        Off-processor ``size <= 0`` transfers are pure synchronisation
        tokens: best-case they ride an open arbitration window (0.0),
        worst-case they still pay one arbitration round —
        ``base_latency`` — never the bandwidth term.
        """
        model = CommModel(fabric)
        for size in (0.0, -1.0, -1e6):
            assert model.best_case(size, same_processor=False) == 0.0
            assert model.worst_case(size, same_processor=False) == (
                fabric.base_latency
            )


class TestContention:
    def test_best_never_exceeds_worst(self, fabric):
        model = CommModel(fabric)
        for size in (0.0, 1.0, 100.0, 1e4):
            assert model.best_case(size, False) <= model.worst_case(size, False)
