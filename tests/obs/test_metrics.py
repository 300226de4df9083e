import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    metrics,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_increments(self, registry):
        counter = registry.counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.counter("c").inc(-1)

    def test_get_or_create_returns_same_object(self, registry):
        assert registry.counter("c") is registry.counter("c")


class TestGauge:
    def test_last_write_wins(self, registry):
        gauge = registry.gauge("g")
        gauge.set(3.0)
        gauge.set(-1.5)
        assert gauge.value == -1.5


class TestTimer:
    def test_observe_aggregates(self, registry):
        timer = registry.timer("t")
        timer.observe(2.0)
        timer.observe(4.0)
        assert timer.count == 2
        assert timer.total == pytest.approx(6.0)
        assert timer.mean == pytest.approx(3.0)
        assert timer.min == pytest.approx(2.0)
        assert timer.max == pytest.approx(4.0)

    def test_empty_timer_mean_is_zero(self, registry):
        assert registry.timer("t").mean == 0.0

    def test_time_context_records_one_observation(self, registry):
        timer = registry.timer("t")
        with timer.time():
            pass
        assert timer.count == 1
        assert timer.total >= 0.0


class TestHistogram:
    def test_values_land_in_first_bucket_with_room(self, registry):
        histogram = registry.histogram("h", buckets=(1, 5, 10))
        for value in (0.5, 1.0, 3.0, 10.0, 11.0):
            histogram.observe(value)
        # upper bounds are inclusive: 0.5 and 1.0 -> bucket 1; 3.0 -> 5;
        # 10.0 -> 10; 11.0 overflows.
        assert histogram.counts == [2, 1, 1]
        assert histogram.overflow == 1
        assert histogram.count == 5
        assert histogram.mean == pytest.approx(25.5 / 5)
        assert histogram.min == 0.5
        assert histogram.max == 11.0

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_empty_buckets_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=())

    def test_duplicate_buckets_rejected(self, registry):
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(1, 1, 2))


class TestRegistry:
    def test_type_mismatch_raises(self, registry):
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_disabled_records_are_noops(self, registry):
        counter = registry.counter("c")
        timer = registry.timer("t")
        histogram = registry.histogram("h")
        gauge = registry.gauge("g")
        registry.disable()
        counter.inc()
        gauge.set(7.0)
        timer.observe(1.0)
        with timer.time():
            pass
        histogram.observe(1.0)
        assert counter.value == 0
        assert gauge.value == 0.0
        assert timer.count == 0
        assert histogram.count == 0
        registry.enable()
        counter.inc()
        assert counter.value == 1

    def test_reset_frees_names(self, registry):
        registry.counter("x").inc()
        registry.reset()
        # After reset the name may be re-registered with another type.
        gauge = registry.gauge("x")
        assert gauge.value == 0.0

    def test_snapshot_shape(self, registry):
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.timer("t").observe(0.25)
        registry.histogram("h", buckets=(1, 2)).observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["timers"]["t"]["count"] == 1
        assert snap["timers"]["t"]["total"] == pytest.approx(0.25)
        assert snap["histograms"]["h"]["counts"] == [1, 0]

    def test_global_registry_is_singleton(self):
        assert metrics() is metrics()


class TestExport:
    def test_write_json_merges_extra(self, registry, tmp_path):
        registry.counter("c").inc()
        path = tmp_path / "metrics.json"
        registry.write_json(path, extra={"command": "explore"})
        payload = json.loads(path.read_text())
        assert payload["command"] == "explore"
        assert payload["metrics"]["counters"]["c"] == 1


class TestStreamingQuantiles:
    def test_empty_histogram_has_none_quantiles(self, registry):
        quantiles = registry.histogram("h").quantiles()
        assert quantiles == {"p50": None, "p95": None, "p99": None}

    def test_exact_below_five_samples(self, registry):
        histogram = registry.histogram("h", buckets=(100,))
        for value in (1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.quantiles()["p50"] == pytest.approx(2.0)

    def test_median_of_uniform_stream(self, registry):
        histogram = registry.histogram("h", buckets=(2000,))
        for i in range(1, 1001):
            histogram.observe(float(i))
        quantiles = histogram.quantiles()
        assert quantiles["p50"] == pytest.approx(500.0, rel=0.05)
        assert quantiles["p95"] == pytest.approx(950.0, rel=0.05)
        assert quantiles["p99"] == pytest.approx(990.0, rel=0.05)

    def test_quantiles_ordered(self, registry):
        import random

        rng = random.Random(7)
        histogram = registry.histogram("h", buckets=(10,))
        for _ in range(500):
            histogram.observe(rng.expovariate(1.0))
        quantiles = histogram.quantiles()
        assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p99"]

    def test_as_dict_and_snapshot_carry_quantiles(self, registry):
        histogram = registry.histogram("h")
        for i in range(20):
            histogram.observe(float(i))
        payload = histogram.as_dict()
        assert "p50" in payload and "p95" in payload and "p99" in payload
        snap = registry.snapshot()["histograms"]["h"]
        assert snap["p50"] == payload["p50"]

    def test_disabled_registry_records_nothing(self):
        quiet = MetricsRegistry(enabled=False)
        histogram = quiet.histogram("h")
        histogram.observe(5.0)
        assert histogram.quantiles()["p50"] is None


class TestPrometheusExposition:
    def test_counter_gauge_timer_lines(self, registry):
        registry.counter("dse.evaluations").inc(4)
        registry.gauge("serve.queue_depth").set(2)
        registry.timer("serve.latency.analyze").observe(0.25)
        lines = list(registry.prometheus_lines())
        assert "# TYPE repro_dse_evaluations_total counter" in lines
        assert "repro_dse_evaluations_total 4" in lines
        assert "repro_serve_queue_depth 2" in lines
        assert "repro_serve_latency_analyze_sum 0.25" in lines
        assert "repro_serve_latency_analyze_count 1" in lines

    def test_histogram_buckets_are_cumulative(self, registry):
        histogram = registry.histogram("lat", buckets=(1, 5, 10))
        for value in (0.5, 0.7, 3.0, 20.0):
            histogram.observe(value)
        lines = list(registry.prometheus_lines())
        assert 'repro_lat_bucket{le="1"} 2' in lines
        assert 'repro_lat_bucket{le="5"} 3' in lines
        assert 'repro_lat_bucket{le="10"} 3' in lines
        assert 'repro_lat_bucket{le="+Inf"} 4' in lines
        assert "repro_lat_count 4" in lines

    def test_names_sanitized(self, registry):
        registry.counter("a.b-c d").inc()
        lines = list(registry.prometheus_lines())
        assert "repro_a_b_c_d_total 1" in lines
