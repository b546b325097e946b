"""Unit tests for the metrics registry (counters/gauges/histograms)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    DEFAULT_CYCLE_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    default_registry,
    enabled,
    exponential_buckets,
    set_default_registry,
)


class TestExponentialBuckets:
    def test_geometric_series(self):
        assert exponential_buckets(10, 2, 4) == (10, 20, 40, 80)

    def test_defaults_span_cycle_range(self):
        assert DEFAULT_CYCLE_BUCKETS[0] == 1_000
        assert DEFAULT_CYCLE_BUCKETS == tuple(sorted(DEFAULT_CYCLE_BUCKETS))

    @pytest.mark.parametrize("start,factor,count", [
        (0, 2, 4), (-1, 2, 4), (10, 1, 4), (10, 0.5, 4), (10, 2, 0),
    ])
    def test_bad_args_rejected(self, start, factor, count):
        with pytest.raises(ConfigurationError):
            exponential_buckets(start, factor, count)


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1

    def test_histogram_buckets_values_deterministically(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(10, 100, 1000))
        for value in (5, 10, 11, 1000, 5000):
            histogram.observe(value)
        # <=10: {5, 10}; <=100: {11}; <=1000: {1000}; overflow: {5000}
        assert histogram.bucket_counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.total == 5 + 10 + 11 + 1000 + 5000

    def test_histogram_resolution_is_bucket_width(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(10, 100, 1000))
        assert histogram.resolution(5) == 10
        assert histogram.resolution(50) == 90
        assert histogram.resolution(500) == 900
        assert histogram.resolution(5000) == float("inf")

    def test_histogram_mean(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(10,))
        assert histogram.mean() == 0
        histogram.observe(4)
        histogram.observe(8)
        assert histogram.mean() == 6

    def test_unsorted_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=(10, 5))

    def test_falsy_buckets_fall_back_to_cycle_defaults(self):
        registry = MetricsRegistry()
        assert registry.histogram("d").buckets == DEFAULT_CYCLE_BUCKETS
        assert (registry.histogram("e", buckets=()).buckets
                == DEFAULT_CYCLE_BUCKETS)

    def test_instruments_memoized_by_name_and_labels(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.counter("x") is not registry.counter("x", mode="a")
        assert (registry.counter("x", a="1", b="2")
                is registry.counter("x", b="2", a="1"))


class TestSnapshot:
    def test_sections_sorted_and_labelled(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a", mode="x").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=(10,)).observe(3)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a{mode=x}", "b"]
        assert snapshot["counters"]["a{mode=x}"] == 2
        assert snapshot["gauges"]["g"] == 7
        assert snapshot["histograms"]["h"] == {
            "buckets": [10], "bucket_counts": [1, 0],
            "count": 1, "total": 3,
        }

    def test_empty_sections_omitted(self):
        registry = MetricsRegistry()
        assert registry.snapshot() == {}
        registry.counter("only").inc()
        assert set(registry.snapshot()) == {"counters"}

    def test_gauge_fn_sampled_at_snapshot_time(self):
        registry = MetricsRegistry()
        box = {"value": 1}
        registry.gauge_fn("sampled", lambda: box["value"])
        assert registry.snapshot()["gauges"]["sampled"] == 1
        box["value"] = 9
        assert registry.snapshot()["gauges"]["sampled"] == 9

    def test_to_json_is_canonical(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        raw = registry.to_json()
        assert raw == registry.to_json()
        assert json.loads(raw.decode("utf-8")) == registry.snapshot()
        # Compact separators, sorted keys: byte-stable by construction.
        assert b" " not in raw

    def test_next_index_is_per_name(self):
        registry = MetricsRegistry()
        assert registry.next_index("platform") == 0
        assert registry.next_index("platform") == 1
        assert registry.next_index("enclave") == 0


class TestNullRegistry:
    def test_shared_noop_instruments(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b")
        assert registry.histogram("a") is registry.histogram("b")
        registry.counter("a").inc(10)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(123)
        assert registry.counter("a").value == 0
        assert registry.snapshot() == {}
        assert registry.to_json() == b"{}"
        assert registry.active is False

    def test_gauge_fn_dropped(self):
        registry = NullRegistry()
        registry.gauge_fn("sampled", lambda: 1)
        assert registry.snapshot() == {}

    def test_next_index_constant(self):
        registry = NullRegistry()
        assert registry.next_index("x") == 0
        assert registry.next_index("x") == 0


class TestDefaultRegistry:
    def test_default_is_null(self):
        assert default_registry() is NULL_REGISTRY

    def test_enabled_installs_and_restores(self):
        with enabled() as registry:
            assert default_registry() is registry
            assert registry.active
        assert default_registry() is NULL_REGISTRY

    def test_enabled_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with enabled():
                raise RuntimeError("boom")
        assert default_registry() is NULL_REGISTRY

    def test_enabled_accepts_existing_registry(self):
        registry = MetricsRegistry()
        with enabled(registry) as installed:
            assert installed is registry

    def test_set_default_returns_previous(self):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            assert previous is NULL_REGISTRY
            assert default_registry() is registry
        finally:
            set_default_registry(previous)
