"""Metrics math: bucketing, quantiles, registry semantics."""

import json
import math

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestHistogram:
    def test_bucketing_is_bisect_left(self):
        h = Histogram("h", buckets=(0.001, 0.01, 0.1))
        for sample in (0.0005, 0.001, 0.002, 0.05, 2.0):
            h.observe(sample)
        # bounds are inclusive upper bounds: v == 0.001 joins bucket 0
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5

    def test_overflow_bucket(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(2.0)
        assert h.bucket_counts == [0, 1]

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(0.1, 0.01))

    def test_min_max_mean(self):
        h = Histogram("h", buckets=(1.0,))
        for sample in (0.2, 0.4):
            h.observe(sample)
        assert h.minimum == 0.2
        assert h.maximum == 0.4
        assert h.mean == pytest.approx(0.3)

    def test_mean_of_empty_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_cumulative(self):
        h = Histogram("h", buckets=(0.001, 0.01, 0.1))
        for sample in (0.0005, 0.002, 0.002, 0.05, 2.0):
            h.observe(sample)
        assert h.bucket_counts == [1, 2, 1, 1]
        assert h.cumulative() == [1, 3, 4, 5]

    def test_quantile_upper_bound_estimate(self):
        h = Histogram("h", buckets=(0.001, 0.01, 0.1))
        for sample in (0.0005, 0.002, 0.002, 0.05, 2.0):
            h.observe(sample)
        assert h.quantile(0.5) == 0.01
        assert h.quantile(0.2) == 0.001
        # overflow bucket reports the observed maximum
        assert h.quantile(1.0) == 2.0

    def test_quantile_of_empty(self):
        assert Histogram("h").quantile(0.99) == 0.0

    def test_quantile_domain(self):
        h = Histogram("h")
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_reset(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(0.5)
        h.reset()
        assert h.count == 0
        assert h.bucket_counts == [0, 0]
        assert h.minimum == math.inf

    def test_as_dict_exports_cumulative_with_inf(self):
        h = Histogram("h", unit="s", buckets=(0.01, 0.1))
        h.observe(0.005)
        h.observe(5.0)
        payload = h.as_dict()
        assert payload["buckets"] == {"0.01": 1, "0.1": 1, "+Inf": 2}
        assert payload["count"] == 2
        assert payload["min"] == 0.005
        assert payload["max"] == 5.0

    def test_empty_as_dict_has_null_min_max(self):
        payload = Histogram("h").as_dict()
        assert payload["min"] is None
        assert payload["max"] is None


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.histogram("a") is registry.histogram("a")

    def test_default_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", unit="s")
        assert h.buckets == DEFAULT_LATENCY_BUCKETS

    def test_reset_keeps_instruments_registered(self):
        registry = MetricsRegistry()
        registry.histogram("a").observe(3)
        registry.histogram("h").observe(0.1)
        registry.reset()
        assert registry.names() == ["a", "h"]
        assert registry.histogram("a").count == 0
        assert registry.histogram("h").count == 0

    def test_get_unknown_is_none(self):
        assert MetricsRegistry().get("nope") is None

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.histogram("db.group_commit_batch_size",
                           unit="records", buckets=(1, 8)).observe(2)
        registry.histogram("db.statement_seconds",
                           unit="s").observe(0.004)
        payload = json.loads(registry.to_json())
        assert payload["db.group_commit_batch_size"]["buckets"] == {
            "1": 0, "8": 1, "+Inf": 1}
        assert payload["db.statement_seconds"]["count"] == 1

    def test_render_text_one_line_per_instrument(self):
        registry = MetricsRegistry()
        registry.histogram("a", unit="rows").observe(1)
        registry.histogram("h").observe(0.002)
        text = registry.render_text()
        assert text.count("\n") == 1
        assert "a (rows): count=1" in text
        assert "h: count=1" in text
        assert "p95<=" in text
