"""Unit tests for the metrics registry and the exposition codec."""

import json

import pytest

from repro.errors import ConfigurationError, MergeError
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_text,
    render_text,
    validate_text,
)


class TestCounter:
    def test_inc(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c_total").inc(-1)

    def test_rejects_bad_name(self):
        with pytest.raises(ConfigurationError):
            Counter("bad name")
        with pytest.raises(ConfigurationError):
            Counter("0starts_with_digit")

    def test_merge_adds(self):
        a, b = Counter("c"), Counter("c")
        a.inc(2)
        b.inc(3)
        a.merge(b)
        assert a.value == 5


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("g")
        gauge.set(7)
        gauge.inc(2)
        gauge.inc(-4)
        assert gauge.value == 5

    def test_merge_is_additive(self):
        # Gauges in this codebase carry additive facts (tracked items,
        # queue depth), so the shard reduction sums them.
        a, b = Gauge("g"), Gauge("g")
        a.set(3)
        b.set(4)
        a.merge(b)
        assert a.value == 7


class TestHistogram:
    def test_observe_buckets_inclusive_le(self):
        h = Histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 1.0, 3.0, 10.0, 11.0):
            h.observe(value)
        # le=1 owns 0.5 and 1.0; le=5 owns 3.0; le=10 owns 10.0; +Inf owns 11
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.cumulative() == [2, 3, 4, 5]
        assert h.count == 5
        assert h.sum == pytest.approx(25.5)

    def test_bounds_must_increase(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=())

    def test_merge_requires_identical_bounds(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(MergeError):
            a.merge(b)

    def test_merge_adds_bucketwise(self):
        a = Histogram("h", buckets=(1.0, 2.0))
        b = Histogram("h", buckets=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.bucket_counts == [1, 1, 1]
        assert a.count == 3


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ConfigurationError):
            registry.gauge("m")

    def test_value_reads_scalars(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        assert registry.value("c") == 3
        assert registry.value("missing", default=-1) == -1
        registry.histogram("h")
        with pytest.raises(ConfigurationError):
            registry.value("h")

    def test_merge_adopts_and_reduces(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("shared").inc(1)
        b.counter("shared").inc(2)
        b.gauge("only_b").set(5)
        b.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        a.merge(b)
        assert a.value("shared") == 3
        assert a.value("only_b") == 5
        assert a.get("h").count == 1

    def test_merge_kind_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m")
        b.gauge("m")
        with pytest.raises(MergeError):
            a.merge(b)

    def test_snapshot_roundtrip_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c", "help c").inc(2)
        registry.gauge("g").set(-1)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        restored = MetricsRegistry.from_snapshot(snapshot)
        assert restored.as_dict() == registry.as_dict()
        assert restored.get("c").help == "help c"

    def test_merge_snapshot_sums(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.merge_snapshot(b.snapshot())
        assert a.value("c") == 3

    def test_as_dict_histogram_shape(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        view = registry.as_dict()["h"]
        assert view["count"] == 1
        assert view["buckets"] == {"1.0": 1, "+Inf": 1}


class TestExposition:
    def build(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs processed").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("latency", "seconds", buckets=(0.1, 1.0)).observe(0.5)
        return registry

    def test_render_structure(self):
        text = render_text(self.build())
        assert "# HELP jobs_total jobs processed" in text
        assert "# TYPE jobs_total counter" in text
        assert "jobs_total 3" in text
        # no HELP line for the help-less gauge, TYPE always present
        assert "# HELP depth" not in text
        assert "# TYPE depth gauge" in text
        assert 'latency_bucket{le="0.1"} 0' in text
        assert 'latency_bucket{le="1"} 1' in text
        assert 'latency_bucket{le="+Inf"} 1' in text
        assert "latency_sum 0.5" in text
        assert "latency_count 1" in text

    def test_parse_roundtrip(self):
        text = render_text(self.build())
        samples = parse_text(text)
        assert samples["jobs_total"] == 3.0
        assert samples['latency_bucket{le="+Inf"}'] == 1.0

    def test_validate_counts_families_and_samples(self):
        families, samples = validate_text(render_text(self.build()))
        assert families == 3
        assert samples == 7  # 1 counter + 1 gauge + (3 buckets + sum + count)

    def test_validate_rejects_duplicate_type(self):
        with pytest.raises(ValueError):
            validate_text("# TYPE a counter\n# TYPE a counter\na 1\n")

    def test_validate_rejects_duplicate_help(self):
        with pytest.raises(ValueError):
            validate_text("# HELP a x\n# HELP a y\n# TYPE a counter\na 1\n")

    def test_validate_rejects_untyped_sample(self):
        with pytest.raises(ValueError):
            validate_text("a 1\n")

    def test_parse_rejects_duplicate_sample(self):
        with pytest.raises(ValueError):
            parse_text("# TYPE a counter\na 1\na 2\n")

    def test_parse_rejects_garbage_value(self):
        with pytest.raises(ValueError):
            parse_text("a banana\n")

    def test_registry_render_text_matches_module(self):
        registry = self.build()
        assert registry.render_text() == render_text(registry)


class TestPhaseRows:
    def test_registry_and_scraped_samples_give_the_same_rows(self):
        from repro.obs import PhaseProfiler, phase_rows
        from repro.obs.profile import phase_rows_from_samples

        registry = MetricsRegistry()
        profiler = PhaseProfiler(registry)
        for seconds in (0.002, 0.002, 0.002, 9.0):  # 9 s: past the last finite bucket
            profiler.observe("merge", seconds)
        for seconds in (0.0004, 0.03):
            profiler.observe("window", seconds)
        rows = phase_rows(registry)
        assert [row["phase"] for row in rows] == ["merge", "window"]
        assert rows[0]["p50"] == 0.0025
        assert rows[0]["p99"] == float("inf")
        assert rows == phase_rows_from_samples(parse_text(render_text(registry)))
