"""Unit tests for the observability layer: registry and exporter."""

import pytest

from repro import obs
from repro.bench import obsbench
from repro.bench.obsbench import noop_instruments
from repro.obs.export import prometheus_name, prometheus_text
from repro.obs.metrics import MetricsRegistry


class TestRegistryArithmetic:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc()
        c.inc(5)
        c.inc(0.5)
        assert c.value == 6.5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12

    def test_get_or_create_shares_instances(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_reset_zeroes_but_keeps_registrations(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(7)
        reg.reset()
        assert c.value == 0
        assert reg.get("c") is c

    def test_disable_stops_mutations(self):
        """``bench obs``'s floor empties every mutating method, and only
        while it is entered."""
        reg = MetricsRegistry()
        c = reg.counter("c")
        g = reg.gauge("g")
        h = reg.histogram("h", buckets=(1.0,))
        with noop_instruments():
            c.inc()
            g.set(5)
            g.inc()
            g.dec(2)
            h.observe(0.5)
            h.observe_many([0.5, 2.0])
        assert c.value == 0 and g.value == 0 and h.count == 0
        c.inc()
        h.observe_many([0.5, 2.0])
        assert c.value == 1 and h.count == 2

    def test_observe_many_equals_one_observe_per_value(self):
        values = [0.05, 0.1, 0.3, 1.0, 7.5, 40.0, 1e6, 0.1]
        reg = MetricsRegistry()
        one, many = reg.histogram("one"), reg.histogram("many")
        for value in values:
            one.observe(value)
        many.observe_many(values)
        many.observe_many([])
        assert many.count == one.count == len(values)
        assert many.sum == one.sum
        assert many.bucket_counts() == one.bucket_counts()

    def test_value_lookup_defaults_to_zero(self):
        reg = MetricsRegistry()
        assert reg.value("nope") == 0

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(3)
        reg.histogram("h", buckets=(1.0, 10.0)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 3}
        assert snap["histograms"]["h"]["count"] == 1


class TestHistogramBucketing:
    def test_values_land_in_first_bound_at_or_above(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 10.0, 99.0, 1000.0):
            h.observe(value)
        cumulative = dict(h.bucket_counts())
        # <=1: 0.5 and exactly 1.0;  <=10: + 5.0 and 10.0;  <=100: + 99.0
        assert cumulative[1.0] == 2
        assert cumulative[10.0] == 4
        assert cumulative[100.0] == 5
        assert cumulative[float("inf")] == 6

    def test_sum_and_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(10.0,))
        h.observe(2.0)
        h.observe(3.0)
        assert h.count == 2
        assert h.sum == pytest.approx(5.0)

    def test_buckets_sorted_and_validated(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(100.0, 1.0, 10.0))
        assert h.buckets == (1.0, 10.0, 100.0)
        with pytest.raises(ValueError):
            reg.histogram("dup", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("empty", buckets=())

    def test_reset(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0,))
        h.observe(0.5)
        h.reset()
        assert h.count == 0 and h.sum == 0.0
        assert all(count == 0 for _b, count in h.bucket_counts())


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry()
        reg.counter("disk.blob_reads", "help text").inc(3)
        reg.gauge("pool.used_bytes").set(512)
        h = reg.histogram("codec.decode_ms", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(20.0)
        return reg

    def test_prometheus_name_sanitised(self):
        assert prometheus_name("disk.blob_reads") == "repro_disk_blob_reads"
        assert prometheus_name("a-b c", prefix="x_") == "x_a_b_c"

    def test_prometheus_text(self):
        reg = self._populated()
        text = prometheus_text(reg)
        assert "# TYPE repro_disk_blob_reads counter" in text
        assert "repro_disk_blob_reads 3" in text
        assert "# HELP repro_disk_blob_reads help text" in text
        assert "# TYPE repro_pool_used_bytes gauge" in text
        assert '# TYPE repro_codec_decode_ms histogram' in text
        assert 'repro_codec_decode_ms_bucket{le="+Inf"} 2' in text
        assert "repro_codec_decode_ms_count 2" in text


class TestGlobalToggles:
    def test_disabled_context_restores_state(self):
        """The no-op floor puts every method back, even on an error."""
        def methods():
            return [vars(cls)[name] for cls, name in obsbench._INSTRUMENTS]

        live = methods()
        with pytest.raises(RuntimeError):
            with noop_instruments():
                assert methods() != live
                raise RuntimeError("inside the floor")
        assert methods() == live

    def test_module_shortcuts_hit_default_registry(self):
        c = obs.counter("test.obs.shortcut")
        assert obs.registry.get("test.obs.shortcut") is c
