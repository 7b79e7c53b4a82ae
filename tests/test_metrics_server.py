"""Metrics endpoint, Prometheus exporter hardening, and the format checker.

The process's one metrics endpoint is the tile server's ``/metrics`` and
``/healthz`` (``repro serve``)."""

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.export import (
    escape_label_value,
    prometheus_name,
    prometheus_text,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.promcheck import validate
from repro.serve import TileServer
from repro.storage.tilestore import Database


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# Satellite: exporter hardening
# ----------------------------------------------------------------------

class TestEscaping:
    def test_label_value_escapes(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_malformed_names_sanitized(self):
        # The default "repro_" prefix makes a leading digit legal.
        assert prometheus_name("9lives") == "repro_9lives"
        assert prometheus_name("a-b.c") == "repro_a_b_c"
        # Without a prefix the sanitizer must repair the first char itself.
        assert prometheus_name("9lives", prefix="").startswith("_")
        assert prometheus_name("", prefix="") == "_"
        # Unicode letters are not legal Prometheus name chars.
        name = prometheus_name("latência.ms")
        problems = validate(f"# TYPE {name} counter\n{name} 1\n")
        assert problems == []

    def test_unicode_label_value_survives_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("häß.y", "unicode família").inc(2)
        text = prometheus_text(reg)
        assert validate(text) == []
        assert "unicode fam" in text


class TestCollisionHandling:
    def test_same_kind_collision_gets_name_label(self):
        reg = MetricsRegistry()
        reg.counter("a.b", "first").inc(1)
        reg.counter("a_b", "second").inc(2)
        text = prometheus_text(reg)
        assert validate(text) == []
        # One TYPE/HELP per family even with two source metrics.
        assert text.count("# TYPE repro_a_b counter") == 1
        assert sum(
            1
            for line in text.splitlines()
            if line.startswith("# HELP repro_a_b")
        ) == 1
        # The collided series is distinguished by a name label.
        assert 'repro_a_b{name="' in text

    def test_kind_conflict_is_skipped_with_comment(self):
        reg = MetricsRegistry()
        reg.counter("x.y").inc(1)
        reg.gauge("x_y").set(5)
        text = prometheus_text(reg)
        assert validate(text) == []
        assert "# repro: skipped" in text
        # Exactly one of the two made it out as a sample.
        samples = [
            line
            for line in text.splitlines()
            if line.startswith("repro_x_y") and not line.startswith("#")
        ]
        assert len(samples) == 1

    def test_histogram_collision_keeps_valid_buckets(self):
        reg = MetricsRegistry()
        reg.histogram("h.ms", buckets=(1.0, 2.0)).observe(1.5)
        reg.histogram("h_ms", buckets=(1.0, 2.0)).observe(0.5)
        text = prometheus_text(reg)
        assert validate(text) == []
        assert text.count("# TYPE repro_h_ms histogram") == 1

    def test_output_is_stable_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.counter("a.first").inc()
        reg.gauge("m.middle").set(1)
        first = prometheus_text(reg)
        second = prometheus_text(reg)
        assert first == second
        samples = [
            line.split("{")[0].split(" ")[0]
            for line in first.splitlines()
            if line and not line.startswith("#")
        ]
        assert samples == sorted(samples)


# ----------------------------------------------------------------------
# Satellite/CI: the pure-python exposition checker
# ----------------------------------------------------------------------

class TestPromcheck:
    def test_valid_text_passes(self):
        text = (
            "# HELP up Scrape health\n"
            "# TYPE up gauge\n"
            'up{job="repro",quote="say \\"hi\\""} 1\n'
            "# TYPE lat histogram\n"
            'lat_bucket{le="1"} 3\n'
            'lat_bucket{le="+Inf"} 5\n'
            "lat_sum 4.5\n"
            "lat_count 5\n"
        )
        assert validate(text) == []

    def test_catches_malformed_input(self):
        bad = (
            "# TYPE foo histogram\n"
            'foo_bucket{le="1"} 2\n'
            "foo_bucket 3\n"          # missing le
            "foo_count 5\n"           # no +Inf bucket either
            "# TYPE foo histogram\n"  # duplicate + after sample
            "9name 1\n"               # illegal name
            'ok{l="x} 1\n'            # unterminated label value
            "ok2 notanumber\n"        # bad value
        )
        problems = validate(bad)
        joined = "\n".join(problems)
        assert "missing 'le'" in joined
        assert "duplicate TYPE" in joined
        assert "after its first sample" in joined
        assert "illegal metric name '9name'" in joined
        assert "unterminated" in joined
        assert "bad value" in joined
        assert "+Inf" in joined

    def test_bucket_count_consistency(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 3\n'
            "h_count 5\n"
        )
        problems = validate(text)
        assert any("!= _count" in p for p in problems)

    def test_live_registry_output_validates(self):
        obs.counter("pc.hits").inc(3)
        obs.histogram("pc.ms").observe(2.0)
        obs.gauge("pc.depth").set(-1.5)
        assert validate(prometheus_text(obs.registry)) == []


# ----------------------------------------------------------------------
# The metrics endpoint, on the tile server
# ----------------------------------------------------------------------

def _get(url: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read()


def _endpoint(port: int = 0) -> TileServer:
    """A tile server over an empty database: its metrics endpoint."""
    return TileServer(Database(), port=port)


class TestMetricsEndpoint:
    def test_endpoints(self):
        obs.counter("server.test.hits", "endpoint test").inc(7)
        with _endpoint(port=0) as server:
            base = f"http://127.0.0.1:{server.port}"

            status, body = _get(base + "/metrics")
            assert status == 200
            text = body.decode("utf-8")
            assert validate(text) == []
            assert "server_test_hits 7" in text

            status, body = _get(base + "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok"
            assert health["objects"] == 0

            for path in ("/nothing-here", "/debug/spans"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(base + path)
                assert excinfo.value.code == 404

    def test_scrape_reflects_live_updates(self):
        counter = obs.counter("server.live.count")
        with _endpoint(port=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            _, body = _get(base + "/metrics")
            assert "server_live_count 0" in body.decode()
            counter.inc(5)
            _, body = _get(base + "/metrics")
            assert "server_live_count 5" in body.decode()

    def test_stop_is_idempotent_and_restartable(self):
        server = _endpoint(port=0)
        server.start()
        with pytest.raises(RuntimeError):
            server.start()
        port = server.port
        assert port != 0
        server.stop()
        server.stop()  # second stop is a no-op
        assert not server.running
        # A stopped server can be started again (fresh socket).
        server.start()
        assert server.running
        server.stop()

    def test_cli_explain_command(self, capsys):
        """The EXPLAIN ANALYZE CLI exits 0 with reconciled output."""
        from repro.cli import main

        assert main(["explain", "a", "--scheme", "Reg32K"]) == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "exact" in out
        assert "within tolerance" in out
