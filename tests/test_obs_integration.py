"""Integration: instrumented storage stack reports consistent numbers."""

import json

import numpy as np
import pytest

from repro import obs
from repro.bench.obsbench import noop_instruments
from repro.bench.harness import run_benchmark
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.storage.catalog import create_database
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from tests.counted import counted

DOMAIN = MInterval.parse("[0:63,0:63]")
IMG = mdd_type("ObsImg", "char", str(DOMAIN))


def _load(buffer_bytes: int = 0) -> Database:
    database = Database(buffer_bytes=buffer_bytes)
    mdd = database.create_object("obs", IMG, "img")
    data = (np.indices((64, 64)).sum(axis=0) % 251).astype(np.uint8)
    mdd.load_array(data, RegularTiling(1024))
    return database


def _counters() -> dict:
    return dict(obs.snapshot()["counters"])


class TestCounterDeltas:
    def test_disk_reads_equal_pool_misses(self):
        """Every pool miss is exactly one disk BLOB read — and nothing
        else touches the disk when all reads go through the pool."""
        database = _load(buffer_bytes=64 * 1024)
        mdd = database.collection("obs")["img"]
        before = _counters()
        _data, timing = mdd.read(MInterval.parse("[0:31,0:31]"))
        _data, _timing2 = mdd.read(MInterval.parse("[0:31,0:31]"))
        after = _counters()
        delta = lambda name: after.get(name, 0) - before.get(name, 0)
        assert delta("disk.blob_reads") == delta("pool.misses")
        assert delta("pool.misses") == timing.tiles_read  # cold first read
        assert delta("pool.hits") == timing.tiles_read  # warm second read

    def test_registry_is_the_disk_clock_and_the_pool_misses(self, tmp_path):
        """The registry is the one account of the disk's activity: over a
        mixed sequence on a file store with a pool, ``disk.model_ms``
        moves with the disk's own clock, and every disk BLOB read is a
        pool miss."""
        database = create_database(tmp_path / "db", buffer_bytes=2048)
        mdd = database.create_object("obs", IMG, "img")
        data = (np.indices((64, 64)).sum(axis=0) % 251).astype(np.uint8)
        mdd.load_array(data, RegularTiling(1024))
        database.reset_clock()
        left, box = MInterval.parse("[0:63,0:31]"), MInterval.parse("[8:40,8:40]")
        clock = database.disk.time_ms
        with counted() as delta:
            mdd.read(left)  # cold
            mdd.read(left)  # warm
            mdd.read(DOMAIN)  # half warm, and evicting
            mdd.aggregate_push(DOMAIN, "add_cells")
            mdd.update(box, np.zeros(box.shape, dtype=np.uint8))
            mdd.read(box)
        assert delta["disk.model_ms"] == pytest.approx(
            database.disk.time_ms - clock, rel=0, abs=1e-6
        )
        assert delta["disk.blob_reads"] == delta["pool.misses"] > 0
        assert delta["pool.hits"] > 0 and delta["pool.evictions"] > 0
        database.close()

    def test_query_timing_reports_pool_activity(self):
        database = _load(buffer_bytes=64 * 1024)
        mdd = database.collection("obs")["img"]
        region = MInterval.parse("[0:31,0:31]")
        _data, cold = mdd.read(region)
        assert cold.pool_misses == cold.tiles_read > 0
        assert cold.pool_hits == 0
        _data, warm = mdd.read(region)
        assert warm.pool_hits == warm.tiles_read
        assert warm.pool_misses == 0
        assert warm.pool_hit_rate == 1.0
        assert warm.t_o == 0.0

    def test_tilestore_counters_move(self):
        before = _counters()
        database = _load()
        mdd = database.collection("obs")["img"]
        mdd.read(DOMAIN)
        after = _counters()
        assert after["tilestore.tiles_stored"] - before.get(
            "tilestore.tiles_stored", 0
        ) == mdd.tile_count
        assert after["tilestore.reads"] - before.get("tilestore.reads", 0) == 1
        assert (
            after["index.rplustree.searches"]
            > before.get("index.rplustree.searches", 0)
        )

    def test_disabled_layer_keeps_results_identical(self):
        database = _load()
        mdd = database.collection("obs")["img"]
        region = MInterval.parse("[3:40,7:50]")
        database.reset_clock()
        enabled_data, enabled_timing = mdd.read(region)
        before = _counters()
        with noop_instruments():
            database.reset_clock()
            disabled_data, disabled_timing = mdd.read(region)
        after = _counters()
        assert before == after  # nothing recorded while disabled
        assert np.array_equal(enabled_data, disabled_data)
        assert disabled_timing.t_o == pytest.approx(enabled_timing.t_o)
        assert disabled_timing.tiles_read == enabled_timing.tiles_read


class TestBenchArtifacts:
    QUERIES = {
        "hot": MInterval.parse("[10:29,40:59]"),
        "all": MInterval.parse("[*:*,*:*]"),
    }

    def test_artifact_written_and_loadable(self, tmp_path):
        data = (np.indices((64, 64)).sum(axis=0) % 200).astype(np.uint8)
        results = run_benchmark(
            {"Reg": RegularTiling(1024)},
            IMG,
            data,
            self.QUERIES,
            runs=2,
            label="unittest",
            artifact_dir=tmp_path,
        )
        path = tmp_path / "BENCH_unittest.json"
        assert results.artifact_path == str(path)
        artifact = json.loads(path.read_text())
        assert artifact["label"] == "unittest"
        assert artifact["runs"] == 2
        assert set(artifact["schemes"]) == {"Reg"}
        scheme = artifact["schemes"]["Reg"]
        assert set(scheme["queries"]) == set(self.QUERIES)
        timing = results.runs["Reg"].timings["hot"]
        assert scheme["queries"]["hot"]["t_o"] == pytest.approx(timing.t_o)
        assert scheme["queries"]["hot"]["tiles_read"] == timing.tiles_read
        assert scheme["load"]["tile_count"] == results.runs["Reg"].load.tile_count
        # Registry snapshot rides along and shows the disk activity.
        assert artifact["registry"]["counters"]["disk.blob_reads"] > 0

    def test_no_artifact_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_BENCH_ARTIFACTS", raising=False)
        data = (np.indices((64, 64)).sum(axis=0) % 200).astype(np.uint8)
        results = run_benchmark(
            {"Reg": RegularTiling(1024)}, IMG, data, self.QUERIES, runs=1
        )
        assert results.artifact_path is None
        assert list(tmp_path.iterdir()) == []

    def test_env_var_turns_artifacts_on(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ARTIFACTS", str(tmp_path / "arts"))
        data = (np.indices((64, 64)).sum(axis=0) % 200).astype(np.uint8)
        results = run_benchmark(
            {"Reg": RegularTiling(1024)}, IMG, data, self.QUERIES,
            runs=1, label="envtest",
        )
        assert results.artifact_path is not None
        assert (tmp_path / "arts" / "BENCH_envtest.json").exists()

    def test_warm_runs_report_pool_hits(self):
        data = (np.indices((64, 64)).sum(axis=0) % 200).astype(np.uint8)
        results = run_benchmark(
            {"Reg": RegularTiling(1024)},
            IMG,
            data,
            {"all": self.QUERIES["all"]},
            runs=2,
            warm=True,
            database_factory=lambda: Database(buffer_bytes=1024 * 1024),
        )
        timing = results.runs["Reg"].timings["all"]
        # First run cold (4 misses), second fully cached (4 hits): the
        # per-run average shows half of each.
        assert timing.pool_hits == 2
        assert timing.pool_misses == 2
        assert timing.tiles_read == 4


class TestCliObservability:
    def test_stats_live_fallback(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["stats", "--artifacts", str(tmp_path / "none")]) == 0
        out = capsys.readouterr().out
        assert "disk reads" in out
        assert "buffer pool" in out
        assert "disk.blob_reads" in out

    def test_stats_reads_latest_artifact(self, tmp_path, capsys):
        from repro.cli import main

        artifact = {
            "label": "fake", "runs": 1,
            "registry": {
                "counters": {"disk.blob_reads": 42, "pool.hits": 1,
                             "pool.misses": 3},
                "gauges": {},
                "histograms": {},
            },
        }
        (tmp_path / "BENCH_fake.json").write_text(json.dumps(artifact))
        assert main(["stats", "--artifacts", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "label=fake" in out
        assert "42 blobs" in out
        assert "25.0% hit rate" in out
