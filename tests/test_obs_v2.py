"""Observability v2: quantiles, contention telemetry, reset
empty-equivalence, and the database's access log."""

import numpy as np
import pytest

from repro import obs
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.obs.metrics import MetricsRegistry
from repro.query.access import AccessKind
from repro.stats.log import AccessLog
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling

DOMAIN = MInterval.parse("[0:63,0:63]")
IMG = mdd_type("ObsV2Img", "char", str(DOMAIN))


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts enabled with a zeroed registry."""
    was_registry = obs.registry.enabled
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    obs.registry.enabled = was_registry


def _load(**kwargs) -> Database:
    database = Database(**kwargs)
    mdd = database.create_object("obsv2", IMG, "img")
    data = (np.indices((64, 64)).sum(axis=0) % 251).astype(np.uint8)
    mdd.load_array(data, RegularTiling(1024))
    return database


# ----------------------------------------------------------------------
# Satellite: Histogram.quantile
# ----------------------------------------------------------------------

class TestHistogramQuantile:
    def test_empty_histogram_estimates_zero(self):
        reg = MetricsRegistry()
        assert reg.histogram("h", buckets=(1.0, 2.0)).quantile(0.5) == 0.0

    def test_out_of_range_rejected(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_interpolates_within_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(10.0,))
        for _ in range(10):
            h.observe(5.0)
        # All mass in [0, 10); the median interpolates to the middle.
        assert h.quantile(0.5) == pytest.approx(5.0)

    def test_bimodal_distribution(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0, 4.0))
        for _ in range(50):
            h.observe(0.5)
        for _ in range(50):
            h.observe(3.0)
        # p50 exhausts the first bucket exactly at its upper bound.
        assert h.quantile(0.5) == pytest.approx(1.0)
        # p99 lands 98% into the (2, 4] bucket.
        assert h.quantile(0.99) == pytest.approx(2.0 + 2.0 * 0.98)

    def test_overflow_clamps_to_highest_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 8.0))
        for _ in range(4):
            h.observe(100.0)  # all in +Inf overflow
        assert h.quantile(0.9) == 8.0

    def test_snapshot_reports_p50_p99(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat.ms", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        data = reg.snapshot()["histograms"]["lat.ms"]
        assert data["p50"] == pytest.approx(h.quantile(0.5))
        assert data["p99"] == pytest.approx(h.quantile(0.99))

    def test_bench_artifacts_carry_quantiles(self):
        """Any artifact embedding obs.snapshot() now carries p50/p99."""
        obs.histogram("quant.check.ms").observe(3.0)
        snap = obs.snapshot()
        assert "p50" in snap["histograms"]["quant.check.ms"]
        assert "p99" in snap["histograms"]["quant.check.ms"]


# ----------------------------------------------------------------------
# Tentpole 2: contention and durability telemetry
# ----------------------------------------------------------------------

class TestContentionTelemetry:
    def test_wal_fsync_leader_metrics(self, tmp_path):
        from repro.storage.catalog import create_database

        database = create_database(
            tmp_path / "db", durability="wal+fsync"
        )
        mdd = database.create_object("obsv2", IMG, "img")
        data = (np.indices((64, 64)).sum(axis=0) % 251).astype(np.uint8)
        obs.reset()
        mdd.load_array(data, RegularTiling(1024))
        assert obs.registry.value("wal.fsync_leaders") > 0
        fsync_hist = obs.registry.get("wal.fsync_ms")
        assert fsync_hist is not None and fsync_hist.count > 0
        database.close()

    def test_mvcc_live_versions_gauge(self):
        database = _load()
        assert obs.registry.value("mvcc.live_versions") == 1.0
        database.create_object("obsv2", IMG, "img2")
        assert obs.registry.value("mvcc.live_versions") == 2.0

    def test_mvcc_pin_floor_tracks_oldest_snapshot(self):
        database = _load()
        mdd = database.collection("obsv2")["img"]
        with database.snapshot() as snap:
            pinned = obs.registry.value("mvcc.pin_floor")
            with database.transaction():
                mdd.update(
                    MInterval.parse("[0:3,0:3]"),
                    np.ones((4, 4), dtype=np.uint8),
                )
            # The open snapshot holds the floor while epochs advance.
            assert obs.registry.value("mvcc.pin_floor") == pinned
            assert obs.registry.value("mvcc.epoch") > pinned
        del snap

    def test_coalesced_write_run_length_histogram(self, tmp_path):
        from repro.storage.catalog import create_database

        obs.reset()
        database = create_database(tmp_path / "db", durability="wal")
        mdd = database.create_object("obsv2", IMG, "img")
        data = (np.indices((64, 64)).sum(axis=0) % 251).astype(np.uint8)
        mdd.load_array(data, RegularTiling(1024))
        database.close()
        hist = obs.registry.get("io.coalesced.write_run_length")
        assert hist is not None and hist.count > 0


# ----------------------------------------------------------------------
# Satellite: disable()/reset() cover every new instrument
# ----------------------------------------------------------------------

def _full_workload(tmp_path):
    """Touch every instrument family: latch, WAL, MVCC, ring, pipeline."""
    from repro.storage.catalog import create_database

    database = create_database(
        tmp_path / "db", durability="wal+fsync", io_workers=2
    )
    mdd = database.create_object("obsv2", IMG, "img")
    data = (np.indices((64, 64)).sum(axis=0) % 251).astype(np.uint8)
    mdd.load_array(data, RegularTiling(1024))
    mdd.read(DOMAIN)
    with database.transaction():
        mdd.update(
            MInterval.parse("[0:3,0:3]"), np.zeros((4, 4), dtype=np.uint8)
        )
    with database.snapshot():
        mdd.read(MInterval.parse("[0:7,0:7]"))
    # pushdown aggregate: touches pipeline.partial_aggregates (the
    # predicate forces per-tile decode)
    from repro.index.zonemap import CellPredicate

    mdd.aggregate_push(DOMAIN, "add_cells", predicate=CellPredicate(">", 3))
    return database


class TestResetEmptyEquivalence:
    def test_registry_empty_equivalent_after_reset(self, tmp_path):
        database = _full_workload(tmp_path)
        snap = obs.snapshot()
        assert any(v for v in snap["counters"].values())
        assert any(h["count"] for h in snap["histograms"].values())

        database.reset_clock()
        obs.reset()
        snap = obs.snapshot()
        assert all(v == 0 for v in snap["counters"].values())
        assert all(v == 0 for v in snap["gauges"].values())
        assert all(h["count"] == 0 for h in snap["histograms"].values())
        assert all(
            h["p50"] == 0.0 and h["p99"] == 0.0
            for h in snap["histograms"].values()
        )
        assert len(database.access_log) == 0
        assert database.access_log.total_recorded == 0
        database.close()

    def test_disable_freezes_every_instrument(self, tmp_path):
        database = _full_workload(tmp_path)
        database.reset_clock()
        obs.reset()
        obs.disable()
        mdd = database.collection("obsv2")["img"]
        mdd.read(DOMAIN)
        with database.transaction():
            mdd.update(
                MInterval.parse("[0:3,0:3]"),
                np.ones((4, 4), dtype=np.uint8),
            )
        snap = obs.snapshot()
        assert all(v == 0 for v in snap["counters"].values())
        assert all(h["count"] == 0 for h in snap["histograms"].values())
        # The switch freezes the registry only: the access log is an
        # input of the advisor and the rebalancer, and it records.
        assert [e.op for e in database.access_log.events()] == ["read", "write"]
        database.close()


# ----------------------------------------------------------------------
# The access log feeding the tuner and the advisor
# ----------------------------------------------------------------------

class TestAccessRing:
    def test_reads_and_writes_recorded(self):
        database = _load()
        mdd = database.collection("obsv2")["img"]
        database.access_log.clear()
        region = MInterval.parse("[0:15,0:15]")
        mdd.read(region)
        with database.transaction():
            mdd.update(region, np.ones((16, 16), dtype=np.uint8))
        ops = [e.op for e in database.access_log.events()]
        assert ops == ["read", "write"]
        read = database.access_log.events()[0]
        assert read.collection == "obsv2"
        assert read.object == "img"
        assert read.region == region
        assert read.kind is AccessKind.SUBARRAY
        assert read.cells == region.cell_count
        assert read.cost_ms > 0

    def test_load_records_write_hull(self):
        database = _load()
        events = [e for e in database.access_log.events() if e.op == "write"]
        assert events
        assert events[-1].region == DOMAIN
        assert events[-1].kind is None

    def test_delete_region_recorded(self):
        database = _load()
        mdd = database.collection("obsv2")["img"]
        database.access_log.clear()
        # Region must fully contain at least one 32x32 tile to drop it.
        dropped = mdd.delete_region(MInterval.parse("[0:31,0:31]"))
        assert dropped > 0
        assert any(e.op == "delete" for e in database.access_log.events())

    def test_ring_is_bounded_and_counts_drops(self):
        database = _load()
        database.access_log = AccessLog(4)
        mdd = database.collection("obsv2")["img"]
        for _ in range(6):
            mdd.read(MInterval.parse("[0:3,0:3]"))
        assert len(database.access_log) == 4
        assert database.access_log.dropped == 2
        assert database.access_log.total_recorded == 6
        assert [e.seq for e in database.access_log.events()] == [3, 4, 5, 6]

    def test_epoch_attribution_snapshot_vs_live(self):
        database = _load()
        mdd = database.collection("obsv2")["img"]
        with database.snapshot() as snap:
            with database.transaction():
                mdd.update(
                    MInterval.parse("[0:3,0:3]"),
                    np.ones((4, 4), dtype=np.uint8),
                )
            database.access_log.clear()
            snap.read("obsv2", "img", MInterval.parse("[0:3,0:3]"))
            mdd.read(MInterval.parse("[0:3,0:3]"))
        events = database.access_log.events()
        snap_epoch, live_epoch = events[0].epoch, events[1].epoch
        # The snapshot pinned the pre-update epoch; the live read sees
        # the committed one.
        assert live_epoch > snap_epoch

    def test_flush_jsonl_round_trip(self, tmp_path):
        database = _load()
        mdd = database.collection("obsv2")["img"]
        mdd.read(MInterval.parse("[0:3,*:*]"))
        before = database.access_log.events()
        path = tmp_path / "access.jsonl"
        written = database.access_log.flush_jsonl(path, clear=True)
        assert written == len(before) > 0
        assert len(database.access_log) == 0
        assert AccessLog.load(path).events() == before

    def test_workload_feeds_tuner_directly(self):
        from repro.stats.tuner import choose_max_tile_size

        database = _load()
        mdd = database.collection("obsv2")["img"]
        database.access_log.clear()
        for spec in ("[0:15,0:63]", "[16:31,0:63]", "[32:47,0:63]"):
            mdd.read(MInterval.parse(spec))
        workload = database.access_log.regions("img")
        assert len(workload) == 3
        assert all(isinstance(r, MInterval) for r in workload)
        result = choose_max_tile_size(
            lambda size: RegularTiling(size),
            DOMAIN,
            cell_size=1,
            workload=workload,
            candidates=(256, 1024, 4096),
        )
        assert result.best_size in (256, 1024, 4096)

    def test_reads_carry_their_access_kind(self):
        database = _load()
        mdd = database.collection("obsv2")["img"]
        database.access_log.clear()
        mdd.read(MInterval.parse("[0:15,0:15]"))
        mdd.read(MInterval.parse("[3:3,0:63]"))  # degenerate axis
        mdd.read(MInterval.parse("[0:15,*:*]"))
        mdd.read(DOMAIN)
        assert [a.kind for a in database.access_log.accesses("img")] == [
            AccessKind.SUBARRAY, AccessKind.SECTION, AccessKind.PARTIAL, AccessKind.WHOLE,
        ]
        assert database.access_log.regions("img")[2] == MInterval.parse("[0:15,0:63]")
