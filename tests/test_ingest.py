"""Tests for the parallel write/ingest pipeline.

The contract under test: batched ingest (``write_tiles`` / ``load_array``)
and parallel encode (``io_workers > 1``) produce **byte-identical** page
files, blob placements, and stored bytes to the serial per-tile path —
only the transaction boundaries differ (one WAL commit and one fsync per
batch instead of per tile).  Coalesced page I/O must not change any
modelled read charge, and a crash mid-batch must recover to a whole-batch
boundary.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.core.order import shifted_key, z_order_key
from repro.storage.catalog import (
    PAGES_NAME,
    create_database,
    open_database,
    save_database,
)
from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.storage.fsck import fsck_database
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from tests.counted import counted

CUBE = mdd_type("IngestCube", "long", "[0:127,0:127]")
REGION = MInterval.parse("[0:127,0:127]")
TILE_BYTES = 8 * 1024  # 3x3 grid of tiles over the cube


def cube_data():
    return ((np.indices((128, 128)).sum(axis=0) % 97) * 5).astype(np.int32)


def tile_batch(database, data=None):
    """The cube's tiles, pre-sorted by the database's clustering order."""
    if data is None:
        data = cube_data()
    spec = RegularTiling(TILE_BYTES).tile(REGION, CUBE.cell_size)
    ordered = sorted(spec.tiles, key=lambda d: database.tile_key(d.lowest))
    return [Tile(d, data[d.to_slices((0, 0))]) for d in ordered]


def ingest(directory, mode, **database_kwargs):
    """Build one file-backed database via the named ingest mode."""
    database = create_database(
        directory, durability="wal+fsync", compression=True, **database_kwargs
    )
    obj = database.create_object("ingest", CUBE, "cube")
    if mode == "serial":
        for tile in tile_batch(database):
            obj.insert_tile(tile)
    elif mode == "batched":
        obj.write_tiles(tile_batch(database))
    elif mode == "load":
        obj.load_array(cube_data(), RegularTiling(TILE_BYTES))
    else:  # pragma: no cover - test bug
        raise AssertionError(mode)
    stored = obj.stored_bytes()
    placements = [
        (str(e.domain), e.codec, database.store.record(e.blob_id).pages.start)
        for e in obj.tile_entries()
    ]
    save_database(database, directory)  # retire the WAL so fsck is clean
    database.close()
    return stored, placements


def pages_digest(directory):
    return hashlib.sha256((Path(directory) / PAGES_NAME).read_bytes()).hexdigest()


class TestIngestIdentity:
    """Satellite: serial vs batched vs parallel page files are identical."""

    def test_modes_byte_identical(self, tmp_path):
        outcomes = {}
        for mode, kwargs in (
            ("serial", {}),
            ("batched", {}),
            ("load", {}),
            ("parallel", {"io_workers": 4}),
        ):
            directory = tmp_path / mode
            real_mode = "load" if mode == "parallel" else mode
            stored, placements = ingest(directory, real_mode, **kwargs)
            report = fsck_database(directory)
            assert report.ok, f"{mode}: {report.issues}"
            outcomes[mode] = (stored, placements, pages_digest(directory))
        reference = outcomes["serial"]
        for mode, outcome in outcomes.items():
            assert outcome == reference, f"{mode} diverged from serial"

    def test_z_order_clustering_identical_across_modes(self, tmp_path):
        key = shifted_key(z_order_key, (0, 0))
        a = ingest(tmp_path / "a", "serial", tile_key=key)
        b = ingest(tmp_path / "b", "load", tile_key=key, io_workers=4)
        assert a == b
        assert pages_digest(tmp_path / "a") == pages_digest(tmp_path / "b")

    def test_reopened_batched_ingest_reads_back(self, tmp_path):
        ingest(tmp_path / "db", "batched")
        database = open_database(tmp_path / "db")
        array, _ = database.collection("ingest")["cube"].read(REGION)
        assert array.tobytes() == cube_data().tobytes()
        database.close()


class TestGroupCommit:
    """Satellite: one WAL commit and one fsync per batch, not per tile."""

    def test_batched_commit_amortizes_fsync(self, tmp_path):
        database = create_database(
            tmp_path / "batched", durability="wal+fsync", compression=True
        )
        obj = database.create_object("ingest", CUBE, "cube")
        tiles = tile_batch(database)
        with counted() as delta:
            obj.write_tiles(tiles)
        assert delta["wal.commits"] == 1
        assert delta["wal.fsyncs"] == 1
        database.close()

    def test_serial_commits_once_per_tile(self, tmp_path):
        database = create_database(
            tmp_path / "serial", durability="wal+fsync", compression=True
        )
        obj = database.create_object("ingest", CUBE, "cube")
        tiles = tile_batch(database)
        with counted() as delta:
            for tile in tiles:
                obj.insert_tile(tile)
        assert delta["wal.commits"] == len(tiles)
        assert delta["wal.fsyncs"] == len(tiles)
        database.close()

    def test_load_array_is_one_transaction(self, tmp_path):
        database = create_database(
            tmp_path / "load", durability="wal+fsync", compression=True
        )
        obj = database.create_object("ingest", CUBE, "cube")
        with counted() as delta:
            obj.load_array(cube_data(), RegularTiling(TILE_BYTES))
        # one commit for the tiles + object_domain meta record together
        assert delta["wal.commits"] == 1
        assert delta["wal.fsyncs"] == 1
        database.close()


class TestCoalescedWrites:
    def test_batched_flush_merges_adjacent_pages(self, tmp_path):
        runs = obs.counter("io.coalesced.write_runs")
        blobs = obs.counter("io.coalesced.write_blobs")
        before = (runs.value, blobs.value)
        database = create_database(
            tmp_path / "db", durability="wal+fsync", compression=True
        )
        obj = database.create_object("ingest", CUBE, "cube")
        tiles = tile_batch(database)
        obj.write_tiles(tiles)
        database.close()
        # fresh contiguous allocation: the whole batch is one write run
        assert runs.value == before[0] + 1
        assert blobs.value == before[1] + len(tiles)

    def test_serial_inserts_never_coalesce(self, tmp_path):
        runs = obs.counter("io.coalesced.write_runs")
        before = runs.value
        database = create_database(
            tmp_path / "db", durability="wal+fsync", compression=True
        )
        obj = database.create_object("ingest", CUBE, "cube")
        for tile in tile_batch(database):
            obj.insert_tile(tile)
        database.close()
        assert runs.value == before  # one blob per flush: nothing to merge

    def test_data_write_charges_recorded_outside_read_clock(self, tmp_path):
        database = create_database(
            tmp_path / "db", durability="wal+fsync", compression=True
        )
        obj = database.create_object("ingest", CUBE, "cube")
        database.reset_clock()
        with counted() as delta:
            obj.write_tiles(tile_batch(database))
        assert delta["disk.data_writes"] >= 1
        assert delta["disk.pages_written"] > 0
        assert delta["disk.data_write_ms"] > 0.0
        assert delta["disk.model_ms"] == database.disk.time_ms == 0.0  # never t_o
        database.close()


class TestCoalescedReads:
    def test_charges_match_uncoalesced_pool_path(self):
        # No pool: every miss is read ahead in page runs.  A pool too
        # small to admit anything reads the same misses through its
        # per-blob lookups.  The modelled charges must be identical.
        coalesced_db = Database(compression=True)
        per_blob_db = Database(compression=True, buffer_bytes=1)
        results = {}
        for name, database in (
            ("coalesced", coalesced_db), ("per_blob", per_blob_db)
        ):
            obj = database.create_object("ingest", CUBE, "cube")
            obj.load_array(cube_data(), RegularTiling(TILE_BYTES))
            database.reset_clock()
            array, timing = obj.read(REGION)
            results[name] = (array.tobytes(), timing)
        a, ta = results["coalesced"]
        b, tb = results["per_blob"]
        assert a == b
        assert ta.t_o == tb.t_o
        assert ta.bytes_read == tb.bytes_read
        assert ta.pages_read == tb.pages_read
        assert ta.tiles_read == tb.tiles_read

    def test_coalesced_read_detects_corruption(self, tmp_path):
        from repro.core.errors import ChecksumError

        ingest(tmp_path / "db", "batched")
        database = open_database(tmp_path / "db")
        entries = database.collection("ingest")["cube"].tile_entries()
        record = database.store.record(entries[len(entries) // 2].blob_id)
        offset = record.pages.start * database.store.page_size + 1
        database.close()
        pages = tmp_path / "db" / PAGES_NAME
        raw = bytearray(pages.read_bytes())
        raw[offset] ^= 0x40  # inside a stored payload, not page slack
        pages.write_bytes(bytes(raw))
        database = open_database(tmp_path / "db")
        with pytest.raises(ChecksumError):
            database.collection("ingest")["cube"].read(REGION)
        database.close()


class TestWriteThroughAdmission:
    def test_load_warms_cache_and_counts_metric(self):
        metric = obs.counter("cache.decoded.write_throughs")
        before = metric.value
        database = Database(compression=True, decoded_cache_bytes=8 << 20)
        obj = database.create_object("ingest", CUBE, "cube")
        obj.load_array(cube_data(), RegularTiling(TILE_BYTES))
        admitted = metric.value - before
        assert admitted == len(obj.tile_entries())
        _, timing = obj.read(REGION)
        assert timing.decoded_hits == timing.tiles_read
        assert timing.t_o == 0.0

    def test_update_readmits_fresh_cells(self):
        database = Database(decoded_cache_bytes=8 << 20)
        obj = database.create_object("ingest", CUBE, "cube")
        obj.load_array(cube_data(), RegularTiling(TILE_BYTES))
        obj.update(MInterval.parse("[0:0,0:0]"), np.array([[7]], np.int32))
        fresh, timing = obj.read(MInterval.parse("[0:15,0:15]"))
        assert fresh[0, 0] == 7
        assert timing.decoded_hits >= 1 and timing.decoded_misses == 0

    def test_tiny_budget_rejects_admission_safely(self):
        database = Database(decoded_cache_bytes=64)  # smaller than any tile
        obj = database.create_object("ingest", CUBE, "cube")
        obj.load_array(cube_data(), RegularTiling(TILE_BYTES))
        assert len(database.decoded_cache) == 0
        array, timing = obj.read(REGION)
        assert array.tobytes() == cube_data().tobytes()
        assert timing.decoded_hits == 0


class TestCrashSmoke:
    """Satellite: a crash mid-batch recovers to a whole-batch boundary."""

    PAGE_SIZE = 128
    DOMAIN = MInterval.parse("[0:31,0:31]")

    def _mdd_type(self):
        return mdd_type("CrashImg", "char", str(self.DOMAIN))

    def _data(self):
        return (np.arange(32 * 32) % 251).astype(np.uint8).reshape(32, 32)

    def _batch(self, database):
        data = self._data()
        spec = RegularTiling(256).tile(self.DOMAIN, 1)
        ordered = sorted(
            spec.tiles, key=lambda d: database.tile_key(d.lowest)
        )
        return [Tile(d, data[d.to_slices((0, 0))]) for d in ordered]

    def _run(self, directory, injector=None):
        database = create_database(
            directory,
            durability="wal+fsync",
            page_size=self.PAGE_SIZE,
            injector=injector,
        )
        obj = database.create_object("c", self._mdd_type(), "o")
        setup_bytes = injector.bytes_written if injector else 0
        obj.write_tiles(self._batch(database))
        database.close()
        return setup_bytes

    def test_crash_mid_batch_recovers_all_or_nothing(self, tmp_path):
        injector = FaultInjector()
        setup_bytes = self._run(tmp_path / "clean", injector)
        total = injector.bytes_written
        expected_tiles = len(self._batch(Database()))
        span = total - setup_bytes
        offsets = [
            setup_bytes + (span * i) // 16 for i in range(17)
        ]
        for offset in sorted(set(offsets)):
            directory = tmp_path / f"crash_{offset}"
            try:
                self._run(directory, FaultInjector(
                    FaultPlan(crash_at_byte=offset)
                ))
                crashed = False
            except SimulatedCrash:
                crashed = True
            database = open_database(directory)  # recovery replays the WAL
            obj = database.collections.get("c", {}).get("o")
            count = len(obj.tile_entries()) if obj is not None else 0
            assert count in (0, expected_tiles), (
                f"crash at {offset}: {count} of {expected_tiles} tiles "
                f"survived — batch atomicity broken"
            )
            if count:
                array, _ = obj.read(self.DOMAIN)
                assert array.tobytes() == self._data().tobytes()
            elif not crashed:  # pragma: no cover - sanity
                raise AssertionError("clean run lost its batch")
            database.close()
            report = fsck_database(directory)
            assert report.ok, f"crash at {offset}: {report.issues}"
