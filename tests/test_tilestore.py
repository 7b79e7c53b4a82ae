"""Unit tests for the persistent tile store (StoredMDD + Database)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.errors import DomainError, QueryError, StorageError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.rplustree import RPlusTreeIndex
from repro.storage.backends import FileBlobStore
from repro.query.timing import QueryTiming
from repro.shard import ShardedDatabase
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from repro.tiling.directional import DirectionalTiling


IMG = mdd_type("Img", "char", "[0:99,0:99]")


def checkerboard(shape, dtype=np.uint8):
    return ((np.indices(shape).sum(axis=0) % 7) * 13).astype(dtype)


def loaded_object(db=None, max_tile=1024):
    db = db or Database()
    obj = db.create_object("imgs", IMG, "img1")
    data = checkerboard((100, 100))
    obj.load_array(data, RegularTiling(max_tile))
    return db, obj, data


class TestLoad:
    def test_load_array_matches_spec(self):
        _db, obj, _data = loaded_object()
        assert obj.tile_count > 1
        assert obj.current_domain == MInterval.parse("[0:99,0:99]")

    def test_load_stats_report_phases(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "x")
        stats = obj.load_array(checkerboard((100, 100)), RegularTiling(2048))
        assert stats.tile_count == obj.tile_count
        assert stats.tiling_ms >= 0
        assert stats.store_ms > 0
        assert stats.bytes_stored == 100 * 100

    def test_insert_tile_overlap_rejected(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "x")
        obj.insert_tile(Tile.filled(MInterval.parse("[0:9,0:9]"), np.dtype(np.uint8)))
        with pytest.raises(DomainError):
            obj.insert_tile(
                Tile.filled(MInterval.parse("[5:14,5:14]"), np.dtype(np.uint8))
            )

    def test_insert_outside_definition_domain_rejected(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "x")
        with pytest.raises(DomainError):
            obj.insert_tile(
                Tile.filled(MInterval.parse("[95:104,0:9]"), np.dtype(np.uint8))
            )

    def test_gradual_growth(self):
        series = mdd_type("Series", "double", "[0:*,0:9]")
        db = Database()
        obj = db.create_object("s", series, "grow")
        for start in range(0, 100, 10):
            obj.insert_tile(
                Tile.filled(
                    MInterval.parse(f"[{start}:{start + 9},0:9]"),
                    np.dtype(np.float64),
                    value=float(start),
                )
            )
        assert obj.current_domain == MInterval.parse("[0:99,0:9]")
        data, _timing = obj.read(MInterval.parse("[35:44,0:9]"))
        assert (data[:5] == 30.0).all()
        assert (data[5:] == 40.0).all()


class TestRead:
    def test_read_matches_numpy(self):
        _db, obj, data = loaded_object()
        region = MInterval.parse("[17:43,58:91]")
        out, _timing = obj.read(region)
        assert (out == data[17:44, 58:92]).all()

    def test_read_open_bounds(self):
        _db, obj, data = loaded_object()
        out, _timing = obj.read(MInterval.parse("[5:9,*:*]"))
        assert (out == data[5:10, :]).all()

    def test_timing_components_populated(self):
        db, obj, _data = loaded_object()
        db.reset_clock()
        _out, timing = obj.read(MInterval.parse("[0:20,0:20]"))
        assert timing.t_o > 0
        assert timing.t_ix > 0
        assert timing.t_cpu > 0
        assert timing.tiles_read > 0
        assert timing.bytes_read > 0
        assert timing.cells_result == 21 * 21
        assert timing.cells_fetched >= timing.cells_result

    def test_timing_deterministic_model_part(self):
        db1, obj1, _ = loaded_object()
        db2, obj2, _ = loaded_object()
        region = MInterval.parse("[10:50,10:50]")
        db1.reset_clock()
        db2.reset_clock()
        _o1, t1 = obj1.read(region)
        _o2, t2 = obj2.read(region)
        assert t1.t_o == pytest.approx(t2.t_o)
        assert t1.pages_read == t2.pages_read
        assert t1.tiles_read == t2.tiles_read

    def test_exact_tiling_reads_only_needed(self):
        db = Database()
        cube_type = mdd_type("Cube", "ulong", "[1:60,1:100]")
        obj = db.create_object("c", cube_type, "x")
        data = np.arange(6000, dtype=np.uint32).reshape(60, 100)
        obj.load_array(
            data,
            DirectionalTiling(
                {0: (1, 27, 42, 60), 1: (1, 27, 35, 41, 59, 73, 89, 97, 100)},
                64 * 1024,
            ),
            origin=(1, 1),
        )
        region = MInterval.parse("[28:42,28:35]")
        out, timing = obj.read(region)
        assert (out == data[27:42, 27:35]).all()
        assert timing.read_amplification == 1.0

    def test_section_read(self):
        _db, obj, data = loaded_object()
        out, _timing = obj.read_section(0, 42)
        assert out.shape == (100,)
        assert (out == data[42]).all()

    def test_read_empty_raises(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "empty")
        with pytest.raises(QueryError):
            obj.read(MInterval.parse("[0:9,0:9]"))

    def test_virtual_tiles_read_defaults(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "virt")
        stats = obj.load_virtual(
            MInterval.parse("[0:99,0:99]"), RegularTiling(1024)
        )
        assert stats.tile_count == obj.tile_count
        out, timing = obj.read(MInterval.parse("[0:9,0:9]"))
        assert (out == 0).all()
        assert timing.t_o > 0  # pages are still charged

    def test_virtual_and_real_byte_accounting(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "virt2")
        obj.load_virtual(MInterval.parse("[0:99,0:99]"), RegularTiling(1024))
        assert obj.logical_bytes() == 10000
        assert obj.stored_bytes() == 10000


class TestAttach:
    def test_attach_reuses_blob(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "x")
        data = checkerboard((10, 10))
        tile = Tile(MInterval.parse("[0:9,0:9]"), data)
        blob_id = db.store.put(tile.to_bytes())
        obj.attach_tile(tile.domain, blob_id)
        assert len(db.store) == 1  # no copy was made
        out, _ = obj.read(tile.domain)
        assert (out == data).all()

    def test_attach_missing_blob_rejected(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "x")
        with pytest.raises(Exception):
            obj.attach_tile(MInterval.parse("[0:9,0:9]"), 99)

    def test_attach_size_mismatch_rejected(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "x")
        blob_id = db.store.put(b"short")
        with pytest.raises(StorageError):
            obj.attach_tile(MInterval.parse("[0:9,0:9]"), blob_id)

    def test_attach_overlap_rejected(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "x")
        tile = Tile.filled(MInterval.parse("[0:9,0:9]"), np.dtype(np.uint8))
        obj.insert_tile(tile)
        blob_id = db.store.put(tile.to_bytes())
        with pytest.raises(DomainError):
            obj.attach_tile(MInterval.parse("[5:14,5:14]"), blob_id)


class TestUpdateAndDrop:
    def test_update_roundtrip(self):
        _db, obj, data = loaded_object()
        region = MInterval.parse("[10:19,10:19]")
        patch = np.full((10, 10), 200, dtype=np.uint8)
        written = obj.update(region, patch)
        assert written == 100
        out, _ = obj.read(region)
        assert (out == 200).all()
        # neighbours untouched
        out2, _ = obj.read(MInterval.parse("[0:9,0:9]"))
        assert (out2 == data[0:10, 0:10]).all()

    def test_update_virtual_rejected(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "v")
        obj.load_virtual(MInterval.parse("[0:99,0:99]"), RegularTiling(1024))
        with pytest.raises(StorageError):
            obj.update(MInterval.parse("[0:9,0:9]"), np.zeros((10, 10), np.uint8))

    def test_noop_update_skips_blob_rewrite(self):
        db, obj, data = loaded_object()
        region = MInterval.parse("[10:19,10:19]")
        ids_before = sorted(entry.blob_id for entry in obj.tile_entries())
        written = obj.update(region, data[10:20, 10:20])  # values unchanged
        assert written == 100  # cells touched are still reported
        assert sorted(e.blob_id for e in obj.tile_entries()) == ids_before
        out, _ = obj.read(region)
        assert (out == data[10:20, 10:20]).all()

    def test_noop_update_keeps_pool_entry(self):
        db = Database(buffer_bytes=1 << 20)
        obj = db.create_object("imgs", IMG, "img1")
        data = checkerboard((100, 100))
        obj.load_array(data, RegularTiling(1024))
        region = MInterval.parse("[0:9,0:9]")
        obj.read(region)  # warm the pool
        obj.update(region, data[0:10, 0:10])  # no cell changes
        _, timing = obj.read(region)
        assert timing.pool_hits == timing.tiles_read > 0  # cache survived the update
        assert timing.t_o == 0.0

    def test_delete_region_uses_index_and_keeps_partials(self):
        db, obj, data = loaded_object(max_tile=1024)
        tiles_before = obj.tile_count
        # A region covering some tiles fully, clipping others.
        region = MInterval.parse("[0:40,0:40]")
        contained = sum(
            1
            for entry in obj.tile_entries()
            if region.contains(entry.domain)
        )
        assert 0 < contained < tiles_before
        dropped = obj.delete_region(region)
        assert dropped == contained
        assert obj.tile_count == tiles_before - contained
        # Partially overlapping tiles keep all their cells.
        out, _ = obj.read(MInterval.parse("[41:99,41:99]"))
        assert (out == data[41:100, 41:100]).all()

    def test_drop_releases_everything(self):
        db, obj, _data = loaded_object()
        blobs_before = len(db.store)
        obj.drop()
        assert obj.tile_count == 0
        assert obj.current_domain is None
        assert len(db.store) < blobs_before
        with pytest.raises(QueryError):
            obj.read(MInterval.parse("[0:9,0:9]"))


class TestDatabase:
    def test_collections(self):
        db = Database()
        db.create_collection("a")
        with pytest.raises(StorageError):
            db.create_collection("a")
        with pytest.raises(StorageError):
            db.collection("missing")

    def test_duplicate_object_rejected(self):
        db = Database()
        db.create_object("c", IMG, "x")
        with pytest.raises(StorageError):
            db.create_object("c", IMG, "x")

    def test_objects_listing(self):
        db = Database()
        db.create_object("c", IMG, "x")
        db.create_object("c", IMG, "y")
        assert {o.name for o in db.objects("c")} == {"x", "y"}

    def test_index_is_an_rplustree_on_the_store_pages(self):
        db = Database()
        obj = db.create_object("c", IMG, "x")
        obj.load_array(checkerboard((100, 100)), RegularTiling(1024))
        assert isinstance(obj.index, RPlusTreeIndex)
        assert obj.index.page_size == db.store.page_size
        out, _ = obj.read(MInterval.parse("[0:9,0:9]"))
        assert out.shape == (10, 10)

    def test_compression_enabled_roundtrip(self):
        db = Database(compression=True)
        obj = db.create_object("c", IMG, "x")
        data = np.zeros((100, 100), dtype=np.uint8)  # highly compressible
        obj.load_array(data, RegularTiling(1024))
        assert obj.stored_bytes() < obj.logical_bytes()
        out, _ = obj.read(MInterval.parse("[3:9,4:20]"))
        assert (out == 0).all()

    def test_compression_update_keeps_roundtrip(self):
        db = Database(compression=True)
        obj = db.create_object("c", IMG, "x")
        obj.load_array(np.zeros((100, 100), dtype=np.uint8), RegularTiling(4096))
        obj.update(
            MInterval.parse("[0:49,0:49]"),
            checkerboard((50, 50)),
        )
        out, _ = obj.read(MInterval.parse("[0:49,0:49]"))
        assert (out == checkerboard((50, 50))).all()

    def test_buffer_pool_hits_skip_disk(self):
        db = Database(buffer_bytes=10 * 1024 * 1024)
        obj = db.create_object("c", IMG, "x")
        obj.load_array(checkerboard((100, 100)), RegularTiling(1024))
        db.reset_clock()
        region = MInterval.parse("[0:20,0:20]")
        _o1, t1 = obj.read(region)
        _o2, t2 = obj.read(region)
        assert t1.t_o > 0
        assert t2.t_o == 0.0  # all hits

    def test_file_backed_database(self, tmp_path):
        store = FileBlobStore(tmp_path / "db.pages")
        db = Database(store=store)
        obj = db.create_object("c", IMG, "x")
        data = checkerboard((100, 100))
        obj.load_array(data, RegularTiling(2048))
        out, _ = obj.read(MInterval.parse("[40:60,40:60]"))
        assert (out == data[40:61, 40:61]).all()
        store.close()

    def test_reset_clock(self):
        db, obj, _data = loaded_object()
        obj.read(MInterval.parse("[0:9,0:9]"))
        assert db.disk.time_ms > 0.0
        db.reset_clock()
        assert db.disk.time_ms == 0.0


class TestReadBlocks:
    def test_fragments_reassemble_to_read(self):
        _db, obj, data = loaded_object()
        region = MInterval.parse("[13:57,21:84]")
        out = np.zeros(region.shape, dtype=np.uint8)
        seen_cells = 0
        for part, fragment, timing in obj.read_blocks(region):
            out[part.to_slices(region.lowest)] = fragment
            seen_cells += part.cell_count
            assert timing.tiles_read == 1
        assert seen_cells == region.cell_count  # dense object: full cover
        assert (out == data[13:58, 21:85]).all()

    def test_index_cost_charged_once(self):
        db, obj, _data = loaded_object()
        db.reset_clock()
        timings = [t for _p, _d, t in obj.read_blocks(MInterval.parse("[0:40,0:40]"))]
        assert timings[0].t_ix > 0
        assert all(t.t_ix == 0 for t in timings[1:])

    def test_total_matches_bulk_read(self):
        db1, obj1, _ = loaded_object()
        db2, obj2, _ = loaded_object()
        region = MInterval.parse("[5:70,5:70]")
        db1.reset_clock()
        _out, bulk = obj1.read(region)
        db2.reset_clock()
        total = QueryTiming()
        for _p, _d, t in obj2.read_blocks(region):
            total.add(t)
        assert total.t_o == pytest.approx(bulk.t_o)
        assert total.pages_read == bulk.pages_read
        assert total.tiles_read == bulk.tiles_read

    def test_partial_coverage_yields_only_covered(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "sparse")
        data = np.zeros((100, 100), dtype=np.uint8)
        data[0:10, 0:10] = 5
        obj.load_array(data, RegularTiling(256), skip_default_tiles=True)
        parts = list(obj.read_blocks(MInterval.parse("[0:99,0:99]")))
        covered = sum(p.cell_count for p, _d, _t in parts)
        assert covered < 100 * 100

    def test_virtual_blocks_stream_defaults(self):
        db = Database()
        obj = db.create_object("imgs", IMG, "virt")
        obj.load_virtual(MInterval.parse("[0:99,0:99]"), RegularTiling(512))
        for _part, fragment, _timing in obj.read_blocks(
            MInterval.parse("[0:20,0:20]")
        ):
            assert (fragment == 0).all()


@pytest.mark.parametrize("make", [Database, lambda: ShardedDatabase(2)], ids=["store", "2-shard"])
def test_a_closed_database_is_freed_by_reference_counting(make):
    """Nothing a database owns refers back to it once closed, so dropping
    the last handle frees it at once, with the cyclic collector off: its
    objects (each holding it) leave its catalog, and the epoch manager
    drops its reclaimer, a bound method of it."""
    gc.collect()
    gc.disable()
    try:
        db = make()
        obj = db.create_object("c", mdd_type("Freed", "long", "[0:7,0:7]"), "o")
        obj.write_tiles([
            Tile(MInterval([row, 0], [row + 3, 7]), np.ones((4, 8), dtype=np.int32))
            for row in (0, 4)
        ])
        obj.read(MInterval.parse("[0:7,0:7]"))
        freed = weakref.ref(db)
        db.close()
        del db, obj
        assert freed() is None
    finally:
        gc.enable()
