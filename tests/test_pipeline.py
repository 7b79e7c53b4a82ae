"""Tests for the read pipeline and the decoded-tile cache wiring.

The contract under test: any ``io_workers`` setting produces byte-identical
result arrays with identical *modelled* charges (``t_o`` exactly; ``t_ix``
via the index-page count — its measured CPU share naturally jitters),
reads decode where they fetch and never start the encode pool, and the
decoded-tile cache turns repeat reads into zero-disk, zero-decode hits
that are invalidated by updates.
"""

import sys

import numpy as np
import pytest

from repro import obs
from repro.bench import pipeline as pipeline_bench
from repro.bench import salescube
from repro.core.errors import StorageError
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.index.zonemap import CellPredicate, partial_synopsis
from repro.storage import pipeline
from repro.storage.catalog import create_database, open_database, save_database
from repro.storage.compression import decompress
from repro.storage.pipeline import fetch_tile, fetch_tile_partials, fetch_tiles
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from repro.tiling.directional import DirectionalTiling

CUBE = mdd_type("Cube", "long", "[0:127,0:127]")


def cube_data():
    return ((np.indices((128, 128)).sum(axis=0) % 97) * 5).astype(np.int32)


def loaded(db, name="cube", strategy=None, data=None):
    obj = db.create_object("pipe", CUBE, name)
    obj.load_array(
        cube_data() if data is None else data,
        strategy or RegularTiling(8 * 1024),
    )
    return obj


REGIONS = [
    "[0:127,0:127]",   # full scan, many tiles
    "[10:100,5:60]",   # partial coverage of border tiles
    "[0:15,0:15]",     # strict interior of one tile (fast path)
    "[32:63,32:63]",   # straddles the 3x3 tile grid's first boundary
]


def read_all(db, obj):
    out = []
    for spec in REGIONS:
        db.reset_clock()
        out.append(obj.read(MInterval.parse(spec)))
    return out


class TestParallelDeterminism:
    @pytest.mark.parametrize("compression", [False, True])
    def test_parallel_matches_serial(self, compression):
        serial_db = Database(compression=compression, buffer_bytes=1 << 20)
        parallel_db = Database(
            compression=compression, buffer_bytes=1 << 20, io_workers=4
        )
        serial_obj = loaded(serial_db)
        parallel_obj = loaded(parallel_db)
        for (a, ta), (b, tb) in zip(
            read_all(serial_db, serial_obj), read_all(parallel_db, parallel_obj)
        ):
            assert a.tobytes() == b.tobytes()
            assert ta.t_o == tb.t_o
            assert ta.index_nodes == tb.index_nodes
            assert ta.pages_read == tb.pages_read
            assert ta.bytes_read == tb.bytes_read
            assert ta.pool_hits == tb.pool_hits
            assert ta.pool_misses == tb.pool_misses
        parallel_db.close()

    def test_parallel_matches_serial_with_virtual_tiles(self):
        serial_db = Database()
        parallel_db = Database(io_workers=3)
        objects = []
        for db in (serial_db, parallel_db):
            obj = db.create_object("pipe", CUBE, "virt")
            obj.load_virtual(
                MInterval.parse("[0:127,0:127]"), RegularTiling(4 * 1024)
            )
            objects.append(obj)
        region = MInterval.parse("[5:120,7:99]")
        a, ta = objects[0].read(region)
        b, tb = objects[1].read(region)
        assert a.tobytes() == b.tobytes()
        assert ta.t_o == tb.t_o and ta.bytes_read == tb.bytes_read
        parallel_db.close()

    def test_parallel_matches_serial_arbitrary_tiling(self):
        strategy = DirectionalTiling({0: (0, 39, 89, 127), 1: (0, 24, 127)})
        serial_obj = loaded(Database(compression=True), strategy=strategy)
        parallel_db = Database(compression=True, io_workers=4)
        parallel_obj = loaded(parallel_db, strategy=strategy)
        region = MInterval.parse("[20:110,10:70]")
        a, ta = serial_obj.read(region)
        b, tb = parallel_obj.read(region)
        assert a.tobytes() == b.tobytes()
        assert ta.t_o == tb.t_o and ta.tiles_read == tb.tiles_read
        parallel_db.close()

    def test_decoded_cache_trajectory_mode_independent(self):
        # A cache that holds only ~2 decoded tiles: deferred batch
        # admissions must keep hits identical in serial and parallel mode.
        kwargs = dict(compression=True, decoded_cache_bytes=3000)
        serial_db = Database(**kwargs)
        parallel_db = Database(io_workers=4, **kwargs)
        serial_obj = loaded(serial_db)
        parallel_obj = loaded(parallel_db)
        for spec in ("[0:127,0:127]", "[0:127,0:127]", "[0:40,0:40]"):
            region = MInterval.parse(spec)
            _, ta = serial_obj.read(region)
            _, tb = parallel_obj.read(region)
            assert ta.decoded_hits == tb.decoded_hits
            assert ta.decoded_misses == tb.decoded_misses
        parallel_db.close()

    def test_io_workers_validation_and_close(self):
        with pytest.raises(StorageError):
            Database(io_workers=0)
        db = Database(io_workers=2)
        assert db.pipeline_executor() is db.pipeline_executor()
        db.close()
        db.close()  # idempotent
        assert Database().pipeline_executor() is None


class TestDecodeWhereFetched:
    def test_reads_of_zlib_tiles_never_start_the_pool(self, tmp_path):
        # The pipeline bench's smooth cube: every tile stored as zlib.
        side = pipeline_bench.SIDE
        data = pipeline_bench._cube_data()
        db = create_database(tmp_path, compression=True)
        cube = mdd_type("PipeCube", "long", f"[0:{side - 1},0:{side - 1}]")
        obj = db.create_object("pipebench", cube, "cube")
        obj.load_array(data, RegularTiling(pipeline_bench.TILE_BYTES))
        save_database(db, tmp_path)
        db.close()

        db = open_database(tmp_path, io_workers=4)
        try:
            obj = db.collection("pipebench")["cube"]
            entries = obj.tile_entries()
            assert len(entries) > 1 and {e.codec for e in entries} == {"zlib"}
            full = MInterval.parse(f"[0:{side - 1},0:{side - 1}]")
            out, timing = obj.read(full)
            assert out.tobytes() == data.tobytes()
            assert timing.tiles_decoded == len(entries)
            above = CellPredicate(">", 300)
            value, timing, pushed = obj.aggregate_push(full, "add_cells", predicate=above)
            assert pushed and timing.tiles_partial_agg == len(entries)
            assert value == int(data[data > 300].sum())
            halves = [(0, side // 2 - 1), (side // 2, side - 1)]
            counts, _timing, pushed = obj.aggregate_push(
                full, "count_cells", predicate=above, groups=[halves, [(0, side - 1)]]
            )
            want = [np.count_nonzero(data[lo : hi + 1] > 300) for lo, hi in halves]
            assert pushed and counts.ravel().tolist() == want
            assert db._io_executor is None
        finally:
            db.close()


class TestDecodedCache:
    def test_load_write_through_warms_the_cache(self):
        db = Database(compression=True, decoded_cache_bytes=8 << 20)
        obj = loaded(db)
        region = MInterval.parse("[0:127,0:127]")
        # write-through admission: the load itself warmed the cache, so
        # the first read is already all hits with zero disk time
        first, t_first = obj.read(region)
        assert t_first.decoded_hits == t_first.tiles_read
        assert t_first.decoded_misses == 0
        assert t_first.t_o == 0.0

    def test_warm_read_is_all_hits_and_free(self):
        db = Database(compression=True, decoded_cache_bytes=8 << 20)
        obj = loaded(db)
        region = MInterval.parse("[0:127,0:127]")
        db.reset_clock()  # clear the write-through warmth: measure cold
        cold, t_cold = obj.read(region)
        warm, t_warm = obj.read(region)
        assert np.array_equal(cold, warm)
        assert t_cold.decoded_misses == t_cold.tiles_read
        assert t_warm.decoded_hits == t_warm.tiles_read
        assert t_warm.decoded_misses == 0
        assert t_warm.t_o == 0.0
        # payload bytes are accounted even when served from the cache
        assert t_warm.bytes_read == t_cold.bytes_read

    def test_decode_happens_once(self):
        obs.reset()
        decoded = obs.counter("pipeline.tiles_decoded")
        db = Database(compression=True, decoded_cache_bytes=8 << 20)
        obj = loaded(db)
        db.reset_clock()  # drop the write-through entries: force a decode
        region = MInterval.parse("[0:127,0:127]")
        obj.read(region)
        after_cold = decoded.value
        assert after_cold > 0
        obj.read(region)
        assert decoded.value == after_cold

    def test_update_invalidates_and_readmits_decoded_tile(self):
        db = Database(decoded_cache_bytes=8 << 20)
        obj = loaded(db)
        region = MInterval.parse("[0:15,0:15]")
        obj.read(region)  # populate the cache
        obj.update(MInterval.parse("[0:0,0:0]"), np.array([[999]], np.int32))
        # the stale entry is gone and the new payload was written through,
        # so the read serves the *fresh* cells straight from the cache
        fresh, timing = obj.read(region)
        assert fresh[0, 0] == 999
        assert timing.decoded_hits >= 1
        assert timing.decoded_misses == 0

    def test_delete_region_invalidates_decoded_tiles(self):
        db = Database(decoded_cache_bytes=8 << 20)
        obj = loaded(db)
        obj.read(MInterval.parse("[0:127,0:127]"))
        assert len(db.decoded_cache) > 0
        obj.delete_region(MInterval.parse("[0:127,0:127]"))
        assert len(db.decoded_cache) == 0

    def test_reset_clock_clears_decoded_cache(self):
        db = Database(decoded_cache_bytes=8 << 20)
        obj = loaded(db)
        obj.read(MInterval.parse("[0:127,0:127]"))
        assert len(db.decoded_cache) > 0
        db.reset_clock()
        assert len(db.decoded_cache) == 0
        _, timing = obj.read(MInterval.parse("[0:127,0:127]"))
        assert timing.decoded_hits == 0

    def test_no_cache_by_default(self):
        db = Database()
        obj = loaded(db)
        _, timing = obj.read(MInterval.parse("[0:127,0:127]"))
        assert db.decoded_cache is None
        assert timing.decoded_hits == 0 and timing.decoded_misses == 0


class TestComposeFastPath:
    def test_single_tile_exact_read_is_zero_copy(self):
        db = Database(decoded_cache_bytes=8 << 20)
        obj = loaded(db)
        region = obj.tile_entries()[0].domain  # exactly one stored tile
        out, timing = obj.read(region)
        assert timing.tiles_read == 1
        assert not out.flags.writeable  # cached tile served as a view
        lo, hi = region.lowest, region.highest
        assert np.array_equal(
            out, cube_data()[lo[0]:hi[0] + 1, lo[1]:hi[1] + 1]
        )

    def test_single_tile_window_read(self):
        db = Database()
        obj = loaded(db)
        region = MInterval.parse("[2:13,3:9]")  # strict interior of one tile
        out, timing = obj.read(region)
        assert timing.tiles_read == 1
        assert np.array_equal(out, cube_data()[2:14, 3:10])

    def test_fast_path_result_safe_after_invalidation(self):
        db = Database(decoded_cache_bytes=8 << 20)
        obj = loaded(db)
        region = obj.tile_entries()[0].domain
        out, _ = obj.read(region)
        expected = out.copy()
        obj.update(region, np.zeros(region.shape, np.int32))
        # the earlier view still sees the pre-update cells
        assert np.array_equal(out, expected)
        fresh, _ = obj.read(region)
        assert np.count_nonzero(fresh) == 0


DTYPE = CUBE.base.dtype
FULL = MInterval.parse("[0:127,0:127]")


def _per_blob(db, entry, dtype):
    """Reference single-tile route, spelled out: decoded cache, then one
    one-blob ``read_blobs``, decode, immediate admission."""
    cache = db.decoded_cache
    if cache is not None and not entry.virtual:
        array = cache.get(entry.blob_id)
        if array is not None:
            size = db.store.record(entry.blob_id).byte_size
            return array.tobytes(), 0.0, size, True, None, 0
    payload, read = db.read_blobs(db.store.records([entry.blob_id]), {})[0]
    pool = read.hit, read.evicted
    if entry.virtual:
        return None, read.cost, len(payload), False, *pool
    raw = decompress(payload, entry.codec)
    array = np.frombuffer(raw, dtype=dtype).reshape(entry.domain.shape)
    if cache is not None:
        cache.put(entry.blob_id, array)
    return array.tobytes(), read.cost, len(payload), False, *pool


def _outcome(tile):
    cells = None if tile.array is None else tile.array.tobytes()
    return (
        cells, tile.cost, tile.payload_bytes, tile.decoded_hit,
        tile.pool_hit, tile.pool_evicted,
    )


ROUTES = {
    "fetch_tile": lambda db, e: _outcome(fetch_tile(db, e, DTYPE)),
    "fetch_tiles": lambda db, e: _outcome(fetch_tiles(db, [e], DTYPE)[0]),
    "per_blob": lambda db, e: _per_blob(db, e, DTYPE),
}


def _cache_state(db):
    """The disk's clock and head, and both caches' LRU contents."""
    pool, decoded = db.pool, db.decoded_cache
    return (
        (db.disk.time_ms, db.disk._head),
        None if pool is None else list(pool._entries),
        None
        if decoded is None
        else [(k, a.tobytes()) for k, a in decoded._entries.items()],
    )


class TestSingleTileFetch:
    """(a) ``fetch_tile`` is a ``fetch_tiles`` batch of one, and both
    behave as the per-blob path did: same tile, same charges, same pool,
    decoded-cache and disk trajectory."""

    # revisits make hits; the small caches below make them evict too
    VISITS = (0, 1, 2, 0, 5, 9, 1, 8, 3, 0, 9, 9, 4, 7, 2, 6)

    def _walk(self, route, **db_kwargs):
        db = Database(compression=True, **db_kwargs)
        real = loaded(db)
        virtual = db.create_object("pipe", CUBE, "virt")
        virtual.load_virtual(FULL, RegularTiling(32 * 1024))
        db.reset_clock()  # drop the load's write-through warmth
        entries = sorted(real.tile_entries(), key=db.first_page)
        entries.append(virtual.tile_entries()[0])
        assert len(entries) == 10 and entries[-1].virtual
        return [route(db, entries[i]) for i in self.VISITS], _cache_state(db)

    @pytest.mark.parametrize("buffer_bytes", [0, 3000])
    @pytest.mark.parametrize("decoded_cache_bytes", [0, 30_000])
    def test_routes_agree(self, buffer_bytes, decoded_cache_bytes):
        walks = {
            name: self._walk(
                route,
                buffer_bytes=buffer_bytes,
                decoded_cache_bytes=decoded_cache_bytes,
            )
            for name, route in ROUTES.items()
        }
        outcomes, state = walks["per_blob"]
        assert walks["fetch_tile"] == walks["fetch_tiles"] == (outcomes, state)
        for visit, (cells, cost, _size, hit, *_pool) in zip(self.VISITS, outcomes):
            assert (cells is None) == (visit == 9)  # the virtual tile
            assert hit or cost > 0.0 or bool(buffer_bytes)
        assert any(outcome[3] for outcome in outcomes) == bool(decoded_cache_bytes)
        if buffer_bytes:  # hits and evictions
            assert any(outcome[4] for outcome in outcomes)
            assert sum(outcome[5] for outcome in outcomes) > 0
        if decoded_cache_bytes:
            assert 0 < len(state[2]) < 9  # admitted, and evicting

    def test_routes_agree_on_a_pending_blob(self, tmp_path):
        def walk(name, route):
            db = Database(
                compression=True,
                buffer_bytes=3000,
                decoded_cache_bytes=30_000,
                durability="wal",
                wal_path=tmp_path / f"{name}.wal",
            )
            try:
                obj = loaded(db)
                db.reset_clock()
                box = MInterval.parse("[0:60,0:60]")
                with db.transaction():
                    obj.update(box, np.full(box.shape, 7, dtype=DTYPE))
                    assert db.store.pending_writes > 0
                    entries = sorted(obj.tile_entries(), key=db.first_page)
                    assert any(db.store.is_pending(e.blob_id) for e in entries)
                    db.decoded_cache.clear()  # forget the write-through
                    outcomes = [route(db, e) for e in entries + entries[:3]]
                    return outcomes, _cache_state(db)
            finally:
                db.close()

        walks = {name: walk(name, route) for name, route in ROUTES.items()}
        assert walks["fetch_tile"] == walks["fetch_tiles"] == walks["per_blob"]


def _page_ordered_items(db, obj, region):
    entries = sorted(
        (e for e in obj.tile_entries() if e.domain.intersects(region)),
        key=db.first_page,
    )
    return [(e, (e.domain.intersection(region),)) for e in entries]


class TestReducedBatch:
    """(b) the pushdown batch: every tile reduced, none kept (DESIGN §15)."""

    REGION = MInterval.parse("[10:120,5:99]")  # clips the border tiles

    @pytest.mark.parametrize("io_workers", [1, 2])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("predicate", [None, CellPredicate(">", 200)])
    def test_partials_match_the_numpy_mirror(self, io_workers, warm, predicate):
        db = Database(
            compression=True,
            io_workers=io_workers,
            decoded_cache_bytes=8 << 20,
        )
        try:
            obj = loaded(db)
            db.reset_clock()
            if warm:  # some of the batch's tiles, not all
                obj.read(MInterval.parse("[0:50,0:127]"))
            cache = db.decoded_cache
            cached = list(cache._entries)
            items = _page_ordered_items(db, obj, self.REGION)
            assert len(items) == 9
            assert 0 < len(cached) < 9 if warm else not cached

            fetched, peak = fetch_tile_partials(db, items, DTYPE, predicate=predicate, default=0)

            mirror = cube_data()
            for (entry, (part,)), tile in zip(items, fetched):
                vals = mirror[part.to_slices((0, 0))]
                if predicate is not None:
                    vals = np.where(predicate.mask(vals), vals, DTYPE.type(0))
                assert tile.partials == (partial_synopsis(vals),)
                assert tile.array is None
                assert tile.entry is entry
                assert tile.decoded_hit == (entry.blob_id in cached)
            # consulted, answered from, never admitted to
            assert sorted(cache._entries) == sorted(cached)
            assert sum(fetched.decoded_hit) == len(cached)  # the column a record sums
            largest = max(e.domain.cell_count for e, _ in items) * DTYPE.itemsize
            assert peak == largest  # exactly one tile alive at a time
        finally:
            db.close()

    def test_virtual_tiles_carry_neither_array_nor_partial(self):
        db = Database(io_workers=2)
        try:
            obj = db.create_object("pipe", CUBE, "virt")
            obj.load_virtual(FULL, RegularTiling(8 * 1024))
            items = _page_ordered_items(db, obj, self.REGION)
            fetched, peak = fetch_tile_partials(db, items, DTYPE)
            assert len(fetched) > 1 and peak == 0
            for tile in fetched:
                assert tile.array is None and tile.partials == ()
                assert tile.cost > 0.0 and not tile.decoded_hit
        finally:
            db.close()


def test_a_group_by_pushdown_lists_one_tiles_bounds_at_a_time(monkeypatch):
    """The reducer gets each tile's part bounds as that tile is reduced,
    not every tile's at once.  Over a GROUP BY pushdown of all
    744 Dir64K3P tiles of the sales cube, the allocated blocks alive at
    any reduce stay under 30 a tile above the query's start: the tiles'
    partials and outcome columns are most of them, where listing every
    tile's bounds up front held about 46 a tile."""
    domain = salescube.SALES_DOMAIN
    db = Database()
    obj = db.create_object("c", salescube.sales_mdd_type(), "sales")
    obj.load_array(
        salescube.generate_sales_data(), salescube.build_schemes()["Dir64K3P"],
        origin=domain.lowest,
    )
    groups = [  # the 3P partitions: every tile in one cell
        list(zip(bounds[:-1], [*(b - 1 for b in bounds[1:-1]), bounds[-1]]))
        for _axis, bounds in sorted(salescube.partitions_3p().items())
    ]
    peak = [0]
    reduce = pipeline._Reducer.__call__

    def counted_reduce(self, *args):
        peak[0] = max(peak[0], sys.getallocatedblocks())
        return reduce(self, *args)

    monkeypatch.setattr(pipeline._Reducer, "__call__", counted_reduce)
    where = CellPredicate(">", 10)  # nothing answered from a synopsis
    obj.aggregate_push(domain, "add_cells", predicate=where, groups=groups)
    start = sys.getallocatedblocks()
    _value, timing, pushed = obj.aggregate_push(domain, "add_cells", predicate=where, groups=groups)
    db.close()
    assert pushed and timing.tiles_partial_agg == obj.tile_count == 744
    assert peak[0] - start < 30 * 744
