"""Property-based distributed identity: whatever the tiling, dtype,
shard count, and query box, a ShardedDatabase answers byte-for-byte like
a single store — reads, predicated reads, aggregation pushdown, and
GROUP BY rollups."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.zonemap import AGG_FUNCS, CellPredicate
from repro.query.engine import QueryEngine
from repro.shard import ShardedDatabase
from repro.storage.tilestore import Database
from repro.tiling.base import grid_partition

DTYPES = {
    "ushort": np.uint16,
    "long": np.int32,
    "double": np.float64,
}


@st.composite
def sharded_cases(draw):
    """Random 2-D array, grid tiling, shard count, and query box."""
    height = draw(st.integers(min_value=8, max_value=48))
    width = draw(st.integers(min_value=8, max_value=48))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    base = draw(st.sampled_from(sorted(DTYPES)))
    tile_h = draw(st.integers(min_value=3, max_value=height))
    tile_w = draw(st.integers(min_value=3, max_value=width))
    n_shards = draw(st.sampled_from([1, 2, 4]))

    qy0 = draw(st.integers(0, height - 1))
    qx0 = draw(st.integers(0, width - 1))
    qy1 = draw(st.integers(qy0, height - 1))
    qx1 = draw(st.integers(qx0, width - 1))
    query = MInterval([qy0, qx0], [qy1, qx1])
    threshold = draw(st.integers(0, 99))
    return (height, width), seed, base, (tile_h, tile_w), n_shards, \
        query, threshold


def _build(shape, seed, base, tile_shape, n_shards):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 100, size=shape).astype(DTYPES[base])
    domain = MInterval.from_shape(shape)
    mt = mdd_type("P", base, str(domain))
    tiles = [
        Tile(box, data[box.to_slices((0, 0))].copy())
        for box in grid_partition(domain, tile_shape)
    ]

    db = Database()
    single = db.create_object("objs", mt, "p")
    single.write_tiles([Tile(t.domain, t.data.copy()) for t in tiles])

    sdb = ShardedDatabase(n_shards)
    obj = sdb.create_object("objs", mt, "p")
    obj.write_tiles(tiles)
    return data, domain, db, single, sdb, obj


@given(sharded_cases())
@settings(max_examples=50, deadline=None)
def test_scatter_gather_read_identical(case):
    shape, seed, base, tile_shape, n_shards, query, _threshold = case
    data, domain, _db, single, _sdb, obj = _build(
        shape, seed, base, tile_shape, n_shards
    )
    want, _ = single.read(query)
    got, timing = obj.read(query)
    assert got.tobytes() == want.tobytes()
    assert (got == data[query.to_slices(domain.lowest)]).all()
    assert timing.cells_result == query.cell_count


@given(sharded_cases())
@settings(max_examples=30, deadline=None)
def test_predicated_read_identical(case):
    shape, seed, base, tile_shape, n_shards, query, threshold = case
    _data, _domain, _db, single, _sdb, obj = _build(
        shape, seed, base, tile_shape, n_shards
    )
    predicate = CellPredicate(">", threshold)
    want, _ = single.read(query, predicate=predicate)
    got, _ = obj.read(query, predicate=predicate)
    assert got.tobytes() == want.tobytes()


@given(sharded_cases(), st.sampled_from(sorted(AGG_FUNCS)))
@settings(max_examples=40, deadline=None)
def test_aggregate_pushdown_identical(case, op):
    shape, seed, base, tile_shape, n_shards, query, _threshold = case
    _data, _domain, _db, single, _sdb, obj = _build(
        shape, seed, base, tile_shape, n_shards
    )
    want, _, want_pushed = single.aggregate_push(query, op)
    got, _, got_pushed = obj.aggregate_push(query, op)
    # bitwise-equal values AND the same pushdown decision (the float
    # fallback must fire on both paths or neither)
    assert repr(want) == repr(got)
    assert want_pushed == got_pushed


@given(sharded_cases(), st.sampled_from(["count_cells", "add_cells"]))
@settings(max_examples=30, deadline=None)
def test_predicated_pushdown_identical(case, op):
    shape, seed, base, tile_shape, n_shards, query, threshold = case
    _data, _domain, _db, single, _sdb, obj = _build(
        shape, seed, base, tile_shape, n_shards
    )
    predicate = CellPredicate(">", threshold)
    want, _, want_pushed = single.aggregate_push(
        query, op, predicate=predicate
    )
    got, _, got_pushed = obj.aggregate_push(query, op, predicate=predicate)
    assert repr(want) == repr(got)
    assert want_pushed == got_pushed


@given(sharded_cases())
@settings(max_examples=20, deadline=None)
def test_group_by_rollup_identical(case):
    shape, seed, base, tile_shape, n_shards, _query, _threshold = case
    _data, domain, db, single, sdb, obj = _build(
        shape, seed, base, tile_shape, n_shards
    )
    height, width = shape
    mid_y, mid_x = (height - 1) // 2, (width - 1) // 2
    spec = {
        0: ((0, mid_y), (mid_y + 1, height - 1)),
        1: ((0, mid_x), (mid_x + 1, width - 1)),
    }
    want = QueryEngine(db).group_by_query(
        single, domain, "add_cells", spec
    )
    got = QueryEngine(sdb).group_by_query(
        obj, domain, "add_cells", spec
    )
    assert want.value.tobytes() == got.value.tobytes()
