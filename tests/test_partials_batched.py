"""Cached pushdown pays per batch: op-aware partials, shape-batched hits,
one latched lookup per fetch batch.

The contract under test: an ``aggregate_push`` whose fetch reduces only
what its op's combine reads (``ReadExecutor.fetch(selection, op=...)``)
returns, for every tiling, dtype, predicate, default, worker count and
cache temperature, bitwise what numpy returns over the masked mirror and
what the per-group loop returns, with every charge of a twin run whose
partials are full synopses (``op=None``).  The batch lookups behave like
their per-id twins, and a warm roll-up's latch traffic does not grow
with its tile count.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench import salescube
from repro.core.cells import BaseType, register_base_type
from repro.core.errors import BlobNotFoundError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.zonemap import AGG_FUNCS, CellPredicate
from repro.shard import ShardedDatabase
from repro.storage import tilestore
from repro.storage.decodedcache import DecodedTileCache
from repro.storage.tilestore import Database
from repro.tiling.aligned import AlignedTiling
from repro.tiling.directional import DirectionalTiling, category_intervals
from tests.group_oracle import group_loop

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from check_regression import CHARGE_FIELDS  # noqa: E402

OPS = tuple(sorted(AGG_FUNCS))
RELOPS = ("<", "<=", ">", ">=", "=", "!=")
DTYPES = ("int32", "uint32", "int64", "bool", "float64")
BASES = {
    (name, default): register_base_type(
        BaseType(f"partials_batched_{name}_{default}", np.dtype(name), default=default)
    )
    for name in DTYPES
    for default in (0, 7)
}


@pytest.fixture(autouse=True)
def _obs_enabled():
    was_registry = obs.registry.enabled
    obs.enable()
    yield
    obs.registry.enabled = was_registry


def _counter(name):
    return obs.registry.value(name)


# ----------------------------------------------------------------------
# Property: op-aware, shape-batched partials against numpy and the twin
# ----------------------------------------------------------------------


def _cuts(draw, extent):
    """Sorted inner cut points of one axis (each starts a new piece)."""
    return sorted(draw(st.sets(st.integers(1, extent - 1), max_size=3))) if extent > 1 else []


def _guillotine(draw, box, depth=0):
    """An irregular tiling: recursive random cuts along either axis."""
    axis = draw(st.integers(0, 1))
    lo, hi = box.lowest[axis], box.highest[axis]
    if depth >= 3 or hi == lo or not draw(st.booleans()):
        return [box]
    cut = draw(st.integers(lo, hi - 1))
    low_hi, high_lo = list(box.highest), list(box.lowest)
    low_hi[axis], high_lo[axis] = cut, cut + 1
    return _guillotine(draw, MInterval(box.lowest, low_hi), depth + 1) + _guillotine(
        draw, MInterval(high_lo, box.highest), depth + 1
    )


@st.composite
def cases(draw):
    rows, cols = draw(st.integers(2, 14)), draw(st.integers(2, 14))
    domain = MInterval.from_shape((rows, cols))
    dtype = draw(st.sampled_from(DTYPES))
    base = BASES[dtype, draw(st.sampled_from((0, 7)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = rng.integers(0, 12, size=(rows, cols)).astype(base.dtype)
    kind = draw(st.sampled_from(("aligned", "directional", "irregular")))
    cell_size = base.dtype.itemsize
    if kind == "aligned":
        config = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        boxes = AlignedTiling(config, draw(st.integers(2, 40)) * cell_size).partition(
            domain, cell_size
        )
    elif kind == "directional":
        # a boundary list opens the first category and closes every other
        partitions = {
            axis: [0, *(cut - 1 for cut in _cuts(draw, extent) if cut > 1), extent - 1]
            for axis, extent in enumerate((rows, cols))
        }
        boxes = DirectionalTiling(
            partitions, draw(st.sampled_from((16, 64, 1 << 10))) * cell_size
        ).partition(domain, cell_size)
    else:
        boxes = _guillotine(draw, domain)
    if dtype == "float64":
        flat = data.ravel()
        flat[draw(st.lists(st.integers(0, flat.size - 1), max_size=4))] = np.nan
        if draw(st.booleans()):  # an all-NaN tile
            data[draw(st.sampled_from(boxes)).to_slices((0, 0))] = np.nan
    bounds = [sorted((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))) for n in (rows, cols)]
    region = MInterval([lo for lo, _ in bounds], [hi for _, hi in bounds])
    groups = None
    if draw(st.booleans()):
        groups = []
        for axis in range(2):
            lo, hi = region.lowest[axis], region.highest[axis]
            starts = [lo, *(lo + cut for cut in _cuts(draw, hi - lo + 1))]
            ends = [s - 1 for s in starts[1:]] + [hi]
            groups.append(list(zip(starts, ends)))
    predicate = None
    if draw(st.integers(0, 3)):
        value = draw(st.integers(-1, 13)) if dtype != "bool" else draw(st.integers(0, 1))
        predicate = CellPredicate(draw(st.sampled_from(RELOPS)), value)
    return dict(
        base=base,
        data=data,
        boxes=boxes,
        shards=draw(st.sampled_from((None, 2))),
        io_workers=draw(st.sampled_from((1, 2, 4))),
        warmth=draw(st.sampled_from(("cold", "partly", "warm"))),
        op=draw(st.sampled_from(OPS)),
        predicate=predicate,
        # without pruning, unpredicated tiles are decoded, not answered
        prune=draw(st.booleans()),
        region=region,
        groups=groups,
    )


def _build(case):
    data = case["data"]
    domain = MInterval.from_shape(data.shape)
    mdd = mdd_type("B", case["base"], str(domain))
    kwargs = dict(io_workers=case["io_workers"], decoded_cache_bytes=1 << 20)
    if case["shards"] is None:
        root = Database(**kwargs)
        stores = [root]
    else:
        root = ShardedDatabase(case["shards"], **kwargs)
        stores = root.shards
    obj = root.create_object("c", mdd, "o")
    obj.write_tiles([Tile(box, data[box.to_slices((0, 0))].copy()) for box in case["boxes"]])
    for db in stores:
        db.reset_clock()  # empties the caches of the write-through admissions
    if case["warmth"] == "partly":
        obj.read(MInterval([0, 0], [data.shape[0] // 2, data.shape[1] - 1]))
    elif case["warmth"] == "warm":
        obj.read(domain)
    return root, obj


def _run(case):
    root, obj = _build(case)
    partials = _counter("pipeline.partial_aggregates")
    hits = _counter("cache.decoded.hits")
    value, timing, pushed = obj.aggregate_push(
        case["region"],
        case["op"],
        predicate=case["predicate"],
        prune=case["prune"],
        groups=case["groups"],
    )
    deltas = (
        _counter("pipeline.partial_aggregates") - partials,
        _counter("cache.decoded.hits") - hits,
    )
    return root, obj, value, timing, pushed, deltas


def _bits(value):
    return value.tobytes() if isinstance(value, np.ndarray) else repr(value)


def _mirror(case):
    """numpy over the masked mirror: a scalar, or a GROUP BY's float64 cube."""
    data = case["data"]
    default = np.asarray(case["base"].default, dtype=data.dtype)
    if case["predicate"] is not None:
        data = np.where(case["predicate"].mask(data), data, default)
    region = case["region"]
    spans = case["groups"] or [[(lo, hi)] for lo, hi in zip(region.lowest, region.highest)]
    values = [
        AGG_FUNCS[case["op"]](np.ascontiguousarray(data[lo0 : hi0 + 1, lo1 : hi1 + 1]))
        for lo0, hi0 in spans[0]
        for lo1, hi1 in spans[1]
    ]
    if case["groups"] is None:
        return values[0]
    return np.array(values, dtype=np.float64).reshape([len(s) for s in spans])


@given(cases())
@settings(max_examples=60, deadline=None)
def test_op_partials_match_numpy_the_loop_and_the_full_synopsis_twin(case):
    root, obj, value, timing, pushed, deltas = _run(case)
    assert _bits(value) == _bits(_mirror(case))
    if case["groups"] is not None:
        loop, _timing, _pushed = group_loop(
            obj, case["groups"], case["op"], case["predicate"], case["prune"]
        )
        assert _bits(value) == _bits(loop)
    root.close()

    full = tilestore.fetch_tile_partials

    def full_synopses(database, items, dtype, predicate, default, op, records):
        return full(database, items, dtype, predicate, default, None, records)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tilestore, "fetch_tile_partials", full_synopses)
        twin_root, _obj, twin_value, twin_timing, twin_pushed, twin_deltas = _run(case)
    twin_root.close()
    assert _bits(value) == _bits(twin_value)
    assert pushed == twin_pushed
    assert deltas == twin_deltas
    for name in CHARGE_FIELDS:
        assert getattr(timing, name) == getattr(twin_timing, name), name
    largest = max(box.cell_count for box in case["boxes"]) * case["data"].itemsize
    assert timing.peak_partial_bytes <= largest


def _read_fields(op, syn):
    """What :func:`combine_aggregate` reads of a partial for ``op``."""
    if op == "count_cells":
        return repr(syn.nonzero)
    if op in ("add_cells", "avg_cells"):
        return repr(syn.vsum)
    extreme = syn.vmin if op == "min_cells" else syn.vmax
    return repr((syn.vmin is None, extreme, syn.nan_count))


@given(cases())
@settings(max_examples=40, deadline=None)
def test_each_tile_partial_carries_what_its_op_reads(case):
    """Per tile and op, the op-aware partial (stacked when a cached whole
    tile) equals the full synopsis in every field that op's combine reads."""
    root, obj = _build({**case, "shards": None})
    dtype, region = case["data"].dtype, case["region"]
    entries = sorted(obj.tile_entries(), key=root.first_page)
    # whole tiles (the batched path when cached) and tiles clipped to region
    items = [
        (entry, [entry.domain.intersection(region)])
        if entry.domain.intersects(region) and not region.contains(entry.domain)
        else (entry, [entry.domain])
        for entry in entries
    ]
    largest = max(entry.domain.cell_count for entry in entries) * dtype.itemsize
    for predicate in (None, case["predicate"]):
        args = (root, items, dtype, predicate, case["base"].default)
        full, _peak = tilestore.fetch_tile_partials(*args)
        for op in OPS:
            fetched, peak = tilestore.fetch_tile_partials(*args, op)
            for tile, twin in zip(fetched, full):
                assert tile.decoded_hit == twin.decoded_hit
                assert [_read_fields(op, p) for p in tile.partials] == [
                    _read_fields(op, p) for p in twin.partials
                ]
            assert peak <= largest
    root.close()


# ----------------------------------------------------------------------
# Twins: the batch lookups against their per-id forms
# ----------------------------------------------------------------------


def _decoded_counters():
    return {
        name: _counter(f"cache.decoded.{name}") for name in ("hits", "misses", "evictions")
    }


def test_get_many_is_sequential_gets():
    caches = [DecodedTileCache(10 * 64) for _ in range(2)]
    for cache in caches:
        for blob_id in range(1, 9):
            cache.put(blob_id, np.full(8, blob_id, dtype=np.int64))
    ids = [3, 99, 1, 3, 8, 42, 5, 1]
    before = _decoded_counters()
    batched = caches[0].get_many(ids)
    batch_delta = {k: v - before[k] for k, v in _decoded_counters().items()}
    before = _decoded_counters()
    sequential = [caches[1].get(blob_id) for blob_id in ids]
    sequential_delta = {k: v - before[k] for k, v in _decoded_counters().items()}

    assert [a is None for a in batched] == [a is None for a in sequential]
    for got, want in zip(batched, sequential):
        if want is not None:
            assert got.tobytes() == want.tobytes()
    assert list(caches[0]._entries) == list(caches[1]._entries)
    assert (caches[0].hits, caches[0].misses) == (caches[1].hits, caches[1].misses) == (6, 2)
    assert batch_delta == sequential_delta
    assert caches[0].get_many([]) == []


def test_records_is_per_id_record_and_names_the_missing_id():
    db = Database()
    ids = [db.store.put(bytes([n]) * (n + 1)) for n in range(5)]
    order = ids[::-1] + ids[:2]
    assert db.store.records(order) == [db.store.record(blob_id) for blob_id in order]
    with pytest.raises(BlobNotFoundError, match="no blob 4242"):
        db.store.records([ids[0], 4242, ids[1]])
    db.close()


# ----------------------------------------------------------------------
# Regression guard: a warm roll-up's latch traffic is per batch, not per tile
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sales():
    domain = salescube.SALES_DOMAIN
    db = Database(
        compression=True, buffer_bytes=64 << 20, decoded_cache_bytes=64 << 20, io_workers=2
    )
    obj = db.create_object("cubes", salescube.sales_mdd_type(), "sales")
    obj.load_array(
        salescube.generate_sales_data(),
        salescube.build_schemes()["Dir64K3P"],
        origin=domain.lowest,
    )
    obj.read(domain)  # everything fits in both caches
    yield db, obj
    db.close()


def test_warm_rollup_latch_traffic_is_constant(sales):
    db, obj = sales
    domain = salescube.SALES_DOMAIN
    partitions = salescube.partitions_3p()
    spans = [
        category_intervals(partitions[axis], domain.lowest[axis], domain.highest[axis])
        for axis in range(domain.dim)
    ]
    largest = max(entry.domain.cell_count for entry in obj.tile_entries()) * 4
    acquires, tiles = [], []
    # ~25 %, ~1 % and ~0.1 % of the cells pass
    for threshold in (44, 207, 380):
        before = _counter("latch.acquires")
        _values, timing, pushed = obj.aggregate_push(
            domain, "count_cells", predicate=CellPredicate(">", threshold), groups=spans
        )
        acquires.append(_counter("latch.acquires") - before)
        tiles.append(timing.tiles_read)
        assert pushed and timing.decoded_hits == timing.tiles_read
        assert 0 < timing.peak_partial_bytes <= largest
    assert len(set(tiles)) == 3 and min(tiles) > 200
    assert len(set(acquires)) == 1 and acquires[0] <= 32, (tiles, acquires)
