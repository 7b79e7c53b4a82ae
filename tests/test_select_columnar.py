"""The columnar select against the per-tile one it replaced.

``ReadExecutor.select`` finds the hits of every pinned part with one
overlap mask over the parts' stacked tile-table columns and masks them:
pruned (one :class:`~repro.index.zonemap.TilePruner` call per query),
routed (per-axis ``(hit, cell)`` pair arrays) and answered, then cuts
them into one selection per part, as columns.  Over every tiling,
dtype, default, hole / virtual / synopsis-less tile, predicate op,
prune / condense / GROUP BY setting, on one store and on merged 2-shard
parts, it must leave what the per-tile oracle
(``tests/select_oracle.py``, which selects part by part) leaves: the
same covered and pruned cells over the parts, per part and tile id the
same part, routes and synopsis, and the same page-ordered fetch
sequence — with the same pruned count, the same index node count and
the same ``index.zone.*`` counter deltas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.cells import BaseType, register_base_type
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index import zonemap
from repro.index.zonemap import CellPredicate
from repro.shard import ShardedDatabase
from repro.storage import pipeline
from repro.storage.tilestore import Database, ReadExecutor
from repro.tiling.aligned import AlignedTiling
from repro.tiling.directional import DirectionalTiling
from tests import select_oracle
from tests.test_group_by_pass import attach_bare
from tests.test_partials_batched import _cuts, _guillotine

RELOPS = ("<", "<=", ">", ">=", "=", "!=")
DTYPES = ("int32", "uint32", "int64", "bool", "float64")
BASES = {
    (name, default): register_base_type(
        BaseType(f"select_columnar_{name}_{default}", np.dtype(name), default=default)
    )
    for name in DTYPES
    for default in (0, 7)
}
ZONE_COUNTERS = (
    "index.zone.prune_checks",
    "index.zone.tiles_pruned",
    "index.zone.synopsis_answered",
)


def _spans(draw, lo, hi):
    """Closed spans inside ``[lo, hi]``, gaps between them allowed; maybe
    one more overlapping the others, maybe out of order (the routing's
    overlap pass, not its ascending-spans search)."""
    starts = [lo, *(lo + cut for cut in _cuts(draw, hi - lo + 1))]
    ends = [s - 1 for s in starts[1:]] + [hi]
    spans = [(s, e - draw(st.integers(0, max(0, e - s)))) for s, e in zip(starts, ends)]
    if draw(st.booleans()):
        first = draw(st.integers(lo, hi))
        spans.append((first, draw(st.integers(first, hi))))
    return draw(st.permutations(spans)) if draw(st.booleans()) else spans


@st.composite
def cases(draw):
    rows, cols = draw(st.integers(2, 14)), draw(st.integers(2, 14))
    domain = MInterval.from_shape((rows, cols))
    dtype = draw(st.sampled_from(DTYPES))
    base = BASES[dtype, draw(st.sampled_from((0, 7)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # few distinct values over a wide range: empty bins for "=" to probe
    palette = rng.choice(41, size=draw(st.integers(1, 5)), replace=False)
    data = rng.choice(palette, size=(rows, cols)).astype(base.dtype)
    kind = draw(st.sampled_from(("aligned", "directional", "irregular")))
    cell_size = base.dtype.itemsize
    if kind == "aligned":
        config = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        boxes = AlignedTiling(config, draw(st.integers(2, 40)) * cell_size).partition(
            domain, cell_size
        )
    elif kind == "directional":
        partitions = {
            axis: [0, *(cut - 1 for cut in _cuts(draw, extent) if cut > 1), extent - 1]
            for axis, extent in enumerate((rows, cols))
        }
        boxes = DirectionalTiling(
            partitions, draw(st.sampled_from((16, 64, 1 << 10))) * cell_size
        ).partition(domain, cell_size)
    else:
        boxes = _guillotine(draw, domain)
    boxes = list(boxes)
    if draw(st.booleans()):  # a constant tile: "!=" may prune it
        box = draw(st.sampled_from(boxes))
        data[box.to_slices((0, 0))] = data[box.lowest]
    if dtype == "float64":
        flat = data.ravel()
        flat[draw(st.lists(st.integers(0, flat.size - 1), max_size=4))] = np.nan
        if draw(st.booleans()):  # an all-NaN tile
            data[draw(st.sampled_from(boxes)).to_slices((0, 0))] = np.nan
    fates = [
        draw(st.sampled_from(("stored", "stored", "stored", "bare", "hole", "virtual")))
        for _ in boxes
    ]
    if all(fate == "hole" for fate in fates):
        fates[0] = "stored"
    bounds = [sorted((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))) for n in (rows, cols)]
    region = MInterval([lo for lo, _ in bounds], [hi for _, hi in bounds])
    groups = None
    if draw(st.booleans()):
        groups = [_spans(draw, lo, hi) for lo, hi in zip(region.lowest, region.highest)]
    predicate = None
    if draw(st.integers(0, 3)):
        if dtype == "bool":
            value = draw(st.integers(0, 1))
        elif draw(st.booleans()):
            value = int(draw(st.sampled_from(list(palette))))
        else:
            value = draw(st.integers(-1, 42))
        predicate = CellPredicate(draw(st.sampled_from(RELOPS)), value)
    return dict(
        base=base,
        data=data,
        boxes=boxes,
        fates=fates,
        shards=draw(st.sampled_from((None, 2))),
        twin=draw(st.booleans()),
        region=region,
        groups=groups,
        predicate=predicate,
        prune=draw(st.booleans()),
        condense=draw(st.booleans()),
    )


def _build(case):
    """The object: stored tiles with and without synopses, virtual
    tiles, holes — and, sharded, maybe one tile stored on both shards
    (a migration's dual presence)."""
    data = case["data"]
    mdd = mdd_type("S", case["base"], str(MInterval.from_shape(data.shape)))
    root = Database() if case["shards"] is None else ShardedDatabase(case["shards"])
    obj = root.create_object("c", mdd, "o")

    def part_of(box):
        return obj if case["shards"] is None else obj._parts[obj.shard_of(box.lowest)]

    def tiles(kind):
        return [
            Tile(box, data[box.to_slices((0, 0))].copy())
            for box, fate in zip(case["boxes"], case["fates"])
            if fate == kind
        ]

    stored = tiles("stored")
    if stored:
        obj.write_tiles(stored)
    attach_bare(obj, tiles("bare"))
    for box, fate in zip(case["boxes"], case["fates"]):
        if fate == "virtual":
            part_of(box).insert_virtual_tile(box)
    if case["shards"] is not None and case["twin"]:
        box = next(b for b, f in zip(case["boxes"], case["fates"]) if f != "hole")
        other = obj._parts[1 - obj.shard_of(box.lowest)]
        other.write_tiles([Tile(box, data[box.to_slices((0, 0))].copy())])
    return root, obj


def _counters():
    return {name: obs.registry.value(name) for name in ZONE_COUNTERS}


def _same_selection(new, old):
    assert new.store is old.store and new.epoch == old.epoch
    assert new.model_ms == old.model_ms
    # per tile id: fetched or answered, its part, its routes, its synopsis
    assert select_oracle.per_tile(new) == select_oracle.per_tile(old)
    # then the tiles the fetch reads, in its page order
    assert select_oracle.fetch_sequence(new) == select_oracle.fetch_sequence(old)


def _selected(obj, case, select):
    """One query's selections by ``select``, its executor and the zone
    counter deltas (``finish`` emits the pruned and answered counts)."""
    with obj._pinned(None) as parts:
        query = ReadExecutor(
            obj.mdd_type,
            case["region"],  # holes may leave it outside the current domain
            merge=obj._MERGE,
            predicate=case["predicate"],
            prune=case["prune"],
            groups=case["groups"],
        )
        before = _counters()
        if select is ReadExecutor.select:  # every part in one pass
            query.select(parts, obj._stacked(parts), condense=case["condense"])
        else:
            for store, view in parts:
                select(query, store, view, condense=case["condense"])
        query.timing.tiles_synopsis_answered = sum(len(s.answered) for s in query.selections)
        query.finish()
        after = _counters()
    return query, {name: after[name] - before[name] for name in ZONE_COUNTERS}


@given(cases())
@settings(max_examples=150, deadline=None)
def test_columnar_select_is_the_per_tile_select(case):
    root, obj = _build(case)
    try:
        new, new_counts = _selected(obj, case, ReadExecutor.select)
        old, old_counts = _selected(obj, case, select_oracle.select)
        assert new_counts == old_counts
        assert new.timing.tiles_pruned == old.timing.tiles_pruned
        assert new.timing.index_nodes == old.timing.index_nodes
        assert len(new.selections) == len(old.selections)
        for name in ("covered", "pruned_cells"):  # per cell, over the parts
            want = np.sum([getattr(sel, name) for sel in old.selections], axis=0)
            assert getattr(new, name).tolist() == want.tolist(), name
        for got, want in zip(new.selections, old.selections):
            _same_selection(got, want)
    finally:
        root.close()


def test_the_pruner_decides_a_selection_in_one_call():
    """The trace target ``TilePruner.can_match`` runs once per selection,
    not once per tile, and counts every synopsis it consults."""
    data = np.arange(64, dtype=np.int32).reshape(8, 8)
    root = Database()
    obj = root.create_object("c", mdd_type("P", "long", "[0:7,0:7]"), "o")
    obj.write_tiles([
        Tile(MInterval([r, c], [r + 1, c + 1]), data[r : r + 2, c : c + 2].copy())
        for r in range(0, 8, 2)
        for c in range(0, 8, 2)
    ])
    calls = []
    real = zonemap.TilePruner.can_match

    def counted(self, rows):
        calls.append(len(rows))
        return real(self, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zonemap.TilePruner, "can_match", counted)
        before = obs.registry.value("index.zone.prune_checks")
        _value, timing, _pushed = obj.aggregate_push(
            MInterval([0, 0], [7, 7]), "count_cells", predicate=CellPredicate(">", 40)
        )
        checks = obs.registry.value("index.zone.prune_checks") - before
    assert calls == [16] and checks == 16
    assert timing.tiles_pruned == 8  # every tile whose maximum is <= 40
    root.close()


def test_a_whole_part_equal_to_the_domain_is_reduced_as_the_whole_tile(monkeypatch):
    """A cached tile whose one part is the whole tile is reduced as the
    tile itself, with no slicing — recognised by the part being equal to
    the tile's domain, never by it being the domain object itself."""
    data = np.arange(64, dtype=np.int32).reshape(8, 8)
    root = Database(io_workers=2, decoded_cache_bytes=1 << 20)
    obj = root.create_object("c", mdd_type("W", "long", "[0:7,0:7]"), "o")
    obj.write_tiles([
        Tile(MInterval([r, 0], [r + 1, 7]), data[r : r + 2].copy()) for r in range(0, 8, 2)
    ])
    obj.read(MInterval([0, 0], [7, 7]))  # every tile cached
    entries = sorted(obj.tile_entries(), key=root.first_page)
    cached = {id(root.decoded_cache.peek(entry.blob_id)) for entry in entries}
    calls = []
    real = pipeline._Reducer.reduce

    def counted(self, values):
        calls.append(id(values) in cached)  # the cached tile itself: a whole-tile call
        return real(self, values)

    monkeypatch.setattr(pipeline._Reducer, "reduce", counted)

    def reduced(items):
        calls.clear()
        fetched, _peak = pipeline.fetch_tile_partials(root, items, np.dtype(np.int32), op="add_cells")
        assert [tile.partials[0].vsum for tile in fetched] == [
            int(data[e.domain.to_slices((0, 0))].sum()) for e in entries
        ]
        return list(calls)

    def equal(entry):
        return MInterval(entry.domain.lower, entry.domain.upper)  # a distinct object

    assert reduced([(e, [equal(e)]) for e in entries]) == [True] * 4
    # the executor routes every whole tile of a predicated roll-up whole
    calls.clear()
    obj.aggregate_push(MInterval([0, 0], [7, 7]), "add_cells", predicate=CellPredicate(">", 3))
    assert calls == [True] * 4
    root.close()


def test_no_two_blobs_of_a_store_share_a_first_page():
    """Hits come in tile-table order, not the tree's; the page order hides
    that only because no two blobs tie on their first page — a zero-byte
    or virtual blob takes a page of its own too."""
    root = Database()
    store = root.store
    ids = [store.put(b""), store.put(b"x"), store.put_virtual(0), store.put(b""), store.put_virtual(4)]
    starts = [record.pages.start for record in store.records(ids)]
    assert len(set(starts)) == len(ids)
    root.close()
