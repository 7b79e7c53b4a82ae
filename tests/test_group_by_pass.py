"""GROUP BY is one pass: one pin, one index search, each tile fetched once.

The contract under test: ``aggregate_push(..., groups=...)`` — what
``QueryEngine.group_by_query`` and ``aggregate_by_category`` run —
returns, for every group cell, bitwise the value the per-group loop
(:func:`tests.group_oracle.group_loop`) and the materialize reference
(:func:`repro.bench.query.reference_group_by`) return, with the loop's
``pushed`` flag; while decoding each tile at most once per statement,
keeping the partial-aggregate working set at one tile, and
leaving one access-log record and one read per store.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.bench.query import reference_group_by
from repro.core.cells import BaseType, base_type, register_base_type
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.zonemap import AGG_FUNCS, CellPredicate
from repro.query.engine import QueryEngine
from repro.shard import ShardedDatabase
from repro.storage.pipeline import fetch_tile_partials
from repro.storage.tilestore import Database, StoredMDD
from repro.tiling.base import grid_partition
from tests.group_oracle import group_loop

OPS = tuple(sorted(AGG_FUNCS))

NINE = register_base_type(
    BaseType("group_pass_long9", np.dtype(np.int32), default=9)
)
#: name -> base type for the property sweep
BASES = {
    "long": base_type("long"),
    "ulong": base_type("ulong"),
    "double": base_type("double"),
    "nonzero-default": NINE,
}
DEPLOYMENTS = ("single", 1, 2, 4)


def _build(
    data, base, tile_shape, deployment, gap=-1, gap_kind="hole", io_workers=2, bare=0
):
    """``data`` tiled by ``tile_shape`` on one store or ``n`` shards.

    Tile ``gap`` (modulo the tile count) is left out (a default-filled
    hole) or registered virtual; the returned mirror holds the default
    there either way.  The last ``bare`` tiles are attached without a
    synopsis: with none to bound them, integer sums over the group cells
    they meet — and only those — may not be combined.
    """
    domain = MInterval.from_shape(data.shape)
    mdd = mdd_type("T", base, str(domain))
    if deployment == "single":
        root = Database(io_workers=io_workers)
    else:
        root = ShardedDatabase(deployment, io_workers=io_workers)
    obj = root.create_object("c", mdd, "o")
    mirror = data.astype(base.dtype)
    boxes = list(grid_partition(domain, tile_shape))
    hole = boxes.pop(gap % len(boxes)) if gap >= 0 and len(boxes) > 1 else None
    if hole is not None:
        mirror[hole.to_slices(domain.lowest)] = base.default
    tiles = [Tile(box, mirror[box.to_slices(domain.lowest)].copy()) for box in boxes]
    obj.write_tiles(tiles[: len(tiles) - bare])
    attach_bare(obj, tiles[len(tiles) - bare :])
    if hole is not None and gap_kind == "virtual":
        part = obj if deployment == "single" else obj._parts[obj.shard_of(hole.lowest)]
        part.insert_virtual_tile(hole)
    return root, obj, mirror


def attach_bare(obj, tiles):
    """Register ``tiles`` with no synopsis through ``attach_tile`` (the
    public path that computes none), each stored on the part owning it."""
    for tile in tiles:
        part = obj if isinstance(obj, StoredMDD) else obj._parts[obj.shard_of(tile.domain.lowest)]
        part.attach_tile(tile.domain, part.database.store.put(tile.to_bytes()))


def _stores(root):
    return [root] if isinstance(root, Database) else root.shards


def _counter(name):
    return obs.snapshot()["counters"].get(name, 0)


# ----------------------------------------------------------------------
# Property: the one pass against the loop and the materialize reference
# ----------------------------------------------------------------------


@st.composite
def group_cases(draw):
    rows = draw(st.integers(3, 12))
    cols = draw(st.integers(3, 12))
    base = draw(st.sampled_from(sorted(BASES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if BASES[base].dtype.kind == "f":
        data = rng.normal(scale=40.0, size=(rows, cols))
        if draw(st.booleans()):
            data[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = np.nan
    else:
        data = rng.integers(0, 200, size=(rows, cols))
    tile_shape = (draw(st.integers(1, rows)), draw(st.integers(1, cols)))
    gap = draw(st.sampled_from([-1, -1, 0, 2, 5]))
    gap_kind = draw(st.sampled_from(["hole", "virtual"]))
    deployment = draw(st.sampled_from(DEPLOYMENTS))
    # integer add/avg are where exactness can differ between cells
    op = draw(st.sampled_from(OPS + ("add_cells", "avg_cells")))
    predicate = None
    if draw(st.booleans()):
        predicate = CellPredicate(
            draw(st.sampled_from(("<", ">", "!=", "="))), draw(st.integers(0, 150))
        )
    prune = draw(st.booleans())
    bare = draw(st.sampled_from([0, 1, 3]))
    # a trimmed region, and spans that may overlap, leave gaps or
    # overhang the trim (the engine clips them)
    region = []
    spec = {}
    for axis, extent in enumerate((rows, cols)):
        lo = draw(st.integers(0, extent - 1))
        hi = draw(st.integers(lo, extent - 1))
        region.append((lo, hi))
        if draw(st.booleans()):
            spans = []
            for _ in range(draw(st.integers(1, 3))):
                s_lo = draw(st.integers(0, extent - 1))
                s_hi = draw(st.integers(s_lo, extent - 1))
                if s_hi >= lo and s_lo <= hi:
                    spans.append((s_lo, s_hi))
            if spans:
                spec[axis] = spans
    region = MInterval(*zip(*region))
    return (
        data, base, tile_shape, gap, gap_kind, bare, deployment, op, predicate, prune,
        region, spec,
    )


@given(group_cases())
@settings(max_examples=80, deadline=None)
def test_one_pass_matches_the_loop_and_the_reference(case):
    (
        data, base, tile_shape, gap, gap_kind, bare, deployment, op, predicate, prune,
        region, spec,
    ) = case
    root, obj, _mirror = _build(
        data, BASES[base], tile_shape, deployment, gap, gap_kind, bare=bare
    )
    region = region.intersection(obj.current_domain)
    if region is None:
        return  # the hole took the trimmed corner with it
    spec = {
        axis: [s for s in spans if s[1] >= region.lowest[axis] and s[0] <= region.highest[axis]]
        for axis, spans in spec.items()
    }
    spec = {axis: spans for axis, spans in spec.items() if spans}
    result = QueryEngine(root).group_by_query(
        obj, region, op, spec, predicate=predicate, prune=prune
    )
    want, loop_timing, all_pushed = group_loop(obj, result.groups, op, predicate, prune)
    reference, _timing = reference_group_by(
        obj, region, op, dict(enumerate(result.groups)), predicate
    )
    assert result.value.tobytes() == want.tobytes()
    assert result.value.tobytes() == reference.tobytes()
    assert result.plan.pushed is all_pushed
    assert result.timing.cells_result == loop_timing.cells_result
    assert result.timing.tiles_read <= loop_timing.tiles_read
    root.close()


# ----------------------------------------------------------------------
# Deterministic: decode once, bounded working set, one record per store
# ----------------------------------------------------------------------

DOMAIN = MInterval.parse("[0:63,0:63]")
#: Every span border but 31/32 on dim0 cuts through 16x16 tiles; the
#: second dim1 span overlaps the first, and the tiles past 47 on dim1
#: meet no cell.
SPANS = [[(0, 23), (24, 31), (32, 63)], [(0, 20), (10, 40), (41, 47)]]
HULL = MInterval.parse("[0:63,0:47]")


def _cube(deployment, base="long"):
    data = (np.arange(64 * 64) % 97).reshape(64, 64)
    return _build(data, base_type(base), (16, 16), deployment)


def _distinct_tiles_met(obj, spans):
    """Tiles meeting at least one group cell — each decoded exactly once."""
    cells = [MInterval(*zip(*combo)) for combo in itertools.product(*spans)]
    return sum(
        1 for entry in obj.tile_entries() if any(entry.domain.intersects(c) for c in cells)
    )


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("predicate", (None, CellPredicate(">", -1)))
def test_each_tile_decoded_once(deployment, predicate):
    root, obj, _ = _cube(deployment)
    decoded = _counter("pipeline.tiles_decoded")
    # prune=False: nothing is pruned or synopsis-answered, so every tile
    # meeting a cell is fetched — once, however many cells it straddles
    values, timing, pushed = obj.aggregate_push(
        DOMAIN, "add_cells", predicate=predicate, prune=False, groups=SPANS
    )
    met = _distinct_tiles_met(obj, SPANS)
    assert pushed
    assert timing.tiles_read == timing.tiles_partial_agg == met == 12
    assert _counter("pipeline.tiles_decoded") - decoded == met
    assert timing.cells_result == sum(
        (h0 - l0 + 1) * (h1 - l1 + 1) for l0, h0 in SPANS[0] for l1, h1 in SPANS[1]
    )
    loop_values, loop_timing, _ = group_loop(obj, SPANS, "add_cells", predicate, False)
    assert values.tobytes() == loop_values.tobytes()
    assert loop_timing.tiles_read > met  # the loop decodes straddlers per group
    root.close()


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_exactness_is_decided_per_cell(deployment):
    """A tile without a synopsis keeps integer sums from being combined
    in the cells it meets — the roll-up falls back — but not elsewhere."""
    data = np.arange(64).reshape(8, 8)
    root, obj, _ = _build(data, base_type("long"), (4, 4), deployment, bare=1)
    spans = [[(0, 3), (4, 7)], [(0, 7)]]
    values, _timing, pushed = obj.aggregate_push(
        MInterval.parse("[0:7,0:7]"), "add_cells", groups=spans
    )
    want, _timing, loop_pushed = group_loop(obj, spans, "add_cells")
    assert values.tobytes() == want.tobytes()
    assert pushed is loop_pushed is False
    _value, _timing, first_pushed = obj.aggregate_push(
        MInterval.parse("[0:3,0:7]"), "add_cells", groups=[[(0, 3)], [(0, 7)]]
    )
    assert first_pushed
    root.close()


@pytest.mark.parametrize("io_workers", (1, 2, 4))
def test_peak_bounded_by_one_tile(io_workers):
    data = (np.arange(64 * 64) % 97).reshape(64, 64)
    root, obj, _ = _build(data, base_type("long"), (16, 16), "single", io_workers=io_workers)
    _values, timing, _pushed = obj.aggregate_push(
        DOMAIN, "count_cells", predicate=CellPredicate(">", 3), groups=SPANS
    )
    assert timing.peak_partial_bytes == 16 * 16 * 4  # one tile, whatever io_workers
    root.close()


def test_float_fallback_composes_the_hull_once():
    root, obj, mirror = _cube("single", base="double")
    mirror = mirror.astype(np.float64) + 0.1
    obj.update(DOMAIN, mirror)
    values, timing, pushed = obj.aggregate_push(DOMAIN, "add_cells", groups=SPANS)
    loop_values, loop_timing, loop_pushed = group_loop(obj, SPANS, "add_cells")
    assert not pushed and not loop_pushed
    assert values.tobytes() == loop_values.tobytes()
    assert timing.tiles_read == _distinct_tiles_met(obj, SPANS) < loop_timing.tiles_read
    root.close()


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_one_ring_record_and_one_read_per_store(deployment):
    root, obj, _ = _cube(deployment)
    stores = _stores(root)
    rings = [len(db.access_log) for db in stores]
    reads = _counter("tilestore.reads")
    read_ms = obs.snapshot()["histograms"]["tilestore.read_ms"]["count"]
    engine = QueryEngine(root)
    result = engine.group_by_query(obj, DOMAIN, "add_cells", dict(enumerate(SPANS)))
    assert [len(db.access_log) for db in stores] == [r + 1 for r in rings]
    events = [db.access_log.events()[-1] for db in stores]
    assert {(event.op, event.region) for event in events} == {("read", HULL)}
    assert sum(event.cost_ms for event in events) == pytest.approx(
        result.timing.t_o + result.timing.t_ix_pages, rel=0, abs=1e-9
    )
    assert _counter("tilestore.reads") - reads == 1
    assert obs.snapshot()["histograms"]["tilestore.read_ms"]["count"] - read_ms == 1
    assert result.value.shape == (3, 3)
    root.close()


def test_a_straddling_tile_yields_one_partial_per_part():
    root, obj, mirror = _cube("single")
    entry = next(e for e in obj.tile_entries() if e.domain == MInterval.parse("[16:31,0:15]"))
    parts = (MInterval.parse("[16:23,0:15]"), MInterval.parse("[24:31,0:15]"))
    fetched, _peak = fetch_tile_partials(root, [(entry, parts)], np.dtype(np.int32))
    (tile,) = fetched
    assert fetched.decoded == [True]  # decoded once, for both parts
    assert [p.vsum for p in tile.partials] == [
        int(mirror[part.to_slices((0, 0))].sum()) for part in parts
    ]
    root.close()
