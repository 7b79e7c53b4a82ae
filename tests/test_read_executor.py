"""The read executor contract: every entry point, over every deployment
and data shape, returns the numpy mirror bitwise, charges the disk clock
exactly what its timing reports, moves the zone-map counters the same
way single-store and sharded, and leaves no pin behind."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.cells import BaseType, base_type, register_base_type
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.zonemap import AGG_FUNCS, CellPredicate
from repro.query.engine import QueryEngine
from repro.query.timing import QueryTiming
from repro.shard import Rebalancer, ShardedDatabase
from repro.storage.compression import decompress
from repro.storage.tilestore import Database
from repro.tiling.base import grid_partition

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from check_regression import CHARGE_FIELDS  # noqa: E402

DOMAIN = MInterval.parse("[0:63,0:63]")
ORIGIN = DOMAIN.lowest
#: Straddles tile borders on every side: inner tiles are fully covered
#: (synopsis-answerable), the rim is clipped.
BOX = MInterval.parse("[5:58,3:60]")
#: An inner tile: left out (hole) or registered virtual.
GAP = MInterval.parse("[16:31,32:47]")
#: Tiles holding only small values, so the predicate prunes them.
LOW = (MInterval.parse("[32:47,16:31]"), MInterval.parse("[0:15,48:63]"))
PREDICATE = CellPredicate(">", 60)
GROUP_SPEC = {0: ((0, 31), (32, 63)), 1: ((0, 15), (16, 47), (48, 63))}

SEVEN = register_base_type(
    BaseType("executor_long7", np.dtype(np.int32), default=7)
)

#: name -> (base type, what becomes of the GAP tile)
VARIANTS = {
    "int32": (base_type("long"), "stored"),
    "float64": (base_type("double"), "stored"),
    "nonzero-default": (SEVEN, "hole"),
    "virtual-tile": (base_type("long"), "virtual"),
    "hole": (base_type("double"), "hole"),
}
DEPLOYMENTS = ("single", 1, 2, 4)
ZONE_COUNTERS = (
    "index.zone.prune_checks",
    "index.zone.tiles_pruned",
    "index.zone.synopsis_answered",
)


def _cells(base: BaseType) -> np.ndarray:
    rng = np.random.default_rng(11)
    data = rng.integers(0, 100, size=DOMAIN.shape)
    for box in LOW:
        data[box.to_slices(ORIGIN)] %= 50
    if base.dtype.kind == "f":
        return data.astype(np.float64) + 0.3
    return data.astype(base.dtype)


def _build(variant: str, deployment):
    """A loaded object, the databases behind it and its numpy mirror."""
    base, gap = VARIANTS[variant]
    mdd = mdd_type("cube", base, str(DOMAIN))
    if deployment == "single":
        root = Database(io_workers=2)
        stores = [root]
    else:
        root = ShardedDatabase(deployment, io_workers=2)
        stores = root.shards
    obj = root.create_object("c", mdd, "cube")
    mirror = _cells(base)
    boxes = list(grid_partition(DOMAIN, (16, 16)))
    if gap != "stored":
        boxes.remove(GAP)
        mirror[GAP.to_slices(ORIGIN)] = base.default
    obj.write_tiles([Tile(box, mirror[box.to_slices(ORIGIN)].copy()) for box in boxes])
    if gap == "virtual":
        part = obj if deployment == "single" else obj._parts[
            obj.shard_of(GAP.lowest)
        ]
        part.insert_virtual_tile(GAP)
    root.reset_clock()
    return root, stores, obj, mirror


def _box(mirror: np.ndarray, box: MInterval = BOX) -> np.ndarray:
    # contiguous, like a composed slab: float sums follow memory layout
    return np.ascontiguousarray(mirror[box.to_slices(ORIGIN)])


def _masked(block: np.ndarray, default) -> np.ndarray:
    return np.where(PREDICATE.mask(block), block, np.asarray(default, block.dtype))


def _same(got, want) -> bool:
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return type(got) is type(want) and repr(got) == repr(want)


# Each entry point: (root, obj, mirror, default) -> (got, want, timing).


def _read(root, obj, mirror, default):
    got, timing = obj.read(BOX)
    return got, _box(mirror), timing


def _masked_read(root, obj, mirror, default):
    got, timing = obj.read(BOX, predicate=PREDICATE)
    return got, _masked(_box(mirror), default), timing


def _read_blocks(root, obj, mirror, default):
    got = np.full(BOX.shape, default, dtype=mirror.dtype)
    total = None
    for part, data, timing in obj.read_blocks(BOX):
        got[part.to_slices(BOX.lowest)] = data
        total = timing if total is None else total.add(timing)
    return got, _box(mirror), total


def _read_stored(root, obj, mirror, default):
    got = np.full(BOX.shape, default, dtype=mirror.dtype)
    tiles, timing = obj.read_stored(BOX)
    for entry, payload in tiles:
        if entry.virtual:
            continue  # synthesized default cells, as the fill already holds
        cells = np.frombuffer(decompress(payload, entry.codec), dtype=mirror.dtype)
        part = entry.domain.intersection(BOX)
        got[part.to_slices(BOX.lowest)] = cells.reshape(entry.domain.shape)[
            part.to_slices(entry.domain.lowest)
        ]
    return got, _box(mirror), timing


def _clock(root) -> float:
    return sum(db.disk.time_ms for db in getattr(root, "shards", [root]))


def _tile_plan(root, obj, mirror, default):
    """The plan is the tiles a read fetches, and costs its index lookup
    alone; the timing returned is that read's plus the plan's pages."""
    before = _clock(root)
    plan = obj.tile_plan(BOX)
    planned_ms = _clock(root) - before
    _out, timing = obj.read(BOX)
    assert planned_ms == pytest.approx(timing.t_ix_pages, rel=0, abs=1e-6)
    assert len(plan) == timing.tiles_read
    want = sorted(str(e.domain) for e in obj.tile_entries() if e.domain.intersects(BOX))
    return sorted(str(e.domain) for e in plan), want, timing.add(
        QueryTiming(t_ix_pages=planned_ms)
    )


def _aggregate(root, obj, mirror, default):
    got, timing = obj.aggregate(BOX, "add_cells")
    return got, AGG_FUNCS["add_cells"](_box(mirror)), timing


def _push(op, predicate=None):
    def run(root, obj, mirror, default):
        got, timing, pushed = obj.aggregate_push(BOX, op, predicate=predicate)
        block = _box(mirror)
        if predicate is not None:
            block = _masked(block, default)
        exact = op != "add_cells" or mirror.dtype.kind != "f"
        assert pushed is exact  # float sums must take the slab fallback
        return got, AGG_FUNCS[op](block), timing

    return run


def _group_by(root, obj, mirror, default):
    result = QueryEngine(root).group_by_query(
        obj, DOMAIN, "add_cells", GROUP_SPEC
    )
    want = np.zeros((2, 3), dtype=np.float64)
    for i, (lo0, hi0) in enumerate(GROUP_SPEC[0]):
        for j, (lo1, hi1) in enumerate(GROUP_SPEC[1]):
            box = MInterval([lo0, lo1], [hi0, hi1])
            want[i, j] = AGG_FUNCS["add_cells"](_box(mirror, box))
    return result.value, want, result.timing


ENTRY_POINTS = {
    "read": _read,
    "masked-read": _masked_read,
    "read_blocks": _read_blocks,
    "read_stored": _read_stored,
    "tile_plan": _tile_plan,
    "aggregate": _aggregate,
    "push-max": _push("max_cells"),
    "push-add": _push("add_cells"),  # the float fallback on float64
    "push-add-where": _push("add_cells", PREDICATE),
    "group-by": _group_by,
}


def _run(entry: str, variant: str, deployment):
    """Run one cell of the matrix; returns what the parity checks need."""
    root, stores, obj, mirror = _build(variant, deployment)
    clock = _clock(root)
    before = obs.snapshot()["counters"]
    got, want, timing = ENTRY_POINTS[entry](
        root, obj, mirror, VARIANTS[variant][0].default
    )
    after = obs.snapshot()["counters"]
    assert _same(got, want), f"{entry} differs from the numpy mirror"
    charged = _clock(root) - clock
    assert charged == pytest.approx(
        timing.t_o + timing.t_ix_pages, rel=0, abs=1e-6
    ), "the disk clock advanced by more than the timing reports"
    assert all(db.epoch.active_pins == 0 for db in stores)
    # the gauge is process-wide; pins are released last-taken-first, so
    # the final unpin was the first store's
    assert obs.snapshot()["gauges"]["mvcc.pin_floor"] == stores[0].epoch.current
    zone = {name: after[name] - before[name] for name in ZONE_COUNTERS}
    root.close()
    return timing, zone


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_matrix(entry, deployment, variant):
    timing, zone = _run(entry, variant, deployment)
    if deployment == "single":
        return
    single_timing, single_zone = _run(entry, variant, "single")
    assert zone == single_zone, "zone-map counters differ from one store"
    if deployment == 1:
        for field in CHARGE_FIELDS:
            assert getattr(timing, field) == getattr(single_timing, field), field


@pytest.mark.parametrize("variant", ("int32", "float64", "hole"))
@pytest.mark.parametrize("deployment", ("single", 2))
@pytest.mark.parametrize("op", sorted(AGG_FUNCS))
def test_aggregate_is_the_short_form_of_aggregate_push(op, deployment, variant):
    """One aggregate path: ``aggregate`` is ``aggregate_push(...)[:2]`` in
    value bits and in every gated charge, on a fresh store each."""
    root, _stores, obj, _mirror = _build(variant, deployment)
    value, timing = obj.aggregate(BOX, op)
    root.close()
    root, _stores, obj, _mirror = _build(variant, deployment)
    want, want_timing, _pushed = obj.aggregate_push(BOX, op)
    root.close()
    assert _same(value, want)
    for field in CHARGE_FIELDS:
        assert getattr(timing, field) == getattr(want_timing, field), field


def test_prune_and_synopsis_paths_are_exercised():
    """The matrix would prove nothing if BOX never pruned or answered."""
    _timing, zone = _run("push-add-where", "int32", 4)
    assert zone["index.zone.tiles_pruned"] >= 1
    timing, zone = _run("push-add", "int32", 4)
    assert zone["index.zone.synopsis_answered"] >= 1
    assert timing.tiles_synopsis_answered == zone["index.zone.synopsis_answered"]


def test_pushed_aggregates_count_as_shard_load():
    """Aggregate-only traffic over one shard's keys makes that shard the
    rebalancer's hottest: the executor records every entry point."""
    sdb, _stores, obj, _mirror = _build("int32", 4)
    hot = max(
        shard for shard, part in enumerate(obj._parts) if part.tile_count
    )
    box = obj._parts[hot].tile_entries()[0].domain
    for _ in range(5):
        # predicated, so the tile is decoded rather than synopsis-answered
        _value, _timing, pushed = obj.aggregate_push(
            box, "add_cells", predicate=CellPredicate(">", -1)
        )
        assert pushed
    loads = Rebalancer(sdb).shard_loads()
    assert loads[hot] > 0
    assert max(range(len(loads)), key=loads.__getitem__) == hot
    sdb.close()
