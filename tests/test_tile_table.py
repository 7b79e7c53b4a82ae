"""Every writer keeps the tile table true.

A version's :class:`~repro.storage.mvcc.TileTable` is derived from its
``tiles`` and ``zones`` on first use and cached on the version; a writer
that changed a published version's containers in place would leave that
cache stale.  After every step of a random mix — loads, updates,
deletes, retiles, an aborted transaction, a reopen that replays the WAL,
a checkpoint reload, a rebalancer move, an attached BLOB — the published
table must equal one rebuilt from ``tiles`` + ``zones``, and a pinned
snapshot's table must be unchanged by the commits after it.
"""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.zonemap import CellPredicate
from repro.shard import Rebalancer, ShardedDatabase
from repro.storage.catalog import create_database, open_database, save_database
from repro.storage.mvcc import TileTable
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling

CUBE = mdd_type("TableCube", "long", "[0:63,0:63]")
FULL = MInterval.parse("[0:63,0:63]")
TILINGS = (RegularTiling(1024), RegularTiling(4096), RegularTiling(256))
STEPS = ("load", "update", "delete", "retile", "abort", "reopen", "checkpoint", "snapshot")


def _columns(table: TileTable) -> dict:
    """Everything a select reads of a table, comparable with ``==``."""
    zones = table.zones
    return {
        "entries": [id(entry) for entry in table.entries],
        "ids": table.ids.tolist(),
        "lo": table.lo.tolist(),
        "hi": table.hi.tolist(),
        "cells": table.cells.tolist(),
        "syns": [id(syn) for syn in zones.syns],
        "has": zones.has.tolist(),
        "syn_cells": zones.cells.tolist(),
        "nans": zones.nans.tolist(),
        "comparable": zones.comparable.tolist(),
        "bounds": [column.tolist() for column in zones.bounds],
        "blob_ids": table.blob_ids.tolist(),
        "virtual": table.virtual.tolist(),
        "meeting": table.meeting(np.array(FULL.lowest), np.array(FULL.highest)).tolist(),
    }


def assert_table_true(obj) -> None:
    """The published table — cached by an earlier read — equals one
    rebuilt now from the published ``tiles`` and ``zones``."""
    version = obj._published
    assert _columns(version.table) == _columns(
        TileTable(version.tiles, version.zones, obj.mdd_type)
    )
    assert [entry.tile_id for entry in version.table.entries] == list(version.tiles)


def _touch_tables(obj) -> None:
    """A predicated read: derives the table and its value columns."""
    if obj.current_domain is not None:
        obj.read(obj.current_domain, predicate=CellPredicate(">", 20))


@st.composite
def scripts(draw):
    steps = draw(st.lists(st.sampled_from(STEPS), min_size=2, max_size=8))
    return ["load", *steps], draw(st.integers(0, 2**16))


@given(scripts())
@settings(max_examples=25, deadline=None)
def test_every_writer_keeps_the_published_table_true(tmp_path_factory, script):
    steps, seed = script
    rng = np.random.default_rng(seed)
    directory = tmp_path_factory.mktemp("tables")
    db = create_database(directory / "live", durability="wal")
    obj = db.create_object("c", CUBE, "o")
    snapshots = []
    generation = 0
    for step in steps:
        _touch_tables(obj)
        if step == "load":
            data = rng.integers(0, 40, size=(64, 64), dtype=np.int32)
            data[:, :16] = 0
            with db.transaction():
                if obj.current_domain is not None:
                    obj.drop()
                obj.load_array(data, TILINGS[rng.integers(3)], skip_default_tiles=True)
        elif obj.current_domain is None:
            continue
        elif step == "update":
            lo = rng.integers(0, 48, size=2)
            region = MInterval(lo.tolist(), (lo + rng.integers(1, 16, size=2)).tolist())
            obj.update(region, rng.integers(0, 40, size=region.shape, dtype=np.int32))
        elif step == "delete":
            lo = rng.integers(0, 48, size=2)
            obj.delete_region(MInterval(lo.tolist(), (lo + 16).tolist()))
        elif step == "retile":
            obj.retile(TILINGS[rng.integers(3)])
        elif step == "abort":
            with pytest.raises(RuntimeError):
                with db.transaction():
                    obj.update(obj.current_domain, np.full(obj.current_domain.shape, 7, np.int32))
                    _touch_tables(obj)  # a read of the working state, mid-transaction
                    raise RuntimeError("abort")
        elif step in ("reopen", "checkpoint"):
            if step == "checkpoint":
                save_database(db, directory / "live")
            generation += 1
            copy = directory / f"gen{generation}"
            shutil.copytree(directory / "live", copy)
            db.close()
            db.store.close()
            shutil.rmtree(directory / "live")
            copy.rename(directory / "live")
            db = open_database(directory / "live", durability="wal")
            obj = db.collection("c")["o"]
            snapshots = []  # the old database's pins went with it
        elif step == "snapshot":
            snap = db.snapshot()
            version = snap.version("c", "o")
            snapshots.append((snap, version, _columns(version.table)))
        assert_table_true(obj)
        _touch_tables(obj)
        for _snap, version, columns in snapshots:
            assert _columns(version.table) == columns
            assert columns == _columns(TileTable(version.tiles, version.zones, CUBE))
    for snap, _version, _columns_then in snapshots:
        snap.close()
    db.close()
    db.store.close()


def test_a_rebalancer_move_keeps_every_shard_table_true(tmp_path):
    sdb = ShardedDatabase.create(tmp_path, 2, durability="wal")
    obj = sdb.create_object("c", CUBE, "o")
    data = np.random.default_rng(3).integers(1, 40, size=(64, 64), dtype=np.int32)
    obj.load_array(data, RegularTiling(1024))
    hot = max(range(2), key=lambda shard: obj._parts[shard].tile_count)
    for _ in range(8):
        for entry in obj._parts[hot].tile_entries()[:4]:
            obj.read(entry.domain)
    for part in obj._parts:
        _touch_tables(part)
    moved = Rebalancer(sdb).rebalance_once()
    assert moved is not None and moved.tiles_moved > 0
    for part in obj._parts:
        assert_table_true(part)
    got, _timing = obj.read(obj.current_domain)
    assert got.tobytes() == data.tobytes()
    sdb.close()


def test_an_attach_leaves_a_snapshot_that_has_read_as_it_was():
    db = Database()
    obj = db.create_object("c", CUBE, "o")
    data = np.random.default_rng(5).integers(1, 40, size=(64, 64), dtype=np.int32)
    data[:, 32:] = 0  # the right half is never stored
    obj.load_array(data, RegularTiling(1024), skip_default_tiles=True)
    with db.snapshot() as snap:
        before, _timing = snap.read("c", "o", FULL)
        columns = _columns(snap.version("c", "o").table)
        tile = Tile(MInterval.parse("[0:15,32:47]"), np.full((16, 16), 9, np.int32))
        obj.attach_tile(tile.domain, db.store.put(tile.to_bytes()))
        again, _timing = snap.read("c", "o", FULL)
        assert again.tobytes() == before.tobytes()
        assert _columns(snap.version("c", "o").table) == columns
    assert_table_true(obj)
    now, _timing = obj.read(FULL)
    data[:16, 32:48] = 9
    assert now.tobytes() == data.tobytes()


def test_reads_inside_a_transaction_see_each_write_before_them():
    db = Database()
    obj = db.create_object("c", CUBE, "o")
    data = np.random.default_rng(6).integers(1, 40, size=(64, 64), dtype=np.int32)
    obj.load_array(data, RegularTiling(1024))
    region = MInterval.parse("[8:23,8:23]")
    with db.transaction():
        got, _timing = obj.read(FULL)
        assert got.tobytes() == data.tobytes()
        again, _timing = obj.read(FULL)  # the working version, kept
        assert again.tobytes() == data.tobytes()
        obj.update(region, np.full(region.shape, 77, np.int32))
        data[8:24, 8:24] = 77
        got, _timing = obj.read(FULL)
        assert got.tobytes() == data.tobytes()
        obj.retile(RegularTiling(256))
        got, _timing = obj.read(FULL)
        assert obj._working is not None and obj._working is not obj._published
        assert got.tobytes() == data.tobytes()
        assert _columns(obj._working.table) == _columns(
            TileTable(obj._tiles, obj._zones, CUBE)
        )
    assert obj._working is None
    assert_table_true(obj)
