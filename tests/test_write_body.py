"""Writes are one body over parts (DESIGN §16).

``ShardedMDD``'s write entry points are ``StoredMDD``'s function
objects; a store is the one-part case of the same bodies.  Pinned here:

* the aliasing itself, and that no ``StoredMDD`` method asks what class
  its object is;
* what a sharded object does differently from the separate sharded
  bodies the shared ones replaced — an update meeting no tile commits on
  the first shard, a virtual tile on any shard fails an update before
  any shard commits, a batch is admitted once and an update searches
  each shard's index once;
* the rebalancer's delete step logs one domain shrink per object;
* ``load_virtual`` admits its plan as one batch and stores exactly what
  the old ``insert_virtual_tile`` loop stored.
"""

import inspect

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.rplustree import RPlusTreeIndex
from repro.shard import Rebalancer, ShardedDatabase
from repro.shard.sharded import ShardedMDD
from repro.storage import tilestore
from repro.storage.catalog import WAL_NAME, create_database
from repro.storage.tilestore import Database, StoredMDD
from repro.storage.wal import scan_wal
from repro.tiling.aligned import RegularTiling
from repro.tiling.base import grid_partition

DOMAIN = MInterval.parse("[0:63,0:63]")
CUBE = mdd_type("BodyCube", "long", str(DOMAIN))
WRITES = ("write_tiles", "insert_tile", "load_array", "update", "delete_region")


def box(text: str) -> MInterval:
    return MInterval.parse(text)


def tiles(regions, seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    return [Tile(r, rng.integers(0, 100, size=r.shape).astype(np.int32)) for r in regions]


def grid(region: MInterval = DOMAIN) -> list:
    return list(grid_partition(region, (16, 16)))


def close(store) -> None:
    for db in getattr(store, "shards", [store]):
        db.close()
        db.store.close()


def test_sharded_write_entry_points_are_the_store_bodies():
    for name in WRITES:
        assert vars(ShardedMDD)[name] is vars(StoredMDD)[name], name
    source = inspect.getsource(StoredMDD)
    for probe in ("isinstance(", "ShardedMDD", "hasattr(self", "type(self)"):
        assert probe not in source, probe


def test_a_store_is_its_own_one_part():
    obj = Database().create_object("c", CUBE, "o")
    assert obj._parts == [obj]
    batch = tiles(grid())
    assert obj._owners(batch) == [(obj, batch)]


# ----------------------------------------------------------------------
# What the sharded object now does differently
# ----------------------------------------------------------------------


def test_an_update_meeting_no_tile_commits_on_the_first_part(tmp_path):
    """On a store a no-hit update publishes a new version (a new ETag),
    as it always did; a sharded object now commits it on shard 0 alone
    (it used to commit nothing).  No WAL bytes either way."""
    hole = box("[16:31,16:31]")
    regions = [r for r in grid() if r != hole]
    stores = [
        create_database(tmp_path / "store", durability="wal"),
        ShardedDatabase.create(tmp_path / "sharded", 2, durability="wal"),
    ]
    for store in stores:
        obj = store.create_object("c", CUBE, "o")
        obj.write_tiles(tiles(regions))

        def state() -> list:
            """Per part: database epoch, published version epoch, WAL size."""
            return [
                (part.database.epoch.current, part._published.epoch, part.database.wal.path.stat().st_size)
                for part in obj._parts
            ]

        before = state()
        assert obj.update(hole, np.ones(hole.shape, np.int32)) == 0
        after = state()
        epoch, _published, wal_size = before[0]
        assert after[0] == (epoch + 1, epoch + 1, wal_size)
        assert after[1:] == before[1:]
        close(store)


def test_a_virtual_tile_on_any_shard_fails_an_update_before_any_commit():
    sdb = ShardedDatabase(2)
    obj = sdb.create_object("c", CUBE, "o")
    real = [r for r in grid() if r != box("[48:63,48:63]")]
    obj.write_tiles(tiles(real))
    virtual = box("[48:63,48:63]")
    owner = obj.shard_of(virtual.lowest)
    obj._parts[owner].insert_virtual_tile(virtual)
    other = next(r for r in real if obj.shard_of(r.lowest) != owner)
    region = other.hull(virtual)
    epochs = [db.epoch.current for db in sdb.shards]
    data = obj.read(DOMAIN)[0].copy()
    with pytest.raises(StorageError, match="virtual tile"):
        obj.update(region, np.zeros(region.shape, np.int32))
    assert [db.epoch.current for db in sdb.shards] == epochs
    assert obj.read(DOMAIN)[0].tobytes() == data.tobytes()


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_a_batch_is_admitted_once_and_each_shard_index_searched_once(monkeypatch, n_shards):
    """The cell types and the in-batch sweep run once per batch, a load
    into empty shards searches no index, every tile of a later batch
    meets every populated shard's index once, and an update searches
    each shard's index once."""
    sdb = ShardedDatabase(n_shards)
    obj = sdb.create_object("c", CUBE, "o")
    calls = {"search": 0, "sweep": 0}
    search, sweep = RPlusTreeIndex.search, tilestore.overlapping_pairs

    def counted_search(index, region):
        calls["search"] += 1
        return search(index, region)

    def counted_sweep(bounds):
        calls["sweep"] += 1
        return sweep(bounds)

    monkeypatch.setattr(RPlusTreeIndex, "search", counted_search)
    monkeypatch.setattr(tilestore, "overlapping_pairs", counted_sweep)
    first, batch = tiles(grid()[::2]), tiles(grid()[1::2], seed=1)
    obj.write_tiles(first)
    assert calls == {"search": 0, "sweep": 1}
    assert all(len(part.index) for part in obj._parts)
    calls.update(search=0, sweep=0)
    obj.write_tiles(batch)
    assert calls == {"search": len(batch) * n_shards, "sweep": 1}
    calls.update(search=0, sweep=0)
    region = box("[8:40,8:40]")
    assert obj.update(region, np.zeros(region.shape, np.int32)) == region.cell_count
    assert calls == {"search": n_shards, "sweep": 0}


# ----------------------------------------------------------------------
# The rebalancer's delete step
# ----------------------------------------------------------------------


def test_a_migration_logs_one_domain_shrink_per_object(tmp_path):
    sdb = ShardedDatabase.create(tmp_path / "d", 2, durability="wal")
    obj = sdb.create_object("c", CUBE, "o")
    data = np.random.default_rng(3).integers(0, 100, size=DOMAIN.shape).astype(np.int32)
    obj.write_tiles([Tile(r, data[r.to_slices((0, 0))].copy()) for r in grid()])
    for _ in range(20):
        obj.read(box("[0:31,0:31]"))
    report = Rebalancer(sdb).rebalance_once()
    assert report is not None and report.tiles_moved >= 2
    batches = scan_wal(sdb.shard_dirs[report.source] / WAL_NAME).batches
    ops = [record[1]["op"] for record in batches[-1].records if record[0] == "meta"]
    assert ops.count("tile_remove") == report.tiles_moved
    assert ops.count("object_domain") == 1
    assert obj.current_domain == DOMAIN
    assert obj.read(DOMAIN)[0].tobytes() == data.tobytes()
    close(sdb)


# ----------------------------------------------------------------------
# load_virtual on the batch admission
# ----------------------------------------------------------------------


def test_load_virtual_stores_what_the_one_tile_loop_stored(tmp_path):
    region, tiling = box("[0:99,0:99]"), RegularTiling(512)
    twins = []
    for name in ("batch", "loop"):
        db = create_database(tmp_path / name, durability="wal")
        obj = db.create_object("c", mdd_type("Virtual", "long", "[0:127,0:127]"), "o")
        if name == "batch":
            obj.load_virtual(region, tiling)
        else:
            spec = tiling.tile(region, obj.mdd_type.cell_size)
            with db.transaction():
                for domain in sorted(spec.tiles, key=lambda d: db.tile_key(d.lowest)):
                    obj.insert_virtual_tile(domain)
        twins.append((db, obj))
    (left_db, left), (right_db, right) = twins
    assert left.tile_entries() == right.tile_entries()
    assert sorted(left_db.store.blob_ids()) == sorted(right_db.store.blob_ids())
    assert [left_db.store.record(b).pages for b in sorted(left_db.store.blob_ids())] == [
        right_db.store.record(b).pages for b in sorted(right_db.store.blob_ids())
    ]
    assert left_db.wal.path.read_bytes() == right_db.wal.path.read_bytes()
    for db, _obj in twins:
        close(db)
