"""A batch is admitted whole before any of it is encoded or written.

On one store and on 2 and 4 shards, a batch whose tile overlaps a
stored tile (on its own shard or another), an earlier or a later tile of
the batch, or a batch tile routed to another owner raises
:class:`DomainError` without calling ``encode_tiles`` and leaves blobs,
pages, WAL, commit epoch and tile count as they were; a valid load after
it stores exactly what the same load stores with no rejected attempt
before it.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.errors import DomainError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.shard.sharded import ShardedDatabase
from repro.storage import tilestore
from repro.storage.catalog import create_database

CUBE = mdd_type("AdmitCube", "long", "[0:127,0:127]")


def block(bx: int, by: int) -> MInterval:
    return MInterval.from_shape((32, 32), (32 * bx, 32 * by))


#: Columns 0 and 3 of 32 x 32 blocks are stored; 1 and 2 are free.
STORED = [block(bx, by) for bx in (0, 3) for by in range(4)]
FREE = [block(bx, by) for bx in (1, 2) for by in range(4)]
#: 16 x 16 probes on an 8-cell lattice: the overlapping tiles.
PROBES = [
    MInterval.from_shape((16, 16), (x, y)) for x in range(0, 113, 8) for y in range(0, 113, 8)
]


def tile(region: MInterval, seed: int = 0) -> Tile:
    values = np.random.default_rng(seed).integers(0, 1000, size=region.shape)
    return Tile(region, values.astype(np.int32))


def make(directory, n_shards):
    if n_shards is None:
        return create_database(directory, durability="wal")
    return ShardedDatabase.create(directory, n_shards, durability="wal")


def databases(store) -> list:
    return list(getattr(store, "shards", [store]))


def close(store) -> None:
    for db in databases(store):
        db.close()
        db.store.close()


def owner(obj, region: MInterval):
    return obj.shard_of(region.lowest) if hasattr(obj, "shard_of") else None


def holders(obj, region: MInterval) -> set:
    """Shards (``None`` on one store) holding a stored tile ``region`` meets."""
    if not hasattr(obj, "shard_of"):  # a store's one part is itself
        return {None} if obj.index.search(region).entries else set()
    return {k for k, part in enumerate(obj._parts) if part.index.search(region).entries}


def probe(test) -> MInterval:
    found = [p for p in PROBES if test(p)]
    assert found, "the layout offers no probe for this case"
    return found[0]


def stored_own_shard(obj) -> list:
    return [tile(FREE[0]), tile(probe(lambda p: holders(obj, p) == {owner(obj, p)}), 1)]


def stored_other_shard(obj) -> list:
    return [
        tile(FREE[0]),
        tile(probe(lambda p: holders(obj, p) and owner(obj, p) not in holders(obj, p)), 1),
    ]


def _same_batch(obj, same_owner: bool) -> tuple:
    """A free block and a probe meeting it and no stored tile."""
    for free in FREE:
        for p in PROBES:
            if p.intersects(free) and not holders(obj, p) and (
                (owner(obj, p) == owner(obj, free)) == same_owner
            ):
                return tile(free), tile(p, 1)
    raise AssertionError("the layout offers no probe for this case")


def earlier_batch_tile(obj) -> list:
    free, over = _same_batch(obj, same_owner=True)
    return [free, tile(FREE[-1], 2), over]


def later_batch_tile(obj) -> list:
    free, over = _same_batch(obj, same_owner=True)
    return [over, tile(FREE[-1], 2), free]


def other_owner_in_batch(obj) -> list:
    free, over = _same_batch(obj, same_owner=False)
    return [free, over]


ONE_STORE = [stored_own_shard, earlier_batch_tile, later_batch_tile]
SHARDED = ONE_STORE + [stored_other_shard, other_owner_in_batch]
CASES = [(None, case) for case in ONE_STORE] + [
    (n, case) for n in (2, 4) for case in SHARDED
]


def preload(store):
    obj = store.create_object("c", CUBE, "o")
    obj.write_tiles([tile(region, seed) for seed, region in enumerate(STORED)])
    return obj


def valid_load(obj) -> None:
    obj.write_tiles([tile(region, 10 + seed) for seed, region in enumerate(FREE)])


def state(store, obj) -> tuple:
    return (
        [
            (
                len(db.store),
                db.store.total_pages,
                db.wal.path.stat().st_size,
                db.wal._next_lsn,
                db.last_commit_epoch(),
            )
            for db in databases(store)
        ],
        obj.tile_count,
    )


def stored(store, obj) -> tuple:
    """Everything a load leaves behind: bytes, blob ids, pages, tiles."""
    return (
        [
            (
                db.wal.path.read_bytes(),
                db.store.path.read_bytes(),
                sorted((b, db.store.record(b).pages) for b in db.store.blob_ids()),
            )
            for db in databases(store)
        ],
        [dataclasses.astuple(entry) for entry in obj.tile_entries()],
    )


@pytest.mark.parametrize(
    "n_shards, case", CASES, ids=[f"{n or 1}-{case.__name__}" for n, case in CASES]
)
def test_a_rejected_batch_encodes_and_writes_nothing(tmp_path, monkeypatch, n_shards, case):
    encoded = []
    encode = tilestore.encode_tiles

    def spy(database, tiles):
        encoded.append(len(tiles))
        return encode(database, tiles)

    store = make(tmp_path / "rejected", n_shards)
    obj = preload(store)
    batch = case(obj)
    before = state(store, obj)
    monkeypatch.setattr(tilestore, "encode_tiles", spy)
    with pytest.raises(DomainError, match="overlaps"):
        obj.write_tiles(batch)
    assert encoded == []
    assert state(store, obj) == before
    monkeypatch.undo()

    valid_load(obj)
    twin = make(tmp_path / "clean", n_shards)
    twin_obj = preload(twin)
    valid_load(twin_obj)
    for db in databases(store) + databases(twin):
        db.store.flush_pending()
    assert stored(store, obj) == stored(twin, twin_obj)
    assert obj.read(obj.current_domain)[0].tobytes() == twin_obj.read(obj.current_domain)[0].tobytes()
    close(store)
    close(twin)


def test_the_message_names_both_tiles_of_the_first_offender():
    obj = tilestore.Database().create_object("c", CUBE, "o")
    a, b, c = block(0, 0), block(1, 0), MInterval.parse("[16:47,8:15]")
    with pytest.raises(DomainError, match=r"tile \[16:47,8:15\] overlaps tile \[0:31,0:31\]"):
        obj.write_tiles([tile(a), tile(b), tile(c)])
    assert obj.tile_count == 0
