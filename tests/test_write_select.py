"""Writes select where reads do: from the tile table, not the R+-tree.

Admission, ``update``'s hits, ``delete_region``'s victims and the hull a
delete shrinks to are masks over the tile table of the version the
statement sees.  Against the tree as an oracle — its ``search`` — on one
store and on 2 and 4 shards, over aligned, directional and
areas-of-interest loads, through seeded ``write_tiles``, ``update``,
``delete_region`` and rebalancer steps, every update's hits, every
delete's victims and every batch's accept or reject are the tree's.
Inside one transaction, a tile dropped earlier no longer blocks a write
and a tile registered earlier does; a migration's dual presence is not
an overlap.
"""

import numpy as np
import pytest

from repro.core.errors import DomainError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.shard import Rebalancer, ShardedDatabase
from repro.storage.backends import MemoryBlobStore
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from repro.tiling.directional import DirectionalTiling
from repro.tiling.interest import AreasOfInterestTiling

DOMAIN = MInterval.parse("[0:63,0:63]")
CUBE = mdd_type("WriteSelect", "long", str(DOMAIN))
TILINGS = {
    "aligned": RegularTiling(1024),
    "directional": DirectionalTiling({0: (0, 20, 45, 63), 1: (0, 30, 63)}, 1024),
    "interest": AreasOfInterestTiling(
        [MInterval.parse("[5:20,10:40]"), MInterval.parse("[30:60,0:15]")], 1024
    ),
}
DEPLOYMENTS = (None, 2, 4)


def _box(rng, largest: int) -> MInterval:
    low = rng.integers(0, 64, 2)
    high = np.minimum(low + rng.integers(0, largest, 2), 63)
    return MInterval(low.tolist(), high.tolist())


def _values(rng, box: MInterval) -> np.ndarray:
    return rng.integers(0, 1000, box.shape).astype(np.int32)


def _searched(obj, region: MInterval) -> list:
    """The oracle: every part's tree search of ``region``, as ids."""
    return [sorted(e.tile_id for e in part.index.search(region).entries) for part in obj._parts]


def _admits(obj, domains: list) -> bool:
    """The oracle's admission: no batch tile meets a stored tile any
    part's tree finds, nor an earlier tile of the batch."""
    for at, domain in enumerate(domains):
        if any(_searched(obj, domain)) or any(domain.intersects(d) for d in domains[:at]):
            return False
    return True


def _step_write(obj, rng, holes: list) -> bool:
    """A batch of refills of dropped tiles, sometimes with a random box
    (which mostly meets a stored tile or the batch)."""
    picked = [holes[k] for k in rng.permutation(len(holes))[: rng.integers(0, 4)]]
    if not picked or rng.random() < 0.5:
        picked.append(_box(rng, 12))
    admitted = _admits(obj, picked)
    try:
        obj.write_tiles([Tile(box, _values(rng, box)) for box in picked])
    except DomainError:
        assert not admitted, picked
    else:
        assert admitted, picked
        holes[:] = [hole for hole in holes if hole not in picked]
    return admitted


def _step_update(obj, rng) -> None:
    region = _box(rng, 24)
    assert [sorted(e.tile_id for e in part._hits(region)) for part in obj._parts] == (
        _searched(obj, region)
    )
    obj.update(region, _values(rng, region))


def _step_delete(obj, rng, holes: list) -> None:
    region = _box(rng, 48)
    victims = [[e.tile_id for e in part._victims(region)] for part in obj._parts]
    expected = [
        sorted(e.tile_id for e in part.index.search(region).entries if region.contains(e.domain))
        for part in obj._parts
    ]
    assert victims == expected
    domains = [e.domain for part in obj._parts for e in part._victims(region)]
    assert obj.delete_region(region) == len(domains)
    holes += domains
    for part in obj._parts:  # the shrunk domain is the hull of the tiles left
        hull = [e.domain for e in part.index.entries()]
        assert part._tile_hull() == (MInterval.hull_of(hull) if hull else None)


def _step_rebalance(obj, sdb, rng) -> None:
    hot = int(rng.integers(0, len(obj._parts)))
    for entry in obj._parts[hot].tile_entries()[:4]:
        obj.read(entry.domain)
    Rebalancer(sdb).rebalance_once()


@pytest.mark.parametrize("tiling", TILINGS)
@pytest.mark.parametrize("n_shards", DEPLOYMENTS, ids=["store", "2-shard", "4-shard"])
def test_writes_select_what_the_tree_finds(n_shards, tiling):
    root = Database() if n_shards is None else ShardedDatabase(n_shards)
    obj = root.create_object("c", CUBE, "o")
    data = np.random.default_rng(55).integers(0, 1000, DOMAIN.shape).astype(np.int32)
    obj.load_array(data, TILINGS[tiling])
    rng = np.random.default_rng([n_shards or 1, list(TILINGS).index(tiling)])
    holes: list = []
    admitted = set()
    for _ in range(60):
        kind = rng.choice(["write", "update", "delete", "rebalance"], p=[0.4, 0.3, 0.2, 0.1])
        if kind == "write":
            admitted.add(_step_write(obj, rng, holes))
        elif kind == "update":
            _step_update(obj, rng)
        elif kind == "delete":
            _step_delete(obj, rng, holes)
        elif n_shards is not None:
            _step_rebalance(obj, root, rng)
    stored = [e.domain for e in obj.tile_entries()]
    assert len(stored) == len(set(stored)) == obj.tile_count
    assert admitted == {True, False}  # the steps both accepted and rejected batches
    root.close()


# ----------------------------------------------------------------------
# Inside one transaction
# ----------------------------------------------------------------------


def _loaded(n_shards):
    root = Database() if n_shards is None else ShardedDatabase(n_shards)
    obj = root.create_object("c", CUBE, "o")
    obj.load_array(np.arange(DOMAIN.cell_count, dtype=np.int32).reshape(DOMAIN.shape),
                   RegularTiling(1024))
    return root, obj


@pytest.mark.parametrize("n_shards", DEPLOYMENTS, ids=["store", "2-shard", "4-shard"])
def test_a_transaction_sees_its_own_drops_and_registrations(n_shards):
    """A tile dropped earlier in the transaction no longer blocks a
    write; a tile registered earlier in it does, and so does its hit."""
    root, obj = _loaded(n_shards)
    box = MInterval.parse("[0:15,0:15]")
    part = obj._parts[0] if n_shards is None else obj._parts[obj.shard_of(box.lowest)]
    database = part.database
    tile = Tile(box, np.full(box.shape, 7, dtype=np.int32))
    with database.transaction():
        assert part.delete_region(box) == 1
        part.write_tiles([tile])  # admitted: the stored tile is gone
        with pytest.raises(DomainError, match=r"overlaps stored tile \[0:15,0:15\]"):
            part.write_tiles([Tile(MInterval.parse("[8:9,8:9]"), np.zeros((2, 2), np.int32))])
        assert [e.domain for e in part._hits(MInterval.parse("[3:4,3:4]"))] == [box]
        assert part.update(box, np.full(box.shape, 9, dtype=np.int32)) == box.cell_count
    assert (obj.read(box)[0] == 9).all()
    root.close()


def test_a_migrations_dual_presence_is_no_overlap():
    """Two shards holding one tile (a migration's copy before its
    delete) do not fail a batch whose hull spans it but which meets
    neither; a batch tile meeting the copy is rejected, naming it."""
    sdb, obj = _loaded(2)
    twin = MInterval.parse("[16:31,16:31]")
    other = obj._parts[1 - obj.shard_of(twin.lowest)]
    other.write_tiles([Tile(twin, obj.read(twin)[0].copy())])
    holes = [MInterval.parse("[0:15,0:15]"), MInterval.parse("[32:47,32:47]")]
    assert sum(obj.delete_region(hole) for hole in holes) == 2
    obj.write_tiles([Tile(hole, np.ones(hole.shape, np.int32)) for hole in holes])
    probe = Tile(MInterval.parse("[20:21,20:21]"), np.zeros((2, 2), np.int32))
    with pytest.raises(DomainError, match=r"overlaps stored tile \[16:31,16:31\]"):
        obj.write_tiles([probe])
    sdb.close()


def test_an_update_rewrites_its_tiles_in_tile_id_order():
    """On a three-level tree, whose leaves list the hits in another
    order, an update puts the changed tiles back in tile-id order: their
    new blob ids rise with their tile ids."""
    db = Database(store=MemoryBlobStore(page_size=256))
    obj = db.create_object("c", mdd_type("Deep", "long", "[0:127,0:127]"), "o")
    obj.load_array(np.zeros((128, 128), np.int32), RegularTiling(256))
    region = MInterval.parse("[10:100,5:90]")
    hits = [e.tile_id for e in obj.index.search(region).entries]
    assert obj.index.height == 3 and hits != sorted(hits)
    obj.update(region, np.ones(region.shape, np.int32))
    rebound = [e.blob_id for e in obj.tile_entries() if e.tile_id in hits]
    assert rebound == sorted(rebound)
    db.close()
