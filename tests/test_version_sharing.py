"""A write copies containers, not contents (DESIGN §11).

A transaction's first mutation copies an object's tile and zone maps and
the R+-tree's nodes; the frozen tile rows, the index entries, MBRs and
packed bounds are shared with the version it replaces.  These tests pin
the sharing, and that nothing shared is changed under a reader: neither
an R+-tree copy's inserts and removes, nor a write into a populated
object, a ``delete_region`` or an ``update``, on one store or on shards.
"""

import copy
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.base import IndexEntry
from repro.index.rplustree import RPlusTreeIndex
from repro.shard import ShardedDatabase
from repro.storage.tilestore import Database
from repro.tiling.base import grid_partition

CUBE = mdd_type("cube", "long", "[0:63,0:127]")
LEFT = MInterval.parse("[0:63,0:63]")
RIGHT = MInterval.parse("[0:63,64:127]")
WHOLE = MInterval.parse("[0:63,0:127]")
REGIONS = [WHOLE, MInterval.parse("[5:40,10:70]"), MInterval.parse("[0:15,0:15]")]


def _tiles(box: MInterval, seed: int) -> list[Tile]:
    data = np.random.default_rng(seed).integers(0, 1000, size=box.shape).astype(np.int32)
    return [
        Tile(part, data[part.to_slices(box.lowest)].copy())
        for part in grid_partition(box, (16, 16))
    ]


# ----------------------------------------------------------------------
# The R+-tree copy
# ----------------------------------------------------------------------


def _shape(node) -> tuple:
    """A node, its MBR and its items, recursively, by value."""
    if node.leaf:
        return (True, node.mbr, tuple((e.tile_id, e.domain) for e in node.items))
    return (False, node.mbr, tuple(_shape(child) for child in node.items))


def _nodes(node) -> int:
    return 1 if node.leaf else 1 + sum(map(_nodes, node.items))


def _searches(index: RPlusTreeIndex, regions) -> list:
    out = []
    for region in regions:
        result = index.search(region)
        out.append((sorted(e.tile_id for e in result.entries), result.nodes_visited))
    return out


def test_a_copy_changes_nothing_of_its_original():
    """Seeded inserts and removes on a copy, with splits on several
    levels, leave the original node for node as it was: items, MBRs,
    search hits and nodes visited.  The copy ends as a deep copy would."""
    rng = np.random.default_rng(51)
    boxes = [
        MInterval((4 * i, 4 * j), (4 * i + 3, 4 * j + 3)) for i in range(12) for j in range(12)
    ]
    order = rng.permutation(len(boxes))
    entries = [IndexEntry(boxes[k], tile_id) for tile_id, k in enumerate(order)]
    original = RPlusTreeIndex(2, max_entries=5)
    for entry in entries[:80]:
        original.insert(entry)
    assert original.height >= 3
    regions = [
        MInterval((lo, lo), (lo + span, lo + 2 * span))
        for lo, span in zip(rng.integers(0, 40, 12).tolist(), rng.integers(1, 12, 12).tolist())
    ]
    before = (_shape(original._root), len(original), _searches(original, regions))

    removed = [int(tile_id) for tile_id in rng.permutation(80)[:30]]
    clone = original.copy()
    reference = copy.deepcopy(original)
    for tree in (clone, reference):
        for entry in entries[80:]:
            tree.insert(entry)
        for tile_id in removed:
            assert tree.remove(tile_id)

    assert (_shape(original._root), len(original), _searches(original, regions)) == before
    assert _nodes(clone._root) > _nodes(original._root)  # the copy split nodes
    assert _shape(clone._root) == _shape(reference._root)
    assert _searches(clone, regions) == _searches(reference, regions)


# ----------------------------------------------------------------------
# Versions share what a write does not change
# ----------------------------------------------------------------------


def _leaf_entries(index: RPlusTreeIndex) -> list:
    stack, out = [index._root], []
    while stack:
        node = stack.pop()
        if node.leaf:
            out.extend(node.items)
        else:
            stack.extend(node.items)
    return out


def test_an_update_shares_every_row_and_entry_it_does_not_rebind():
    db = Database()
    obj = db.create_object("c", CUBE, "cube")
    obj.write_tiles(_tiles(LEFT, 1))
    parent = obj._published
    (touched,) = obj.tile_plan(MInterval.parse("[0:3,0:3]"))
    obj.update(MInterval.parse("[0:3,0:3]"), np.full((4, 4), 7, np.int32))
    child = obj._published
    assert child is not parent and child.tiles is not parent.tiles
    assert child.tiles.keys() == parent.tiles.keys()
    for tile_id, row in child.tiles.items():
        if tile_id == touched.tile_id:
            assert row is not parent.tiles[tile_id]
            assert row.blob_id != parent.tiles[tile_id].blob_id
        else:
            assert row is parent.tiles[tile_id]
    assert child.index is not parent.index
    assert child.index._root is not parent.index._root
    old = {id(entry) for entry in _leaf_entries(parent.index)}
    assert all(id(entry) in old for entry in _leaf_entries(child.index))
    with pytest.raises(FrozenInstanceError):
        child.tiles[touched.tile_id].blob_id = 0


# ----------------------------------------------------------------------
# A snapshot reads its version whatever commits after it
# ----------------------------------------------------------------------


def _deployment(kind: str):
    """The object and, per part, its database (one store, or 2 shards)."""
    if kind == "store":
        db = Database()
        obj = db.create_object("c", CUBE, "cube")
        return obj, [db]
    sdb = ShardedDatabase(2)
    obj = sdb.create_object("c", CUBE, "cube")
    return obj, sdb.shards


def _what_a_version_reads(parts, dbs, versions) -> list:
    """Per part and region it meets: the cells, the tiles hit and the
    modelled charges of a cold read through ``versions``."""
    out = []
    for part, db, version in zip(parts, dbs, versions):
        for region in REGIONS:
            if not region.intersects(version.domain):
                continue
            db.reset_clock()
            cells, timing = part.read(region, version=version)
            hits = [entry.tile_id for entry in part.tile_plan(region, version=version)]
            out.append((
                cells.tobytes(), hits, timing.t_o, timing.t_ix_pages, timing.index_nodes,
                timing.tiles_read, timing.pages_read, timing.bytes_read, timing.cells_fetched,
            ))
    return out


WRITES = {
    "write_tiles": lambda obj: obj.write_tiles(_tiles(RIGHT, 2)),
    "delete_region": lambda obj: obj.delete_region(MInterval.parse("[0:31,0:31]")),
    "update": lambda obj: obj.update(
        MInterval.parse("[10:20,10:40]"), np.full((11, 31), -5, np.int32)
    ),
}


@pytest.mark.parametrize("write", sorted(WRITES))
@pytest.mark.parametrize("kind", ["store", "shards"])
def test_a_snapshot_reads_its_version_after_a_write(kind, write):
    obj, dbs = _deployment(kind)
    obj.write_tiles(_tiles(LEFT, 1))
    parts = obj._parts
    snapshots = [db.snapshot() for db in dbs]
    try:
        versions = [snap.version("c", "cube") for snap in snapshots]
        before = _what_a_version_reads(parts, dbs, versions)
        cells = obj.read(WHOLE)[0]
        WRITES[write](obj)
        assert obj.read(WHOLE)[0].tobytes() != cells.tobytes()
        assert _what_a_version_reads(parts, dbs, versions) == before
    finally:
        for snap in snapshots:
            snap.close()
