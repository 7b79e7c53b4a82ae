"""The tile table finds a read's hits; the R+-tree only prices them.

On seeded trees of several levels (``max_entries=5``, inserts then
removes), for random boxes — boxes meeting no tile and the whole domain
among them — the count-only walk visits as many nodes as ``search`` and
counts nothing (a query's record counts it), ``search`` folds one
search, its visits and its hits into the ``index.rplustree.*``
counters, and the tile table's overlap mask finds ``search``'s hits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.index.base import IndexEntry
from repro.index.rplustree import RPlusTreeIndex
from repro.storage.mvcc import TileTable
from repro.storage.tilestore import TileEntry

SIDE = 12  # tiles per axis, 4x4 cells each
CUBE = mdd_type("WalkCube", "long", f"[0:{4 * SIDE - 1},0:{4 * SIDE - 1}]")
COUNTERS = (
    "index.rplustree.searches",
    "index.rplustree.nodes_visited",
    "index.rplustree.entries_found",
)


def _counters() -> list:
    return [obs.registry.value(name) for name in COUNTERS]


@st.composite
def trees(draw):
    """A tree over a random share of the grid's tiles, inserted in random
    order, some of them removed again; its tile table; random boxes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    boxes = [
        MInterval((4 * i, 4 * j), (4 * i + 3, 4 * j + 3)) for i in range(SIDE) for j in range(SIDE)
    ]
    order = rng.permutation(len(boxes))[: draw(st.integers(1, len(boxes)))]
    index = RPlusTreeIndex(2, max_entries=5)
    tiles = {}
    for tile_id, k in enumerate(order.tolist()):
        index.insert(IndexEntry(boxes[k], tile_id))
        tiles[tile_id] = TileEntry(tile_id, boxes[k], blob_id=tile_id)
    for tile_id in rng.permutation(len(order))[: draw(st.integers(0, len(order) // 2))].tolist():
        assert index.remove(tile_id)
        del tiles[tile_id]
    regions = [CUBE.definition_domain, MInterval((100, 100), (120, 130))]  # whole, and none
    for _ in range(12):
        lo = rng.integers(-4, 4 * SIDE, 2)
        regions.append(MInterval(lo.tolist(), (lo + rng.integers(0, 20, 2)).tolist()))
    return index, TileTable(tiles, {}, CUBE), regions


@given(trees())
@settings(max_examples=60, deadline=None)
def test_the_walk_prices_and_the_mask_finds_what_search_does(tree):
    index, table, regions = tree
    for region in regions:
        before = _counters()
        result = index.search(region)
        searched = _counters()
        rows = table.meeting(np.array(region.lowest), np.array(region.highest))
        assert index.nodes_visited(region) == result.nodes_visited
        walked = _counters()
        assert {int(tile_id) for tile_id in table.ids[rows]} == {
            entry.tile_id for entry in result.entries
        }
        assert np.subtract(searched, before).tolist() == [1, result.nodes_visited, len(rows)]
        assert walked == searched


def test_the_trees_have_several_levels():
    index = RPlusTreeIndex(2, max_entries=5)
    for tile_id in range(SIDE * SIDE):
        i, j = divmod(tile_id, SIDE)
        index.insert(IndexEntry(MInterval((4 * i, 4 * j), (4 * i + 3, 4 * j + 3)), tile_id))
    assert index.height >= 3
