"""The load and reopen paths against references kept here.

A load tiles an object, builds each tile's synopsis and inserts the
tiles into the R+-tree one by one; a reopen parses the checkpoint and
inserts them again.  Each step runs on integer tuples, a lookup table
or json's C encoder, and must give what the per-cell, per-object
formulation kept below gives:

* the zone bitmap against the float64 binning formula, per cell;
* the incrementally built tree against the insert that derives every
  MBR and enlargement from validated ``MInterval`` objects — node for
  node, MBR for MBR, and ``nodes_visited`` for the paper's query boxes;
* a compact checkpoint, and an indented one, reopen to the same tile
  table, zones and index hits;
* a load and an update count each registry event as they always did.
"""

import json
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import animation, salescube
from repro.core.geometry import MInterval
from repro.index.base import IndexEntry
from repro.index.rplustree import RPlusTreeIndex
from repro.index.zonemap import compute_synopsis
from repro.storage.catalog import CATALOG_NAME, open_database, save_database
from repro.storage.tilestore import Database
from tests.counted import counted, counts

MIB = 1 << 20
GUARD = 2 ** 53
INTEGER_KINDS = ["u1", "u2", "u4", "u8", "i1", "i2", "i4", "i8", "?"]


# ----------------------------------------------------------------------
# (a) the zone bitmap
# ----------------------------------------------------------------------


def float64_bins(cells: np.ndarray, nbins: int) -> int:
    """The bitmap as one float64 bin per cell: ``floor((v - vmin) *
    nbins / width)``, clamped, skipped for a constant tile and at the
    2^53 guard."""
    vmin, vmax = cells.min().item(), cells.max().item()
    if vmin >= vmax or max(abs(vmin), abs(vmax)) >= GUARD:
        return 0
    width = np.float64(vmax) - np.float64(vmin)
    idx = np.floor((cells.astype(np.float64) - np.float64(vmin)) * nbins / width)
    idx = np.clip(idx.astype(np.int64), 0, nbins - 1)
    return sum(1 << int(i) for i in set(idx.tolist()))


@st.composite
def integer_tiles(draw):
    """Integer or bool cells whose span falls on either side of the cell
    count, anchored anywhere in the kind's range or next to the guard."""
    dtype = np.dtype(draw(st.sampled_from(INTEGER_KINDS)))
    size = draw(st.integers(1, 200))
    if dtype.kind == "b":
        offsets = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
        return np.array(offsets, dtype=dtype)
    info = np.iinfo(dtype)
    span = draw(st.integers(0, min(2 * size + 2, int(info.max) - int(info.min))))
    near_guard = [GUARD - span - 1, GUARD - span, -GUARD + 1, -GUARD]
    anchors = [a for a in near_guard if info.min <= a and a + span <= info.max]
    low = draw(
        st.sampled_from(anchors) if anchors and draw(st.booleans())
        else st.integers(int(info.min), int(info.max) - span)
    )
    offsets = draw(st.lists(st.integers(0, span), min_size=size, max_size=size))
    offsets[0], offsets[-1] = 0, span  # both extremes occur
    return np.array([low + o for o in offsets], dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(
    cells=integer_tiles(),
    nbins=st.integers(2, 16),
    shape=st.sampled_from(["flat", "2d"]),
    order=st.sampled_from(["=", ">"]),
)
def test_bitmap_equals_the_float64_formula(cells, nbins, shape, order):
    cells = cells.astype(cells.dtype.newbyteorder(order))
    if shape == "2d" and cells.size % 2 == 0:
        cells = cells.reshape(2, -1)
    synopsis = compute_synopsis(cells, nbins)
    assert synopsis is not None
    assert synopsis.bins == float64_bins(cells.ravel(), nbins)


@pytest.mark.parametrize("nbins", [2, 3, 7, 8, 16])
def test_bitmap_on_every_sales_tile(nbins):
    cube = salescube.generate_sales_data()
    region = MInterval.from_shape(cube.shape, salescube.SALES_DOMAIN.lowest)
    for name in ("Reg32K", "Dir64K3P"):
        for box in salescube.build_schemes()[name].tile(region, 4).tiles:
            cells = cube[box.to_slices(region.lowest)]
            assert compute_synopsis(cells, nbins).bins == float64_bins(cells.ravel(), nbins)


# ----------------------------------------------------------------------
# (b) the incrementally built R+-tree
# ----------------------------------------------------------------------


def validated_hull(a: MInterval, b: MInterval) -> MInterval:
    return MInterval(
        [min(x, y) for x, y in zip(a.lower, b.lower)],
        [max(x, y) for x, y in zip(a.upper, b.upper)],
    )


class ReferenceNode:
    def __init__(self, leaf: bool, items: Optional[list] = None) -> None:
        self.leaf = leaf
        self.items: list = items or []
        self.mbr: Optional[MInterval] = None
        self.recompute()

    def box(self, item) -> MInterval:
        return item.domain if self.leaf else item.mbr

    def recompute(self) -> None:
        self.mbr = None
        for item in self.items:
            self.extend(self.box(item))

    def extend(self, box: MInterval) -> None:
        self.mbr = box if self.mbr is None else validated_hull(self.mbr, box)


class ReferenceTree:
    """Incremental insert with every MBR and enlargement computed on
    validated ``MInterval`` objects: minimal-enlargement descent (ties
    to the smaller MBR, then the earlier child), split on overflow along
    the widest axis at the median of the lower bounds."""

    def __init__(self, dim: int, max_entries: int) -> None:
        self.dim, self.max_entries = dim, max_entries
        self.root = ReferenceNode(leaf=True)

    def insert(self, entry: IndexEntry) -> None:
        split = self._insert(self.root, entry)
        if split is not None:
            self.root = ReferenceNode(leaf=False, items=[self.root, split])

    def _insert(self, node: ReferenceNode, entry: IndexEntry) -> Optional[ReferenceNode]:
        if node.leaf:
            node.items.append(entry)
            if len(node.items) > self.max_entries:
                node.recompute()
                return self._split(node)
            node.extend(entry.domain)
            return None

        def key(child: ReferenceNode) -> tuple:
            if child.mbr is None:
                return entry.domain.cell_count, 0
            grown = validated_hull(child.mbr, entry.domain).cell_count
            return grown - child.mbr.cell_count, child.mbr.cell_count

        overflow = self._insert(min(node.items, key=key), entry)
        if overflow is not None:
            node.items.append(overflow)
            node.recompute()
            return self._split(node) if len(node.items) > self.max_entries else None
        node.extend(entry.domain)
        return None

    def _split(self, node: ReferenceNode) -> ReferenceNode:
        axis = max(range(self.dim), key=lambda ax: node.mbr.shape[ax])
        ordered = sorted(node.items, key=lambda i: (node.box(i).lower[axis], node.box(i).lower))
        half = len(ordered) // 2
        node.items = ordered[:half]
        node.recompute()
        return ReferenceNode(leaf=node.leaf, items=ordered[half:])

    def nodes_visited(self, region: MInterval) -> int:
        visited, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            visited += 1
            if node.mbr is None or not node.mbr.intersects(region):
                continue
            if not node.leaf:
                stack.extend(c for c in node.items if c.mbr is not None and c.mbr.intersects(region))
        return visited


def assert_same_tree(node, reference: ReferenceNode) -> None:
    assert node.leaf == reference.leaf
    assert node.mbr == reference.mbr
    assert len(node.items) == len(reference.items)
    if node.leaf:
        assert [(e.tile_id, e.domain) for e in node.items] == [
            (e.tile_id, e.domain) for e in reference.items
        ]
    else:
        for child, ref_child in zip(node.items, reference.items):
            assert_same_tree(child, ref_child)


def scheme_cases():
    for name in sorted(salescube.build_schemes()):
        yield pytest.param("sales", name, id=f"table2-{name}")
    for name in sorted(animation.build_schemes()):
        yield pytest.param("animation", name, id=f"table5-{name}")


@pytest.mark.parametrize("cube,scheme", scheme_cases())
def test_incremental_insert_builds_the_reference_tree(cube, scheme):
    if cube == "sales":
        domain, cell, queries = salescube.SALES_DOMAIN, 4, salescube.QUERIES
        strategy = salescube.build_schemes()[scheme]
    else:
        domain, cell, queries = animation.ANIMATION_DOMAIN, 3, animation.QUERIES
        strategy = animation.build_schemes()[scheme]
    database = Database()
    boxes = sorted(strategy.tile(domain, cell).tiles, key=lambda b: database.tile_key(b.lowest))
    paged = RPlusTreeIndex(domain.dim, page_size=database.store.page_size)
    # the store's fan-out, and a small one that makes every tree deep
    for index in (paged, RPlusTreeIndex(domain.dim, max_entries=5)):
        reference = ReferenceTree(domain.dim, index.max_entries)
        for tile_id, box in enumerate(boxes):
            index.insert(IndexEntry(box, tile_id))
            reference.insert(IndexEntry(box, tile_id))
        assert_same_tree(index._root, reference.root)
        for query in queries.values():
            region = query.resolve(domain)
            result = index.search(region)
            assert result.nodes_visited == reference.nodes_visited(region)
            assert sorted(e.tile_id for e in result.entries) == [
                i for i, box in enumerate(boxes) if box.intersects(region)
            ]
    assert index.height > 2


# ----------------------------------------------------------------------
# (c) checkpoints
# ----------------------------------------------------------------------


def object_state(database: Database) -> tuple:
    obj = database.collection("cubes")["sales"]
    boxes = [q.resolve(salescube.SALES_DOMAIN) for q in salescube.QUERIES.values()]
    return (
        [(e.tile_id, e.domain, e.blob_id, e.codec, e.virtual) for e in obj.tile_entries()],
        dict(obj._zones),
        obj.current_domain,
        [sorted(e.tile_id for e in obj.index.search(box).entries) for box in boxes],
    )


@pytest.fixture(scope="module")
def sales_database():
    database = Database(compression=True)
    obj = database.create_object("cubes", salescube.sales_mdd_type(), "sales")
    obj.load_array(
        salescube.generate_sales_data(),
        salescube.build_schemes()["Dir64K3P"],
        origin=salescube.SALES_DOMAIN.lowest,
    )
    yield database
    database.close()


def test_a_compact_checkpoint_reopens_to_the_same_object(sales_database, tmp_path):
    save_database(sales_database, tmp_path)
    text = (tmp_path / CATALOG_NAME).read_text()
    assert "\n" not in text and ", " not in text and '": ' not in text
    reopened = open_database(tmp_path)
    try:
        assert object_state(reopened) == object_state(sales_database)
    finally:
        reopened.close()
        reopened.store.close()


def test_an_indented_checkpoint_still_opens(sales_database, tmp_path):
    save_database(sales_database, tmp_path)
    path = tmp_path / CATALOG_NAME  # indented, as older checkpoints were written
    path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
    reopened = open_database(tmp_path)
    try:
        assert object_state(reopened) == object_state(sales_database)
    finally:
        reopened.close()
        reopened.store.close()


# ----------------------------------------------------------------------
# The registry: one update per batch, the same counts
# ----------------------------------------------------------------------


def test_a_load_and_an_update_count_what_they_always_counted():
    """``tilestore.tiles_stored`` and ``cache.decoded.write_throughs``
    take one update per batch; every ``tilestore.*`` and
    ``cache.decoded.*`` total is the per-tile one (the rest read 0)."""
    database = Database(compression=True, decoded_cache_bytes=64 * MIB)
    obj = database.create_object("c", salescube.sales_mdd_type(), "sales")
    cube = salescube.generate_sales_data()
    with counted() as load:
        obj.load_array(
            cube, salescube.build_schemes()["Reg32K"], origin=salescube.SALES_DOMAIN.lowest
        )
    region = MInterval.parse("[20:80,10:40,30:70]")
    with counted() as update:
        assert obj.update(region, np.full(region.shape, 7, cube.dtype)) == region.cell_count
    database.close()

    def nonzero(delta) -> dict:
        return {name: n for name, n in counts(delta, "tilestore.", "cache.decoded.").items() if n}

    assert nonzero(load) == {
        "tilestore.tiles_stored": 648,
        "cache.decoded.bytes_admitted": 17_520_000,
        "cache.decoded.write_throughs": 648,
    }
    assert nonzero(update) == {
        "cache.decoded.hits": 20,
        "cache.decoded.invalidations": 20,
        "cache.decoded.bytes_admitted": 655_200,
        "cache.decoded.write_throughs": 20,
    }
