"""R+-tree-like spatial index on tiles.

The paper's storage design combines arbitrary tiling with "multidimensional
R+-tree-like indexes" [9].  Tiles are disjoint boxes, which makes the
R+-tree's defining property — non-overlapping index regions, entries
duplicated into every region they straddle — natural:

* **insert** follows the classic choose-leaf / split-on-overflow path
  (minimal-enlargement descent, widest-axis distribution split), and is
  the one way to build a tree: an object version's is the insert of its
  tile rows in row order (:class:`SharedTree`), whatever history left
  them, and nothing edits a built tree;
* **search** descends every child whose region intersects the query,
  counting visited nodes — each node is one index page for ``t_ix``;
  a read counts them alone (:meth:`RPlusTreeIndex.nodes_visited`), as
  its tile table finds the hits, and its record counts the walk.

Node capacity derives from the page size and the per-entry footprint, so
index height and page counts respond to dimensionality like a paged tree
would.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from repro.core.errors import IndexError_
from repro.core.geometry import MInterval, pack_bounds
from repro.index.base import IndexEntry, SearchResult, entry_bytes, intersecting_mask
from repro.query.timing import SEARCH_COUNTS, QueryTiming
from repro.storage.pages import DEFAULT_PAGE_SIZE


class _Node:
    """Tree node: leaves hold IndexEntry, internals hold child nodes.

    Each node lazily caches its items' bounds as one packed ``(n, 2, dim)``
    int64 array, so a search tests all children with a single batched
    comparison; every insert or split invalidates it.  A built tree is
    never edited: nodes change only while the tree is being built.
    """

    __slots__ = ("leaf", "items", "mbr", "_packed")

    def __init__(self, leaf: bool, items: Optional[list] = None) -> None:
        self.leaf = leaf
        self.items: list = items or []
        self.mbr: Optional[MInterval] = None
        self._packed: Optional[np.ndarray] = None
        self.recompute_mbr()

    def boxes(self) -> list:
        """The items' boxes: entry domains in a leaf, child MBRs above."""
        return [item.domain if self.leaf else item.mbr for item in self.items]

    def recompute_mbr(self) -> None:
        self._packed = None
        boxes = [b for b in self.boxes() if b is not None]
        self.mbr = MInterval.hull_of(boxes) if boxes else None

    def extend_mbr(self, box: MInterval) -> None:
        """Grow the MBR to absorb one inserted box without a full rescan."""
        self._packed = None
        self.mbr = box if self.mbr is None else self.mbr.hull(box)

    def packed_bounds(self, dim: int) -> np.ndarray:
        """Packed item bounds (entry domains / child MBRs), cached."""
        if self._packed is None:
            self._packed = pack_bounds(self.boxes(), dim)
        return self._packed


def _enlargement(mbr: Optional[MInterval], box: MInterval) -> tuple[int, int]:
    """Choose-leaf key, from the bound tuples: the cells the MBR gains by
    absorbing ``box``, then its own cells (an empty child's: 0)."""
    if mbr is None:
        return box.cell_count, 0
    cells = grown = 1
    for lo, hi, box_lo, box_hi in zip(mbr.lower, mbr.upper, box.lower, box.upper):
        cells *= hi - lo + 1  # type: ignore[operator]
        grown *= max(hi, box_hi) - min(lo, box_lo) + 1  # type: ignore
    return grown - cells, cells


class RPlusTreeIndex:
    """Paged R+-tree-like index over disjoint tile domains."""

    def __init__(
        self,
        dim: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        max_entries: Optional[int] = None,
    ) -> None:
        if dim < 1:
            raise IndexError_(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self.page_size = page_size
        if max_entries is None:
            max_entries = max(4, page_size // entry_bytes(dim))
        if max_entries < 2:
            raise IndexError_(f"max_entries must be >= 2, got {max_entries}")
        self.max_entries = max_entries
        self._root = _Node(leaf=True)
        self._count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Levels from root to leaves (leaf-only tree has height 1)."""
        level = 1
        node = self._root
        while not node.leaf:
            level += 1
            node = node.items[0]
        return level

    def entries(self) -> Iterator[IndexEntry]:
        """Every stored entry once (an insert puts each in one leaf)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                yield from node.items
            else:
                stack.extend(node.items)

    # ------------------------------------------------------------------
    # Incremental insert
    # ------------------------------------------------------------------

    def _check_entry(self, entry: IndexEntry) -> None:
        if entry.domain.dim != self.dim:
            raise IndexError_(
                f"entry {entry.domain} has dim {entry.domain.dim}, "
                f"index has dim {self.dim}"
            )
        if not entry.domain.is_bounded:
            raise IndexError_(f"entry domain must be bounded: {entry.domain}")

    def insert(self, entry: IndexEntry) -> None:
        self._check_entry(entry)
        split = self._insert_into(self._root, entry)
        if split is not None:
            old_root = self._root
            self._root = _Node(leaf=False, items=[old_root, split])
        self._count += 1

    def _insert_into(self, node: _Node, entry: IndexEntry) -> Optional[_Node]:
        """Insert recursively; returns a new sibling when ``node`` split."""
        if node.leaf:
            node.items.append(entry)
            if len(node.items) > self.max_entries:
                node.recompute_mbr()
                return self._split(node)
            node.extend_mbr(entry.domain)
            return None
        child = min(node.items, key=lambda c: _enlargement(c.mbr, entry.domain))
        overflow = self._insert_into(child, entry)
        if overflow is not None:
            node.items.append(overflow)
            node.recompute_mbr()
            if len(node.items) > self.max_entries:
                return self._split(node)
            return None
        node.extend_mbr(entry.domain)
        return None

    def _split(self, node: _Node) -> _Node:
        """Distribute an overflowing node's items along its widest axis.

        ``node`` keeps the lower half; the returned sibling takes the rest.
        """
        assert node.mbr is not None
        axis = max(range(self.dim), key=lambda ax: node.mbr.shape[ax])

        def low_key(item) -> tuple:
            box = item.domain if node.leaf else item.mbr
            return (box.lower[axis], box.lower)

        ordered = sorted(node.items, key=low_key)
        half = len(ordered) // 2
        node.items = ordered[:half]
        node.recompute_mbr()
        sibling = _Node(leaf=node.leaf, items=ordered[half:])
        return sibling

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _walk(self, region: MInterval, leaf: Optional[Callable] = None) -> int:
        """Descend every child whose region meets ``region``; returns the
        nodes visited.  ``leaf(node, matches)`` runs on each leaf met,
        with the positions of its entries meeting ``region``; without it
        a leaf costs its visit only."""
        visited = 0
        lower, upper = pack_bounds([region], region.dim)[0]
        stack = [self._root]
        while stack:
            node = stack.pop()
            visited += 1
            if node.mbr is None or not node.mbr.intersects(region) or (node.leaf and leaf is None):
                continue
            matches = np.flatnonzero(
                intersecting_mask(node.packed_bounds(self.dim), lower, upper)
            )
            if not node.leaf:
                stack.extend(node.items[i] for i in matches)
            elif leaf is not None:
                leaf(node, matches)
        return visited

    def search(self, region: MInterval) -> SearchResult:
        """Every entry whose domain intersects ``region``, once each (an
        insert puts each in one leaf); the walk is folded into the
        registry as a record of its own."""
        hits: list[IndexEntry] = []

        def collect(node: _Node, matches: np.ndarray) -> None:
            hits.extend(node.items[i] for i in matches)

        visited = self._walk(region, collect)
        record = QueryTiming(index_searches=1, index_nodes=visited, index_entries_found=len(hits))
        record.fold(SEARCH_COUNTS)
        return SearchResult(entries=hits, nodes_visited=visited)

    def nodes_visited(self, region: MInterval) -> int:
        """The nodes a :meth:`search` of ``region`` visits, counted
        without collecting its hits or counting anything: the read path
        finds the hits in the tile table, the tree only prices the lookup
        and the query's record counts it (DESIGN §17)."""
        return self._walk(region)


class SharedTree:
    """The R+-tree of one set of tile rows, shared by the object versions
    holding them (same ids, same domains: a rebind keeps them, a register
    or remove starts a new one): the insert of the rows in row order — a
    reopen's order — built on the first walk (a race builds it twice,
    identically), so the ``t_ix`` it prices depends on the rows alone."""

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self.built: Optional[RPlusTreeIndex] = None

    def of(self, dim: int, rows: Iterable) -> RPlusTreeIndex:
        tree = self.built
        if tree is None:
            tree = RPlusTreeIndex(dim, page_size=self.page_size)
            for row in rows:
                tree.insert(IndexEntry(row.domain, row.tile_id))
            self.built = tree
        return tree
