"""The per-tile select, kept as a test oracle.

``ReadExecutor.select`` as it was before the tile table became columns:
per index hit ``region.contains`` / ``intersection``, a dict lookup of
the synopsis, one :class:`TilePruner` decision (a two-element
``predicate.mask``) and ``cell_count`` per route, with ``route`` the
per-entry cross product of the per-axis overlaps.  Each function takes
the executor as ``self`` (and reads the view's ``version.tiles`` /
``version.zones``); the columnar select must leave every
:class:`~repro.storage.tilestore._Selection` field it fills equal.
"""

from __future__ import annotations

import time
from itertools import product, repeat

import numpy as np

from repro.core.geometry import MInterval
from repro.index.zonemap import synopsis_can_match
from repro.storage.tilestore import _Selection


class TilePruner:
    """Partition index hits into fetchable and provably-irrelevant tiles.

    Sits between ``index.search()`` and ``fetch_tiles``: given the
    reader's zone-map view (published at the same epoch as the tile
    table, so synopsis and tile can never disagree), answers per tile
    whether it may hold a matching cell.  Tiles without a synopsis are
    always fetched.
    """

    def __init__(self, predicate, zones, dtype) -> None:
        self.predicate = predicate
        self.zones = zones
        self.dtype = dtype
        self.pruned = 0

    def can_match(self, tile_id: int) -> bool:
        syn = self.zones.get(tile_id)
        if syn is None:
            return True
        if synopsis_can_match(syn, self.predicate, self.dtype):
            return True
        self.pruned += 1
        return False


def select(self, store, view, *, condense: bool = False) -> _Selection:
    """Index search, zone-map prune and classification — no I/O.

    Charges the index lookup to ``t_ix``.  Every hit the pruner
    cannot rule out becomes a fetch item; with ``condense`` (the
    aggregates) an unpredicated tile with a synopsis lying inside
    every cell it meets is set aside as *answered* instead, and
    coverage is tallied per cell so pruned parts and uncovered space
    count as default cells.  A hit in a gap between cells is dropped.
    """
    selecting = time.perf_counter()
    region, timing = self.region, self.timing
    disk = store.database.disk
    started = time.perf_counter()
    result = view.index.search(region)
    cpu_ix = (time.perf_counter() - started) * 1000.0
    page_ix = sum(
        disk.charge_index_node() for _ in range(result.nodes_visited)
    )
    timing.t_ix += cpu_ix + page_ix
    timing.t_ix_pages += page_ix
    timing.index_nodes += result.nodes_visited

    cells = len(self.cell_counts)
    selection = _Selection(store, view.epoch, page_ix, [0] * cells, [0] * cells)
    self.selections.append(selection)
    zones = view.version.zones or {}
    pruner = (
        TilePruner(self.predicate, zones, self.dtype)
        if self.predicate is not None and self.prune and zones
        else None
    )
    answer = condense and self.predicate is None and self.prune
    seen = self._seen
    entries = []
    for hit in result.entries:
        entry = view.version.tiles[hit.tile_id]
        if seen is not None:
            corner = entry.domain.lowest
            if corner in seen:
                continue  # migration dual-presence: count once
            seen.add(corner)
        entries.append(entry)
    routed = route(self, entries) if condense and cells > 1 else repeat(None)
    for entry, routes in zip(entries, routed):
        # An interior tile is its own part: no new interval to build
        # (or to keep alive until the sink runs).
        inside = region.contains(entry.domain)
        part = entry.domain if inside else entry.domain.intersection(region)
        assert part is not None
        if routes is None:
            routes = [(0, part)] if condense else ()
        elif not routes:
            continue
        for cell, cell_part in routes:
            selection.covered[cell] += cell_part.cell_count
        if pruner is not None and not pruner.can_match(entry.tile_id):
            # Provably only failing cells: the masked box would
            # hold defaults there, and so does the aggregate.
            for cell, cell_part in routes:
                selection.pruned_cells[cell] += cell_part.cell_count
            continue
        if condense:
            syn = zones.get(entry.tile_id)
            if answer and syn is not None and all(p == entry.domain for _, p in routes):
                selection.answered.append((entry, part, routes, syn))
                continue
        selection.items.append((entry, part, routes))
    if pruner is not None:
        timing.tiles_pruned += pruner.pruned
    timing.select_ms += (time.perf_counter() - selecting) * 1000.0
    return selection


def route(self, entries: list) -> list:
    """Per entry, ``(cell, part)`` of every group cell it meets (``part``
    is the entry's own domain inside the cell): one numpy overlap pass
    per axis; only the spans a tile meets reach Python."""
    if not entries:
        return []
    lows = np.array([entry.domain.lower for entry in entries])
    highs = np.array([entry.domain.upper for entry in entries])
    per_axis: list = []
    stride = 1
    for axis in reversed(range(len(self.groups))):
        span_lo, span_hi = np.array(self.groups[axis]).T
        rows, spans = np.nonzero(
            (span_lo <= highs[:, axis, None]) & (span_hi >= lows[:, axis, None])
        )
        met: list = [[] for _ in entries]
        for row, span, lo, hi in zip(
            rows.tolist(),
            (spans * stride).tolist(),
            np.maximum(span_lo[spans], lows[rows, axis]).tolist(),
            np.minimum(span_hi[spans], highs[rows, axis]).tolist(),
        ):
            met[row].append((span, lo, hi))
        per_axis.insert(0, met)
        stride *= len(span_lo)
    routed = []
    for entry, *met in zip(entries, *per_axis):
        routes = []
        for combo in product(*met):
            cells, low, high = zip(*combo)
            whole = low == entry.domain.lower and high == entry.domain.upper
            routes.append(
                (sum(cells), entry.domain if whole else MInterval(low, high))
            )
        routed.append(routes)
    return routed
