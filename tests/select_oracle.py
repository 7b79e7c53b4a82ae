"""The per-tile select, kept as a test oracle.

``ReadExecutor.select`` as it was before the tile table became columns:
per index hit ``region.contains`` / ``intersection``, a dict lookup of
the synopsis, one :class:`TilePruner` decision (a two-element
``predicate.mask``) and ``cell_count`` per route, with ``route`` the
per-entry cross product of the per-axis overlaps.  Each function takes
the executor as ``self`` (and reads the view's ``version.tiles`` /
``version.zones``) and fills an :class:`OracleSelection`, the
selection as tuples it kept.  :func:`per_tile` and
:func:`fetch_sequence` read both forms alike: the columnar select must
leave the same covered and pruned cells, the same part, routes and
synopsis per tile id, and the same page-ordered fetch sequence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product, repeat

import numpy as np

from repro.core.geometry import MInterval
from repro.index.zonemap import synopsis_can_match
from repro.storage.tilestore import ReadExecutor


@dataclass
class OracleSelection:
    """One store view's share of a query, as the per-tile select left it:
    ``(entry, part, routes)`` of every tile to fetch (``part``: the tile
    clipped to the query region; ``routes``: its ``(cell, part)`` pairs),
    and ``(entry, part, routes, synopsis)`` of every tile answered."""

    store: object
    epoch: int
    model_ms: float
    covered: list
    pruned_cells: list
    items: list = field(default_factory=list)
    answered: list = field(default_factory=list)
    fetched: tuple = ()


def _box(box: MInterval) -> tuple:
    return tuple(box.lower), tuple(box.upper)


def per_tile(selection) -> dict:
    """Per tile id: whether it is answered, its part's bounds, its routes
    as ``(cell, lower, upper)`` and its synopsis (answered tiles only)."""
    if isinstance(selection, OracleSelection):
        return {
            entry.tile_id: (
                len(item) == 4, _box(part),
                [(cell, *_box(cell_part)) for cell, cell_part in routes],
                id(item[3]) if len(item) == 4 else None,
            )
            for item in selection.items + selection.answered
            for entry, part, routes in [item[:3]]
        }
    table, tiles = selection.table, {}
    for answered, hits in ((False, selection.fetch), (True, selection.answered)):
        for at, row in enumerate(hits.rows.tolist()):
            pairs = range(hits.first[at], hits.first[at + 1])
            tiles[int(table.ids[row])] = (
                answered, (tuple(hits.lo[at].tolist()), tuple(hits.hi[at].tolist())),
                [(int(hits.cell[k]), tuple(hits.cell_lo[k].tolist()), tuple(hits.cell_hi[k].tolist()))
                 for k in pairs],
                id(table.zones.syns[row]) if answered else None,
            )
    return tiles


def fetch_sequence(selection) -> list:
    """The tile ids a fetch of ``selection`` reads, in its page order."""
    if isinstance(selection, OracleSelection):
        store = selection.store.database.store
        entries = [entry for entry, _part, _routes in selection.items]
        return [
            entry.tile_id
            for entry in sorted(entries, key=lambda entry: store.record(entry.blob_id).pages.start)
        ]
    ReadExecutor._page_order(selection)
    return selection.table.ids[selection.fetch.rows].tolist()


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
        self.checked = self.pruned = 0

    def can_match(self, tile_id: int) -> bool:
        syn = self.zones.get(tile_id)
        if syn is None:
            return True
        self.checked += 1
        if synopsis_can_match(syn, self.predicate, self.dtype):
            return True
        self.pruned += 1
        return False


def select(self, store, view, *, condense: bool = False) -> OracleSelection:
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
    page_ix = disk.charge_index(result.nodes_visited)
    timing.t_ix += cpu_ix + page_ix
    timing.t_ix_pages += page_ix
    timing.index_nodes += result.nodes_visited

    cells = len(self.cell_counts)
    selection = OracleSelection(store, view.epoch, page_ix, [0] * cells, [0] * cells)
    self.selections.append(selection)
    zones = view.version.zones or {}
    pruner = (
        TilePruner(self.predicate, zones, self.dtype)
        if self.predicate is not None and self.prune and zones
        else None
    )
    answer = condense and self.predicate is None and self.prune
    # merged parts: a corner seen on an earlier part is skipped
    seen = vars(self).setdefault("_oracle_seen", set()) if self.merge else None
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
        timing.prune_checks += pruner.checked
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
