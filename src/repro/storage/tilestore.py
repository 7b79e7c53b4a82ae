"""Persistent MDD objects: tiles as BLOBs plus a spatial index.

This is the storage manager of Section 5: an MDD object is a set of
multidimensional tiles and an index on tiles; cells of each tile are
stored in a separate BLOB.  :class:`StoredMDD` binds together

* an :class:`~repro.core.mddtype.MDDType`,
* a tile table (stable tile id → domain, BLOB id, codec),
* an R+-tree-like :class:`~repro.index.rplustree.RPlusTreeIndex` on the
  tile domains, and
* the shared :class:`~repro.storage.disk.SimulatedDisk` /
  :class:`~repro.storage.bufferpool.BufferPool` of the owning
  :class:`Database`.

Reads produce a dense result array and a :class:`QueryTiming` with the
paper's ``t_ix`` / ``t_o`` / ``t_cpu`` breakdown.
"""

from __future__ import annotations

import copy
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from itertools import chain, compress, product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.core.errors import (
    BlobNotFoundError,
    DomainError,
    QueryError,
    StorageError,
)
from repro.core.geometry import MInterval, overlapping_pairs, pack_bounds
from repro.core.mdd import Tile
from repro.core.mddtype import MDDType
from repro.core.order import row_major_key
# The module, not the class: rplustree imports this package, so this line
# may run while rplustree is still loading.
from repro.index import rplustree
from repro.index.base import IndexEntry
from repro.index.zonemap import (
    AGG_FUNCS,
    CellPredicate,
    TilePruner,
    TileSynopsis,
    cells_eligible,
    check_aggregate,
    combine_cells,
    constant_synopsis,
    note_synopsis_answered,
    note_tiles_pruned,
)
from repro.query.access import AccessKind, classify
from repro.query.timing import LoadStats, QueryTiming
from repro.stats.log import AccessLog
from repro.storage.backends import MemoryBlobStore
from repro.storage.blob import BlobRecord, BlobStore
from repro.storage.bufferpool import BufferPool, PoolRead
from repro.storage.compression import known_codecs
from repro.storage.decodedcache import DecodedTileCache
from repro.storage.disk import CpuParameters, DiskParameters, SimulatedDisk
from repro.storage.faults import FaultInjector

# Trace targets: ``update`` fetches and encodes in one batch each, so
# nothing here calls encode_payload or fetch_tile any more — but
# benchmarks/e2e/tracing.py wraps them as attributes of this module and
# refuses to run if one is unbound (its TARGETS change in a benchmark PR).
from repro.storage.ingest import EncodedTile, encode_payload, encode_tiles  # noqa: F401
from repro.storage.latch import OrderedLatch
from repro.storage.mvcc import (
    EpochManager,
    ObjectVersion,
    Snapshot,
    TileTable,
    note_live_versions,
)
from repro.storage.pipeline import fetch_payloads, fetch_tile, fetch_tile_partials, fetch_tiles  # noqa: F401
from repro.storage.wal import WriteAheadLog

#: Durability modes: no log, logged, logged + synchronous commits.
DURABILITY_MODES = ("none", "wal", "wal+fsync")

_TILES_STORED = obs.counter("tilestore.tiles_stored", "Tiles written as BLOBs")
_WRITE_THROUGH = obs.counter(
    "cache.decoded.write_throughs",
    "Decoded tiles admitted to the cache on the write path",
)
_TILES_LOADED = obs.counter("tilestore.tiles_loaded", "Tiles fetched for reads")
_READS = obs.counter("tilestore.reads", "Range reads served")
_CELLS_FETCHED = obs.counter("tilestore.cells_fetched", "Cells in fetched tiles")
_CELLS_RETURNED = obs.counter("tilestore.cells_returned", "Cells in query results")
_READ_MS = obs.histogram(
    "tilestore.read_ms", "Modelled t_totalcpu milliseconds per range read"
)


@dataclass
class TileEntry:
    """Tile-table row: where one tile's cells live."""

    tile_id: int
    domain: MInterval
    blob_id: int
    codec: str = "none"
    virtual: bool = False


class ReaderView(NamedTuple):
    """One object version, as one reader sees it.

    ``version`` is the version read — inside a transaction, one of the
    working state — whose tiles, synopses and tile table (derived by its
    first select) all come from one epoch, so a synopsis can never be
    stale relative to the tile it describes; ``epoch`` is the commit
    epoch the view was served at (the pinned one for readers outside a
    transaction).
    """

    index: rplustree.RPlusTreeIndex
    domain: Optional[MInterval]
    epoch: int
    version: ObjectVersion


@dataclass(slots=True)
class _Selection:
    """One store view's share of a query, as the select phase left it:
    per query cell (see :class:`ReadExecutor`) what that cell alone
    would have tallied; ``routes`` are a tile's ``(cell, part)`` pairs."""

    store: "StoredMDD"
    epoch: int
    #: Modelled ms charged to this store's disk: index pages, then
    #: fetches — exactly what its clock advanced by.
    model_ms: float
    #: Per cell: cells of the hits meeting it, and of the pruned ones.
    covered: list
    pruned_cells: list
    #: ``(entry, part, routes)`` of every tile still to fetch (``part``:
    #: the tile clipped to the query region).
    items: list = field(default_factory=list)
    #: ``(entry, part, routes, synopsis)`` of tiles answered with zero
    #: decode.
    answered: list = field(default_factory=list)
    fetched: list = field(default_factory=list)
    #: Catalog record of every item, aligned with ``items`` once page
    #: ordered: one snapshot feeds the order, the fetch and the accounting
    #: (blobs stay immutable under the pinned view).
    records: list = field(default_factory=list)
    #: The view's tile table and the rows of ``items`` / ``answered`` in it.
    table: Optional[TileTable] = None
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    answered_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))


class ScatterStats(NamedTuple):
    """Per-part accounting of an object's last query (one entry per
    pinned part: a store's query is a one-part scatter).

    The modelled parallel completion time of a scatter is the **maximum**
    per-part time (each shard has its own disk head), while a single
    store pays the sum — the bench's read-scaling verdict is
    ``single_total / max(per_shard)``.
    """

    per_shard_ms: tuple[float, ...]
    per_shard_tiles: tuple[int, ...]

    @property
    def max_ms(self) -> float:
        return max(self.per_shard_ms, default=0.0)

    @property
    def total_ms(self) -> float:
        return float(sum(self.per_shard_ms))

    @property
    def shards_hit(self) -> int:
        return sum(1 for tiles in self.per_shard_tiles if tiles)


class ReadExecutor:
    """One read query, staged: select → run → sink (DESIGN §17).

    The paper's three stages — index lookup (``t_ix``), page-ordered
    tile retrieval (``t_o``), composition (``t_cpu``) — written once.
    :meth:`select` searches one store view, then prunes by zone map
    and classifies every hit as pruned, synopsis-answered or to-decode
    with masks over the view's tile table, with no I/O; :meth:`fetch`
    page-orders a selection, fetches it and does all the ``t_o`` /
    tiles / bytes / pages / cells accounting and counts each tile's own
    pool and decoded-cache outcomes; a *sink* — :meth:`compose`, :meth:`blocks` or
    :meth:`combine` — is the only stage that differs between ``read``,
    ``read_blocks`` and ``aggregate_push``.  Materialize-then-reduce is
    :meth:`compose` followed by :meth:`condense`, not a path of its own.

    A GROUP BY is one query with many *cells* (``groups``: closed spans
    per axis; the region searched is their hull; a plain query is one
    cell): each hit is routed to the cells it meets and fetched once.

    A query runs over pinned *parts* — ``(store, view)`` pairs; a store
    is the one-part case, a sharded object has one part per shard
    (``merge=True`` deduplicates hits by domain corner, so a migration's
    dual presence counts once).  Every part is selected, one
    :meth:`exact` decision covers all selections, and every sink walks
    the selections in order.  Charges land in :attr:`timing` in
    selection order then page order, which keeps ``t_o`` bit-identical
    however tiles are spread.
    """

    def __init__(
        self,
        mdd_type: MDDType,
        region: MInterval,
        *,
        predicate: Optional[CellPredicate] = None,
        prune: bool = True,
        merge: bool = False,
        groups: Optional[Sequence[Sequence[tuple[int, int]]]] = None,
        kind: Optional[AccessKind] = None,
    ) -> None:
        self.grouped = groups is not None
        if groups is None:
            self.groups = [[bounds] for bounds in zip(region.lowest, region.highest)]
            self.cell_counts = [region.cell_count]
        else:
            self.groups = [  # clipped to the region as this view resolved it
                [(max(lo, low), min(hi, high)) for lo, hi in spans]
                for spans, low, high in zip(groups, region.lowest, region.highest)
            ]
            if any(lo > hi for spans in self.groups for lo, hi in spans):
                raise QueryError(f"a GROUP BY span misses the region {region}")
            region = MInterval(
                [min(lo for lo, _ in spans) for spans in self.groups],
                [max(hi for _, hi in spans) for spans in self.groups],
            )
            extents = [np.array([hi - lo + 1 for lo, hi in s]) for s in self.groups]
            self.cell_counts = reduce(np.multiply.outer, extents).ravel().tolist()
        self.region = region
        #: The access type of the region as asked, logged by :meth:`finish`.
        self.kind = kind
        self.predicate = predicate
        self.prune = prune
        self.dtype = mdd_type.base.dtype
        self.default = mdd_type.base.default
        self.cell_size = mdd_type.cell_size
        self.timing = QueryTiming(cells_result=sum(self.cell_counts))
        self.selections: list[_Selection] = []
        self._seen: Optional[set] = set() if merge else None
        # Cells of fetched tiles lying wholly inside / across the
        # region's border: the input of the modelled compose cost.
        self._aligned_cells = 0
        self._border_cells = 0

    # -- select ------------------------------------------------------------

    def select(
        self, store: "StoredMDD", view: ReaderView, *, condense: bool = False
    ) -> _Selection:
        """Index search, zone-map prune and classification — no I/O.

        Charges the index lookup to ``t_ix``.  Every hit the pruner
        cannot rule out becomes a fetch item; with ``condense`` (the
        aggregates) an unpredicated tile with a synopsis lying inside
        every cell it meets is set aside as *answered* instead, and
        coverage is tallied per cell so pruned parts and uncovered space
        count as default cells.  A hit in a gap between cells is dropped.
        The hits are rows of the view's tile table, and each of these
        steps is a mask or a sum over its columns (DESIGN §17).
        """
        selecting = time.perf_counter()
        region, timing = self.region, self.timing
        started = time.perf_counter()
        result = view.index.search(region)
        cpu_ix = (time.perf_counter() - started) * 1000.0
        page_ix = store.database.disk.charge_index(result.nodes_visited)
        timing.t_ix += cpu_ix + page_ix
        timing.t_ix_pages += page_ix
        timing.index_nodes += result.nodes_visited

        cells = len(self.cell_counts)
        table = view.version.table
        rows = table.rows(result.entries)
        if self._seen is not None:  # migration dual-presence: each corner counts once
            corners = list(map(tuple, table.lo[rows].tolist()))
            rows = rows[np.array([corner not in self._seen for corner in corners], dtype=bool)]
            self._seen.update(corners)
        lo, hi = table.lo.take(rows, axis=0), table.hi.take(rows, axis=0)
        low, high = np.array(region.lowest), np.array(region.highest)
        inside = reduce(np.logical_and, ((lo >= low) & (hi <= high)).T)  # per axis: short rows
        selection = _Selection(store, view.epoch, page_ix, [0] * cells, [0] * cells, table=table)
        self.selections.append(selection)
        can = np.ones(len(rows), dtype=bool)
        if condense:  # every (hit, cell) pair; a hit in a gap between cells is dropped
            met, cell, part_lo, part_hi, part_cells = self._route(lo, hi)
            per_hit = np.bincount(met, minlength=len(rows))
            can = per_hit > 0
        if self.predicate is not None and self.prune and table.zones.has.any():
            pruner = TilePruner(self.predicate, table.zones, self.dtype)
            can[can] = pruner.can_match(rows[can])
            timing.tiles_pruned += pruner.pruned
        entries, domains, syns = table.entries, table.domains, table.zones.syns
        # intervals only for fetched parts that are not a whole tile: a whole
        # part is the tile's own domain (nothing new kept alive until the sink)
        kept = np.flatnonzero(can)
        border = kept[~inside[kept]]
        clip = np.maximum(lo[border], low).tolist(), np.minimum(hi[border], high).tolist()
        clipped = dict(zip(border.tolist(), map(MInterval.bounded, *clip)))
        if not condense:
            selection.rows = rows[kept]
            selection.items = [
                (entries[row], clipped.get(at, domains[row]), ())
                for at, row in zip(kept.tolist(), selection.rows.tolist())
            ]
        else:
            live = can[met]
            selection.covered = np.bincount(cell, part_cells, cells).astype(np.int64).tolist()
            selection.pruned_cells = np.bincount(
                cell[~live], part_cells[~live], cells
            ).astype(np.int64).tolist()
            whole = part_cells == table.cells[rows][met]  # a part lies inside its tile
            all_whole = np.bincount(met[~whole], minlength=len(rows)) == 0
            answerable = self.predicate is None and self.prune  # else every hit is fetched
            answered = can & all_whole & table.zones.has[rows] & answerable
            parts = list(map(domains.__getitem__, rows[met].tolist()))
            split = np.flatnonzero(live & ~whole)  # one cell is the region: the clipped tile
            bounded = clipped if cells == 1 else dict(zip(split.tolist(), map(
                MInterval.bounded, part_lo[split].tolist(), part_hi[split].tolist()
            )))
            for pair, part in bounded.items():
                parts[pair] = part
            pairs, bounds = list(zip(cell.tolist(), parts)), [0, *np.cumsum(per_hit).tolist()]
            fetch, answer = np.flatnonzero(can & ~answered), np.flatnonzero(answered)
            selection.rows, selection.answered_rows = rows[fetch], rows[answer]
            selection.items = [  # a hit's routes: pairs[bounds[at] : bounds[at + 1]]
                (entries[row], clipped.get(at, domains[row]), pairs[bounds[at] : bounds[at + 1]])
                for at, row in zip(fetch.tolist(), selection.rows.tolist())
            ]
            selection.answered = [
                (entries[row], domains[row], pairs[bounds[at] : bounds[at + 1]], syns[row])
                for at, row in zip(answer.tolist(), selection.answered_rows.tolist())
            ]
        timing.select_ms += (time.perf_counter() - selecting) * 1000.0
        return selection

    def _route(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
        """Every pair of a hit (``lo`` / ``hi`` rows) and a query cell it
        meets, hit by hit in cell order: ``(hit, cell, low, high, cells)``
        arrays, ``low`` / ``high`` bounding the hit's part inside the cell.
        Per axis, one overlap pass finds the spans each hit meets; then
        each hit's span combinations are numbered in mixed radix (DESIGN
        §15)."""
        axes = []
        for axis, spans in enumerate(self.groups):
            span_lo, span_hi = np.array(spans, dtype=np.int64).T
            met, span = np.divmod(np.flatnonzero(
                (span_lo <= hi[:, axis, None]) & (span_hi >= lo[:, axis, None])
            ), len(spans))
            counts = np.bincount(met, minlength=len(lo))
            axes.append((span_lo, span_hi, span, counts, np.cumsum(counts) - counts))
        fan = np.prod([counts for _lo, _hi, _span, counts, _first in axes], axis=0)
        hit = np.repeat(np.arange(len(lo)), fan)
        digits = np.arange(len(hit)) - np.repeat(np.cumsum(fan) - fan, fan)
        picked = [np.empty(0, dtype=np.intp)] * len(axes)
        for axis in reversed(range(len(axes))):  # the last axis varies fastest
            _lo, _hi, span, counts, first = axes[axis]
            digits, digit = np.divmod(digits, counts[hit])
            picked[axis] = span[first[hit] + digit]
        low = np.maximum(np.column_stack([a[0][at] for a, at in zip(axes, picked)]), lo[hit])
        high = np.minimum(np.column_stack([a[1][at] for a, at in zip(axes, picked)]), hi[hit])
        cell = np.ravel_multi_index(picked, [len(spans) for spans in self.groups])
        return hit, cell, low, high, reduce(np.multiply, (high - low + 1).T)

    def exact(self, op: str) -> bool:
        """May ``op`` be combined from synopses and per-tile partials?

        One :func:`~repro.index.zonemap.cells_eligible` decision over
        every cell at once, each cell with exactly the inputs it alone
        would have: the ``(row, cell)`` pairs routing its non-pruned hits
        in every selection, over that selection's zone columns, and its
        uncovered cells.  The combination must equal
        materialize-then-reduce bitwise in every cell.  When it may not
        in some cell, the synopsis shortcut is off the table too — the
        answered tiles rejoin the fetch items, so every non-pruned tile
        is fetched and the region materialized.
        """
        routed = (  # read only by integer sums and averages
            (sel.table.zones, *self._pairs(
                np.concatenate([sel.rows, sel.answered_rows]), chain(sel.items, sel.answered)
            ))
            for sel in self.selections
            if sel.table is not None
        )
        covered = np.sum([sel.covered for sel in self.selections], axis=0)
        exact = cells_eligible(
            op, self.dtype, routed, np.subtract(self.cell_counts, covered), self.default,
            self.cell_counts, masked=self.predicate is not None,
        )
        if not exact:
            for selection in self.selections:
                selection.items.extend(item[:3] for item in selection.answered)
                selection.rows = np.concatenate([selection.rows, selection.answered_rows])
                selection.answered, selection.answered_rows = [], selection.answered_rows[:0]
        return exact

    @staticmethod
    def _pairs(rows: np.ndarray, items: Iterable) -> tuple[np.ndarray, np.ndarray]:
        """The ``(row, cell)`` pairs of hits routed to cells, in route
        order: ``rows`` are the hits' table rows, ``items`` the hits."""
        routes = [item[2] for item in items]
        cells = np.array([cell for r in routes for cell, _ in r], dtype=np.intp)
        return np.repeat(rows, [len(r) for r in routes]), cells

    # -- run ---------------------------------------------------------------

    def fetch(self, selection: _Selection, *, op: Optional[str] = None) -> None:
        """Run phase: fetch a selection's items in page order.

        An ``op`` reduces every tile to one partial aggregate per cell
        part — holding only what that op's combine reads — instead of
        returning its cells.
        """
        selection.fetched = self._fetch(
            selection, self._decoded if op is None else partial(self._partials, op=op)
        )

    @staticmethod
    def _page_order(selection: _Selection) -> None:
        """Sort the fetch items by first page, for sequential runs (a
        stable sort: ties keep select order), with their records."""
        records = selection.store.database.store.records(
            [entry.blob_id for entry, _part, _routes in selection.items]
        )
        order = np.argsort([record.pages.start for record in records], kind="stable")
        selection.records = [records[at] for at in order.tolist()]
        selection.items[:] = [selection.items[at] for at in order.tolist()]
        selection.rows = selection.rows[order]

    def _decoded(self, database: "Database", items, records) -> list:
        return fetch_tiles(database, [item[0] for item in items], self.dtype, records)

    def _partials(self, database: "Database", items, records, op: str) -> list:
        parts = [(entry, [part for _, part in routes]) for entry, _part, routes in items]
        fetched, peak = fetch_tile_partials(
            database, parts, self.dtype, self.predicate, self.default, op, records
        )
        self.timing.peak_partial_bytes = max(self.timing.peak_partial_bytes, peak)
        return fetched

    def _payloads(self, database: "Database", items, records) -> list:
        return fetch_payloads(database, [item[0] for item in items], records)

    def _fetch(self, selection: _Selection, run: Callable, at: Optional[int] = None) -> list:
        """Fetch the whole selection, page-ordered first (or only item
        ``at`` of an ordered one) with ``run`` — decoded tiles, reduced
        partials or stored payloads — and account for
        every tile: the one place ``t_o``, tiles / bytes / pages / cells,
        decodes, the tiles' own cache outcomes and ``fetch_ms`` are
        charged."""
        started = time.perf_counter()
        if at is None:
            self._page_order(selection)
            items, records, rows = selection.items, selection.records, selection.rows
        else:
            items, records = selection.items[at : at + 1], selection.records[at : at + 1]
            rows = selection.rows[at : at + 1]
        timing = self.timing
        fetched = run(selection.store.database, items, records)
        table = selection.table
        assert table is not None
        cells, lo, hi = table.cells[rows], table.lo.take(rows, axis=0), table.hi.take(rows, axis=0)
        region = self.region
        inside = reduce(np.logical_and, ((lo >= region.lowest) & (hi <= region.highest)).T)
        aligned = int(cells[inside].sum())
        timing.cells_fetched += int(cells.sum())
        self._aligned_cells += aligned
        self._border_cells += int(cells.sum()) - aligned
        timing.tiles_read += len(fetched)
        cost = 0.0  # page order, one tile at a time: t_o's bits depend on it
        for record, tile in zip(records, fetched):
            cost += tile.cost
            timing.t_o += tile.cost
            timing.bytes_read += tile.payload_bytes
            timing.pages_read += record.pages.count
            if tile.decode_ms:
                timing.tiles_decoded += 1
                timing.decode_ms += tile.decode_ms
            timing.pool_hits += tile.pool_hit is True
            timing.pool_misses += tile.pool_hit is False
            timing.pool_evictions += tile.pool_evicted
            timing.decoded_hits += tile.decoded_hit
            timing.decoded_misses += tile.decoded_miss
        selection.model_ms += cost
        timing.fetch_ms += (time.perf_counter() - started) * 1000.0
        return fetched

    def _charge_cpu(self, started: float) -> None:
        """``t_cpu``: the sink's measured numpy time (its ``sink_ms``)
        plus the modelled copy cost (era-calibrated; border tiles pay the
        strided rate)."""
        measured_ms = (time.perf_counter() - started) * 1000.0
        self.timing.sink_ms += measured_ms
        cpu = self.selections[0].store.database.cpu_parameters
        self.timing.t_cpu = measured_ms + cpu.compose_ms(
            self._aligned_cells * self.cell_size,
            self._border_cells * self.cell_size,
        )
        self._aligned_cells = self._border_cells = 0

    def _fetched(self) -> Iterator[tuple[TileEntry, MInterval, list, object]]:
        """Every fetched tile with its clipped part and routes, selection
        by selection in page order."""
        for selection in self.selections:
            for item, tile in zip(selection.items, selection.fetched):
                yield (*item, tile)

    def _shaped(self, values: list):
        """The sinks' result: a plain query's scalar, a GROUP BY's cube."""
        if not self.grouped:
            return values[0]
        shape = [len(spans) for spans in self.groups]
        return np.array(values, dtype=np.float64).reshape(shape)

    # -- sinks -------------------------------------------------------------

    def compose(self) -> np.ndarray:
        """Slab sink: copy every fetched fragment into the result array.

        Under a predicate, failing cells become the default.  One real
        tile covering the whole region skips the copy: the result is a
        (read-only) view of the decoded tile.
        """
        region, predicate, dtype = self.region, self.predicate, self.dtype
        started = time.perf_counter()
        out = None
        if predicate is None and self.timing.tiles_read == 1:
            entry, _part, _routes, tile = next(self._fetched())
            if tile.array is not None and entry.domain.contains(region):
                out = tile.array[region.to_slices(entry.domain.lowest)]
        if out is None:
            out = np.zeros(region.shape, dtype=dtype)
            if self.default != 0:
                out[...] = self.default
            default_cell = np.asarray(self.default, dtype=dtype)
            for entry, part, _routes, tile in self._fetched():
                if tile.array is None:
                    # Synthesized tiles carry default cells; under
                    # a predicate the masked value of a default
                    # cell is the default either way.
                    continue
                part_vals = tile.array[part.to_slices(entry.domain.lowest)]
                if predicate is not None:
                    part_vals = np.where(
                        predicate.mask(part_vals), part_vals, default_cell
                    )
                out[part.to_slices(region.lowest)] = part_vals
        self._charge_cpu(started)
        return out

    def condense(self, op: str, out: np.ndarray):
        """Reduce a composed slab cell by cell — the materialized half of
        every aggregate the exactness guards keep from being combined.

        Each cell's slice is made contiguous first: numpy's float
        summation order follows the memory layout, and the reference is
        a freshly composed slab of that cell alone.
        """
        started = time.perf_counter()
        origin = self.region.lowest
        values = [
            AGG_FUNCS[op](np.ascontiguousarray(out[tuple(
                slice(lo - at, hi - at + 1) for (lo, hi), at in zip(combo, origin)
            )]))
            for combo in product(*self.groups)
        ]
        measured_ms = (time.perf_counter() - started) * 1000.0
        self.timing.t_cpu += measured_ms
        self.timing.sink_ms += measured_ms
        return self._shaped(values)

    def blocks(self) -> Iterator[tuple[MInterval, np.ndarray, QueryTiming]]:
        """Streaming sink: fetch and yield one tile at a time, selection
        by selection in page order, each with the timing charged for it
        (the index lookups ride on the first)."""
        for selection in self.selections:
            self._page_order(selection)
            for at, (entry, part, _routes) in enumerate(selection.items):
                (tile,) = self._fetch(selection, self._decoded, at)
                started = time.perf_counter()
                if tile.array is None:
                    data = np.zeros(part.shape, dtype=self.dtype)
                    if self.default != 0:
                        data[...] = self.default
                else:
                    data = tile.array[part.to_slices(entry.domain.lowest)].copy()
                timing = self.timing
                timing.cells_result = part.cell_count
                self._charge_cpu(started)
                self.timing = QueryTiming()
                yield part, data, timing

    def combine(self, op: str):
        """Pushdown sink: merge the per-tile partials (reduced and
        synopsis-answered alike) of every cell in column passes
        (:func:`~repro.index.zonemap.combine_cells`), in deterministic
        key order, with each cell's default cells: uncovered space,
        pruned parts, and fetched virtual tiles (which carry neither an
        array nor a partial)."""
        timing = self.timing
        started = time.perf_counter()
        default_cells = np.array(self.cell_counts, dtype=np.int64)
        cells: list = []
        syns: list = []
        keys: list = []
        for sel in self.selections:
            default_cells += np.subtract(sel.pruned_cells, sel.covered, dtype=np.int64)
            real = np.array([not entry.virtual for entry, _part, _routes in sel.items], dtype=bool)
            for _entry, _part, routes in compress(sel.items, ~real):
                for cell, cell_part in routes:
                    default_cells[cell] += cell_part.cell_count
            rows, routed = self._pairs(
                np.concatenate([sel.answered_rows, sel.rows[real]]),
                chain(sel.answered, compress(sel.items, real)),
            )
            cells.append(routed)
            syns += [item[3] for item in sel.answered for _ in item[2]]
            syns += [syn for tile in compress(sel.fetched, real) for syn in tile.partials]
            timing.tiles_synopsis_answered += len(sel.answered)
            timing.tiles_partial_agg += int(real.sum())
            # combine order: tile id within one store, domain corner across
            # stores (tile ids are per store)
            table = sel.table
            assert table is not None
            keys.append(table.ids[rows, None] if self._seen is None else table.lo[rows])
        values = combine_cells(
            op, self.dtype, np.concatenate(cells), syns, np.concatenate(keys),
            default_cells, self.default, self.cell_counts,
        )
        self._charge_cpu(started)
        return self._shaped(values)

    def payloads(self) -> list[tuple[TileEntry, bytes]]:
        """Stored-tile sink (served tile frames): every hit with its payload
        as stored, selection by selection in page order.  Nothing is
        decoded and the decoded cache is never touched, so the charges are
        a :meth:`compose` read's on a database without that cache."""
        for selection in self.selections:
            selection.fetched = self._fetch(selection, self._payloads)
        started = time.perf_counter()
        tiles = [(tile.entry, tile.payload) for sel in self.selections for tile in sel.fetched]
        self.timing.sink_ms += (time.perf_counter() - started) * 1000.0
        return tiles

    def plan(self) -> list[TileEntry]:
        """The tiles :meth:`fetch` would fetch, in its order: every
        selection page-ordered, nothing fetched."""
        for selection in self.selections:
            self._page_order(selection)
        return [entry for sel in self.selections for entry, _part, _routes in sel.items]

    # -- account -----------------------------------------------------------

    def finish(self, *, cells_returned: bool = False) -> ScatterStats:
        """Emit the query's metrics and one access-log ``read`` per store
        (what the rebalancer folds into per-shard load, and the advisor
        into a tiling); returns the per-part account."""
        timing = self.timing
        note_tiles_pruned(timing.tiles_pruned)
        note_synopsis_answered(timing.tiles_synopsis_answered)
        _READS.inc()
        _TILES_LOADED.inc(timing.tiles_read)
        _CELLS_FETCHED.inc(timing.cells_fetched)
        if cells_returned:
            _CELLS_RETURNED.inc(timing.cells_result)
        _READ_MS.observe(timing.t_totalcpu)
        for selection in self.selections:
            store = selection.store
            store.database.access_log.record(
                "read", store.collection, store.name, self.region, selection.epoch,
                cost_ms=selection.model_ms, cells=timing.cells_result, kind=self.kind,
            )
        return ScatterStats(
            tuple(sel.model_ms for sel in self.selections),
            tuple(len(sel.fetched) for sel in self.selections),
        )


class StoredMDD:
    """A persistent MDD object backed by BLOB tiles and a spatial index."""

    #: Deduplicate and order hits by domain corner across parts
    #: (:class:`ReadExecutor` ``merge``): off for one store, whose tile
    #: ids order its partials.
    _MERGE = False

    def __init__(
        self,
        database: "Database",
        mdd_type: MDDType,
        name: str,
        collection: str = "",
    ) -> None:
        self.database = database
        self.mdd_type = mdd_type
        self.name = name
        self.collection = collection
        self.index = database.make_index(mdd_type.dim)
        self._tiles: dict[int, TileEntry] = {}
        self._zones: dict[int, TileSynopsis] = {}
        self._next_tile_id = 1
        self._current_domain: Optional[MInterval] = None
        # Readers outside a transaction go through this immutable version
        # (DESIGN §11).  Outside a transaction it aliases the working
        # containers above; a transaction's first mutation clones the
        # working containers (copy-on-write), leaving the published
        # version frozen until commit republishes.
        self._published = ObjectVersion(
            tiles=self._tiles,
            index=self.index,
            domain=None,
            epoch=0,
            zones=self._zones,
            mdd_type=mdd_type,
        )
        #: The working state as a version, for reads inside a transaction;
        #: built by the first such read, dropped by the next mutation.
        self._working: Optional[ObjectVersion] = None
        #: Per-part account of the last finished query (one part here).
        self.last_scatter: Optional[ScatterStats] = None

    # -- MVCC plumbing (DESIGN §11) ------------------------------------

    def _touch(self) -> None:
        """Copy-on-write hook: call before any working-state mutation.

        Inside a transaction, the first touch saves the published version
        for rollback and replaces the working containers with private
        clones, so readers of :attr:`_published` never see mid-transaction
        state.  Outside a transaction (catalog reload, recovery replay)
        this is a no-op — those paths republish explicitly when done.
        """
        self._working = None
        txn = self.database._current_txn()
        if txn is None or self in txn.dirtied:
            return
        txn.dirtied[self] = (self._published, self._next_tile_id)
        self._tiles = {
            tile_id: replace(entry) for tile_id, entry in self._tiles.items()
        }
        # Synopses are immutable; a shallow copy of the mapping suffices.
        self._zones = dict(self._zones)
        self.index = copy.deepcopy(self.index)

    def _publish(self, epoch: int) -> None:
        """Freeze the working state as the readable version (at commit)."""
        self._working = None
        self._published = ObjectVersion(
            tiles=self._tiles,
            index=self.index,
            domain=self._current_domain,
            epoch=epoch,
            zones=self._zones,
            mdd_type=self.mdd_type,
        )

    def _restore_version(
        self, version: ObjectVersion, next_tile_id: int
    ) -> None:
        """Roll the working state back to a saved version (abort path)."""
        self._tiles = dict(version.tiles)
        self._zones = dict(version.zones)
        self.index = version.index
        self._current_domain = version.domain
        self._next_tile_id = next_tile_id
        self._published = version
        self._working = None

    @contextmanager
    def _reader_view(
        self, version: Optional[ObjectVersion]
    ) -> Iterator[ReaderView]:
        """The :class:`ReaderView` one read runs against.

        An explicit ``version`` (snapshot read) is used as-is — the
        snapshot holds the pin.  A thread inside its own transaction
        reads the working state (read-your-own-writes), as one version
        kept until its next mutation.  Anyone else pins the current epoch
        and reads the published version; the pin is released when the
        block exits.
        """
        pin = None
        if version is None and self.database._current_txn() is not None:
            if self._working is None:
                self._working = ObjectVersion(
                    self._tiles,
                    self.index,
                    self._current_domain,
                    self.database.epoch._current,
                    self._zones,
                    self.mdd_type,
                )
            version = self._working
        elif version is None:
            epoch = self.database.epoch
            with epoch.latch:
                pin = epoch.pin_locked()
                version = self._published
        view = ReaderView(
            version.index, version.domain, version.epoch if pin is None else pin, version
        )
        try:
            yield view
        finally:
            if pin is not None:
                self.database.epoch.unpin(pin)

    def _log_meta(self, operation: dict) -> None:
        """Buffer a redo record naming this object (no-op without a WAL)."""
        if self.database.wal is not None:
            operation.setdefault("coll", self.collection)
            operation.setdefault("obj", self.name)
            self.database.wal.log_meta(operation)

    # -- the applier (DESIGN §10): one method per object redo op --------
    # The only code that changes an object's tiles, synopses, index or
    # current domain.  A live write validates, logs the record, then calls
    # the applier with the objects it holds; replay and the checkpoint
    # reload parse the record and call the same method, so live and
    # replayed state can only differ if the logged record does.

    def _apply_register(self, entry: TileEntry, synopsis: Optional[TileSynopsis]) -> None:
        """``tile_register``: add a tile row (with its synopsis) and its
        index entry; the current domain grows to cover it."""
        self._touch()
        self._tiles[entry.tile_id] = entry
        if synopsis is not None:
            self._zones[entry.tile_id] = synopsis
        self.index.insert(IndexEntry(entry.domain, entry.tile_id))
        self._next_tile_id = max(self._next_tile_id, entry.tile_id + 1)
        domain = self._current_domain
        self._current_domain = entry.domain if domain is None else domain.hull(entry.domain)

    def _apply_rebind(
        self, tile_id: int, blob_id: int, codec: str, synopsis: Optional[TileSynopsis]
    ) -> None:
        """``tile_rebind``: point a tile at a new BLOB; its synopsis is
        replaced in the same step (``None`` drops it)."""
        self._touch()
        entry = self._tiles[tile_id]
        entry.blob_id = blob_id
        entry.codec = codec
        if synopsis is None:
            self._zones.pop(tile_id, None)
        else:
            self._zones[tile_id] = synopsis

    def _apply_remove(self, tile_id: int) -> None:
        """``tile_remove``: drop a tile row, its synopsis and index entry."""
        self._touch()
        self.index.remove(tile_id)
        del self._tiles[tile_id]
        self._zones.pop(tile_id, None)

    def _apply_domain(self, domain: Optional[MInterval]) -> None:
        """``object_domain``: set the current domain."""
        self._touch()
        self._current_domain = domain

    def _apply_clear(self) -> None:
        """``object_clear``: forget every tile; a fresh, empty index."""
        self._touch()
        self._tiles.clear()
        self._zones.clear()
        self.index = self.database.make_index(self.dim)
        self._current_domain = None

    def _log_domain(self, domain: Optional[MInterval]) -> None:
        """Log and apply ``object_domain``."""
        self._log_meta({"op": "object_domain", "domain": None if domain is None else str(domain)})
        self._apply_domain(domain)

    def _tile_hull(self) -> Optional[MInterval]:
        """Hull of the stored tiles (``None`` without tiles)."""
        if not self._tiles:
            return None
        return MInterval.hull_of(entry.domain for entry in self._tiles.values())

    def _note_access(self, op: str, region: MInterval, cells: int) -> None:
        """Buffer a ``write`` / ``delete`` on this thread's transaction:
        the access log gets it at the outermost commit, with the epoch
        that commit publishes, and never after a rollback (read records
        are the executor's, :meth:`ReadExecutor.finish`)."""
        txn = self.database._current_txn()
        assert txn is not None, "writes run inside a transaction"
        txn.accesses.append((op, self.collection, self.name, region, cells))

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def current_domain(self) -> Optional[MInterval]:
        return self._current_domain

    @property
    def tile_count(self) -> int:
        return sum(len(part._tiles) for part in self._parts)

    @property
    def dim(self) -> int:
        return self.mdd_type.dim

    def tile_entries(self) -> tuple[TileEntry, ...]:
        """Tile-table rows in insertion order, part by part (disjoint
        outside a migration)."""
        return tuple(chain.from_iterable(part._tiles.values() for part in self._parts))

    def stored_bytes(self) -> int:
        """Bytes on disk across all tiles (after compression)."""
        return sum(
            part.database.store.record(t.blob_id).byte_size
            for part in self._parts
            for t in part._tiles.values()
        )

    def logical_bytes(self) -> int:
        """Uncompressed cell bytes across all tiles."""
        cell = self.mdd_type.cell_size
        return sum(t.domain.cell_count * cell for t in self._tiles.values())

    # ------------------------------------------------------------------
    # Writes — one body over parts (DESIGN §16); a sharded object runs
    # these same methods through its own hooks _owners and _write_scope
    # ------------------------------------------------------------------

    @property
    def _parts(self) -> list["StoredMDD"]:
        """The stores this object's tiles live on: this store, alone."""
        return [self]

    def _owners(self, tiles: Sequence[Tile]) -> list[tuple["StoredMDD", Sequence[Tile]]]:
        """Route an admitted batch to the parts that store it: all here."""
        return [(self, tiles)]

    @contextmanager
    def _write_scope(self) -> Iterator[Callable[[int], AbstractContextManager]]:
        """One write body's scope — this store's transaction, which the
        per-part step joins — yielding the guard for commits on ``n``
        parts: none, one store commits one part."""
        with self.database.transaction():
            yield lambda n: nullcontext()

    def insert_tile(self, tile: Tile) -> int:
        """Store one tile (cells copied to a BLOB, domain indexed)."""
        return self.write_tiles([tile])[0]

    def write_tiles(self, tiles: Sequence[Tile]) -> list[int]:
        """Bulk-insert many tiles as **one** transaction (group commit).

        Tiles are sorted by the database's clustering order, encoded
        through the parallel ingest pipeline, and committed with a single
        WAL write (one fsync in ``wal+fsync`` mode) and coalesced
        page-file flushes.  Stored bytes, blob ids, and page placements
        are byte-identical to calling :meth:`insert_tile` per tile in the
        same order; only the transaction boundaries differ (a sharded
        object commits once per owner shard).  Returns the new tile ids
        in storage order.
        """
        return self._write(tiles, None)

    def _write(self, tiles: Sequence[Tile], region: Optional[MInterval]) -> list[int]:
        """The one write body: the batch in clustering order (the parts
        share one) is admitted once — cell types, every part's stored
        tiles, then itself — and routed to its owner parts, each of which
        stores its share as one transaction (:meth:`_store`).  Given a
        load's ``region``, every owner's transaction closes its domain
        over it."""
        tile_key = self._parts[0].database.tile_key
        ordered = sorted(tiles, key=lambda t: tile_key(t.domain.lowest))
        dtype = self.mdd_type.base.dtype
        with self._write_scope() as fanout:
            for tile in ordered:
                if tile.data.dtype != dtype:
                    raise DomainError(f"tile dtype {tile.data.dtype} does not match type {dtype}")
            self._admit([tile.domain for tile in ordered])
            owners = self._owners(ordered)
            with fanout(len(owners)):
                return [tile_id for part, share in owners for tile_id in part._store(share, region)]

    def _store(self, tiles: Sequence[Tile], region: Optional[MInterval]) -> list[int]:
        """One part's share of a write, admitted and in clustering order,
        as one transaction: the coordinator half of the ingest pipeline.
        Page allocation, WAL records and registration happen here tile by
        tile, so the on-disk outcome never depends on worker scheduling;
        decoded write-through admissions follow, in page order.  Given a
        load's ``region``, the current domain then closes over it —
        partial coverage must not shrink it below what the user loaded —
        and the closure is logged (``object_domain``), so recovery
        reopens the same domain."""
        with self.database.transaction():
            encoded = encode_tiles(self.database, tiles)
            tile_ids: list[int] = []
            blob_ids: list[int] = []
            for item in encoded:
                blob_id = self._put(item)
                _TILES_STORED.inc()
                tile_ids.append(
                    self._register(item.tile.domain, blob_id, item.codec, False, item.synopsis)
                )
                blob_ids.append(blob_id)
            if self.database.decoded_cache is not None:
                for item, blob_id in zip(encoded, blob_ids):
                    self._admit_write_through(blob_id, item.raw, item.tile.domain.shape)
            if tiles:
                self._note_access(
                    "write",
                    MInterval.hull_of(t.domain for t in tiles),
                    sum(t.domain.cell_count for t in tiles),
                )
            if region is not None:
                assert self._current_domain is not None
                self._log_domain(self._current_domain.hull(region))
        return tile_ids

    def _put(self, item: EncodedTile) -> int:
        """Store one encoded tile as a new BLOB, logged (``BLOB_PUT2``)."""
        blob_id = self.database.store.put(item.payload, codec=item.codec, page_crcs=item.page_crcs)
        self.database._note_created_blob(blob_id)
        self.database._log_blob_put(blob_id, item.payload, page_crcs=item.page_crcs)
        return blob_id

    def _admit_write_through(
        self, blob_id: int, raw: bytes, shape: tuple[int, ...]
    ) -> None:
        """Admit a just-written tile's decoded cells into the cache.

        Read-after-write then scores a ``decoded_hit`` instead of a
        fetch+decode miss.  The admitted array is built from the
        serialised bytes — never a view of the caller's array — and the
        cache enforces its own byte budget (an oversized tile is simply
        not admitted).
        """
        cache = self.database.decoded_cache
        if cache is None:
            return
        array = np.frombuffer(raw, dtype=self.mdd_type.base.dtype).reshape(shape)
        cache.put(blob_id, array)
        _WRITE_THROUGH.inc()

    def attach_tile(
        self, domain: MInterval, blob_id: int, codec: str = "none"
    ) -> int:
        """Register an existing BLOB as a tile: no data is copied — only
        the tile table and the index grow.  It commits as its own
        transaction (or joins the caller's), so a published version, and
        any snapshot holding it, never sees the new tile."""
        record = self.database.store.record(blob_id)  # raises when missing
        with self.database.transaction():
            self._admit_domain(domain)
            expected = domain.cell_count * self.mdd_type.cell_size
            if codec == "none" and record.byte_size != expected:
                raise StorageError(
                    f"blob {blob_id} holds {record.byte_size} bytes, tile "
                    f"{domain} needs {expected}"
                )
            return self._register(domain, blob_id, codec, record.virtual, None)

    def insert_virtual_tile(self, domain: MInterval) -> int:
        """Register a tile with synthesized content (benchmark-scale data):
        the one-tile :meth:`load_virtual`.

        The BLOB has the right size and page placement but no real bytes;
        reads return default-valued cells.
        """
        with self.database.transaction():
            self._admit_domain(domain)
            return self._put_virtual(domain)

    def _put_virtual(self, domain: MInterval) -> int:
        """Store and register one admitted virtual tile (in a transaction)."""
        blob_id = self.database.store.put_virtual(domain.cell_count * self.mdd_type.cell_size)
        self.database._note_created_blob(blob_id)
        self.database._log_blob_put(blob_id, b"")
        synopsis = (
            constant_synopsis(domain.cell_count, self.mdd_type.base.default)
            if self.database.zone_maps and self.mdd_type.base.dtype.fields is None
            else None
        )
        return self._register(domain, blob_id, "none", True, synopsis)

    def _admit(self, domains: Sequence[MInterval]) -> None:
        """Admit a batch before any of it is encoded or written: each
        domain against the definition domain and every part's stored
        tiles — on indexes no registration of the batch has touched yet,
        so their packed leaves stay cached — then the batch against
        itself in one sweep."""
        for domain in domains:
            self._admit_domain(domain)
        pairs = overlapping_pairs(pack_bounds(domains, self.dim))
        if len(pairs):  # name the pair whose later tile is put first
            first, later = pairs[np.argmin(pairs[:, 1])]
            raise DomainError(
                f"tile {domains[later]} overlaps tile {domains[first]} "
                f"in the same batch for {self.name!r}"
            )

    def _admit_domain(self, domain: MInterval) -> None:
        self.mdd_type.validate_domain(domain, what="tile domain")
        for part in self._parts:
            hits = part.index.search(domain)
            if hits.entries:
                raise DomainError(
                    f"tile {domain} overlaps stored tile "
                    f"{hits.entries[0].domain} of {self.name!r}"
                )

    def _register(
        self,
        domain: MInterval,
        blob_id: int,
        codec: str,
        virtual: bool,
        synopsis: Optional[TileSynopsis],
    ) -> int:
        """Log and apply ``tile_register`` under the next tile id."""
        tile_id = self._next_tile_id
        record = {
            "op": "tile_register",
            "tile_id": tile_id,
            "domain": str(domain),
            "blob": blob_id,
            "codec": codec,
            "virtual": virtual,
        }
        if synopsis is not None:
            # The synopsis rides in the same redo record as the tile it
            # describes, so replay can never resurrect one without the
            # other (crash-safe sidecar, WAL-logged).
            record["zone"] = synopsis.to_dict()
        self._log_meta(record)
        self._apply_register(
            TileEntry(tile_id, domain, blob_id, codec, virtual), synopsis
        )
        return tile_id

    def load_array(
        self,
        array: np.ndarray,
        strategy,
        origin: Optional[Sequence[int]] = None,
        skip_default_tiles: bool = False,
    ) -> LoadStats:
        """Tile and store a dense array (the typical object load path).

        Runs the strategy's phase one, then stores tiles ordered by the
        database's tile clustering order so neighbouring tiles land on
        neighbouring pages.  Returns a :class:`LoadStats` splitting tiling
        time from data-insertion time.  The paper notes tiling cost is
        negligible against insert cost; ``tiling_ms`` holds that since
        validation is one sweep instead of a loop over every pair of
        tiles — the 730×60×100 sales cube, median of 5 loads on a 2-core
        VM: Dir64K3P (744 tiles) 144–270 → 12–15 ms against a ~0.5 s
        ``store_ms``, Reg32K (648 tiles) 115–219 → 7–9 ms against ~0.4 s.

        With ``skip_default_tiles`` the object only partially covers its
        domain: tiles consisting entirely of the base type's default
        value are not materialised (the paper's "partial cover of data
        cubes", important for sparse OLAP data).  Reads synthesise the
        default for the uncovered areas.
        """
        region, tiles, stats = self._plan_load(array, strategy, origin, skip_default_tiles)
        started = time.perf_counter()
        self._write(tiles, region)  # one batch: a commit per owner part
        stats.store_ms = (time.perf_counter() - started) * 1000.0
        stats.bytes_stored = self.stored_bytes()
        return stats

    def _plan_load(
        self,
        array: np.ndarray,
        strategy,
        origin: Optional[Sequence[int]],
        skip_default_tiles: bool,
    ) -> tuple[MInterval, list[Tile], LoadStats]:
        """Phase one of a load, on one store or sharded: the loaded region
        (at ``origin``, by default the definition domain's lower corner)
        and its tiles under ``strategy``, all-default ones dropped with
        ``skip_default_tiles``; ``tiling_ms`` and ``tile_count`` are set."""
        if array.dtype != self.mdd_type.base.dtype:
            array = array.astype(self.mdd_type.base.dtype)
        if origin is None:
            dd = self.mdd_type.definition_domain
            origin = tuple(0 if lo is None else lo for lo in dd.lower)
        region = MInterval.from_shape(array.shape, origin)
        stats = LoadStats()
        started = time.perf_counter()
        spec = strategy.tile(region, self.mdd_type.cell_size)
        stats.tiling_ms = (time.perf_counter() - started) * 1000.0
        default_cell = self.mdd_type.base.default_cell()
        tiles = []
        for tile_domain in spec.tiles:
            data = array[tile_domain.to_slices(origin)]
            if skip_default_tiles and (data == default_cell).all():
                continue
            tiles.append(Tile(tile_domain, data))
        if not tiles:
            raise StorageError(
                f"array for {self.name!r} holds only default values; "
                f"nothing to store with skip_default_tiles"
            )
        stats.tile_count = len(tiles)
        return region, tiles, stats

    def load_virtual(self, domain: MInterval, strategy) -> LoadStats:
        """Like :meth:`load_array` but with synthesized tile contents: the
        planned tiles are admitted as one batch, then stored and
        registered in clustering order, in one transaction."""
        stats = LoadStats()
        started = time.perf_counter()
        spec = strategy.tile(domain, self.mdd_type.cell_size)
        stats.tiling_ms = (time.perf_counter() - started) * 1000.0
        ordered = sorted(spec.tiles, key=lambda t: self.database.tile_key(t.lowest))
        started = time.perf_counter()
        with self.database.transaction():
            self._admit(ordered)
            for tile_domain in ordered:
                self._put_virtual(tile_domain)
        stats.store_ms = (time.perf_counter() - started) * 1000.0
        stats.tile_count = len(ordered)
        stats.bytes_stored = self.stored_bytes()
        return stats

    # ------------------------------------------------------------------
    # Reads — one body over pinned parts, driving the ReadExecutor
    # (DESIGN §17); a sharded object runs these same methods
    # ------------------------------------------------------------------

    @contextmanager
    def _pinned(
        self, version: Optional[ObjectVersion]
    ) -> Iterator[list[tuple["StoredMDD", ReaderView]]]:
        """The parts one query runs over, pinned: this store, alone."""
        with self._reader_view(version) as view:
            yield [(self, view)]

    def _select(
        self, parts: list, region: MInterval, *, condense: bool = False, **options
    ) -> ReadExecutor:
        """Plan one query over pinned ``parts``: ``region`` resolves
        against the hull of their domains, and is classified against it
        as asked (one store and N shards log the same kind), then every
        part is selected.  The one place a :class:`ReadExecutor` is built."""
        domains = [view.domain for _store, view in parts if view.domain is not None]
        hull = MInterval.hull_of(domains) if domains else None
        resolved = self._resolve_in(region, hull)
        assert hull is not None
        query = ReadExecutor(
            self.mdd_type, resolved, merge=self._MERGE, kind=classify(region, hull), **options
        )
        for store, view in parts:
            query.select(store, view, condense=condense)
        return query

    def resolve_region(self, region: MInterval) -> MInterval:
        """Resolve open bounds against the current domain and clip."""
        return self._resolve_in(region, self._current_domain)

    def _resolve_in(
        self, region: MInterval, domain: Optional[MInterval]
    ) -> MInterval:
        if domain is None:
            raise QueryError(f"object {self.name!r} holds no tiles yet")
        if region.dim != self.dim:
            raise QueryError(
                f"query dim {region.dim} does not match object dim {self.dim}"
            )
        resolved = region.resolve(domain)
        clipped = resolved.intersection(domain)
        if clipped is None:
            raise QueryError(
                f"region {region} outside current domain {domain}"
            )
        return clipped

    def read(
        self,
        region: MInterval,
        version: Optional[ObjectVersion] = None,
        *,
        predicate: Optional[CellPredicate] = None,
        prune: bool = True,
    ) -> tuple[np.ndarray, QueryTiming]:
        """Range query: dense result array plus timing breakdown.

        The paper's pipeline: (1) index lookup charging ``t_ix``;
        (2) BLOB retrieval of every intersected tile, sorted by page
        position, charging ``t_o`` — fetch and decode run through
        :func:`~repro.storage.pipeline.fetch_tiles`, which consults the
        decoded-tile cache and decodes each miss as it is fetched, the
        modelled disk charges strictly page-ordered; (3) composition
        of tile fragments into the result array, measured as ``t_cpu``.

        When a single stored tile fully covers the region, composition is
        skipped entirely and a zero-copy **read-only** view of the decoded
        tile is returned.

        ``version`` reads an explicitly captured
        :class:`~repro.storage.mvcc.ObjectVersion` (snapshot reads);
        without one, a thread inside its own transaction sees its working
        state and every other thread reads the published version under an
        epoch pin — a concurrently committing writer can never make this
        read observe half a transaction.  A sharded object runs this body
        over every shard's pinned view, taken as one consistent cut; it
        rejects ``version``.

        With a ``predicate``, the result is the masked read
        ``np.where(predicate.mask(full), full, default)`` — cells failing
        the predicate (and uncovered space) carry the default value.  One
        :class:`~repro.index.zonemap.TilePruner` mask over the tile
        table's synopsis columns then drops the intersected tiles whose
        synopsis proves no cell can match *before* they are fetched
        (``prune=False`` disables pruning for byte-identity
        verification); the result is byte-identical either way.
        """
        with self._pinned(version) as parts:
            query = self._select(parts, region, predicate=predicate, prune=prune)
            for selection in query.selections:
                query.fetch(selection)
            out = query.compose()
        self.last_scatter = query.finish(cells_returned=True)
        return out, query.timing

    def read_blocks(
        self,
        region: MInterval,
        version: Optional[ObjectVersion] = None,
    ) -> "Iterator[tuple[MInterval, np.ndarray, QueryTiming]]":
        """Stream a range query tile by tile (memory-bounded scans).

        Yields ``(part, data, timing)`` triples: ``part`` is the clipped
        region the fragment covers, ``data`` its dense cells, ``timing``
        the cost charged for that tile (the index lookup is charged to
        the first fragment).  Fragments of uncovered areas are not
        yielded — callers wanting defaults should track coverage or use
        :meth:`read`.  The union of parts plus uncovered space equals the
        resolved region; fragments arrive part by part in page order.

        The epoch pins (taken when the generator starts, for readers
        outside a transaction) are held until the generator is exhausted
        or closed, so the streamed version stays fetchable throughout.
        """
        with self._pinned(version) as parts:
            yield from self._select(parts, region).blocks()

    def tile_plan(
        self, region: MInterval, version: Optional[ObjectVersion] = None
    ) -> list[TileEntry]:
        """The tiles a :meth:`read` of ``region`` fetches, in its order:
        select and page order, no fetch — only ``t_ix`` is charged."""
        with self._pinned(version) as parts:
            return self._select(parts, region).plan()  # under the pins: blobs stay placed

    def read_stored(
        self, region: MInterval, version: Optional[ObjectVersion] = None
    ) -> tuple[list[tuple[TileEntry, bytes]], QueryTiming]:
        """:meth:`read` with the stored-tile sink: the tiles meeting
        ``region`` with their payloads as stored, in page order, charged
        like a :meth:`read` without a decoded cache."""
        with self._pinned(version) as parts:
            query = self._select(parts, region)
            tiles = query.payloads()
        self.last_scatter = query.finish()
        return tiles, query.timing

    def read_section(
        self, axis: int, coordinate: int
    ) -> tuple[np.ndarray, QueryTiming]:
        """Access type (d): fix a coordinate, drop that axis."""
        if self._current_domain is None:
            raise QueryError(f"object {self.name!r} holds no tiles yet")
        slab = self._current_domain.section(axis, coordinate)
        data, timing = self.read(slab)
        return data.squeeze(axis=axis), timing

    def aggregate(
        self,
        region: MInterval,
        op: str,
        version: Optional[ObjectVersion] = None,
        prune: bool = True,
    ) -> tuple[Union[int, float, bool], QueryTiming]:
        """Condense ``op`` over ``region``: the two-tuple short form of
        :meth:`aggregate_push` (unpredicated; ``pushed`` dropped).

        Fully-covered tiles with a synopsis are answered with **zero
        decode** and counted in ``timing.tiles_synopsis_answered``;
        ``prune=False`` fetches every intersected tile instead.  The
        value is bitwise what decoding the region and applying the
        condenser yields either way.
        """
        return self.aggregate_push(region, op, version, prune=prune)[:2]

    def aggregate_push(
        self,
        region: MInterval,
        op: str,
        version: Optional[ObjectVersion] = None,
        *,
        predicate: Optional[CellPredicate] = None,
        prune: bool = True,
        groups: Optional[Sequence[Sequence[tuple[int, int]]]] = None,
    ) -> tuple[Union[int, float, bool, np.ndarray], QueryTiming, bool]:
        """Condense ``op`` over ``region`` as combined per-tile partials.

        The planned engine's aggregation pushdown: intersected tiles are
        (1) pruned by zone map when a ``predicate`` proves no cell can
        match (the pruned part contributes default cells, exactly as the
        masked materialized box would), (2) answered straight from the
        stored synopsis with zero decode when fully covered and
        unpredicated, or (3) decoded where it is fetched, clipped, masked,
        and reduced to a partial by the per-tile kernel (cached tiles in
        place) — the decoded array is dropped immediately, so peak memory
        stays at one tile (reported in ``timing.peak_partial_bytes``) and
        the query box is never materialized.  All partials are then
        combined in deterministic tile-id order.

        The combination is only taken when
        :func:`~repro.index.zonemap.cells_eligible` proves it
        bitwise-equal to materialize-then-reduce; otherwise (float
        sums/averages, unbounded integer ranges) this method falls back
        to the materialized reduction *inline* — the charges of a read of
        the same tiles — so results are identical either way.  Returns
        ``(value, timing, pushed)`` with ``pushed`` telling which branch
        ran (the planner surfaces it in ``EXPLAIN``).

        ``groups`` (closed spans per axis inside ``region``) makes it a
        one-pass GROUP BY (DESIGN §15): the value is the float64 cube of
        one aggregate per span combination, ``pushed`` true when every
        cell combined partials.
        """
        check_aggregate(op, self)
        with self._pinned(version) as parts:
            query = self._select(
                parts, region, condense=True, predicate=predicate, prune=prune, groups=groups
            )
            pushed = query.exact(op)
            for selection in query.selections:
                query.fetch(selection, op=op if pushed else None)
            value = query.combine(op) if pushed else query.condense(op, query.compose())
        self.last_scatter = query.finish()
        return value, query.timing, pushed

    # ------------------------------------------------------------------
    # Updates / deletion
    # ------------------------------------------------------------------

    def _check_update(self, region: MInterval, values: np.ndarray) -> None:
        """What ``update`` accepts, on one store or sharded: a bounded
        region inside the definition domain — it may overhang the
        current domain — and values of exactly its shape."""
        self.mdd_type.validate_domain(region, what="update region")
        if tuple(values.shape) != region.shape:
            raise DomainError(
                f"values shape {tuple(values.shape)} does not match {region}"
            )

    def update(self, region: MInterval, values: np.ndarray) -> int:
        """Overwrite covered cells of ``region`` (read-modify-write tiles).

        Returns the number of cells the update covered.  Every part
        holding a tile that meets ``region`` rewrites it in its own
        transaction (:meth:`_rewrite`); one meeting no tile commits on the
        first part, so every update publishes a new version (and ETag).
        A virtual tile in the region fails the update before any I/O.
        """
        self._check_update(region, values)
        with self._write_scope() as fanout:
            plans = [(part, part._hits(region)) for part in self._parts]
            for entry in chain.from_iterable(entries for _part, entries in plans):
                if entry.virtual:
                    raise StorageError(f"cannot update virtual tile {entry.domain}")
            plans = [plan for plan in plans if plan[1]] or plans[:1]
            with fanout(len(plans)):
                return sum(part._rewrite(entries, region, values) for part, entries in plans)

    def _hits(self, region: MInterval) -> list[TileEntry]:
        """The tiles meeting ``region``, in index order."""
        return [self._tiles[hit.tile_id] for hit in self.index.search(region).entries]

    def _rewrite(self, entries: Sequence[TileEntry], region: MInterval, values: np.ndarray) -> int:
        """One part's share of an update, as one transaction: the hit
        tiles are fetched in one :func:`fetch_tiles` call (in index
        order), patched, and the changed ones encoded in one
        :func:`encode_tiles` call; then each is rebound to its new BLOB.
        A tile whose cells did not change is *not* rewritten — its BLOB,
        page placement, and cache entries all stay untouched (a no-op
        write must not evict hot cache state)."""
        with self.database.transaction():
            self._touch()  # a committed update publishes, changed or not
            written = 0
            changed: list[TileEntry] = []
            patched: list[Tile] = []
            fetched = fetch_tiles(self.database, entries, self.mdd_type.base.dtype)
            for entry, tile in zip(entries, fetched):
                part = entry.domain.intersection(region)
                assert part is not None and tile.array is not None
                cells = part.to_slices(entry.domain.lowest)
                data = tile.array.copy()
                data[cells] = values[part.to_slices(region.lowest)]
                written += part.cell_count
                if data[cells].tobytes() != tile.array[cells].tobytes():
                    changed.append(entry)
                    patched.append(Tile(entry.domain, data))
            for entry, item in zip(changed, encode_tiles(self.database, patched)):
                # The superseded blob is retired, not deleted: a reader
                # pinned on an older version may still fetch it.  Epoch
                # reclamation deletes it once no pin can reach it
                # (immediately when there are none).
                self.database.retire_blob(entry.blob_id)
                self._log_meta({"op": "blob_delete", "blob": entry.blob_id})
                blob_id = self._put(item)
                # The synopsis the encode workers computed from the new
                # cells rides in the rebind's redo record — an updated
                # tile and a stale synopsis can never publish together.
                synopsis = item.synopsis
                self._log_meta(
                    {
                        "op": "tile_rebind",
                        "tile_id": entry.tile_id,
                        "blob": blob_id,
                        "codec": item.codec,
                        "zone": None if synopsis is None else synopsis.to_dict(),
                    }
                )
                self._apply_rebind(entry.tile_id, blob_id, item.codec, synopsis)
                self._admit_write_through(blob_id, item.raw, entry.domain.shape)
            self._note_access("write", region, written)
        return written

    def _check_delete(self, region: MInterval) -> None:
        """What ``delete_region`` accepts, on one store or sharded: a
        bounded region inside the definition domain (one missing the
        current domain drops nothing)."""
        self.mdd_type.validate_domain(region, what="delete region")

    def _victims(self, region: MInterval) -> list[TileEntry]:
        """The tiles lying wholly inside ``region``, in tile-id order."""
        victims = [entry for entry in self._hits(region) if region.contains(entry.domain)]
        return sorted(victims, key=lambda entry: entry.tile_id)

    def delete_region(self, region: MInterval) -> int:
        """Shrinkage (Section 2): drop every tile fully inside ``region``.

        Tiles that only partially overlap the region are kept whole —
        tiles are the unit of storage, so removal granularity is the
        tile (callers wanting finer removal can :meth:`update` cells to
        the default value instead).  The current domain shrinks to the
        hull of the remaining tiles; a delete that drops nothing changes
        nothing.  Otherwise every part with victims, or whose domain is
        not its tiles' hull (a load's closure), commits the drop or the
        shrink.  Returns the number of tiles dropped.
        """
        self._check_delete(region)
        with self._write_scope() as fanout:
            plans = [(part, part._victims(region)) for part in self._parts]
            dropped = sum(len(victims) for _part, victims in plans)
            if not dropped:
                return 0
            plans = [(p, v) for p, v in plans if v or p.current_domain != p._tile_hull()]
            with fanout(len(plans)):
                for part, victims in plans:
                    with part.database.transaction():
                        part._drop_tiles(victims)
                        if victims:
                            cells = sum(entry.domain.cell_count for entry in victims)
                            part._note_access("delete", region, cells)
        return dropped

    def _drop_tiles(self, victims: Sequence[TileEntry]) -> None:
        """Remove ``victims`` and shrink the current domain to the hull of
        the tiles left (inside a transaction)."""
        for entry in victims:
            self.database.retire_blob(entry.blob_id)
            self._log_meta({"op": "blob_delete", "blob": entry.blob_id})
            self._log_meta({"op": "tile_remove", "tile_id": entry.tile_id})
            self._apply_remove(entry.tile_id)
        self._log_domain(self._tile_hull())

    def retile(self, strategy, skip_default_tiles: bool = False) -> LoadStats:
        """Reorganise the object's storage under a new tiling strategy.

        The closing step of the statistic-tiling loop: once the access
        log suggests a better layout, the object is read back tile by
        tile, re-partitioned, and rewritten — logically unchanged (same
        current domain, same cell values, partial coverage preserved as
        default values becoming materialised cells).

        Returns the :class:`LoadStats` of the reload.
        """
        if self._current_domain is None:
            raise QueryError(f"object {self.name!r} holds no tiles to retile")
        if any(entry.virtual for entry in self._tiles.values()):
            raise StorageError(
                f"object {self.name!r} has virtual tiles; retiling would "
                f"materialise synthesized data"
            )
        data, _timing = self.read(self._current_domain)
        origin = self._current_domain.lowest
        old_domain = self._current_domain
        with self.database.transaction():
            self.drop()
            stats = self.load_array(
                data, strategy, origin=origin,
                skip_default_tiles=skip_default_tiles,
            )
        assert self._current_domain == old_domain
        return stats

    def drop(self) -> None:
        """Delete all tiles and index entries of this object."""
        with self.database.transaction():
            for tile_entry in self._tiles.values():
                self.database.retire_blob(tile_entry.blob_id)
                self._log_meta({"op": "blob_delete", "blob": tile_entry.blob_id})
            self._log_meta({"op": "object_clear"})
            self._apply_clear()

    def __repr__(self) -> str:
        return (
            f"StoredMDD({self.name!r}, type={self.mdd_type.name}, "
            f"tiles={self.tile_count}, domain={self._current_domain})"
        )


@dataclass
class _TxnState:
    """Bookkeeping of one in-flight transaction (thread-local).

    ``dirtied`` maps each copy-on-write-cloned object to the
    ``(published version, next_tile_id)`` pair restored on abort;
    ``retired`` collects superseded blob ids handed to the epoch manager
    at commit; the ``created_*`` lists are what a rollback unwinds;
    ``accesses`` are the writes and deletes the commit appends to the
    access log (a rollback drops them).
    """

    depth: int = 1
    dirtied: dict = field(default_factory=dict)
    retired: list = field(default_factory=list)
    created_blobs: list = field(default_factory=list)
    created_collections: list = field(default_factory=list)
    created_objects: list = field(default_factory=list)
    accesses: list = field(default_factory=list)


class Database:
    """Shared storage context: BLOB store, disk model, pool, collections.

    The unit a RasQL session talks to.  Collections are named sets of
    stored MDD objects, mirroring the ODMG collections RasDaMan queries
    range over.

    Concurrency (DESIGN §11): writers serialize on a writer latch —
    one transaction at a time, owned by one thread.  Readers never take
    it: they pin the current epoch and read immutable published
    versions, so reads run in parallel with a committing writer and see
    either all of a transaction or none of it.
    """

    def __init__(
        self,
        store: Optional[BlobStore] = None,
        disk_parameters: Optional[DiskParameters] = None,
        buffer_bytes: int = 0,
        tile_key=row_major_key,
        compression: bool = False,
        codecs: tuple[str, ...] = ("zlib", "planes"),
        decoded_cache_bytes: int = 0,
        io_workers: int = 1,
        durability: str = "none",
        wal_path: Optional[Union[str, Path]] = None,
        injector: Optional[FaultInjector] = None,
        zone_maps: bool = True,
    ) -> None:
        self.store = store if store is not None else MemoryBlobStore()
        if disk_parameters is None:
            disk_parameters = DiskParameters(page_size=self.store.page_size)
        if disk_parameters.page_size != self.store.page_size:
            raise StorageError(
                f"disk page size {disk_parameters.page_size} differs from "
                f"store page size {self.store.page_size}"
            )
        self.disk = SimulatedDisk(disk_parameters)
        self.cpu_parameters = CpuParameters()
        self.pool = (
            BufferPool(self.store, self.disk, buffer_bytes) if buffer_bytes > 0 else None
        )
        self.decoded_cache = (
            DecodedTileCache(decoded_cache_bytes)
            if decoded_cache_bytes > 0
            else None
        )
        if io_workers < 1:
            raise StorageError(f"io_workers must be >= 1, got {io_workers}")
        self.io_workers = io_workers
        self._io_executor: Optional[ThreadPoolExecutor] = None
        self.tile_key = tile_key
        self.compression = compression
        unknown = sorted(set(codecs) - set(known_codecs()))
        if unknown:
            raise StorageError(f"unknown codecs {unknown}, known: {list(known_codecs())}")
        self.codecs = codecs
        # Zone maps: per-tile value synopses for predicate pruning and
        # aggregate short-circuiting (DESIGN §13).
        self.zone_maps = zone_maps
        self.collections: dict[str, dict[str, StoredMDD]] = {}
        self.wal: Optional[WriteAheadLog] = None
        self.durability = "none"
        self.last_recovery = None
        self.epoch = EpochManager(self._reclaim_blob)
        # Every read query and committed write lands here, obs switch or
        # not: the advisor's and the rebalancer's input (stats.log).
        self.access_log = AccessLog()
        # One writer transaction at a time; reentrant so nested
        # transaction() scopes on the owning thread are free.
        self._writer_latch = OrderedLatch("txn.writer", 10, reentrant=True)
        self._txn_local = threading.local()
        if durability != "none":
            self.arm_durability(durability, wal_path=wal_path, injector=injector)

    # -- plumbing shared by objects ---------------------------------------

    def make_index(self, dim: int) -> rplustree.RPlusTreeIndex:
        """New, empty spatial index on this database's pages."""
        return rplustree.RPlusTreeIndex(dim, page_size=self.store.page_size)

    def first_page(self, entry: TileEntry) -> int:
        """Where a tile's BLOB starts: sorting a batch of fetches by this
        key turns them into sequential page runs."""
        return self.store.record(entry.blob_id).pages.start

    def read_blobs(
        self, records: Sequence[BlobRecord], fetched: Mapping[int, bytes]
    ) -> list[tuple[bytes, PoolRead]]:
        """Each blob's payload and :class:`PoolRead`, charged in order, via
        the pool if any; a payload comes from ``fetched`` (already read and
        verified), else — virtual, or evicted since the caller's peek —
        from the store."""
        def load(blob_id: int) -> bytes:
            payload = fetched.get(blob_id)
            return self.store.get(blob_id) if payload is None else payload

        if self.pool is not None:
            return self.pool.read_blobs(records, load)
        costs = self.disk.charge_reads(records)
        return [(load(r.blob_id), PoolRead(cost)) for r, cost in zip(records, costs)]

    def pipeline_executor(self) -> Optional[ThreadPoolExecutor]:
        """Lazy encode pool of ``io_workers`` threads for
        :func:`~repro.storage.ingest.encode_tiles`; ``None`` in serial
        mode (default).  Reads never use it: they decode where they
        fetch."""
        if self.io_workers <= 1:
            return None
        if self._io_executor is None:
            self._io_executor = ThreadPoolExecutor(
                max_workers=self.io_workers, thread_name_prefix="repro-io"
            )
        return self._io_executor

    def close(self) -> None:
        """Shut down the encode pool and the WAL, and empty the
        caches (idempotent): a closed database's cached tiles are freed
        now, not whenever the collector reaches its reference cycles."""
        if self._io_executor is not None:
            self._io_executor.shutdown(wait=True)
            self._io_executor = None
        if self.wal is not None:
            self.wal.close()
        if self.pool is not None:
            self.pool.clear()
        if self.decoded_cache is not None:
            self.decoded_cache.clear()

    def invalidate_blob(self, blob_id: int) -> None:
        """Drop a BLOB from every cache layer (after update/delete)."""
        if self.pool is not None:
            self.pool.invalidate(blob_id)
        if self.decoded_cache is not None:
            self.decoded_cache.invalidate(blob_id)

    # -- durability ----------------------------------------------------------

    def arm_durability(
        self,
        durability: str,
        wal_path: Optional[Union[str, Path]] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        """Attach a write-ahead log and switch the store to deferred writes.

        From here on every mutation must run inside :meth:`transaction`:
        redo records buffer in the log, payloads pend in the store, and
        only a committed transaction flushes bytes to the backend — the
        WAL rule that makes recovery redo-only.  Called by
        :func:`~repro.storage.catalog.open_database` *after* recovery, so
        the log always starts from a clean checkpoint.
        """
        if durability not in DURABILITY_MODES:
            raise StorageError(
                f"unknown durability mode {durability!r}; "
                f"expected one of {DURABILITY_MODES}"
            )
        if durability == "none":
            return
        if self.wal is not None:
            raise StorageError("durability is already armed")
        if wal_path is None:
            base = getattr(self.store, "path", None)
            if base is None:
                raise StorageError(
                    "wal_path is required for stores without a backing file"
                )
            # Same convention as the catalog layer: the log lives next to
            # the page file as <directory>/wal.log.
            wal_path = Path(base).with_name("wal.log")
        self.wal = WriteAheadLog(
            wal_path,
            fsync=(durability == "wal+fsync"),
            page_size=self.store.page_size,
            injector=injector,
            disk=self.disk,
        )
        self.durability = durability
        self.store.set_deferred_writes(True)

    # -- transactions (single writer, snapshot-isolated readers) ---------

    def _current_txn(self) -> Optional[_TxnState]:
        """This thread's in-flight transaction, if any."""
        return getattr(self._txn_local, "txn", None)

    @property
    def _txn_depth(self) -> int:
        """Nesting depth of this thread's transaction (0 outside one)."""
        txn = self._current_txn()
        return txn.depth if txn is not None else 0

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Atomic mutation scope; nests (only the outermost commits).

        The outermost scope takes the writer latch, so transactions from
        different threads serialize.  On exit the commit publishes every
        dirtied object's new version atomically under the epoch latch —
        concurrent readers flip from the old consistent state to the new
        one in a single step.  With a WAL, the commit record hits the
        log *before* any pending payload reaches the page file (the WAL
        rule); the fsync and the page-file flush happen *after* the
        writer latch is released, so a queue of committers shares fsyncs
        through the group-commit door.

        An exception rolls the transaction back: dirtied objects revert
        to their published versions, created blobs/objects/collections
        are unwound, and buffered WAL records are dropped — the database
        stays live and exactly as before the transaction.
        """
        txn = self._current_txn()
        if txn is not None:
            txn.depth += 1
            try:
                yield
            finally:
                txn.depth -= 1
            return
        self._writer_latch.acquire()
        txn = self._txn_local.txn = _TxnState()
        sealed = None
        pending: Sequence[int] = ()
        try:
            try:
                yield
            except BaseException:
                self._rollback(txn)
                raise
            if self.wal is not None:
                # Log first: the frame is on the OS-buffered log before
                # any version becomes visible or any payload can land.
                sealed = self.wal.commit_frame()
            with self.epoch.latch:
                next_epoch = self.epoch._current + 1
                for obj in txn.dirtied:
                    obj._publish(next_epoch)
                self.epoch.retire_and_advance(txn.retired)
                self._note_live_versions()
                # Thread-local: lets the committing thread pair what it
                # wrote with the exact epoch readers will see it under
                # (the concurrency checker keys its history on this).
                self._txn_local.last_commit_epoch = next_epoch
            for op, collection, name, region, cells in txn.accesses:
                self.access_log.record(op, collection, name, region, next_epoch, cells=cells)
            if self.wal is not None:
                pending = self.store.take_pending()
        finally:
            self._txn_local.txn = None
            self._writer_latch.release()
        if sealed is not None:
            # Durable (wal+fsync) outside the writer latch: concurrent
            # committers elect one fsync leader (group commit).
            self.wal.sync_to(sealed[1])
        if self.wal is not None:
            # Pending payloads reach the page file only now, after the
            # log is durable.  Each coalesced flush run is charged as one
            # positioned write on the modelled disk (write counters, not
            # t_o).  Readers keep hitting the pending buffer until the
            # backend write completes, so bytes are always available.
            self.disk.charge_writes(self.store.flush_ids(pending))

    def _rollback(self, txn: _TxnState) -> None:
        """Restore working state to the last published versions."""
        for obj, (saved, next_tile_id) in txn.dirtied.items():
            obj._restore_version(saved, next_tile_id)
        for blob_id in txn.created_blobs:
            self.invalidate_blob(blob_id)
            self.store.forget(blob_id)
        with self.epoch.latch:
            for coll_name, obj_name in txn.created_objects:
                coll = self.collections.get(coll_name)
                if coll is not None:
                    coll.pop(obj_name, None)
            for coll_name in txn.created_collections:
                self.collections.pop(coll_name, None)
        if self.wal is not None:
            self.wal.abort()

    def _note_created_blob(self, blob_id: int) -> None:
        """Track a blob created by the current transaction (for abort)."""
        txn = self._current_txn()
        if txn is not None:
            txn.created_blobs.append(blob_id)

    def retire_blob(self, blob_id: int) -> None:
        """Queue a superseded blob for epoch-based reclamation.

        Cache entries are dropped right away (the id will never be read
        through this database's working state again); the physical
        delete waits until commit publication, and then only until no
        epoch pin can still reach the old version (immediately, with no
        readers active).
        """
        self.invalidate_blob(blob_id)
        txn = self._current_txn()
        if txn is not None:
            txn.retired.append(blob_id)
        else:
            with self.epoch.latch:
                self.epoch.retire_and_advance([blob_id])

    def _reclaim_blob(self, blob_id: int) -> int:
        """Physically delete one retired blob; returns freed bytes.

        Runs under the epoch latch as the :class:`EpochManager`'s
        reclaimer (cache and store latches rank above it)."""
        self.invalidate_blob(blob_id)
        try:
            record = self.store.record(blob_id)
        except BlobNotFoundError:
            return 0
        freed = record.stored_size or 0
        self.store.delete(blob_id)
        return freed

    def republish(self) -> None:
        """Re-freeze every object's working state as its published version.

        For single-threaded maintenance paths that mutate working state
        outside a transaction (catalog reload, recovery replay); not for
        use while readers are active.
        """
        with self.epoch.latch:
            epoch = self.epoch._current
            for objects in self.collections.values():
                for obj in objects.values():
                    obj._publish(epoch)
            self._note_live_versions()

    def _note_live_versions(self) -> None:
        """Refresh the ``mvcc.live_versions`` gauge (one live published
        version per stored object); caller holds the epoch latch or is
        otherwise serialized against publication."""
        note_live_versions(
            sum(len(objects) for objects in self.collections.values())
        )

    def last_commit_epoch(self) -> Optional[int]:
        """Epoch published by this thread's most recent commit (or None).

        Thread-local by construction, so a writer can record "state X is
        what epoch E readers observe" without racing other committers.
        """
        return getattr(self._txn_local, "last_commit_epoch", None)

    def snapshot(self) -> Snapshot:
        """Open a pinned point-in-time view of every object.

        Reads through the snapshot are repeatable and mutually
        consistent across objects no matter how many transactions commit
        meanwhile; close it (or use ``with``) to release the pin so
        superseded blobs can be reclaimed.
        """
        return Snapshot(self)

    def _log_blob_put(
        self,
        blob_id: int,
        payload: bytes,
        page_crcs: Optional[list[int]] = None,
    ) -> None:
        """Buffer a payload redo record for a just-written BLOB.

        ``page_crcs`` forwards checksums the ingest pipeline already
        computed, so the WAL does not checksum the payload again.
        """
        if self.wal is not None:
            self.wal.log_blob_put(
                self.store.record(blob_id), payload, page_crcs=page_crcs
            )

    def _log_meta(self, operation: dict) -> None:
        """Buffer a database-level logical redo record."""
        if self.wal is not None:
            self.wal.log_meta(operation)

    # -- collection management ----------------------------------------------

    def create_collection(self, name: str) -> dict[str, StoredMDD]:
        """Create an empty named collection (errors when it exists)."""
        if name in self.collections:
            raise StorageError(f"collection {name!r} already exists")
        with self.transaction():
            # The epoch latch guards the collections dict only against
            # concurrent snapshot capture (dict iteration); object
            # existence itself is visible as soon as it is created —
            # DDL is immediate, data is snapshot-isolated (DESIGN §11).
            with self.epoch.latch:
                self.collections[name] = {}
            txn = self._current_txn()
            if txn is not None:
                txn.created_collections.append(name)
            self._log_meta({"op": "create_collection", "coll": name})
        return self.collections[name]

    def collection(self, name: str) -> dict[str, StoredMDD]:
        """Objects of a collection by name (errors when absent)."""
        try:
            return self.collections[name]
        except KeyError:
            raise StorageError(f"no collection {name!r}") from None

    def create_object(
        self, collection: str, mdd_type: MDDType, name: str
    ) -> StoredMDD:
        """Create an empty stored MDD inside a collection."""
        with self.epoch.latch:
            new_coll = collection not in self.collections
            coll = self.collections.setdefault(collection, {})
        if name in coll:
            raise StorageError(
                f"object {name!r} already exists in collection {collection!r}"
            )
        obj = StoredMDD(self, mdd_type, name, collection=collection)
        with self.transaction():
            txn = self._current_txn()
            if txn is not None:
                if new_coll:
                    txn.created_collections.append(collection)
                txn.created_objects.append((collection, name))
            with self.epoch.latch:
                coll[name] = obj
                self._note_live_versions()
            self._log_meta(
                {
                    "op": "create_object",
                    "coll": collection,
                    "obj": name,
                    # Full type, not just the name: replay must be able to
                    # reconstruct the object without a type registry.
                    "type": {
                        "name": mdd_type.name,
                        "base": mdd_type.base.name,
                        "dd": str(mdd_type.definition_domain),
                    },
                }
            )
        return obj

    def objects(self, collection: str) -> tuple[StoredMDD, ...]:
        """All stored MDD objects of a collection."""
        return tuple(self.collection(collection).values())

    def reset_clock(self) -> None:
        """Zero all measurement state (cold measurement boundary).

        Clears the caches *and* their hit/miss counters, the disk
        counters, and the WAL activity stats — a batch boundary must not
        leak per-query tallies (cache hit deltas, WAL append counts) into
        the next measurement.  Durable state (log file, pending writes)
        is untouched: resetting a clock must never lose data.
        """
        self.disk.reset()
        if self.pool is not None:
            self.pool.clear()
            self.pool.reset_stats()
        if self.decoded_cache is not None:
            self.decoded_cache.clear()
            self.decoded_cache.reset_stats()
        if self.wal is not None:
            self.wal.stats.reset()
        self.access_log.clear()

    def profile(
        self,
        collection: str,
        name: str,
        region,
        predicate: Optional[CellPredicate] = None,
        op: Optional[str] = None,
    ) -> "QueryProfile":
        """Run one read with EXPLAIN ANALYZE-style per-stage accounting.

        Returns a :class:`repro.query.profile.QueryProfile` rendered from
        the read's :class:`QueryTiming` and reconciled against the clocks
        around it (modelled time exactly, wall time within tolerance).
        With a ``predicate`` the read is masked and zone-map pruned, and
        the profile gains a ``prune`` stage reporting ``tiles_pruned``.
        With ``op`` (a condenser name) the query is a planned aggregate:
        the profile carries the executed plan (scan → prune →
        partial-aggregate → combine → project) and its stages cover the
        pushdown path.
        """
        from repro.query.profile import profile_read

        return profile_read(self, collection, name, region, predicate, op)
