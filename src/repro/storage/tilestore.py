"""Persistent MDD objects: tiles as BLOBs plus a spatial index.

This is the storage manager of Section 5: an MDD object is a set of
multidimensional tiles and an index on tiles; cells of each tile are
stored in a separate BLOB.  :class:`StoredMDD` binds together

* an :class:`~repro.core.mddtype.MDDType`,
* a tile table (stable tile id → domain, BLOB id, codec),
* an R+-tree-like :class:`~repro.index.rplustree.RPlusTreeIndex` on the
  tile domains, walked to price ``t_ix`` (tiles are selected by masks
  over the tile table's columns), and
* the shared :class:`~repro.storage.disk.SimulatedDisk` /
  :class:`~repro.storage.bufferpool.BufferPool` of the owning
  :class:`Database`.

Reads produce a dense result array and a :class:`QueryTiming` with the
paper's ``t_ix`` / ``t_o`` / ``t_cpu`` breakdown.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field, fields, replace
from functools import partial, reduce
from itertools import accumulate, chain, pairwise, product
from operator import add
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

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
)
from repro.query.access import AccessKind, classify
from repro.query.timing import (
    FETCH_COUNTS,
    QUERY_COUNTS,
    READ_COUNTS,
    LoadStats,
    QueryTiming,
)
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
from repro.storage.pipeline import (  # noqa: F401
    DECODE_MS,
    Fetched,
    TileParts,
    fetch_payloads,
    fetch_tile,
    fetch_tile_partials,
    fetch_tiles,
    fold_fetch,
)
from repro.storage.wal import WriteAheadLog

#: Durability modes: no log, logged, logged + synchronous commits.
DURABILITY_MODES = ("none", "wal", "wal+fsync")

_TILES_STORED = obs.counter("tilestore.tiles_stored", "Tiles written as BLOBs")
_WRITE_THROUGH = obs.counter(
    "cache.decoded.write_throughs",
    "Decoded tiles admitted to the cache on the write path",
)
_READ_MS = obs.histogram(
    "tilestore.read_ms", "Modelled t_totalcpu milliseconds per range read"
)


@dataclass(frozen=True)
class TileEntry:
    """Tile-table row: where one tile's cells live.  Frozen: versions
    share rows, and a rebind replaces its row (DESIGN §11)."""

    tile_id: int
    domain: MInterval
    blob_id: int
    codec: str = "none"
    virtual: bool = False


def register_record(entry: TileEntry, synopsis: Optional[TileSynopsis]) -> dict:
    """A ``tile_register`` redo record's fields, its synopsis inline as
    ``zone`` (absent without one): the WAL logs it under ``op``/``coll``/
    ``obj``, a checkpoint under its object."""
    record = {
        "tile_id": entry.tile_id,
        "domain": str(entry.domain),
        "blob": entry.blob_id,
        "codec": entry.codec,
        "virtual": entry.virtual,
    }
    if synopsis is not None:
        record["zone"] = synopsis.to_dict()
    return record


def type_spec(mdd_type: MDDType) -> dict:
    """A ``create_object`` record's ``type``: the full type, not just its
    name, so replay rebuilds the object without a type registry."""
    return {
        "name": mdd_type.name,
        "base": mdd_type.base.name,
        "dd": str(mdd_type.definition_domain),
    }


class ReaderView(NamedTuple):
    """One object version, as one reader sees it.

    ``version`` is the version read — inside a transaction, one of the
    working state — whose tiles, synopses and tile table (derived by its
    first select) all come from one epoch, so a synopsis can never be
    stale relative to the tile it describes; ``epoch`` is the commit
    epoch the view was served at (the pinned one for readers outside a
    transaction).
    """

    epoch: int
    version: ObjectVersion


@dataclass(slots=True)
class _Hits:
    """Hits of one selection as columns (DESIGN §17): their tile-table
    ``rows``; each hit's part — its tile clipped to the query region —
    bounded by ``lo`` / ``hi``; and its routes, the ``(cell, part)``
    pairs of the query cells it meets, grouped by hit: hit ``i``'s are
    pairs ``first[i]`` to ``first[i + 1]`` of ``cell`` and ``cell_lo`` /
    ``cell_hi`` (none unless the query condenses)."""

    rows: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    first: np.ndarray
    cell: np.ndarray
    cell_lo: np.ndarray
    cell_hi: np.ndarray

    @classmethod
    def unrouted(cls, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> "_Hits":
        return cls(rows, lo, hi, np.zeros(len(rows) + 1, dtype=np.intp), rows[:0], lo[:0], hi[:0])

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, at: np.ndarray) -> "_Hits":
        """Hits ``at`` (positions), in that order, with their routes."""
        if not len(self.cell):
            return _Hits.unrouted(self.rows[at], self.lo[at], self.hi[at])
        starts = self.first[at]
        counts = self.first[1:][at] - starts
        first = np.concatenate([[0], np.cumsum(counts)])
        pairs = np.repeat(starts - first[:-1], counts) + np.arange(first[-1])
        return _Hits(
            self.rows[at], self.lo[at], self.hi[at], first,
            self.cell[pairs], self.cell_lo[pairs], self.cell_hi[pairs],
        )

    def span(self, start: int, stop: int) -> "_Hits":
        """Hits ``start`` to ``stop`` with their routes, as views."""
        if (start, stop) == (0, len(self.rows)):
            return self
        first = self.first[start : stop + 1]
        at, to = first[[0, -1]].tolist()
        return _Hits(
            self.rows[start:stop], self.lo[start:stop], self.hi[start:stop], first - at,
            self.cell[at:to], self.cell_lo[at:to], self.cell_hi[at:to],
        )

    def __add__(self, other: "_Hits") -> "_Hits":
        if not len(other.rows):
            return self
        if not len(self.rows):
            return other
        joined = {
            c.name: np.concatenate([getattr(self, c.name), getattr(other, c.name)])
            for c in fields(self)
        }
        joined["first"] = np.concatenate([self.first, other.first[1:] + self.first[-1]])
        return _Hits(**joined)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The routes' ``(row, cell)`` pairs, in route order."""
        return np.repeat(self.rows, np.diff(self.first)), self.cell


#: A selection's outcomes before its fetch (an empty batch).
_UNFETCHED = Fetched((), (), False)


@dataclass(slots=True)
class _Selection:
    """One pinned part's share of a query, as the select pass left it:
    its hits as columns of the query's tile table, which stacks every
    part's rows part by part (:meth:`~repro.storage.mvcc.TileTable.stack`)."""

    store: "StoredMDD"
    epoch: int
    #: Modelled ms charged to this store's disk: index pages, then
    #: fetches — exactly what its clock advanced by.
    model_ms: float
    table: TileTable
    #: The tiles still to fetch (page-ordered by the fetch), and those
    #: answered with zero decode.
    fetch: _Hits
    answered: _Hits
    #: The fetch's outcomes, aligned with ``fetch``.
    fetched: Fetched = _UNFETCHED
    #: Catalog record of every tile to fetch, aligned with ``fetch`` once
    #: page ordered: one snapshot feeds the order, the fetch and the
    #: accounting (blobs stay immutable under the pinned view).
    records: Sequence[BlobRecord] = ()


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
    :meth:`select` finds the hits of every pinned part, then prunes by
    zone map and classifies every hit as pruned, synopsis-answered or
    to-decode with masks over the parts' stacked tile tables, with no
    I/O; :meth:`fetch` page-orders each part's share, fetches it and does
    all the ``t_o`` / tiles / bytes / pages / cells accounting and counts
    each tile's own pool and decoded-cache outcomes; a *sink* —
    :meth:`compose`, :meth:`blocks` or :meth:`combine` — is the only
    stage that differs between ``read``, ``read_blocks`` and
    ``aggregate_push``.  Materialize-then-reduce is :meth:`compose`
    followed by :meth:`condense`, not a path of its own.

    A GROUP BY is one query with many *cells* (``groups``: closed spans
    per axis; the region searched is their hull; a plain query is one
    cell): each hit is routed to the cells it meets and fetched once.

    A query runs over pinned *parts* — ``(store, view)`` pairs; a store
    is the one-part case, a sharded object has one part per shard
    (``merge=True`` deduplicates hits by domain corner, so a migration's
    dual presence counts once).  Selection, classification, one
    :meth:`exact` decision and the fetch accounting are each one pass
    over every part; what stays per part is the store's own work — its
    pin, index walk and charge, page order and fetch through its pool
    and disk — and a part with no hits does only its index charge.
    Charges land in :attr:`timing` in part order then page order, which
    keeps ``t_o`` bit-identical however tiles are spread.  Every count
    the stages make lands in :attr:`timing`, the query's one account,
    which :meth:`finish` folds into the registry in one call.
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
        self._low, self._high = np.array(region.lowest), np.array(region.highest)
        #: The access type of the region as asked, logged by :meth:`finish`.
        self.kind = kind
        self.predicate = predicate
        self.prune = prune
        self.merge = merge
        self.dtype = mdd_type.base.dtype
        self.default = mdd_type.base.default
        self.cell_size = mdd_type.cell_size
        self.timing = QueryTiming(cells_result=sum(self.cell_counts))
        #: Each tile decode's wall ms, for the ``codec.decode_ms``
        #: histogram (the record holds their sum), until it is folded.
        self._decodes: list[float] = []
        #: ``t_totalcpu`` of the tiles a stream yielded, records folded.
        self._yielded_ms = 0.0
        self.selections: list[_Selection] = []
        #: Per cell: cells of the hits meeting it, and of the pruned ones.
        self.covered = self.pruned_cells = np.zeros(len(self.cell_counts), dtype=np.int64)
        # Cells of fetched tiles lying wholly inside / across the
        # region's border: the input of the modelled compose cost.
        self._aligned_cells = 0
        self._border_cells = 0

    # -- select ------------------------------------------------------------

    def select(
        self,
        parts: Sequence[tuple["StoredMDD", ReaderView]],
        table: TileTable,
        *,
        condense: bool = False,
    ) -> None:
        """Hit search, zone-map prune and classification of every pinned
        part in one pass — no I/O.

        The hits are the rows of ``table`` — the parts' tile tables
        stacked part by part — meeting the region, found by one overlap
        mask over its bound columns; each part's R+-tree only prices its
        share, its node visits charged to ``t_ix`` on that part's disk, in
        part order.  With ``merge`` a corner met on two parts counts once,
        on the first.  Every hit the pruner cannot rule out is to be
        fetched; with ``condense`` (the aggregates) an unpredicated tile
        with a synopsis lying inside every cell it meets is set aside as
        *answered* instead, and coverage is tallied per cell so pruned
        parts and uncovered space count as default cells.  A hit in a gap
        between cells is dropped.  Each step is a mask or a sum over the
        stacked columns; the hits are then cut into one selection per
        part (DESIGN §17).
        """
        selecting = time.perf_counter()
        region, timing = self.region, self.timing
        low, high = self._low, self._high
        sizes = (len(view.version.table.entries) for _store, view in parts)
        starts = list(accumulate(sizes, initial=0))
        started = time.perf_counter()
        rows = table.meeting(low, high)
        found = [stop - start for start, stop in pairwise(np.searchsorted(rows, starts).tolist())]
        nodes = [view.version.index.nodes_visited(region) for _store, view in parts]
        timing.t_ix += (time.perf_counter() - started) * 1000.0
        charges = [
            store.database.disk.charge_index(count)
            for (store, _view), count in zip(parts, nodes)
        ]
        for page_ix in charges:  # part order: t_ix_pages' bits depend on it
            timing.t_ix += page_ix
            timing.t_ix_pages += page_ix
        timing.index_nodes += sum(nodes)
        timing.index_searches += len(parts)
        timing.index_entries_found += sum(found)

        cells = len(self.cell_counts)
        if self.merge and len(found) - found.count(0) > 1:
            rows = rows[self._first_corners(table.lo[rows])]
        lo, hi = table.lo[rows], table.hi[rows]
        hits = _Hits.unrouted(rows, np.maximum(lo, low), np.minimum(hi, high))
        can = np.ones(len(rows), dtype=bool)
        if condense:  # every (hit, cell) pair; a hit in a gap between cells is dropped
            met, cell, cell_lo, cell_hi, cell_cells = self._route(lo, hi)
            per_hit = np.bincount(met, minlength=len(rows))
            first = np.concatenate([[0], np.cumsum(per_hit)])
            hits = replace(hits, first=first, cell=cell, cell_lo=cell_lo, cell_hi=cell_hi)
            can = per_hit > 0
        if self.predicate is not None and self.prune and table.zones.has[rows].any():
            pruner = TilePruner(self.predicate, table.zones, self.dtype)
            can[can] = pruner.can_match(rows[can])
            timing.prune_checks += pruner.checked
            timing.tiles_pruned += pruner.pruned
        answered = np.zeros(len(rows), dtype=bool)
        if condense:
            live = can[met]
            self.covered = np.bincount(cell, cell_cells, cells).astype(np.int64)
            self.pruned_cells = np.bincount(cell[~live], cell_cells[~live], cells).astype(np.int64)
            whole = cell_cells == table.cells[rows][met]  # a part lies inside its tile
            all_whole = np.bincount(met[~whole], minlength=len(rows)) == 0
            answerable = self.predicate is None and self.prune  # else every hit is fetched
            answered = can & all_whole & table.zones.has[rows] & answerable
        fetch = can & ~answered
        fetch = hits if fetch.all() else hits.take(np.flatnonzero(fetch))
        answered = hits.take(np.flatnonzero(answered))
        self.selections = [
            _Selection(store, view.epoch, page_ix, table, fetch_share, answered_share)
            for (store, view), page_ix, fetch_share, answered_share in zip(
                parts, charges, self._cut(fetch, starts), self._cut(answered, starts)
            )
        ]
        timing.select_ms += (time.perf_counter() - selecting) * 1000.0

    @staticmethod
    def _first_corners(corners: np.ndarray) -> np.ndarray:
        """Positions of the rows of ``corners`` not seen on an earlier
        row, in order: each domain corner counts once."""
        corners = np.ascontiguousarray(corners)
        keys = corners.view(np.dtype((np.void, corners.itemsize * corners.shape[1]))).ravel()
        return np.sort(np.unique(keys, return_index=True)[1])

    @staticmethod
    def _cut(hits: _Hits, starts: list[int]) -> list[_Hits]:
        """``hits`` (in row order) cut into each part's share: the hits
        among that part's rows ``starts[i]`` to ``starts[i + 1]``."""
        if not len(hits):
            return [hits] * (len(starts) - 1)
        cuts = np.searchsorted(hits.rows, starts).tolist()
        none = hits.span(0, 0) if len(set(cuts)) < len(cuts) else hits  # for empty shares only
        return [hits.span(start, stop) if start < stop else none for start, stop in pairwise(cuts)]

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

    def _hit(self) -> list[_Selection]:
        """The selections of the parts with a tile to fetch or answer: a
        part without one cost its index charge, and later stages skip it."""
        return [sel for sel in self.selections if len(sel.fetch) or len(sel.answered)]

    def exact(self, op: str) -> bool:
        """May ``op`` be combined from synopses and per-tile partials?

        One :func:`~repro.index.zonemap.cells_eligible` decision over
        every cell at once, each cell with exactly the inputs it alone
        would have: the ``(row, cell)`` pairs routing its non-pruned hits
        in every selection, over the zone columns, and its uncovered
        cells.  The combination must equal materialize-then-reduce
        bitwise in every cell.  When it may not in some cell, the
        synopsis shortcut is off the table too — the answered tiles
        rejoin the tiles to fetch, so every non-pruned tile is fetched
        and the region materialized.
        """
        hit = self._hit()
        routed = (  # read only by integer sums and averages
            (sel.table.zones, *(sel.fetch + sel.answered).pairs()) for sel in hit
        )
        exact = cells_eligible(
            op, self.dtype, routed, np.subtract(self.cell_counts, self.covered), self.default,
            self.cell_counts, masked=self.predicate is not None,
        )
        if not exact:
            for selection in hit:
                selection.fetch += selection.answered
                selection.answered = selection.answered.span(0, 0)
        return exact

    # -- run ---------------------------------------------------------------

    def fetch(self, *, op: Optional[str] = None) -> None:
        """Run phase: fetch every part's tiles in page order, part by
        part, through that part's pool and disk.

        An ``op`` reduces every tile to one partial aggregate per cell
        part — holding only what that op's combine reads — instead of
        returning its cells.
        """
        self._run(self._decoded if op is None else partial(self._partials, op=op))

    def _run(self, run: Callable) -> None:
        """Page-order and fetch with ``run`` — decoded tiles, reduced
        partials or stored payloads — the share of every part that has
        tiles to fetch, then account for all of them at once."""
        started = time.perf_counter()
        batches = []
        for selection in self.selections:
            if len(selection.fetch):
                self._page_order(selection)
                selection.fetched = run(
                    selection.store.database, selection.table, selection.fetch, selection.records
                )
                batches.append((selection, selection.fetch, selection.fetched))
        self._account(batches, started)

    @staticmethod
    def _page_order(selection: _Selection) -> None:
        """Sort the tiles to fetch by first page, for sequential runs (a
        stable sort: ties keep table order), with their records."""
        records = selection.store.database.store.records(
            selection.table.blob_ids[selection.fetch.rows].tolist()
        )
        order = np.argsort([record.pages.start for record in records], kind="stable")
        selection.records = [records[at] for at in order.tolist()]
        selection.fetch = selection.fetch.take(order)

    @staticmethod
    def _rows(table: TileTable, hits: _Hits) -> np.ndarray:
        """Each hit's leading-axis rows ``[start, stop)`` of its tile that
        its part meets: all a decode that no cache keeps need produce."""
        origin = table.lo[hits.rows, 0]
        return np.column_stack([hits.lo[:, 0] - origin, hits.hi[:, 0] - origin + 1])

    def _decoded(self, database: "Database", table: TileTable, hits: _Hits, records) -> Fetched:
        entries = [table.entries[row] for row in hits.rows.tolist()]
        return fetch_tiles(database, entries, self.dtype, records, self._rows(table, hits))

    def _partials(
        self, database: "Database", table: TileTable, hits: _Hits, records, op: str
    ) -> Fetched:
        origin = np.repeat(table.lo[hits.rows], np.diff(hits.first), axis=0)
        parts = TileParts(
            [table.entries[row] for row in hits.rows.tolist()], hits.cell_lo - origin,
            hits.cell_hi - origin, hits.first, self._rows(table, hits),
        )
        fetched, peak = fetch_tile_partials(
            database, parts, self.dtype, self.predicate, self.default, op, records
        )
        self.timing.peak_partial_bytes = max(self.timing.peak_partial_bytes, peak)
        self.timing.partial_aggregates += sum(map(len, fetched.partials))
        return fetched

    def _payloads(self, database: "Database", table: TileTable, hits: _Hits, records) -> Fetched:
        entries = [table.entries[row] for row in hits.rows.tolist()]
        return fetch_payloads(database, entries, records)

    def _account(self, batches: list, started: float) -> None:
        """Account for fetched ``(selection, hits, batch)`` in part order
        — the one place ``t_o``, tiles / bytes / pages / cells, the disk's
        charged reads, decodes, the tiles' own cache outcomes and
        ``fetch_ms`` are charged: the numpy passes once over every part's
        rows, then sums over each batch's columns
        (:meth:`~repro.storage.pipeline.Fetched.account`)."""
        timing = self.timing
        if batches:
            table = batches[0][0].table
            rows = np.concatenate([hits.rows for _sel, hits, _batch in batches])
            cells, lo, hi = table.cells[rows], table.lo[rows], table.hi[rows]
            inside = reduce(np.logical_and, ((lo >= self._low) & (hi <= self._high)).T)
            aligned, total = int(cells[inside].sum()), int(cells.sum())
            timing.cells_fetched += total
            self._aligned_cells += aligned
            self._border_cells += total - aligned
            timing.tiles_read += len(rows)
        for selection, _hits, batch in batches:  # part by part: t_o's bits depend on it
            selection.model_ms += reduce(add, batch.cost, 0.0)
            self._decodes += batch.account(timing)
        timing.fetch_ms += (time.perf_counter() - started) * 1000.0

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

    def _windows(
        self, table: TileTable, hits: _Hits, batch: Fetched
    ) -> Iterator[tuple[Optional[np.ndarray], tuple[slice, ...], tuple[slice, ...]]]:
        """Every fetched tile's decoded cells with the slices of its part
        in them and in the result: offsets from one subtraction of the
        bound columns per side, made into slices only as each tile is
        consumed — a read holds one tile's, not every tile's, objects for
        the cyclic collector to count, walk and promote."""
        origin = table.lo[hits.rows]
        origin[:, 0] += np.asarray(batch.first_row, dtype=np.int64)
        starts = np.hstack([hits.lo - origin, hits.lo - self._low])
        stops = starts + np.tile(hits.hi - hits.lo + 1, 2)
        slices = zip(*[map(slice, starts.ravel().tolist(), stops.ravel().tolist())] * len(self._low))
        return zip(batch.arrays, slices, slices)  # per tile: its source, then its target

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
        fetched = [sel for sel in self.selections if len(sel.fetch)]
        windows = chain.from_iterable(
            self._windows(sel.table, sel.fetch, sel.fetched) for sel in fetched
        )
        out = None
        if predicate is None and sum(len(sel.fetch) for sel in fetched) == 1:
            windows = list(windows)
            array, source, _target = windows[0]
            if array is not None and array[source].shape == region.shape:
                out = array[source]
        if out is None:
            out = np.zeros(region.shape, dtype=dtype)
            if self.default != 0:
                out[...] = self.default
            default_cell = np.asarray(self.default, dtype=dtype)
            for array, source, target in windows:
                if array is None:
                    # Synthesized tiles carry default cells; under
                    # a predicate the masked value of a default
                    # cell is the default either way.
                    continue
                part_vals = array[source]
                if predicate is not None:
                    part_vals = np.where(
                        predicate.mask(part_vals), part_vals, default_cell
                    )
                out[target] = part_vals
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
        (the index lookups ride on the first), folded as a fetch first;
        :meth:`finish` is left the query's own counts — the tiles and
        cells fetched, or the record with its index charges if none."""
        left = QueryTiming(cells_result=self.timing.cells_result)
        for selection in self.selections:
            if not len(selection.fetch):
                continue
            self._page_order(selection)
            for at in range(len(selection.fetch)):
                started = time.perf_counter()
                hits, records = selection.fetch.span(at, at + 1), selection.records[at : at + 1]
                batch = self._decoded(selection.store.database, selection.table, hits, records)
                self._account([(selection, hits, batch)], started)
                started = time.perf_counter()
                part = MInterval.bounded(hits.lo[0].tolist(), hits.hi[0].tolist())
                ((array, source, _target),) = self._windows(selection.table, hits, batch)
                if array is None:
                    data = np.zeros(part.shape, dtype=self.dtype)
                    if self.default != 0:
                        data[...] = self.default
                else:
                    data = array[source].copy()
                timing = self.timing
                timing.cells_result = part.cell_count
                self._charge_cpu(started)
                self.timing = QueryTiming()
                timing.fold(FETCH_COUNTS, ((DECODE_MS, self._decodes),))
                self._decodes = []
                left.tiles_read += 1
                left.cells_fetched += timing.cells_fetched
                self._yielded_ms += timing.t_totalcpu
                yield part, data, timing
        if left.tiles_read:
            self.timing = left

    def combine(self, op: str):
        """Pushdown sink: merge the per-tile partials (reduced and
        synopsis-answered alike) of every cell in column passes
        (:func:`~repro.index.zonemap.combine_cells`), in deterministic
        key order, with each cell's default cells: uncovered space,
        pruned parts, and fetched virtual tiles (which carry neither an
        array nor a partial).  Parts without hits add nothing; with none
        at all, every cell is its default cells."""
        timing = self.timing
        started = time.perf_counter()
        default_cells = np.array(self.cell_counts, dtype=np.int64)
        default_cells += self.pruned_cells - self.covered
        table = self.selections[0].table
        nothing = np.zeros(0, dtype=np.intp)
        cells: list = [nothing]
        syns: list = []
        keys: list = [self._keys(table, nothing)]
        for sel in self._hit():
            fetch, answered = sel.fetch, sel.answered
            virtual = table.virtual[fetch.rows]
            routed_virtual = np.repeat(virtual, np.diff(fetch.first))
            np.add.at(default_cells, fetch.cell[routed_virtual], np.prod(
                fetch.cell_hi[routed_virtual] - fetch.cell_lo[routed_virtual] + 1, axis=1
            ))
            rows, routed = (answered + fetch.take(np.flatnonzero(~virtual))).pairs()
            cells.append(routed)
            syns += map(table.zones.syns.__getitem__, rows[: len(answered.cell)].tolist())
            syns += chain.from_iterable(sel.fetched.partials)
            timing.tiles_synopsis_answered += len(answered)
            timing.tiles_partial_agg += len(fetch) - int(virtual.sum())
            keys.append(self._keys(table, rows))
        values = combine_cells(
            op, self.dtype, np.concatenate(cells), syns, np.concatenate(keys),
            default_cells, self.default, self.cell_counts,
        )
        self._charge_cpu(started)
        return self._shaped(values)

    def _keys(self, table: TileTable, rows: np.ndarray) -> np.ndarray:
        """Combine order: tile id within one store, domain corner across
        stores (tile ids are per store)."""
        return table.lo[rows] if self.merge else table.ids[rows, None]

    def payloads(self) -> list[tuple[TileEntry, bytes]]:
        """Stored-tile sink (served tile frames): every hit with its payload
        as stored, selection by selection in page order.  Nothing is
        decoded and the decoded cache is never touched, so the charges are
        a :meth:`compose` read's on a database without that cache."""
        self._run(self._payloads)
        started = time.perf_counter()
        tiles = [
            pair
            for sel in self.selections
            for pair in zip(sel.fetched.entries, sel.fetched.payloads)
        ]
        self.timing.sink_ms += (time.perf_counter() - started) * 1000.0
        return tiles

    def plan(self) -> list[TileEntry]:
        """The tiles :meth:`fetch` would fetch, in its order: every
        selection page-ordered, nothing fetched (the record, its index
        charges, is folded)."""
        for selection in self.selections:
            if len(selection.fetch):
                self._page_order(selection)
        self.timing.fold(FETCH_COUNTS)
        return [
            sel.table.entries[row] for sel in self.selections for row in sel.fetch.rows.tolist()
        ]

    # -- account -----------------------------------------------------------

    def finish(self, *, cells_returned: bool = False) -> ScatterStats:
        """Fold the query's record into the registry — one locked call of
        a fixed table, with the decode times and ``tilestore.read_ms`` —
        and log one access-log ``read`` per part (what the rebalancer
        folds into per-shard load, and the advisor into a tiling);
        returns the per-part account."""
        timing = self.timing
        timing.fold(
            READ_COUNTS if cells_returned else QUERY_COUNTS,
            ((DECODE_MS, self._decodes), (_READ_MS, [timing.t_totalcpu + self._yielded_ms])),
        )
        for selection in self.selections:
            store = selection.store
            store.database.access_log.record(
                "read", store.collection, store.name, self.region, selection.epoch,
                cost_ms=selection.model_ms, cells=timing.cells_result, kind=self.kind,
            )
        return ScatterStats(
            tuple(sel.model_ms for sel in self.selections),
            tuple(len(sel.fetch) for sel in self.selections),
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
        # Readers outside a transaction read this version (DESIGN §11).  It
        # aliases the working containers until a transaction's first
        # mutation copies them (:meth:`_touch`).
        self._published = self._version(0)
        #: The working state as a version, for reads inside a transaction;
        #: built by the first such read, dropped by the next mutation.
        self._working: Optional[ObjectVersion] = None
        #: Per-part account of the last finished query (one part here).
        self.last_scatter: Optional[ScatterStats] = None
        #: The last pinned cut's tile tables and their stack (:meth:`_stacked`).
        self._stack: tuple = ((), None)

    # -- MVCC plumbing (DESIGN §11) ------------------------------------

    def _touch(self) -> None:
        """Copy-on-write hook: call before any working-state mutation.

        Inside a transaction, the first touch saves the published version
        for rollback and copies the working containers — the tile and zone
        maps and the index's nodes; the rows, synopses and index entries
        they hold are immutable and shared — so readers of
        :attr:`_published` never see mid-transaction state.  Outside a
        transaction (catalog reload, recovery replay) this is a no-op —
        those paths republish explicitly when done.
        """
        self._working = None
        txn = self.database._current_txn()
        if txn is None or self in txn.dirtied:
            return
        txn.dirtied[self] = (self._published, self._next_tile_id)
        self._tiles = dict(self._tiles)
        self._zones = dict(self._zones)
        self.index = self.index.copy()

    def _version(self, epoch: int) -> ObjectVersion:
        """The working state as a version at ``epoch``."""
        return ObjectVersion(
            self._tiles, self.index, self._current_domain, epoch, self._zones, self.mdd_type
        )

    def _publish(self, epoch: int) -> None:
        """Freeze the working state as the readable version (at commit)."""
        self._working = None
        self._published = self._version(epoch)

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

    def _statement_version(self) -> ObjectVersion:
        """The version a writer's statement sees, unpinned: the working
        state (one version until the next mutation) once this thread's
        transaction dirtied the object, else the published version."""
        txn = self.database._current_txn()
        if txn is None or self not in txn.dirtied:
            return self._published
        if self._working is None:
            self._working = self._version(self.database.epoch._current)
        return self._working

    @contextmanager
    def _reader_view(
        self, version: Optional[ObjectVersion]
    ) -> Iterator[ReaderView]:
        """The :class:`ReaderView` one read runs against.

        An explicit ``version`` (snapshot read) is used as-is — the
        snapshot holds the pin.  A thread inside its own transaction
        reads the statement version (read-your-own-writes), served at
        the current epoch.  Anyone else pins the current epoch and reads
        the published version; the pin is released when the block exits.
        """
        pin = served = None
        if version is None and self.database._current_txn() is not None:
            version, served = self._statement_version(), self.database.epoch._current
        elif version is None:
            epoch = self.database.epoch
            with epoch.latch:
                served = pin = epoch.pin_locked()
                version = self._published
        view = ReaderView(version.epoch if served is None else served, version)
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
        self._tiles[tile_id] = replace(self._tiles[tile_id], blob_id=blob_id, codec=codec)
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
        """Hull of the tiles this statement sees (``None`` without tiles):
        the extremes of its table's bound columns."""
        table = self._statement_version().table
        if len(table.entries):
            return MInterval.bounded(table.lo.min(axis=0).tolist(), table.hi.max(axis=0).tolist())
        return None

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
                tile_ids.append(
                    self._register(item.tile.domain, blob_id, item.codec, False, item.synopsis)
                )
                blob_ids.append(blob_id)
            _TILES_STORED.inc(len(encoded))
            self._write_through(blob_ids, encoded)
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

    def _write_through(self, blob_ids: Sequence[int], encoded: Sequence[EncodedTile]) -> None:
        """Admit a batch's just-written decoded cells to the cache in one
        call, in write order, so read-after-write is a ``decoded_hit``.
        The arrays are built from the serialised bytes, never views of the
        caller's; the cache enforces its byte budget (an oversized tile is
        simply not admitted)."""
        cache = self.database.decoded_cache
        if cache is None or not encoded:
            return
        dtype = self.mdd_type.base.dtype
        cache.put_many([
            (blob_id, np.frombuffer(item.raw, dtype=dtype).reshape(item.tile.domain.shape))
            for blob_id, item in zip(blob_ids, encoded)
        ])
        _WRITE_THROUGH.inc(len(encoded))

    def attach_tile(
        self, domain: MInterval, blob_id: int, codec: str = "none"
    ) -> int:
        """Register an existing BLOB as a tile: no data is copied — only
        the tile table and the index grow.  It commits as its own
        transaction (or joins the caller's), so a published version, and
        any snapshot holding it, never sees the new tile."""
        record = self.database.store.record(blob_id)  # raises when missing
        with self.database.transaction():
            self._admit([domain])
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
            self._admit([domain])
            return self._put_virtual(domain)

    def _put_virtual(self, domain: MInterval) -> int:
        """Store and register one admitted virtual tile (in a transaction)."""
        blob_id = self.database.store.put_virtual(domain.cell_count * self.mdd_type.cell_size)
        self.database._note_created_blob(blob_id)
        self.database._log_blob_put(blob_id, b"")
        synopsis = (
            constant_synopsis(domain.cell_count, self.mdd_type.base.default)
            if self.mdd_type.base.dtype.fields is None
            else None
        )
        return self._register(domain, blob_id, "none", True, synopsis)

    def _admit(self, domains: Sequence[MInterval]) -> None:
        """Admit a batch before any of it is encoded or written: each
        domain against the definition domain, then one sweep over its
        bounds and the bounds of every part's tiles (as this statement
        sees them) meeting its hull — a stored tile met first, then the
        pair of batch tiles whose later one is put first.  Two stored
        tiles meeting are a migration's dual presence, not a fault."""
        if not domains:
            return
        for domain in domains:
            self.mdd_type.validate_domain(domain, what="tile domain")
        batch = pack_bounds(domains, self.dim)
        tables = [part._statement_version().table for part in self._parts]
        near = [(table, table.meeting(batch[:, 0].min(0), batch[:, 1].max(0))) for table in tables]
        bounds = [batch, *(np.stack((t.lo[rows], t.hi[rows]), 1) for t, rows in near)]
        pairs = overlapping_pairs(np.concatenate(bounds))
        pairs = pairs[pairs[:, 0] < len(domains)]
        stored = pairs[pairs[:, 1] >= len(domains)] - [0, len(domains)]
        if len(stored):
            stored_tile = [t.entries[row] for t, rows in near for row in rows][stored[0, 1]]
            raise DomainError(
                f"tile {domains[stored[0, 0]]} overlaps stored tile "
                f"{stored_tile.domain} of {self.name!r}"
            )
        if len(pairs):
            first, later = pairs[np.argmin(pairs[:, 1])]
            raise DomainError(
                f"tile {domains[later]} overlaps tile {domains[first]} "
                f"in the same batch for {self.name!r}"
            )

    def _register(
        self,
        domain: MInterval,
        blob_id: int,
        codec: str,
        virtual: bool,
        synopsis: Optional[TileSynopsis],
    ) -> int:
        """Log (with a WAL) and apply ``tile_register`` under the next
        tile id."""
        entry = TileEntry(self._next_tile_id, domain, blob_id, codec, virtual)
        if self.database.wal is not None:
            # The synopsis rides in the same redo record as the tile it
            # describes, so replay can never resurrect one without the other.
            self._log_meta({"op": "tile_register", **register_record(entry, synopsis)})
        self._apply_register(entry, synopsis)
        return entry.tile_id

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
        tiles — the 730×60×100 sales cube, compressed, median of 5 loads
        on a 2-vCPU VM: Dir64K3P (744 tiles) 9 ms against a ~140 ms
        ``store_ms``, Reg32K (648 tiles) 7 ms against ~115 ms.

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
        domains = [view.version.domain for _s, view in parts if view.version.domain is not None]
        hull = MInterval.hull_of(domains) if domains else None
        resolved = self._resolve_in(region, hull)
        assert hull is not None
        query = ReadExecutor(
            self.mdd_type, resolved, merge=self._MERGE, kind=classify(region, hull), **options
        )
        query.select(parts, self._stacked(parts), condense=condense)
        return query

    def _stacked(self, parts: list) -> TileTable:
        """The pinned parts' tile tables as one (:meth:`TileTable.stack`),
        kept while the next cut pins the same versions' tables; one
        part's is its own."""
        tables = [view.version.table for _store, view in parts]
        stack = self._stack
        if stack[0] != tables:  # TileTable compares by identity
            stack = self._stack = (tables, TileTable.stack(tables))
        return stack[1]

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
            query.fetch()
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
        A stream run to its end is logged, counted and sets
        :attr:`last_scatter` as a :meth:`read` is; an abandoned one is not.
        """
        with self._pinned(version) as parts:
            query = self._select(parts, region)
            yield from query.blocks()
        self.last_scatter = query.finish()

    def tile_plan(
        self, region: MInterval, version: Optional[ObjectVersion] = None
    ) -> list[TileEntry]:
        """The tiles a :meth:`read` of ``region`` fetches, in its order:
        select and page order, no fetch — only ``t_ix`` is charged.  Not
        logged as a read: the served read of its tiles that follows is."""
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
            query.fetch(op=op if pushed else None)
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
        """The tiles meeting ``region``, in tile-table (tile-id) order:
        one overlap mask over the statement version's table."""
        table = self._statement_version().table
        rows = table.meeting(np.array(region.lowest), np.array(region.highest))
        return [table.entries[row] for row in rows.tolist()]

    def _rewrite(self, entries: Sequence[TileEntry], region: MInterval, values: np.ndarray) -> int:
        """One part's share of an update, as one transaction: the hit
        tiles are fetched in one :func:`fetch_tiles` call (in tile-table
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
            fold_fetch(fetched)
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
            encoded = encode_tiles(self.database, patched)
            blob_ids: list[int] = []
            for entry, item in zip(changed, encoded):
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
                if self.database.wal is not None:
                    zone = None if synopsis is None else synopsis.to_dict()
                    self._log_meta({"op": "tile_rebind", "tile_id": entry.tile_id,
                                    "blob": blob_id, "codec": item.codec, "zone": zone})
                self._apply_rebind(entry.tile_id, blob_id, item.codec, synopsis)
                blob_ids.append(blob_id)
            self._write_through(blob_ids, encoded)
            self._note_access("write", region, written)
        return written

    def _check_delete(self, region: MInterval) -> None:
        """What ``delete_region`` accepts, on one store or sharded: a
        bounded region inside the definition domain (one missing the
        current domain drops nothing)."""
        self.mdd_type.validate_domain(region, what="delete region")

    def _victims(self, region: MInterval) -> list[TileEntry]:
        """The tiles lying wholly inside ``region``, in tile-id order: one
        containment mask over the statement version's table."""
        table = self._statement_version().table
        inside = (table.lo >= region.lowest) & (table.hi <= region.highest)
        victims = [table.entries[row] for row in np.flatnonzero(inside.all(axis=1)).tolist()]
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
        if self._statement_version().table.virtual.any():
            raise StorageError(
                f"object {self.name!r} has virtual tiles; retiling would "
                f"materialise synthesized data"
            )
        domain = self._current_domain
        data, _timing = self.read(domain)
        with self.database.transaction():
            self.drop()
            stats = self.load_array(data, strategy, domain.lowest, skip_default_tiles)
        assert self._current_domain == domain
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
        priced = self.disk.charge_reads(records)
        return [(load(r.blob_id), PoolRead(*item)) for r, item in zip(records, priced)]

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
        """Shut down the encode pool and the WAL, empty the caches, and
        drop the objects and the epoch manager's reclaimer (idempotent).
        A closed database's cached tiles are freed now, and the database
        by reference counting once its last handle goes: nothing it owns
        refers back to it (each object holds it, and the reclaimer is its
        bound method), so when it is freed never waits for the cyclic
        collector."""
        if self._io_executor is not None:
            self._io_executor.shutdown(wait=True)
            self._io_executor = None
        if self.wal is not None:
            self.wal.close()
        if self.pool is not None:
            self.pool.clear()
        if self.decoded_cache is not None:
            self.decoded_cache.clear()
        self.collections.clear()
        self.epoch.detach()

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
        """Publish every object's working state as one new epoch, as a
        commit would.

        For single-threaded maintenance paths that mutate working state
        outside a transaction (catalog reload, recovery replay); not for
        use while readers are active.
        """
        with self.epoch.latch:
            self.epoch.retire_and_advance(())
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
                    "type": type_spec(mdd_type),
                }
            )
        return obj

    def objects(self, collection: str) -> tuple[StoredMDD, ...]:
        """All stored MDD objects of a collection."""
        return tuple(self.collection(collection).values())

    def reset_clock(self) -> None:
        """Start a cold measurement: reset the disk's clock and head,
        empty both caches and clear the access log.

        Activity is counted in the registry and each query's record, so
        there are no tallies to zero.  Durable state (log file, pending
        writes) is untouched: resetting a clock must never lose data.
        """
        self.disk.reset()
        if self.pool is not None:
            self.pool.clear()
        if self.decoded_cache is not None:
            self.decoded_cache.clear()
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
