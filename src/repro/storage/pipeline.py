"""Read pipeline: fetch and decode a query's tiles in page order.

The hot path of a range read is, per intersected tile: BLOB retrieval
(buffer pool, then simulated disk), ``decompress``, ``np.frombuffer``.
This module is that per-tile chain, run on the calling thread:

* decoded-cache lookups first, one pass for the batch; on the
  aggregation pushdown the hits are reduced in place
  (:class:`_Reducer`);
* then the misses in page order: buffer-pool lookups/admissions and the
  simulated disk charges, whose seek/settle/sequential regimes depend
  on head position, read ahead per chunk of misses
  (:func:`_read_runs`); each miss is decoded where it is fetched —
  ``decompress`` + ``frombuffer``, only the rows its parts meet when no
  cache keeps it, then on the pushdown the per-tile kernel; the batch's
  decoded misses are then admitted to the decoded cache in page order,
  under one latch hold.

The stored codecs decode in a few numpy passes (``planes``) or one C
call (``zlib``), so there is no decode worker pool: the
:class:`~repro.storage.tilestore.Database`'s ``io_workers`` pool encodes
only (:mod:`repro.storage.ingest`).  All of it is one function,
:func:`_fetch`; the public ``fetch_tiles`` / ``fetch_tile`` /
``fetch_tile_partials`` are its entry points; ``fetch_payloads`` (served
tile frames) is its read walk alone.  A batch's outcomes are columns
(:class:`Fetched`), summed once per batch into the query's record
(:meth:`Fetched.account`), which the query folds into the registry once;
a batch fetched outside a query folds its own record
(:func:`fold_fetch`).  Nothing here updates an instrument per tile.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import compress
from operator import add
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from repro import obs
from repro.index.zonemap import CellPredicate, TileSynopsis, partial_synopsis
from repro.query.timing import FETCH_COUNTS, QueryTiming
from repro.storage.compression import decompress
from repro.storage.disk import count_charged

if TYPE_CHECKING:  # pragma: no cover - annotations only (avoids a cycle)
    from repro.core.geometry import MInterval
    from repro.storage.blob import BlobRecord
    from repro.storage.tilestore import Database, TileEntry

#: Observes the decode times a record sums in ``decode_ms``, one per tile.
DECODE_MS = obs.histogram(
    "codec.decode_ms", "Wall milliseconds per tile decode (then reduce, on the pushdown)"
)


@dataclass(slots=True)
class FetchedTile:
    """One tile's outcome, read out of a :class:`Fetched` batch.

    ``array`` is the decoded, read-only-when-cached tile array — its rows
    from ``first_row`` on, when only those were decoded; ``None`` for
    virtual tiles (their cells are synthesised defaults).  ``cost`` is the
    modelled disk milliseconds charged for this tile (0.0 on a buffer pool
    or decoded-cache hit); ``payload_bytes`` the stored payload size.  On
    the pushdown (:func:`fetch_tile_partials`) ``partials`` holds one
    partial per part instead (:class:`_Reducer`; a virtual tile has
    none), and from :func:`fetch_payloads` only ``payload`` is set.  The
    ``decoded_*`` / ``pool_*`` outcomes are this fetch's own lookups'.
    """

    entry: "TileEntry"
    cost: float
    payload_bytes: int
    array: Optional[np.ndarray] = None
    decoded_hit: bool = False
    decoded_miss: bool = False
    pool_hit: Optional[bool] = None
    pool_evicted: int = 0  # entries the pool admission evicted
    partials: tuple[TileSynopsis, ...] = ()
    payload: bytes = b""
    #: Wall ms of this tile's :func:`_decode` (decode, then reduce);
    #: non-zero exactly when it was decoded for this fetch.
    decode_ms: float = 0.0
    first_row: int = 0


class Fetched(SequenceABC):
    """A page-ordered batch's outcomes, one column per
    :class:`FetchedTile` field, filled in place as the batch is fetched
    (DESIGN §17): the read path sums and walks the columns, and indexing
    reads one tile out.  ``decoded`` marks the tiles decoded by this
    fetch (a decoded-cache miss, when the batch has a cache);
    ``records`` is the batch's catalog snapshot."""

    __slots__ = (
        "entries", "records", "cost", "regime", "payload_bytes", "arrays", "first_row",
        "pool_hit", "pool_evicted", "decoded_hit", "decoded", "decode_ms", "partials",
        "payloads", "cached",
    )

    def __init__(
        self, entries: Sequence["TileEntry"], records: Sequence["BlobRecord"], cached: bool
    ) -> None:
        count = len(entries)
        self.entries = entries
        self.records = records
        #: Whether a decoded cache was consulted (a decode is then its miss).
        self.cached = cached
        self.cost = [0.0] * count
        self.regime: list[Optional[str]] = [None] * count
        self.payload_bytes = [0] * count
        self.arrays: list[Optional[np.ndarray]] = [None] * count
        self.first_row = [0] * count
        self.pool_hit: list[Optional[bool]] = [None] * count
        self.pool_evicted = [0] * count
        self.decoded_hit = [False] * count
        self.decoded = [False] * count
        self.decode_ms = [0.0] * count
        self.partials: list[tuple[TileSynopsis, ...]] = [()] * count
        self.payloads: list[bytes] = [b""] * count

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, at: int) -> FetchedTile:  # type: ignore[override]
        return FetchedTile(
            self.entries[at], self.cost[at], self.payload_bytes[at], self.arrays[at],
            self.decoded_hit[at], self.decoded[at] and self.cached, self.pool_hit[at],
            self.pool_evicted[at], self.partials[at], self.payloads[at], self.decode_ms[at],
            self.first_row[at],
        )

    def account(self, record: QueryTiming) -> list[float]:
        """Add this batch's outcomes to ``record``, summed over its
        columns: ``t_o``, bytes and pages, the disk's charged reads, the
        pool and decoded-cache outcomes and the decodes — whose times
        are returned, one per decoded tile (``codec.decode_ms``).  The
        costs add left to right, in page order: ``t_o``'s bits depend on
        it."""
        record.t_o = functools.reduce(add, self.cost, record.t_o)
        record.bytes_read += sum(self.payload_bytes)
        record.pages_read += sum(blob.pages.count for blob in self.records)
        count_charged(record, self.records, self.regime)
        decodes = list(compress(self.decode_ms, self.decoded))
        record.tiles_decoded += len(decodes)
        record.decode_ms = functools.reduce(add, decodes, record.decode_ms)
        record.pool_hits += self.pool_hit.count(True)
        record.pool_misses += self.pool_hit.count(False)
        record.pool_evictions += sum(self.pool_evicted)
        record.decoded_hits += sum(self.decoded_hit)
        record.decoded_misses += len(decodes) if self.cached else 0
        return decodes


class TileParts(NamedTuple):
    """A batch's tiles with their parts as bounds columns: tile ``i``'s
    parts are rows ``first[i]`` to ``first[i + 1]`` of ``lo`` / ``hi``
    (``int64[p, d]``, relative to the tile's origin), and ``rows[i]``
    its leading-axis rows ``[start, stop)`` that hold them."""

    entries: Sequence["TileEntry"]
    lo: np.ndarray
    hi: np.ndarray
    first: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(cls, items: Sequence[tuple["TileEntry", Sequence["MInterval"]]]) -> "TileParts":
        """From ``(entry, parts)`` pairs, each part an interval inside
        its tile (the rows: the tile's whole leading axis)."""
        entries = [entry for entry, _ in items]
        origins = [entry.domain.lower for entry, parts in items for _ in parts]
        lows = [part.lower for _, parts in items for part in parts]
        highs = [part.upper for _, parts in items for part in parts]
        dim = entries[0].domain.dim if entries else 1
        lo, hi, origin = (
            np.array(bounds, dtype=np.int64).reshape(-1, dim) for bounds in (lows, highs, origins)
        )
        counts = [len(parts) for _, parts in items]
        rows = [(0, entry.domain.shape[0]) for entry in entries]
        return cls(
            entries, lo - origin, hi - origin, np.cumsum([0, *counts]),
            np.array(rows, dtype=np.intp).reshape(-1, 2),
        )

    def bounds(self, at: int) -> tuple[list, list]:
        """Tile ``at``'s part bounds as lists, converted as that tile is
        reduced: a batch holds one tile's bound objects at a time, not
        every tile's."""
        start, stop = self.first[at : at + 2].tolist()
        return self.lo[start:stop].tolist(), self.hi[start:stop].tolist()


class _Reducer:
    """The pushdown's per-tile kernel: mask → reduce each part of one
    decoded tile as a view of it (a tile straddling GROUP BY cells has
    one part per cell it meets).  Given the query's ``op`` it fills only
    what that op's combine reads: ``count_cells`` → ``nonzero``;
    ``add_cells`` / ``avg_cells`` → ``vsum``; ``min_cells`` /
    ``max_cells`` → the NaN-ignoring extreme in ``vmin`` and ``vmax``
    (``None`` exactly when no comparable cell exists) and ``nan_count``.
    ``op=None`` (and float sums, which never push) gets the full
    :func:`~repro.index.zonemap.partial_synopsis`.  Fixed once per query:
    a multiply mask for a zero default on an integer cube, and whether
    the predicate rejects 0 — then a part's ``nonzero`` counts its mask.

    It reduces one tile at a time, so ``peak`` — the largest tile it
    reduced, in bytes — is all the decoded memory it ever holds.
    """

    def __init__(
        self, predicate: Optional[CellPredicate], default_cell: np.ndarray, op: Optional[str] = None
    ) -> None:
        self.predicate = predicate
        self.default_cell = default_cell
        self.op = op
        dtype = default_cell.dtype
        self.full = op is None or (dtype.kind == "f" and op in ("add_cells", "avg_cells"))
        self.multiply = dtype.kind in "biu" and not default_cell
        self.mask_counts = predicate is not None and not predicate.mask(np.zeros((), dtype))
        self.extreme = np.fmin if op == "min_cells" else np.fmax  # skip NaN, as _summarize
        self.peak = 0

    def reduce(self, values: np.ndarray) -> TileSynopsis:
        """The kernel: one part's partial, from a view of its cells."""
        predicate, op, cells = self.predicate, self.op, values.size
        if predicate is not None:
            mask = predicate.mask(values)
            if op == "count_cells" and self.mask_counts:  # passing cells are nonzero
                passed = int(np.count_nonzero(mask))
                failed = cells - passed if self.default_cell != 0 else 0  # NaN != 0
                return TileSynopsis(cells, passed + failed, None, None, 0)
            if self.multiply:  # the same cells as np.where with a 0 default
                values = values * mask
            else:
                values = np.where(mask, values, self.default_cell)
        if self.full:
            return partial_synopsis(values)
        if op == "count_cells":
            return TileSynopsis(cells, int(np.count_nonzero(values)), None, None, 0)
        if op in ("add_cells", "avg_cells"):
            return TileSynopsis(cells, 0, None, None, int(values.sum()))
        if op not in ("min_cells", "max_cells"):
            raise KeyError(f"unknown aggregate {op!r}")
        nans = int(np.isnan(values).sum()) if values.dtype.kind == "f" else 0
        # only an all-NaN part has no extreme
        extreme = None if nans == cells else self.extreme.reduce(values, axis=None).item()
        return TileSynopsis(cells, 0, extreme, extreme, 0, nans)

    def __call__(
        self, array: np.ndarray, lo: Sequence[Sequence[int]], hi: Sequence[Sequence[int]],
        first_row: int = 0,
    ) -> tuple[TileSynopsis, ...]:
        """One tile's partials, one per part — the part bounded by
        ``lo[k]`` / ``hi[k]`` in the tile, whose rows ``array`` holds from
        ``first_row`` on — in order, each reduced as a view of the tile
        (no copy); a part that is all of ``array`` is reduced as the
        array itself."""
        self.peak = max(self.peak, array.nbytes)
        shape, partials = list(array.shape), []
        for low, high in zip(lo, hi):
            starts = [low[0] - first_row, *low[1:]]
            stops = [high[0] - first_row + 1, *[h + 1 for h in high[1:]]]
            whole = not any(starts) and stops == shape
            part = array if whole else array[tuple(map(slice, starts, stops))]
            partials.append(self.reduce(part))
        return tuple(partials)


def _decode(
    batch: Fetched,
    at: int,
    payload: bytes,
    dtype,
    rows: Optional[tuple[int, int]],
    reduce: Optional[_Reducer] = None,
    parts: Optional[TileParts] = None,
) -> None:
    """The CPU half of one miss: decompress and shape the tile's cells —
    only its leading-axis ``rows`` ``[start, stop)``, if given — then
    hand them over, or, given a reducer, reduce them to the tile's
    partials and drop them."""
    entry = batch.entries[at]
    started = time.perf_counter()
    shape = entry.domain.shape
    if rows is None or rows == [0, shape[0]]:
        raw = decompress(payload, entry.codec)
    else:
        step = dtype.itemsize * math.prod(shape[1:])
        raw = decompress(payload, entry.codec, rows[0] * step, rows[1] * step)
        shape = (rows[1] - rows[0], *shape[1:])
        batch.first_row[at] = rows[0]
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if reduce is None:
        batch.arrays[at] = array
    else:
        assert parts is not None
        batch.partials[at] = reduce(array, *parts.bounds(at), batch.first_row[at])
    batch.decoded[at] = True
    batch.decode_ms[at] = (time.perf_counter() - started) * 1000.0


# Blobs per verified read-ahead: enough to share one pool pass and one
# disk charge, few enough that decoding starts long before the I/O ends.
_READ_AHEAD_RUNS = 32


def _read_runs(
    database: "Database",
    batch: Fetched,
    misses: Sequence[int],
) -> Iterator[tuple[int, bytes]]:
    """Read the cache misses (positions in ``batch``) in order, filling
    their charge and pool columns: ``(position, payload)``.

    Per chunk of ``_READ_AHEAD_RUNS`` blobs: one pool peek; one
    ``store.get_run`` of the real blobs the pool lacks (all, without a
    pool) — one read per page run, one CRC pass, outside the pool and disk
    latches; then one :meth:`Database.read_blobs` — one pool pass, one
    disk charge — handed the verified payloads.  Safe because the
    caller's pinned view keeps blobs immutable.
    """
    pool, entries, records = database.pool, batch.entries, batch.records
    for start in range(0, len(misses), _READ_AHEAD_RUNS):
        chunk = misses[start : start + _READ_AHEAD_RUNS]
        ids = [entries[at].blob_id for at in chunk]
        cached = pool.cached(ids) if pool is not None else [False] * len(ids)
        absent = [i for i, at, hit in zip(ids, chunk, cached) if not (entries[at].virtual or hit)]
        ahead = dict(zip(absent, database.store.get_run(absent)))
        reads = database.read_blobs([records[at] for at in chunk], ahead)
        for at, (payload, read) in zip(chunk, reads):
            batch.cost[at], batch.regime[at], batch.pool_hit[at], batch.pool_evicted[at] = read
            batch.payload_bytes[at] = len(payload)
            yield at, payload


def _fetch(
    database: "Database",
    entries: Sequence["TileEntry"],
    dtype,
    parts: Optional[TileParts] = None,
    reduce: Optional[_Reducer] = None,
    records: Optional[Sequence["BlobRecord"]] = None,
    rows: Optional[np.ndarray] = None,
) -> Fetched:
    """Fetch a page-ordered batch of tiles: the one ``t_o`` loop.

    Returns the batch's :class:`Fetched` columns, in the given order.
    Decoded-cache lookups (one :meth:`DecodedTileCache.get_many` for the
    batch), then disk and pool interactions in entry order, each miss
    decoded as it arrives — then, with a reducer, reduced to the tile's
    ``parts``.  ``records`` is the batch's catalog snapshot (hit sizes);
    one :meth:`BlobStore.records` call takes it when the caller has none.

    With a reducer the decoded arrays are dropped, never admitted to the
    decoded cache: the reduce holds one tile at a time, the hits first,
    in place, before any miss is read.  Without one, the decoded misses
    are admitted in page order once the whole batch is read.  A miss no
    decoded cache keeps — every miss, with a reducer or without a cache
    — decodes only its ``rows`` (leading-axis ``[start, stop)`` per
    tile), when given; a cache admits whole tiles.
    """
    cache = database.decoded_cache
    if records is None:
        records = database.store.records([entry.blob_id for entry in entries])
    batch = Fetched(entries, records, cache is not None)
    misses: Sequence[int] = range(len(entries))
    if cache is not None:
        misses = missed = []
        found = iter(cache.get_many([entry.blob_id for entry in entries if not entry.virtual]))
        for at, entry in enumerate(entries):
            array = None if entry.virtual else next(found)
            if array is None:
                missed.append(at)
                continue
            batch.decoded_hit[at] = True
            batch.payload_bytes[at] = records[at].byte_size
            if reduce is None:
                batch.arrays[at] = array
            else:
                assert parts is not None
                batch.partials[at] = reduce(array, *parts.bounds(at))
    spans = None if rows is None or (cache is not None and reduce is None) else rows.tolist()
    for at, payload in _read_runs(database, batch, misses):
        if not entries[at].virtual:
            _decode(batch, at, payload, dtype, None if spans is None else spans[at], reduce, parts)

    # Admissions after the whole batch, in page order: a batch that fails
    # midway (a page CRC mismatch) leaves nothing in the decoded cache.
    if cache is not None and reduce is None:
        decoded = list(compress(range(len(entries)), batch.decoded))
        admitted = cache.put_many([(entries[at].blob_id, batch.arrays[at]) for at in decoded])
        for at, array in zip(decoded, admitted):
            batch.arrays[at] = array
    return batch


def fetch_tiles(
    database: "Database",
    entries: Sequence["TileEntry"],
    dtype,
    records: Optional[Sequence["BlobRecord"]] = None,
    rows: Optional[np.ndarray] = None,
) -> Fetched:
    """Fetch and decode a page-ordered batch of tiles (:func:`_fetch`);
    without a decoded cache, each miss decodes only its ``rows``."""
    return _fetch(database, entries, dtype, records=records, rows=rows)


def fetch_payloads(
    database: "Database",
    entries: Sequence["TileEntry"],
    records: Sequence["BlobRecord"],
) -> Fetched:
    """Stored payloads of a page-ordered batch (served tile frames):
    :func:`_fetch`'s :func:`_read_runs` walk, with no decode step and no
    decoded cache."""
    batch = Fetched(entries, records, False)
    for at, payload in _read_runs(database, batch, range(len(entries))):
        batch.payloads[at] = payload
    return batch


def fold_fetch(batch: Fetched) -> None:
    """Fold a batch fetched outside a query into the registry: its own
    record's fetch counts and decode times, in one call."""
    record = QueryTiming()
    decodes = batch.account(record)
    record.fold(FETCH_COUNTS, ((DECODE_MS, decodes),))


def fetch_tile(database: "Database", entry: "TileEntry", dtype) -> FetchedTile:
    """Single-tile fetch: a batch of one, folded (:func:`fold_fetch`).

    No caller in the package since ``update`` fetches in one batch; tests
    and the wall-clock benchmark's tracer still bind it.
    """
    batch = _fetch(database, [entry], dtype)
    fold_fetch(batch)
    return batch[0]


def fetch_tile_partials(
    database: "Database",
    items: "TileParts | Sequence[tuple[TileEntry, Sequence[MInterval]]]",
    dtype,
    predicate: Optional[CellPredicate] = None,
    default: object = 0,
    op: Optional[str] = None,
    records: Optional[Sequence["BlobRecord"]] = None,
) -> tuple[Fetched, int]:
    """Fetch tiles and reduce each to partial aggregates.

    The charging protocol is that of :func:`fetch_tiles`, but every
    decoded tile is clipped to each of its parts (``items``: columns, or
    ``(entry, parts)`` pairs), masked by ``predicate`` and reduced to one
    :class:`~repro.index.zonemap.TileSynopsis` per part instead of being
    returned — a tile is decoded once however many parts it has, a miss
    only in the rows its parts meet — so the query box is never
    materialized.  One tile's temporaries are alive at a time, a cached
    tile's or a decoded miss's.  With ``op`` a partial carries only the
    fields that op's combine reads (:class:`_Reducer`); without, the full
    :func:`~repro.index.zonemap.partial_synopsis`.

    Returns the tiles in ``items`` order plus the peak of decoded bytes
    alive at once: the largest tile (or run of rows) reduced.
    """
    parts = items if isinstance(items, TileParts) else TileParts.of(items)
    reducer = _Reducer(predicate, np.asarray(default, dtype=dtype), op)
    fetched = _fetch(database, parts.entries, dtype, parts, reducer, records, parts.rows)
    return fetched, reducer.peak
