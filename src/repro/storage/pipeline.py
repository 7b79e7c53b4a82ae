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
  ``decompress`` + ``frombuffer``, then on the pushdown the per-tile
  kernel; the batch's decoded misses are then admitted to the decoded
  cache in page order, under one latch hold.

The stored codecs decode in a few numpy passes (``planes``) or one C
call (``zlib``), so there is no decode worker pool: the
:class:`~repro.storage.tilestore.Database`'s ``io_workers`` pool encodes
only (:mod:`repro.storage.ingest`).  All of it is one function,
:func:`_fetch`; the public ``fetch_tiles`` / ``fetch_tile`` /
``fetch_tile_partials`` are its entry points; ``fetch_payloads`` (served
tile frames) is its read walk alone.  Each tile carries its own cache
outcomes and decode wall, counted once per batch (:func:`_count`): the
registry takes one update per instrument per fetch batch, never one
per tile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro import obs
from repro.index.zonemap import CellPredicate, TileSynopsis, partial_synopsis
from repro.storage.compression import decompress

if TYPE_CHECKING:  # pragma: no cover - annotations only (avoids a cycle)
    from repro.core.geometry import MInterval
    from repro.storage.blob import BlobRecord
    from repro.storage.tilestore import Database, TileEntry

_TILES_DECODED = obs.counter("pipeline.tiles_decoded", "Tiles decompressed + reshaped")
_DECODES = obs.counter("codec.decodes", "Payloads decoded by reads (all codecs)")
_DECODE_MS = obs.histogram(
    "codec.decode_ms", "Wall milliseconds per tile decode (then reduce, on the pushdown)"
)
_POOL_HITS = obs.counter("pool.hits", "Buffer-pool hits (no disk charge)")
_POOL_MISSES = obs.counter("pool.misses", "Buffer-pool misses (read through disk)")
_POOL_EVICTIONS = obs.counter("pool.evictions", "LRU evictions from the pool")
_DECODED_HITS = obs.counter("cache.decoded.hits", "Decoded-tile cache hits")
_DECODED_MISSES = obs.counter("cache.decoded.misses", "Decoded-tile cache misses")
_PARTIAL_AGGS = obs.counter(
    "pipeline.partial_aggregates",
    "Partial aggregates (one per tile part) computed on the pushdown path",
)


@dataclass(slots=True)
class FetchedTile:
    """One tile's outcome: charged cost, accounting sizes, decoded cells.

    ``array`` is the decoded, read-only-when-cached tile array; ``None``
    for virtual tiles (their cells are synthesised defaults).  ``cost`` is
    the modelled disk milliseconds charged for this tile (0.0 on a buffer
    pool or decoded-cache hit).  ``payload_bytes`` is the stored payload
    size, counted whether or not the payload was actually materialised.

    On the pushdown path (:func:`fetch_tile_partials`) ``array`` stays
    ``None`` and ``partials`` summarises the predicate-masked cells of
    each of the tile's parts, in order (:class:`_Reducer`).  A virtual
    tile has neither: its clipped cells are all defaults, and the caller
    accounts them as default fill.  From :func:`fetch_payloads` only ``payload``
    is set: the stored bytes, undecoded.  The ``decoded_*`` / ``pool_*``
    outcomes are this fetch's own lookups' (none made: both ``False`` /
    ``pool_hit`` ``None``).
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
        self, array: np.ndarray, entry: "TileEntry", parts: Sequence["MInterval"]
    ) -> tuple[TileSynopsis, ...]:
        """One tile's partials, one per part, in order, each reduced as a
        view of the tile (no copy)."""
        self.peak = max(self.peak, array.nbytes)
        if len(parts) == 1 and parts[0] == entry.domain:
            return (self.reduce(array),)
        origin = entry.domain.lowest
        return tuple(self.reduce(array[part.to_slices(origin)]) for part in parts)


def _decode(
    tile: FetchedTile,
    payload: bytes,
    dtype,
    parts: Sequence["MInterval"],
    reduce: Optional[_Reducer],
) -> None:
    """The CPU half of one miss: decompress and shape the tile's cells,
    then hand them over — or, given a reducer, reduce them to
    ``tile.partials`` and drop them."""
    entry = tile.entry
    started = time.perf_counter()
    raw = decompress(payload, entry.codec)
    array = np.frombuffer(raw, dtype=dtype).reshape(entry.domain.shape)
    if reduce is None:
        tile.array = array
    else:
        tile.partials = reduce(array, entry, parts)
    tile.decode_ms = (time.perf_counter() - started) * 1000.0


# Blobs per verified read-ahead: enough to share one pool pass and one
# disk charge, few enough that decoding starts long before the I/O ends.
_READ_AHEAD_RUNS = 32


def _read_runs(
    database: "Database", items: Sequence[tuple[int, "TileEntry"]], records: Sequence["BlobRecord"]
) -> Iterator[tuple[int, FetchedTile, bytes]]:
    """Read the cache misses in order: ``(position, tile, payload)``, the
    tile carrying the blob's charge and pool outcome (``records`` by
    position: the batch's catalog snapshot).

    Per chunk of ``_READ_AHEAD_RUNS`` blobs: one pool peek; one
    ``store.get_run`` of the real blobs the pool lacks (all, without a
    pool) — one read per page run, one CRC pass, outside the pool and disk
    latches; then one :meth:`Database.read_blobs` — one pool pass, one
    disk charge — handed the verified payloads.  Safe because the
    caller's pinned view keeps blobs immutable.
    """
    pool = database.pool
    for start in range(0, len(items), _READ_AHEAD_RUNS):
        chunk = items[start : start + _READ_AHEAD_RUNS]
        ids = [entry.blob_id for _, entry in chunk]
        cached = pool.cached(ids) if pool is not None else [False] * len(ids)
        absent = [i for i, (_, e), hit in zip(ids, chunk, cached) if not (e.virtual or hit)]
        ahead = dict(zip(absent, database.store.get_run(absent)))
        reads = database.read_blobs([records[position] for position, _ in chunk], ahead)
        for (position, entry), (payload, read) in zip(chunk, reads):
            tile = FetchedTile(
                entry, read.cost, len(payload), pool_hit=read.hit, pool_evicted=read.evicted
            )
            yield position, tile, payload


def _count(fetched: Sequence[FetchedTile]) -> None:
    """One registry update per outcome: what the records sum, per batch."""
    _POOL_HITS.inc(sum(tile.pool_hit is True for tile in fetched))
    _POOL_MISSES.inc(sum(tile.pool_hit is False for tile in fetched))
    _POOL_EVICTIONS.inc(sum(tile.pool_evicted for tile in fetched))
    _DECODED_HITS.inc(sum(tile.decoded_hit for tile in fetched))
    _DECODED_MISSES.inc(sum(tile.decoded_miss for tile in fetched))
    decodes = [tile.decode_ms for tile in fetched if tile.decode_ms > 0.0]
    _TILES_DECODED.inc(len(decodes))
    _DECODES.inc(len(decodes))
    _DECODE_MS.observe_many(decodes)


def _fetch(
    database: "Database",
    entries: Sequence["TileEntry"],
    dtype,
    parts: Sequence[Sequence["MInterval"]] = (),
    reduce: Optional[_Reducer] = None,
    records: Optional[Sequence["BlobRecord"]] = None,
) -> list[FetchedTile]:
    """Fetch a page-ordered batch of tiles: the one ``t_o`` loop.

    Returns one :class:`FetchedTile` per entry, in the given order.
    Decoded-cache lookups (one :meth:`DecodedTileCache.get_many` for the
    batch), then disk and pool interactions in entry order, each miss
    decoded as it arrives — then ``reduce(array, entry, parts[i])`` with
    a reducer.  ``records`` is the batch's catalog snapshot (hit sizes);
    one :meth:`BlobStore.records` call takes it when the caller has none.

    With a reducer the decoded arrays are dropped, never admitted to the
    decoded cache: the reduce holds one tile at a time, the hits first,
    in place, before any miss is read.  Without one, the decoded misses
    are admitted in page order once the whole batch is read.
    """
    cache = database.decoded_cache
    if records is None:
        records = database.store.records([entry.blob_id for entry in entries])
    fetched: list[FetchedTile] = [None] * len(entries)  # type: ignore
    misses: list[tuple[int, "TileEntry"]] = []

    cached = iter(
        cache.get_many([entry.blob_id for entry in entries if not entry.virtual])
        if cache is not None
        else ()
    )
    for position, entry in enumerate(entries):
        array = None if cache is None or entry.virtual else next(cached)
        if array is None:
            misses.append((position, entry))
            continue
        tile = fetched[position] = FetchedTile(
            entry, 0.0, records[position].byte_size, decoded_hit=True
        )
        if reduce is None:
            tile.array = array
        else:
            tile.partials = reduce(array, entry, parts[position])

    for position, tile, payload in _read_runs(database, misses, records):
        fetched[position] = tile
        if tile.entry.virtual:
            continue
        tile.decoded_miss = cache is not None
        _decode(tile, payload, dtype, () if reduce is None else parts[position], reduce)

    # Admissions after the whole batch, in page order: a batch that fails
    # midway (a page CRC mismatch) leaves nothing in the decoded cache.
    if cache is not None and reduce is None:
        decoded = [tile for tile in fetched if tile.array is not None and not tile.decoded_hit]
        admitted = cache.put_many([(tile.entry.blob_id, tile.array) for tile in decoded])
        for tile, array in zip(decoded, admitted):
            tile.array = array
    _count(fetched)
    return fetched


def fetch_tiles(
    database: "Database",
    entries: Sequence["TileEntry"],
    dtype,
    records: Optional[Sequence["BlobRecord"]] = None,
) -> list[FetchedTile]:
    """Fetch and decode a page-ordered batch of tiles (:func:`_fetch`)."""
    return _fetch(database, entries, dtype, records=records)


def fetch_payloads(
    database: "Database", entries: Sequence["TileEntry"], records: Sequence["BlobRecord"]
) -> list[FetchedTile]:
    """Stored payloads of a page-ordered batch (served tile frames):
    :func:`_fetch`'s :func:`_read_runs` walk, with no decode step and no
    decoded cache."""
    fetched = []
    for _, tile, payload in _read_runs(database, list(enumerate(entries)), records):
        tile.payload = payload
        fetched.append(tile)
    _count(fetched)
    return fetched


def fetch_tile(database: "Database", entry: "TileEntry", dtype) -> FetchedTile:
    """Single-tile fetch: a batch of one.

    No caller in the package since ``update`` fetches in one batch; tests
    and the wall-clock benchmark's tracer still bind it.
    """
    return _fetch(database, [entry], dtype)[0]


def fetch_tile_partials(
    database: "Database",
    items: Sequence[tuple["TileEntry", Sequence["MInterval"]]],
    dtype,
    predicate: Optional[CellPredicate] = None,
    default: object = 0,
    op: Optional[str] = None,
    records: Optional[Sequence["BlobRecord"]] = None,
) -> tuple[list[FetchedTile], int]:
    """Fetch tiles and reduce each to partial aggregates.

    The charging protocol is that of :func:`fetch_tiles`, but every
    decoded tile is clipped to each of its item's parts, masked by
    ``predicate`` and reduced to one
    :class:`~repro.index.zonemap.TileSynopsis` per part instead of being
    returned — a tile is decoded once however many parts it has — so
    the query box is never materialized.  One tile's temporaries are
    alive at a time, a cached tile's or a decoded miss's.  With ``op`` a
    partial carries only the fields that op's combine reads
    (:class:`_Reducer`); without, the full
    :func:`~repro.index.zonemap.partial_synopsis`.

    Returns the tiles in ``items`` order plus the peak of decoded bytes
    alive at once: the largest tile reduced.
    """
    reducer = _Reducer(predicate, np.asarray(default, dtype=dtype), op)
    fetched = _fetch(
        database,
        [entry for entry, _ in items],
        dtype,
        [parts for _, parts in items],
        reducer,
        records,
    )
    _PARTIAL_AGGS.inc(sum(len(tile.partials) for tile in fetched))
    return fetched, reducer.peak
