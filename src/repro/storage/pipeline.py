"""Parallel read pipeline: overlap fetch and decode across a query's tiles.

The hot path of a range read is, per intersected tile: BLOB retrieval
(buffer pool, then simulated disk), ``decompress``, ``np.frombuffer``.
This module turns that per-tile chain into a small pipeline:

* the **coordinator** (calling thread) walks the tiles in page order and
  does everything whose *order matters* — decoded-cache lookups, buffer
  pool lookups/admissions, and the simulated disk charges, whose
  seek/settle/sequential regimes depend on head position.  Costs are
  therefore charged page-ordered and are bit-identical whether the
  pipeline runs serial or parallel (the bytes are read ahead per chunk
  of misses, :func:`_read_runs`);
* **workers** (an optional :class:`~concurrent.futures.ThreadPoolExecutor`
  owned by the :class:`~repro.storage.tilestore.Database`) run the
  order-free CPU work — ``decompress`` + ``frombuffer``, then on the
  aggregation pushdown the per-tile kernel (:class:`_Reducer`) —
  concurrently; decoded-cache hits run the same kernel in place on the
  calling thread.  ``zlib`` releases the GIL, so compressed tiles
  genuinely overlap;
* **decoded-cache admissions** happen after the whole batch, in page
  order, in *both* modes, so the LRU evolves identically and a tiny cache
  cannot make serial and parallel disagree on later hits.

With ``io_workers=1`` (the default) no executor exists and the pipeline
degrades to the straight-line serial loop, keeping historical timings
reproducible.  All of it is one function, :func:`_fetch`; the public
``fetch_tiles`` / ``fetch_tile`` / ``fetch_tile_partials`` are its entry
points; ``fetch_payloads`` (served tile frames) is its read walk alone.
Each tile carries its own cache outcomes, counted once per batch
(:func:`_count`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
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

_WORKERS_BUSY = obs.gauge(
    "pipeline.workers_busy", "Decode tasks currently running on workers"
)
_PARALLEL_BATCHES = obs.counter(
    "pipeline.parallel_batches", "Tile batches fetched through the worker pool"
)
_TILES_DECODED = obs.counter(
    "pipeline.tiles_decoded", "Tiles decompressed + reshaped (any mode)"
)
_DECODE_MS = obs.histogram(
    "pipeline.decode_ms", "Wall milliseconds per tile decode task"
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
_PARTIAL_LIVE_BYTES = obs.gauge(
    "pipeline.partial_live_bytes",
    "Decoded tile bytes currently alive in the partial-aggregate phase",
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

    Also tracks the decoded bytes concurrently alive inside it and their
    high-water mark (``peak``), under its own lock: each reducing thread
    holds one tile's temporaries at a time.
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
        self._latch = threading.Lock()
        self._live = 0
        self.peak = 0

    @contextmanager
    def _holding(self, nbytes: int) -> Iterator[None]:
        with self._latch:
            self._live += nbytes
            if self._live > self.peak:
                self.peak = self._live
        _PARTIAL_LIVE_BYTES.inc(nbytes)
        try:
            yield
        finally:
            with self._latch:
                self._live -= nbytes
            _PARTIAL_LIVE_BYTES.dec(nbytes)

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

    def parts(
        self, array: np.ndarray, entry: "TileEntry", parts: Sequence["MInterval"]
    ) -> tuple[TileSynopsis, ...]:
        """One tile's partials, one per part, in order."""
        if len(parts) == 1 and parts[0] == entry.domain:
            return (self.reduce(array),)
        origin = entry.domain.lowest
        return tuple(self.reduce(array[part.to_slices(origin)]) for part in parts)

    def __call__(
        self, array: np.ndarray, entry: "TileEntry", parts: Sequence["MInterval"]
    ) -> tuple[TileSynopsis, ...]:
        """A worker's reduce of one decoded miss."""
        with self._holding(array.nbytes):
            return self.parts(array, entry, parts)

    def hits(self, tiles: Sequence[tuple[FetchedTile, np.ndarray, Sequence["MInterval"]]]) -> None:
        """Reduce decoded-cache hits on the calling thread, one tile at a
        time, each in place (no copy): the largest is all it holds."""
        if not tiles:
            return
        with self._holding(max(array.nbytes for _, array, _ in tiles)):
            for tile, array, parts in tiles:
                tile.partials = self.parts(array, tile.entry, parts)


def _decode(
    tile: FetchedTile,
    payload: bytes,
    dtype,
    shape,
    parts: Sequence["MInterval"],
    reduce: Optional[_Reducer],
) -> None:
    """The order-free CPU half of one miss: decompress and shape the
    tile's cells, then hand them over — or, given a reducer, reduce them
    to ``tile.partials`` and drop them."""
    entry = tile.entry
    started = time.perf_counter()
    raw = decompress(payload, entry.codec)
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if reduce is None:
        tile.array = array
    else:
        tile.partials = reduce(array, entry, parts)
    tile.decode_ms = (time.perf_counter() - started) * 1000.0
    _DECODE_MS.observe(tile.decode_ms)


def _decode_task(
    tile: FetchedTile,
    payload: bytes,
    dtype,
    shape,
    parts: Sequence["MInterval"],
    reduce: Optional[_Reducer],
) -> None:
    """Worker wrapper around :func:`_decode` tracking pool occupancy."""
    _WORKERS_BUSY.inc()
    try:
        _decode(tile, payload, dtype, shape, parts, reduce)
    finally:
        _WORKERS_BUSY.dec()


# Blobs per verified read-ahead: enough pages to fill a CRC kernel pass,
# few enough that the decode workers start long before the I/O ends.
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
    """One registry increment per outcome: what the records sum, per batch."""
    _POOL_HITS.inc(sum(tile.pool_hit is True for tile in fetched))
    _POOL_MISSES.inc(sum(tile.pool_hit is False for tile in fetched))
    _POOL_EVICTIONS.inc(sum(tile.pool_evicted for tile in fetched))
    _DECODED_HITS.inc(sum(tile.decoded_hit for tile in fetched))
    _DECODED_MISSES.inc(sum(tile.decoded_miss for tile in fetched))
    _TILES_DECODED.inc(sum(tile.decode_ms > 0.0 for tile in fetched))


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
    batch), then disk and pool interactions, happen on the calling thread
    in entry order; only the order-free step of each miss — decode, then
    ``reduce(array, entry, parts[i])`` when a reducer is given — is
    (optionally) offloaded, so the result (arrays or partials, costs,
    cache outcomes) is identical for any ``io_workers`` setting.
    ``records`` is the batch's catalog snapshot (hit sizes); one
    :meth:`BlobStore.records` call takes it when the caller has none.

    With a reducer the decoded arrays are dropped, never admitted to
    the decoded cache: a retain-all admission pass would defeat the
    one-tile-per-thread memory bound.  Cache hits are still consulted,
    and reduced in place on the calling thread, one tile at a time,
    before any miss is read (:meth:`_Reducer.hits`); each worker then
    holds one decoded miss at a time, so at most ``io_workers`` tiles
    are alive at once, and one when every tile is a hit.
    """
    cache = database.decoded_cache
    if records is None:
        records = database.store.records([entry.blob_id for entry in entries])
    executor = database.pipeline_executor() if len(entries) > 1 else None
    fetched: list[FetchedTile] = [None] * len(entries)  # type: ignore
    misses: list[tuple[int, "TileEntry"]] = []
    hits: list = []
    futures = []

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
            hits.append((tile, array, parts[position]))
    if reduce is not None:
        reduce.hits(hits)

    for position, tile, payload in _read_runs(database, misses, records):
        fetched[position] = tile
        if tile.entry.virtual:
            continue
        tile.decoded_miss = cache is not None
        tile_parts = () if reduce is None else parts[position]
        shape = tile.entry.domain.shape  # here, not on the workers: they are the wall
        if executor is None:
            _decode(tile, payload, dtype, shape, tile_parts, reduce)
        else:
            futures.append(
                executor.submit(
                    _decode_task, tile, payload, dtype, shape, tile_parts, reduce
                )
            )

    if futures:
        _PARALLEL_BATCHES.inc()
        for future in futures:
            future.result()  # the worker filled its tile; re-raise failures

    # Deferred admissions, page-ordered in every mode: admitting only after
    # the batch's lookups keeps the LRU trajectory independent of worker
    # completion order (and of the serial/parallel choice).
    if cache is not None and reduce is None:
        for tile in fetched:
            if tile.array is not None and not tile.decoded_hit:
                tile.array = cache.put(tile.entry.blob_id, tile.array)
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

    One tile has nothing to overlap, so the worker pool is never used
    and the decoded cache is fed at once.  No caller in the package since
    ``update`` fetches in one batch; tests and the wall-clock benchmark's
    tracer still bind it.
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
    """Fetch tiles and reduce each to partial aggregates on the workers.

    The charging protocol is that of :func:`fetch_tiles`, but every
    decoded tile is clipped to each of its item's parts, masked by
    ``predicate`` and reduced to one
    :class:`~repro.index.zonemap.TileSynopsis` per part instead of being
    returned — a tile is decoded once however many parts it has — so
    the query box is never materialized.  Each reducing thread holds
    one tile's temporaries: the calling thread one cached tile, the
    workers at most ``io_workers`` decoded misses.  With ``op`` a
    partial carries only the fields that op's combine reads
    (:class:`_Reducer`); without, the full
    :func:`~repro.index.zonemap.partial_synopsis`.

    Returns the tiles in ``items`` order plus the observed peak of
    concurrently-live decoded bytes.
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
