"""Parallel read pipeline: overlap fetch and decode across a query's tiles.

The hot path of a range read is, per intersected tile: BLOB retrieval
(buffer pool, then simulated disk), ``decompress``, ``np.frombuffer``.
This module turns that per-tile chain into a small pipeline:

* the **coordinator** (calling thread) walks the tiles in page order and
  does everything whose *order matters* — decoded-cache lookups, buffer
  pool lookups/admissions, and the simulated disk charges, whose
  seek/settle/sequential regimes depend on head position.  Costs are
  therefore charged page-ordered and are bit-identical whether the
  pipeline runs serial or parallel;
* **workers** (an optional :class:`~concurrent.futures.ThreadPoolExecutor`
  owned by the :class:`~repro.storage.tilestore.Database`) run the
  order-free CPU work — ``decompress`` + ``frombuffer``, then on the
  aggregation pushdown clip → mask → reduce — concurrently.  ``zlib``
  releases the GIL, so compressed tiles genuinely overlap;
* **decoded-cache admissions** happen after the whole batch, in page
  order, in *both* modes, so the LRU evolves identically and a tiny cache
  cannot make serial and parallel disagree on later hits.

With ``io_workers=1`` (the default) no executor exists and the pipeline
degrades to the straight-line serial loop, keeping historical timings
reproducible.  All of it is one function, :func:`_fetch`; the public
``fetch_tiles`` / ``fetch_tile`` / ``fetch_tile_partials`` are its entry
points; ``fetch_payloads`` (served tile frames) is its read walk alone.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from repro import obs
from repro.index.zonemap import CellPredicate, TileSynopsis, partial_synopsis
from repro.storage.compression import decompress

if TYPE_CHECKING:  # pragma: no cover - annotations only (avoids a cycle)
    from repro.core.geometry import MInterval
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
_READ_RUNS = obs.counter(
    "io.coalesced.read_runs", "Fetches that merged adjacent blobs into one read"
)
_READ_BLOBS = obs.counter(
    "io.coalesced.read_blobs", "Blobs fetched as part of a coalesced run"
)
_READ_RUN_LEN = obs.histogram(
    "io.coalesced.read_run_length",
    "Blobs per backend read issued by the fetch path (1 = not coalesced)",
    buckets=obs.COUNT_BUCKETS,
)
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
    each of the tile's parts, in order
    (:func:`~repro.index.zonemap.partial_synopsis`).  A virtual tile has
    neither: its clipped cells are all defaults, and the caller accounts
    them as default fill.  From :func:`fetch_payloads` only ``payload``
    is set: the stored bytes, undecoded.
    """

    entry: "TileEntry"
    cost: float
    payload_bytes: int
    array: Optional[np.ndarray] = None
    decoded_hit: bool = False
    partials: tuple[TileSynopsis, ...] = ()
    payload: bytes = b""


class _Reducer:
    """The pushdown's per-tile step: clip → mask → summarise, once per
    part (a tile straddling GROUP BY cells has one part per cell it
    meets) from one decoded array.

    Also tracks the decoded bytes concurrently alive inside it and their
    high-water mark (``peak``), under its own lock: workers reduce in
    parallel.
    """

    def __init__(
        self, predicate: Optional[CellPredicate], default_cell: np.ndarray
    ) -> None:
        self.predicate = predicate
        self.default_cell = default_cell
        self._latch = threading.Lock()
        self._live = 0
        self.peak = 0

    def __call__(
        self, array: np.ndarray, entry: "TileEntry", parts: Sequence["MInterval"]
    ) -> tuple[TileSynopsis, ...]:
        nbytes = array.nbytes
        with self._latch:
            self._live += nbytes
            if self._live > self.peak:
                self.peak = self._live
        _PARTIAL_LIVE_BYTES.inc(nbytes)
        try:
            summaries = []
            for part in parts:
                vals = array[part.to_slices(entry.domain.lowest)]
                if self.predicate is not None:
                    vals = np.where(
                        self.predicate.mask(vals), vals, self.default_cell
                    )
                summaries.append(partial_synopsis(vals))
            _PARTIAL_AGGS.inc(len(summaries))
            return tuple(summaries)
        finally:
            with self._latch:
                self._live -= nbytes
            _PARTIAL_LIVE_BYTES.dec(nbytes)


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
    _DECODE_MS.observe((time.perf_counter() - started) * 1000.0)
    _TILES_DECODED.inc()
    if reduce is None:
        tile.array = array
    else:
        tile.partials = reduce(array, entry, parts)


def _decode_task(
    tile: FetchedTile,
    payload: bytes,
    dtype,
    shape,
    parts: Sequence["MInterval"],
    reduce: Optional[_Reducer],
    parent: Optional[obs.SpanContext],
) -> None:
    """Worker wrapper around :func:`_decode` tracking pool occupancy.

    ``parent`` is the coordinator's span context, captured before the
    submit; adopting it keeps the worker's span inside the query's tree
    instead of starting an orphan root on the pool thread.
    """
    _WORKERS_BUSY.inc()
    try:
        with obs.span(
            "pipeline.decode" if reduce is None else "pipeline.partial_agg",
            parent=parent,
            bytes=len(payload),
        ):
            _decode(tile, payload, dtype, shape, parts, reduce)
    finally:
        _WORKERS_BUSY.dec()


def _coalesce_runs(
    database: "Database",
    items: Sequence[tuple[int, "TileEntry"]],
) -> list[list[tuple[int, "TileEntry"]]]:
    """Group page-adjacent cache misses into contiguous read runs.

    Coalescing applies only without a buffer pool (pool lookups and
    admissions are inherently per-blob) and never spans virtual or
    still-pending blobs.  Order is preserved, so the per-blob disk
    charges are issued in exactly the per-item sequence.
    """
    store = database.store
    if database.pool is not None:
        return [[item] for item in items]
    runs: list[list[tuple[int, "TileEntry"]]] = []
    prev_end: Optional[int] = None
    for item in items:
        entry = item[1]
        if entry.virtual or store.is_pending(entry.blob_id):
            runs.append([item])
            prev_end = None
            continue
        pages = store.record(entry.blob_id).pages
        if prev_end is not None and pages.start == prev_end:
            runs[-1].append(item)
        else:
            runs.append([item])
        prev_end = pages.end
    return runs


# Runs per verified read-ahead: enough pages to fill a CRC kernel pass,
# few enough that the decode workers start long before the I/O ends.
_READ_AHEAD_RUNS = 32


def _read_runs(
    database: "Database",
    items: Sequence[tuple[int, "TileEntry"]],
) -> Iterator[tuple[int, "TileEntry", bytes, float]]:
    """Read the cache misses in order: ``(position, entry, payload, cost)``.

    Charges, pool lookups and admissions happen blob by blob, in item
    order.  With a pool, each chunk of runs first has the store fetch
    the blobs the pool lacks — one read per page run, one CRC pass per
    chunk, outside the pool and disk latches (``FileBlobStore.get_run``)
    — and hands every verified payload to its ``read_blob``; a blob
    cached at the peek but evicted before its turn takes the per-blob
    read.  Safe because the caller's pinned view keeps blobs immutable.
    """
    pool = database.pool
    runs = _coalesce_runs(database, items)
    for start in range(0, len(runs), _READ_AHEAD_RUNS):
        chunk = runs[start : start + _READ_AHEAD_RUNS]
        ahead: dict[int, bytes] = {}
        if pool is not None:
            absent = [
                entry.blob_id
                for run in chunk
                for _, entry in run
                if entry.blob_id not in pool
            ]
            ahead = dict(zip(absent, database.store.get_run(absent)))
        for run in chunk:
            _READ_RUN_LEN.observe(len(run))
            if len(run) == 1:
                position, entry = run[0]
                yield (
                    position,
                    entry,
                    *database.read_blob(entry.blob_id, ahead.get(entry.blob_id)),
                )
            else:
                _READ_RUNS.inc()
                _READ_BLOBS.inc(len(run))
                results = database.disk.read_blob_run(
                    [entry.blob_id for _, entry in run]
                )
                for (position, entry), result in zip(run, results):
                    yield (position, entry, *result)


def _fetch(
    database: "Database",
    entries: Sequence["TileEntry"],
    dtype,
    parts: Sequence[Sequence["MInterval"]] = (),
    reduce: Optional[_Reducer] = None,
) -> list[FetchedTile]:
    """Fetch a page-ordered batch of tiles: the one ``t_o`` loop.

    Returns one :class:`FetchedTile` per entry, in the given order.
    Decoded-cache lookups, then disk and pool interactions, happen on
    the calling thread in entry order; only the order-free step of each
    miss — decode, then ``reduce(array, entry, parts[i])`` when a
    reducer is given — is (optionally) offloaded.  Page-adjacent misses
    merge into one backend read (:meth:`SimulatedDisk.read_blob_run`)
    whose per-blob charges equal the serial ones — adjacent follow-on
    reads are in the sequential regime either way — so the result
    (arrays or partials, costs, cache counters) is identical for any
    ``io_workers`` setting and with coalescing on or off.

    With a reducer the decoded arrays are dropped, never admitted to
    the decoded cache: a retain-all admission pass would defeat the
    one-tile-per-worker memory bound.  Cache hits are still consulted,
    and reduced on the spot.
    """
    cache = database.decoded_cache
    executor = database.pipeline_executor() if len(entries) > 1 else None
    trace_ctx = obs.tracer.current_context() if executor is not None else None
    fetched: list[FetchedTile] = [None] * len(entries)  # type: ignore
    misses: list[tuple[int, "TileEntry"]] = []
    futures = []

    for position, entry in enumerate(entries):
        if cache is not None and not entry.virtual:
            array = cache.get(entry.blob_id)
            if array is not None:
                size = database.store.record(entry.blob_id).byte_size
                tile = fetched[position] = FetchedTile(
                    entry, 0.0, size, decoded_hit=True
                )
                if reduce is None:
                    tile.array = array
                else:
                    tile.partials = reduce(array, entry, parts[position])
                continue
        misses.append((position, entry))

    for position, entry, payload, cost in _read_runs(database, misses):
        tile = fetched[position] = FetchedTile(entry, cost, len(payload))
        if entry.virtual:
            continue
        tile_parts = () if reduce is None else parts[position]
        shape = entry.domain.shape  # here, not on the workers: they are the wall
        if executor is None:
            _decode(tile, payload, dtype, shape, tile_parts, reduce)
        else:
            futures.append(
                executor.submit(
                    _decode_task, tile, payload, dtype, shape, tile_parts, reduce, trace_ctx
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
    return fetched


def fetch_tiles(
    database: "Database",
    entries: Sequence["TileEntry"],
    dtype,
) -> list[FetchedTile]:
    """Fetch and decode a page-ordered batch of tiles (:func:`_fetch`)."""
    return _fetch(database, entries, dtype)


def fetch_payloads(
    database: "Database", entries: Sequence["TileEntry"]
) -> list[FetchedTile]:
    """Stored payloads of a page-ordered batch (served tile frames):
    :func:`_fetch`'s :func:`_read_runs` walk, with no decode step and no
    decoded cache."""
    return [
        FetchedTile(entry, cost, len(payload), payload=payload)
        for _, entry, payload, cost in _read_runs(database, list(enumerate(entries)))
    ]


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
) -> tuple[list[FetchedTile], int]:
    """Fetch tiles and reduce each to partial aggregates on the workers.

    The charging protocol is that of :func:`fetch_tiles`, but every
    decoded tile is clipped to each of its item's parts, masked by
    ``predicate`` and reduced to one
    :class:`~repro.index.zonemap.TileSynopsis` per part instead of being
    returned — a tile is decoded once however many parts it has — so
    the query box is never materialized and peak memory stays at one
    decoded tile per worker plus the partials table.

    Returns the tiles in ``items`` order plus the observed peak of
    concurrently-live decoded bytes.
    """
    reducer = _Reducer(predicate, np.asarray(default, dtype=dtype))
    fetched = _fetch(
        database,
        [entry for entry, _ in items],
        dtype,
        [parts for _, parts in items],
        reducer,
    )
    return fetched, reducer.peak
