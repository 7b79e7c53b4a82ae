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
  order-free CPU work — ``decompress`` + ``frombuffer`` — concurrently.
  ``zlib`` releases the GIL, so compressed tiles genuinely overlap;
* **decoded-cache admissions** happen after the whole batch, in page
  order, in *both* modes, so the LRU evolves identically and a tiny cache
  cannot make serial and parallel disagree on later hits.

With ``io_workers=1`` (the default) no executor exists and the pipeline
degrades to the straight-line serial loop, keeping historical timings
reproducible.
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
    "Per-tile partial aggregates computed on the pushdown path",
)
_PARTIAL_LIVE_BYTES = obs.gauge(
    "pipeline.partial_live_bytes",
    "Decoded tile bytes currently alive in the partial-aggregate phase",
)


@dataclass
class FetchedTile:
    """One tile's outcome: charged cost, accounting sizes, decoded cells.

    ``array`` is the decoded, read-only-when-cached tile array; ``None``
    for virtual tiles (their cells are synthesised defaults).  ``cost`` is
    the modelled disk milliseconds charged for this tile (0.0 on a buffer
    pool or decoded-cache hit).  ``payload_bytes`` is the stored payload
    size, counted whether or not the payload was actually materialised.
    """

    entry: "TileEntry"
    cost: float
    payload_bytes: int
    array: Optional[np.ndarray]
    decoded_hit: bool


def _decode(payload: bytes, codec: str, dtype, shape) -> np.ndarray:
    """The order-free CPU half: decompress and shape one tile's cells."""
    started = time.perf_counter()
    raw = decompress(payload, codec)
    array = np.frombuffer(raw, dtype=dtype).reshape(shape)
    _DECODE_MS.observe((time.perf_counter() - started) * 1000.0)
    _TILES_DECODED.inc()
    return array


def _decode_task(
    payload: bytes,
    codec: str,
    dtype,
    shape,
    parent: Optional[obs.SpanContext] = None,
) -> np.ndarray:
    """Worker wrapper around :func:`_decode` tracking pool occupancy.

    ``parent`` is the coordinator's span context, captured before the
    submit; adopting it keeps the worker's span inside the query's tree
    instead of starting an orphan root on the pool thread.
    """
    _WORKERS_BUSY.inc()
    try:
        with obs.span("pipeline.decode", parent=parent, bytes=len(payload)):
            return _decode(payload, codec, dtype, shape)
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


def fetch_tiles(
    database: "Database",
    entries: Sequence["TileEntry"],
    dtype,
) -> list[FetchedTile]:
    """Fetch and decode a page-ordered batch of tiles.

    Returns one :class:`FetchedTile` per entry, in the given order.  Disk
    and pool interactions happen on the calling thread in entry order;
    only decoding is (optionally) offloaded.  Page-adjacent misses merge
    into one backend read (:meth:`SimulatedDisk.read_blob_run`) whose
    per-blob charges equal the serial ones — adjacent follow-on reads
    are in the sequential regime either way — so the result (arrays,
    costs, cache counters) is identical for any ``io_workers`` setting
    and with coalescing on or off.
    """
    cache = database.decoded_cache
    executor = database.pipeline_executor() if len(entries) > 1 else None
    trace_ctx = obs.tracer.current_context() if executor is not None else None
    fetched: list[Optional[FetchedTile]] = [None] * len(entries)
    pending: list[tuple[int, float, int]] = []  # (index, cost, payload_bytes)
    futures = []
    to_fetch: list[tuple[int, "TileEntry"]] = []

    for position, entry in enumerate(entries):
        if cache is not None and not entry.virtual:
            array = cache.get(entry.blob_id)
            if array is not None:
                fetched[position] = FetchedTile(
                    entry,
                    cost=0.0,
                    payload_bytes=database.store.record(entry.blob_id).byte_size,
                    array=array,
                    decoded_hit=True,
                )
                continue
        to_fetch.append((position, entry))

    def dispatch(position: int, entry: "TileEntry", payload: bytes, cost: float) -> None:
        if entry.virtual:
            fetched[position] = FetchedTile(
                entry, cost, len(payload), array=None, decoded_hit=False
            )
            return
        shape = entry.domain.shape
        if executor is None:
            array = _decode(payload, entry.codec, dtype, shape)
            fetched[position] = FetchedTile(
                entry, cost, len(payload), array, decoded_hit=False
            )
        else:
            pending.append((position, cost, len(payload)))
            futures.append(
                executor.submit(
                    _decode_task,
                    payload,
                    entry.codec,
                    dtype,
                    shape,
                    parent=trace_ctx,
                )
            )

    for fetch in _read_runs(database, to_fetch):
        dispatch(*fetch)

    if futures:
        _PARALLEL_BATCHES.inc()
        for (position, cost, payload_bytes), future in zip(pending, futures):
            fetched[position] = FetchedTile(
                entries[position],
                cost,
                payload_bytes,
                future.result(),
                decoded_hit=False,
            )

    # Deferred admissions, page-ordered in every mode: admitting only after
    # the batch's lookups keeps the LRU trajectory independent of worker
    # completion order (and of the serial/parallel choice).
    if cache is not None:
        for tile in fetched:
            assert tile is not None
            if tile.array is not None and not tile.decoded_hit:
                tile.array = cache.put(tile.entry.blob_id, tile.array)
    return fetched  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Aggregation pushdown: decode -> clip -> mask -> reduce, on the workers
# ---------------------------------------------------------------------------


@dataclass
class TilePartial:
    """One tile's partial aggregate: charges plus an exact value summary.

    ``partial`` summarises the decoded, region-clipped, predicate-masked
    cells (:func:`~repro.index.zonemap.partial_synopsis`); ``None`` for
    virtual tiles, whose clipped cells are all defaults — the caller
    accounts them as default fill.  The decoded array itself is **not**
    retained: the worker reduces it and drops it, which is what bounds
    the pushdown path's peak memory at one tile per worker.
    """

    entry: "TileEntry"
    part: "MInterval"
    cost: float
    payload_bytes: int
    partial: Optional[TileSynopsis]
    decoded_hit: bool


class _PeakTracker:
    """Concurrently-live decoded bytes, and the high-water mark."""

    def __init__(self) -> None:
        self._latch = threading.Lock()
        self._live = 0
        self.peak = 0

    def acquire(self, nbytes: int) -> None:
        with self._latch:
            self._live += nbytes
            if self._live > self.peak:
                self.peak = self._live
        _PARTIAL_LIVE_BYTES.inc(nbytes)

    def release(self, nbytes: int) -> None:
        with self._latch:
            self._live -= nbytes
        _PARTIAL_LIVE_BYTES.dec(nbytes)


def _reduce_tile(
    array: np.ndarray,
    entry: "TileEntry",
    part: "MInterval",
    predicate: Optional[CellPredicate],
    default_cell: np.ndarray,
) -> TileSynopsis:
    """Clip a decoded tile to its region part, mask it, summarise it."""
    vals = array[part.to_slices(entry.domain.lowest)]
    if predicate is not None:
        vals = np.where(predicate.mask(vals), vals, default_cell)
    summary = partial_synopsis(vals)
    _PARTIAL_AGGS.inc()
    return summary


def _partial_task(
    payload: bytes,
    entry: "TileEntry",
    part: "MInterval",
    dtype,
    predicate: Optional[CellPredicate],
    default_cell: np.ndarray,
    peak: _PeakTracker,
    parent: Optional[obs.SpanContext] = None,
) -> TileSynopsis:
    """Worker half of the pushdown: decode, reduce, drop the array."""
    _WORKERS_BUSY.inc()
    try:
        with obs.span(
            "pipeline.partial_agg", parent=parent, bytes=len(payload)
        ):
            array = _decode(payload, entry.codec, dtype, entry.domain.shape)
            peak.acquire(array.nbytes)
            try:
                return _reduce_tile(array, entry, part, predicate, default_cell)
            finally:
                peak.release(array.nbytes)
    finally:
        _WORKERS_BUSY.dec()


def fetch_tile_partials(
    database: "Database",
    items: Sequence[tuple["TileEntry", "MInterval"]],
    dtype,
    predicate: Optional[CellPredicate] = None,
    default: object = 0,
) -> tuple[list[TilePartial], int]:
    """Fetch tiles and reduce each to a partial aggregate on the workers.

    The coordinator keeps the exact charging protocol of
    :func:`fetch_tiles` — decoded-cache lookups first, then page-ordered
    (coalesced) disk/pool interactions on the calling thread — but the
    workers reduce each decoded tile to a
    :class:`~repro.index.zonemap.TileSynopsis` partial instead of
    returning its cells, so the query box is never materialized and peak
    memory stays at one decoded tile per worker plus the partials table.
    Decoded arrays are **not** admitted to the decoded cache (a
    retain-all admission pass would defeat the memory bound; cache hits
    are still consulted and answered).

    Returns the partials in ``items`` order plus the observed peak of
    concurrently-live decoded bytes.
    """
    executor = database.pipeline_executor() if len(items) > 1 else None
    trace_ctx = obs.tracer.current_context() if executor is not None else None
    cache = database.decoded_cache
    default_cell = np.asarray(default, dtype=dtype)
    peak = _PeakTracker()
    fetched: list[Optional[TilePartial]] = [None] * len(items)
    pending: list[tuple[int, float, int]] = []  # (index, cost, payload_bytes)
    futures = []
    to_fetch: list[tuple[int, "TileEntry"]] = []

    for position, (entry, part) in enumerate(items):
        if cache is not None and not entry.virtual:
            array = cache.get(entry.blob_id)
            if array is not None:
                peak.acquire(array.nbytes)
                try:
                    summary = _reduce_tile(
                        array, entry, part, predicate, default_cell
                    )
                finally:
                    peak.release(array.nbytes)
                fetched[position] = TilePartial(
                    entry,
                    part,
                    cost=0.0,
                    payload_bytes=database.store.record(
                        entry.blob_id
                    ).byte_size,
                    partial=summary,
                    decoded_hit=True,
                )
                continue
        to_fetch.append((position, entry))

    def dispatch(
        position: int, entry: "TileEntry", payload: bytes, cost: float
    ) -> None:
        part = items[position][1]
        if entry.virtual:
            fetched[position] = TilePartial(
                entry, part, cost, len(payload), partial=None,
                decoded_hit=False,
            )
            return
        if executor is None:
            array = _decode(payload, entry.codec, dtype, entry.domain.shape)
            peak.acquire(array.nbytes)
            try:
                summary = _reduce_tile(
                    array, entry, part, predicate, default_cell
                )
            finally:
                peak.release(array.nbytes)
            fetched[position] = TilePartial(
                entry, part, cost, len(payload), summary, decoded_hit=False
            )
        else:
            pending.append((position, cost, len(payload)))
            futures.append(
                executor.submit(
                    _partial_task,
                    payload,
                    entry,
                    part,
                    dtype,
                    predicate,
                    default_cell,
                    peak,
                    parent=trace_ctx,
                )
            )

    for fetch in _read_runs(database, to_fetch):
        dispatch(*fetch)

    if futures:
        _PARALLEL_BATCHES.inc()
        for (position, cost, payload_bytes), future in zip(pending, futures):
            entry, part = items[position]
            fetched[position] = TilePartial(
                entry,
                part,
                cost,
                payload_bytes,
                future.result(),
                decoded_hit=False,
            )
    return fetched, peak.peak  # type: ignore[return-value]


def fetch_tile(database: "Database", entry: "TileEntry", dtype) -> FetchedTile:
    """Serial single-tile fetch for the streaming / update paths.

    Consults (and immediately feeds) the decoded cache; never uses the
    worker pool — one tile has nothing to overlap.
    """
    cache = database.decoded_cache
    if cache is not None and not entry.virtual:
        array = cache.get(entry.blob_id)
        if array is not None:
            return FetchedTile(
                entry,
                cost=0.0,
                payload_bytes=database.store.record(entry.blob_id).byte_size,
                array=array,
                decoded_hit=True,
            )
    payload, cost = database.read_blob(entry.blob_id)
    if entry.virtual:
        return FetchedTile(entry, cost, len(payload), None, decoded_hit=False)
    array = _decode(payload, entry.codec, dtype, entry.domain.shape)
    if cache is not None:
        array = cache.put(entry.blob_id, array)
    return FetchedTile(entry, cost, len(payload), array, decoded_hit=False)
