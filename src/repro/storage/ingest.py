"""Parallel write pipeline: batched encode for the bulk-load path.

The write-side counterpart of :mod:`repro.storage.pipeline`.  Loading an
object used to serialise, compress, checksum, WAL-frame, and flush every
tile in its own round trip; this module batches the CPU half of that
work so :meth:`StoredMDD.write_tiles`/`load_array` pay it once per
batch:

* **Parallel encode** — serialisation and codec selection are order-free
  per-tile work, so a batch fans out over the database's encode pool
  (:meth:`Database.pipeline_executor`).  Results are gathered in
  submission order, so stored bytes, blob ids, and page placements are
  byte-identical to the serial loop regardless of worker count.
* **Batch checksumming** — the page CRCs every durable write needs (for
  the WAL record *and* the store's page sidecar) are computed once per
  batch by :func:`~repro.storage.checksum.page_checksums_many` and
  shared by both.

The transactional half — one WAL commit per batch, coalesced page-file
flush — lives in :meth:`Database.transaction` and
:meth:`BlobStore.flush_pending`; this module only produces the encoded
payloads the coordinator then stores in deterministic order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro import obs
from repro.core.mdd import Tile
from repro.index.zonemap import TileSynopsis, compute_synopsis
from repro.storage.checksum import page_checksums, page_checksums_many
from repro.storage.compression import select_codec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.tilestore import Database

_TILES = obs.counter("ingest.tiles", "Tiles encoded by the ingest pipeline")
_BATCHES = obs.counter("ingest.batches", "Encode batches processed")
_POOL_BATCHES = obs.counter("ingest.pool_batches", "Encode batches fanned out to the encode pool")
_ENCODE_MS = obs.histogram(
    "ingest.encode_ms", "Wall milliseconds per encode batch"
)
_BYTES_RAW = obs.counter("ingest.bytes_raw", "Raw cell bytes entering the encoder")
_BYTES_ENCODED = obs.counter(
    "ingest.bytes_encoded", "Encoded payload bytes leaving the encoder"
)


@dataclass
class EncodedTile:
    """One tile, ready to store: payload, codec, shared page CRCs.

    ``raw`` keeps the pre-codec cell bytes so the coordinator can admit
    the decoded array into the decoded-tile cache (write-through)
    without a decompress round trip.
    """

    tile: Tile
    codec: str
    payload: bytes
    raw: bytes
    page_crcs: Optional[list[int]]
    #: Zone-map synopsis, computed in the encode workers alongside
    #: serialisation (``None`` for struct cells or when zone maps are
    #: disabled).
    synopsis: Optional[TileSynopsis] = None


def _wants_crcs(database: "Database") -> bool:
    # Page CRCs are only worth computing when somebody stores them: the
    # WAL (BLOB_PUT2 records) or a checksumming backend.  Pure in-memory
    # benchmark databases skip the cost entirely, as before.
    return database.wal is not None or getattr(
        database.store, "checksums", False
    )


def _encode(raw: bytes, compression: bool, codecs, dtype) -> tuple[str, bytes]:
    if compression:
        return select_codec(raw, codecs, dtype=dtype)
    return "none", raw


def encode_payload(
    database: "Database", raw: bytes, dtype
) -> tuple[str, bytes, Optional[list[int]]]:
    """Encode one payload of ``dtype`` cells: codec choice plus (shared) page CRCs.

    Same outputs as one :func:`encode_tiles` element, without the batch
    machinery.  No caller in the package since ``update`` encodes in one
    batch; tests and the wall-clock benchmark's tracer still bind it.
    """
    codec, payload = _encode(raw, database.compression, database.codecs, dtype)
    crcs = (
        page_checksums(payload, database.store.page_size)
        if _wants_crcs(database)
        else None
    )
    return codec, payload, crcs


def encode_tiles(
    database: "Database", tiles: Sequence[Tile]
) -> list[EncodedTile]:
    """Encode a batch of tiles, deterministically, possibly in parallel.

    Workers handle only order-free work (cell serialisation, codec
    selection); results are gathered in submission order, so the output
    list — and everything the coordinator derives from it — is identical
    to a serial encode.  Page CRCs for the whole batch come from one
    pass.
    """
    if not tiles:
        return []
    started = time.perf_counter()
    compression = database.compression
    codecs = database.codecs
    zone_maps = database.zone_maps

    def task(
        tile: Tile,
    ) -> tuple[bytes, str, bytes, Optional[TileSynopsis]]:
        raw = tile.to_bytes()
        codec, payload = _encode(raw, compression, codecs, tile.data.dtype)
        # The synopsis piggybacks on the worker that already holds the
        # cells: one extra vectorized pass, amortized with the codec cost.
        synopsis = compute_synopsis(tile.data) if zone_maps else None
        return raw, codec, payload, synopsis

    def chunk_task(
        chunk: Sequence[Tile],
    ) -> list[tuple[bytes, str, bytes, Optional[TileSynopsis]]]:
        return [task(tile) for tile in chunk]

    executor = database.pipeline_executor() if len(tiles) > 1 else None
    if executor is None:
        results = [task(tile) for tile in tiles]
    else:
        # one contiguous chunk per worker: future overhead stays O(workers),
        # and flattening in submission order keeps the output deterministic
        _POOL_BATCHES.inc()
        size = -(-len(tiles) // database.io_workers)
        futures = [
            executor.submit(chunk_task, tiles[start:start + size])
            for start in range(0, len(tiles), size)
        ]
        results = [item for future in futures for item in future.result()]
    if _wants_crcs(database):
        crc_lists: Sequence[Optional[list[int]]] = page_checksums_many(
            [payload for _, _, payload, _ in results],
            database.store.page_size,
        )
    else:
        crc_lists = [None] * len(results)
    encoded = [
        EncodedTile(tile, codec, payload, raw, crcs, synopsis)
        for tile, (raw, codec, payload, synopsis), crcs in zip(
            tiles, results, crc_lists
        )
    ]
    _BATCHES.inc()
    _TILES.inc(len(encoded))
    _BYTES_RAW.inc(sum(len(item.raw) for item in encoded))
    _BYTES_ENCODED.inc(sum(len(item.payload) for item in encoded))
    _ENCODE_MS.observe((time.perf_counter() - started) * 1000.0)
    return encoded
