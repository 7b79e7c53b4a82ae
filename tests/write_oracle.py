"""The per-tile update loop, kept as a test oracle.

Index search, then per hit tile in tile-id order (the tile table's,
which ``update`` rewrites in): ``fetch_tile`` → ``.copy()`` → patch →
skip if unchanged → retire the old blob, ``blob_delete``,
``encode_payload``, ``put``, ``BLOB_PUT2``, synopsis, ``tile_rebind``,
write-through — ``StoredMDD.update`` as it was written before it became
one fetch batch and one encode batch.  The batch must reproduce its WAL,
page file, blob ids, synopses and charges byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import StorageError
from repro.index.zonemap import DEFAULT_BINS, compute_synopsis
from repro.storage.ingest import encode_payload
from repro.storage.pipeline import fetch_tile


def update(obj, region, values) -> int:
    """``obj.update(region, values)``, one tile at a time."""
    obj._check_update(region, values)
    database = obj.database
    dtype = obj.mdd_type.base.dtype
    written = 0
    with database.transaction():
        obj._touch()
        for hit in sorted(obj.index.search(region).entries, key=lambda hit: hit.tile_id):
            entry = obj._tiles[hit.tile_id]
            if entry.virtual:
                raise StorageError(f"cannot update virtual tile {entry.domain}")
            fetched = fetch_tile(database, entry, dtype)
            data = fetched.array.copy()
            part = entry.domain.intersection(region)
            data[part.to_slices(entry.domain.lowest)] = values[
                part.to_slices(region.lowest)
            ]
            written += part.cell_count
            raw = data.tobytes(order="C")
            if raw == fetched.array.tobytes(order="C"):
                continue
            _replace_payload(obj, entry, raw)
        obj._note_access("write", region, written)
    return written


def _replace_payload(obj, entry, raw: bytes) -> None:
    database = obj.database
    database.retire_blob(entry.blob_id)
    obj._log_meta({"op": "blob_delete", "blob": entry.blob_id})
    codec, payload, page_crcs = encode_payload(database, raw, obj.mdd_type.base.dtype)
    blob_id = database.store.put(payload, codec=codec, page_crcs=page_crcs)
    database._note_created_blob(blob_id)
    database._log_blob_put(blob_id, payload, page_crcs=page_crcs)
    synopsis = compute_synopsis(
        np.frombuffer(raw, dtype=obj.mdd_type.base.dtype), DEFAULT_BINS
    )
    obj._log_meta(
        {
            "op": "tile_rebind",
            "tile_id": entry.tile_id,
            "blob": blob_id,
            "codec": codec,
            "zone": None if synopsis is None else synopsis.to_dict(),
        }
    )
    obj._apply_rebind(entry.tile_id, blob_id, codec, synopsis)
    if database.decoded_cache is not None:
        array = np.frombuffer(raw, dtype=obj.mdd_type.base.dtype)
        database.decoded_cache.put(blob_id, array.reshape(entry.domain.shape))
