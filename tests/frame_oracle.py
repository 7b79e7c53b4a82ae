"""The tile server's per-blob tile-frame walk, kept as a test oracle.

Index search, page-order sort, then one blob read per real tile —
the served RTF1 body as the server built it before tile frames became an
executor sink.  The sink must reproduce its bodies byte for byte.
"""

from __future__ import annotations

from repro.serve import wire


def tile_frames(database, obj, version, region) -> bytes:
    """RTF1 body of the stored tiles of ``version`` meeting ``region``."""
    result = version.index.search(region)
    entries = sorted(
        (version.tiles[e.tile_id] for e in result.entries),
        key=database.first_page,
    )
    frames = []
    for entry in entries:
        if entry.virtual:
            frames.append(wire.TileFrame(entry.domain, "none", b"", virtual=True))
            continue
        [(payload, _read)] = database.read_blobs(database.store.records([entry.blob_id]), {})
        frames.append(wire.TileFrame(entry.domain, entry.codec, payload))
    return wire.encode_frames(
        region, obj.mdd_type.base.dtype, obj.mdd_type.base.default, frames
    )
