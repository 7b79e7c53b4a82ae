"""Selective tile compression (paper Section 8 / RasDaMan feature).

The RasDaMan storage manager supports *selective compression of blocks* —
important for sparse data, where many tiles are mostly default values.
Three codecs are provided:

* ``none``   — identity;
* ``zlib``   — DEFLATE via the standard library;
* ``planes`` — a header, each cell's low byte, then one ``np.packbits``
  plane per higher bit of the cell minus the tile minimum (modular, so
  signed cells are exact); a few numpy passes decode it.  Native-order
  integer and bool cells only: its encoder alone needs the cell type.

``select_codec`` implements the *selective* part: a tile is stored
compressed only when compression actually pays (saves at least one page
or a configurable ratio), and then with the smallest candidate encoding.
"""

from __future__ import annotations

import struct
import time
import zlib
from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.core.errors import StorageError

Codec = tuple[Callable[[bytes, Optional[np.dtype]], bytes], Callable[[bytes], "bytes | memoryview"]]

_ENCODES = obs.counter("codec.encodes", "Payloads encoded (all codecs)")
_DECODES = obs.counter("codec.decodes", "Payloads decoded (all codecs)")
_ENCODE_BYTES_IN = obs.counter("codec.encode_bytes_in", "Raw bytes given to encoders")
_ENCODE_BYTES_OUT = obs.counter("codec.encode_bytes_out", "Encoded bytes produced")
_ENCODE_MS = obs.histogram("codec.encode_ms", "Wall milliseconds per encode")
_DECODE_MS = obs.histogram("codec.decode_ms", "Wall milliseconds per decode")


#: ``planes`` header: cell kind, item size, bit width, minimum (as unsigned), cell count.
_PLANES_HEADER = struct.Struct("<cBBQQ")


def planes_eligible(dtype: Optional[np.dtype]) -> bool:
    """Whether ``planes`` takes ``dtype`` cells: native-order integer or bool."""
    return dtype is not None and dtype.kind in "uib" and dtype.isnative


def planes_encode(payload: bytes, dtype: Optional[np.dtype]) -> bytes:
    """Bit-plane encoding of ``payload`` read as ``dtype`` cells."""
    if not planes_eligible(dtype):
        raise StorageError(f"planes codec cannot encode {dtype} cells")
    assert dtype is not None
    size = dtype.itemsize
    if len(payload) % size:
        raise StorageError(f"{len(payload)} bytes are no whole {dtype} cells")
    cells = np.frombuffer(payload, dtype=dtype)
    unsigned = np.dtype(f"u{size}")
    base = np.asarray(cells.min() if cells.size else 0, dtype=dtype).view(unsigned)
    delta = cells.view(unsigned) - base  # wraps: exact for signed cells
    width = int(delta.max(initial=0)).bit_length()
    parts = [_PLANES_HEADER.pack(dtype.kind.encode(), size, width, int(base), cells.size)]
    if width:
        parts.append(delta.astype(np.uint8).tobytes())
    parts += [
        np.packbits((delta >> bit).astype(np.uint8) & 1).tobytes()
        for bit in range(8, width)
    ]
    return b"".join(parts)


def planes_decode(payload: bytes) -> memoryview:
    """Inverse of :func:`planes_encode`: one ``unpackbits`` over the
    planes, the high bits OR-ed in ``uint8``, one widen, one add.  The
    cells come back read-only, as a decoded ``bytes`` would."""
    if len(payload) < _PLANES_HEADER.size:
        raise StorageError("corrupt planes payload (short header)")
    kind, size, width, minimum, count = _PLANES_HEADER.unpack_from(payload)
    body = len(payload) - _PLANES_HEADER.size
    if (
        kind not in (b"u", b"i", b"b") or size not in (1, 2, 4, 8) or width > 8 * size
        or minimum >> (8 * size) or count >> 48  # no array that large can exist
        or (kind == b"b" and (size != 1 or minimum + (1 << width) > 2))
        or body != (count if width else 0) + max(width - 8, 0) * -(-count // 8)
    ):
        raise StorageError(
            f"corrupt planes payload ({kind!r}{size}, width {width}, minimum "
            f"{minimum}, {count} cells, {body} body bytes)"
        )
    unsigned = np.dtype(f"u{size}")
    cells = np.zeros(count, dtype=unsigned)
    if width:
        cells[:] = np.frombuffer(payload, np.uint8, count, _PLANES_HEADER.size)
    if width > 8:
        high = np.frombuffer(payload, np.uint8, offset=_PLANES_HEADER.size + count)
        bits = np.unpackbits(high.reshape(width - 8, -1), axis=1, count=count)
        for group in range(0, width - 8, 8):
            byte = bits[group].copy()
            for bit in range(1, min(8, width - 8 - group)):
                byte |= bits[group + bit] << bit
            cells |= byte.astype(unsigned) << (8 + group)
    cells += unsigned.type(minimum)
    cells.flags.writeable = False
    return memoryview(cells).cast("B")


#: DEFLATE effort for the ``zlib`` codec.  Level 2 is write-optimised:
#: on the benchmark cubes it compresses within ~2% of level 6's ratio at
#: roughly 5x the speed, and ingest is compression-bound long before the
#: modelled disk is.  Decoding accepts any level, so stored data is
#: unaffected by later retuning.
ZLIB_LEVEL = 2


def _inflate(payload: bytes) -> bytes:
    """``zlib`` decode; a payload DEFLATE rejects is a :class:`StorageError`."""
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise StorageError(f"corrupt zlib payload ({exc})") from None


_CODECS: dict[str, Codec] = {
    "none": (lambda b, _dtype: b, lambda b: b),
    "zlib": (lambda b, _dtype: zlib.compress(b, level=ZLIB_LEVEL), _inflate),
    "planes": (planes_encode, planes_decode),
}


def known_codecs() -> tuple[str, ...]:
    """Names of the registered codecs."""
    return tuple(sorted(_CODECS))


def compress(payload: bytes, codec: str, dtype: Optional[np.dtype] = None) -> bytes:
    """Encode ``payload`` (cells of ``dtype``) with the named codec."""
    try:
        encode, _decode = _CODECS[codec]
    except KeyError:
        raise StorageError(f"unknown codec {codec!r}") from None
    if not obs.enabled():
        return encode(payload, dtype)
    started = time.perf_counter()
    encoded = encode(payload, dtype)
    _ENCODE_MS.observe((time.perf_counter() - started) * 1000.0)
    _ENCODES.inc()
    _ENCODE_BYTES_IN.inc(len(payload))
    _ENCODE_BYTES_OUT.inc(len(encoded))
    return encoded


def decompress(payload: bytes, codec: str) -> "bytes | memoryview":
    """Decode ``payload`` with the named codec."""
    try:
        _encode, decode = _CODECS[codec]
    except KeyError:
        raise StorageError(f"unknown codec {codec!r}") from None
    if not obs.enabled():
        return decode(payload)
    started = time.perf_counter()
    decoded = decode(payload)
    _DECODE_MS.observe((time.perf_counter() - started) * 1000.0)
    _DECODES.inc()
    return decoded


def select_codec(
    payload: bytes,
    candidates: tuple[str, ...] = ("zlib",),
    min_ratio: float = 0.9,
    dtype: Optional[np.dtype] = None,
) -> tuple[str, bytes]:
    """Selective compression: best candidate (``planes`` only if eligible), or
    ``none`` when nothing shrinks the payload below ``min_ratio`` of its raw size.

    Returns ``(codec_name, encoded_payload)``.
    """
    if not payload:
        return "none", payload
    best_name, best = "none", payload
    bound = int(len(payload) * min_ratio)
    for name in candidates:
        if name == "planes" and not planes_eligible(dtype):
            continue
        encoded = compress(payload, name, dtype)
        if len(encoded) <= bound and len(encoded) < len(best):
            best_name, best = name, encoded
    return best_name, best
