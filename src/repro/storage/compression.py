"""Selective tile compression (paper Section 8 / RasDaMan feature).

The RasDaMan storage manager supports *selective compression of blocks* —
important for sparse data, where many tiles are mostly default values.
Three codecs are provided:

* ``none``   — identity;
* ``zlib``   — DEFLATE via the standard library;
* ``planes`` — a header, each cell's low byte, then one ``np.packbits``
  plane per higher bit of the cell minus the tile minimum (modular, so
  signed cells are exact); a few numpy passes decode it, or any run of
  its cells alone.  Native-order integer and bool cells only: its
  encoder alone needs the cell type.

``select_codec`` implements the *selective* part: a tile is stored
compressed only when compression actually pays (saves at least one page
or a configurable ratio), and then with the smallest candidate encoding.
``planes`` is encoded first, and zlib in full only when a deflated sample
of the payload, scaled up, says zlib can win: on every cube the repo
stores, the codec and bytes that encoding every candidate would pick.
"""

from __future__ import annotations

import struct
import time
import zlib
from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.core.errors import StorageError

Codec = tuple[
    Callable[[bytes, Optional[np.dtype]], bytes],
    Callable[[bytes, int, Optional[int]], "bytes | memoryview"],
]

_ENCODES = obs.counter("codec.encodes", "Payloads encoded (all codecs)")
_ENCODE_BYTES_IN = obs.counter("codec.encode_bytes_in", "Raw bytes given to encoders")
_ENCODE_BYTES_OUT = obs.counter("codec.encode_bytes_out", "Encoded bytes produced")
_ENCODE_MS = obs.histogram("codec.encode_ms", "Wall milliseconds per encode")


#: ``planes`` header: cell kind, item size, bit width, minimum (as unsigned), cell count.
_PLANES_HEADER = struct.Struct("<cBBQQ")
#: The unsigned cell type of each item size.
_UNSIGNED = {size: np.dtype(f"u{size}") for size in (1, 2, 4, 8)}


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


def planes_decode(payload: bytes, start: int = 0, stop: Optional[int] = None) -> memoryview:
    """Inverse of :func:`planes_encode`, over decoded bytes ``start`` to
    ``stop`` (whole cells; the default is every cell): each low byte
    widened by one ``astype``, the range's bytes of each high plane
    unpacked, eight planes at a time folded into one ``uint8`` by adds,
    then shifted into place in the cell type, and the minimum added
    unless it is 0.  The cells come back read-only, as a decoded
    ``bytes`` would."""
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
    stop = count * size if stop is None else stop
    if not 0 <= start <= stop <= count * size or (start | stop) % size:
        raise StorageError(f"bytes {start}:{stop} are no whole cells of {count} {kind!r}{size}")
    first, cells_wanted = start // size, (stop - start) // size
    unsigned = _UNSIGNED[size]
    if not width:
        cells = np.full(cells_wanted, minimum, dtype=unsigned)
    else:
        cells = np.frombuffer(
            payload, np.uint8, cells_wanted, _PLANES_HEADER.size + first
        ).astype(unsigned)
    if width > 8:
        high = np.frombuffer(payload, np.uint8, offset=_PLANES_HEADER.size + count)
        lead = first % 8  # the range may start mid-byte
        bits = np.unpackbits(
            high.reshape(width - 8, -1)[:, first // 8 : -(-(first + cells_wanted) // 8)], axis=1
        )[:, lead : lead + cells_wanted]
        for group in range(0, width - 8, 8):
            top = min(width - 8, group + 8)
            byte = bits[top - 1].copy()
            for bit in range(top - 2, group - 1, -1):  # byte = 2 * byte + bit
                byte += byte
                byte += bits[bit]
            wide = byte.astype(unsigned)
            wide <<= 8 + group
            cells += wide
    if minimum and width:
        cells += unsigned.type(minimum)
    cells.flags.writeable = False
    return memoryview(cells).cast("B")


#: DEFLATE effort for the ``zlib`` codec.  Level 2 is write-optimised:
#: on the benchmark cubes it compresses within ~2% of level 6's ratio at
#: roughly 5x the speed, and ingest is compression-bound long before the
#: modelled disk is.  Decoding accepts any level, so stored data is
#: unaffected by later retuning.
ZLIB_LEVEL = 2


def _span(raw: bytes, start: int, stop: Optional[int]) -> "bytes | memoryview":
    """Bytes ``start`` to ``stop`` of ``raw``, zero-copy; all of it as is."""
    return raw if start == 0 and stop is None else memoryview(raw)[start:stop]


def _inflate(payload: bytes, start: int = 0, stop: Optional[int] = None) -> "bytes | memoryview":
    """``zlib`` decode; a payload DEFLATE rejects is a :class:`StorageError`.
    A range is cut from the whole stream: only a full inflate checks it."""
    try:
        return _span(zlib.decompress(payload), start, stop)
    except zlib.error as exc:
        raise StorageError(f"corrupt zlib payload ({exc})") from None


_CODECS: dict[str, Codec] = {
    "none": (lambda b, _dtype: b, _span),
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
    started = time.perf_counter()
    encoded = encode(payload, dtype)
    _ENCODE_MS.observe((time.perf_counter() - started) * 1000.0)
    _ENCODES.inc()
    _ENCODE_BYTES_IN.inc(len(payload))
    _ENCODE_BYTES_OUT.inc(len(encoded))
    return encoded


def decompress(
    payload: bytes, codec: str, start: int = 0, stop: Optional[int] = None
) -> "bytes | memoryview":
    """Decode ``payload`` with the named codec: the decoded bytes from
    ``start`` to ``stop`` (default: all of them), which a cell codec
    decodes alone.  Uncounted: the read pipeline counts ``codec.*``
    decodes once per fetch batch."""
    try:
        _encode, decode = _CODECS[codec]
    except KeyError:
        raise StorageError(f"unknown codec {codec!r}") from None
    return decode(payload, start, stop)


#: ``select_codec``'s zlib sample: ``ZLIB_SAMPLE_CHUNKS`` evenly spaced
#: slices of a payload, together ``len // ZLIB_SAMPLE_SHARE`` bytes but at
#: least ``ZLIB_SAMPLE_MIN``.  Zlib runs in full only if the sample's
#: deflated size, scaled up, is within ``ZLIB_SAMPLE_SLACK`` of the size
#: zlib must beat.  Spread slices see a tile that turns to defaults part
#: way, where a prefix missed zlib's win; on the repo's cubes each zlib
#: win sits at least 9% below the skip line.
ZLIB_SAMPLE_MIN = 2048
ZLIB_SAMPLE_SHARE = 32
ZLIB_SAMPLE_CHUNKS = 8
ZLIB_SAMPLE_SLACK = 1.2


def _deflate_estimate(payload: bytes) -> float:
    """Zlib's size on ``payload``, scaled up from the sample (uncounted:
    nothing stores it).  ``payload`` is longer than ``ZLIB_SAMPLE_MIN``."""
    step = len(payload) // ZLIB_SAMPLE_CHUNKS
    chunk = max(ZLIB_SAMPLE_MIN, len(payload) // ZLIB_SAMPLE_SHARE) // ZLIB_SAMPLE_CHUNKS
    sample = b"".join(payload[at:at + chunk] for at in range(0, step * ZLIB_SAMPLE_CHUNKS, step))
    return len(zlib.compress(sample, ZLIB_LEVEL)) * len(payload) / len(sample)


def select_codec(
    payload: bytes,
    candidates: tuple[str, ...] = ("zlib",),
    min_ratio: float = 0.9,
    dtype: Optional[np.dtype] = None,
) -> tuple[str, bytes]:
    """Selective compression: best candidate (``planes`` only if eligible), or
    ``none`` when nothing shrinks the payload below ``min_ratio`` of its raw size.

    Given both ``planes`` and ``zlib``, a payload longer than the sample is
    encoded with ``planes`` first, and with zlib only if the sample says
    zlib can beat both ``planes`` and the bound.  The rule is a pure
    function of the payload; on every cube the repo stores it returns what
    encoding every candidate returns (``tests/test_codec_sample.py``).

    Returns ``(codec_name, encoded_payload)``.
    """
    if not payload:
        return "none", payload
    bound = int(len(payload) * min_ratio)
    names = [name for name in candidates if name != "planes" or planes_eligible(dtype)]
    encoded: dict[str, bytes] = {}
    if "planes" in names and "zlib" in names and len(payload) > ZLIB_SAMPLE_MIN:
        encoded["planes"] = compress(payload, "planes", dtype)
        if _deflate_estimate(payload) > ZLIB_SAMPLE_SLACK * min(len(encoded["planes"]), bound):
            names.remove("zlib")
    best_name, best = "none", payload
    for name in names:
        data = encoded[name] if name in encoded else compress(payload, name, dtype)
        if len(data) <= bound and len(data) < len(best):
            best_name, best = name, data
    return best_name, best
