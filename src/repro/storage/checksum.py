"""CRC32C (Castagnoli) checksums for WAL records and storage pages.

The durability layer guards every write-ahead-log record and every data
page with a CRC32C checksum — the same polynomial iSCSI, ext4 and most
storage engines use, chosen over CRC32 (zlib) for its better burst-error
detection.  The standard library has no CRC32C, so this module carries a
dependency-free slice-by-8 implementation: eight 256-entry tables are
derived once from the reflected polynomial and the hot loop consumes the
input eight bytes per step.

The scalar :func:`crc32c` is the reference every test compares against
and the path for short inputs.  :func:`crc32c_many` is the array-speed
path for pages: CRC is linear over GF(2), so for the raw remainder ``R``
(init 0, no final xor)

* ``R(A || B) = advance_|B|(R(A)) ^ R(B)`` — a chunk splits into blocks
  with no sequential dependency between them;
* leading zero bytes are free — a chunk is left-padded to ``64 << k``;
* the ``0xFFFFFFFF`` init equals xor-ing ``0xFF`` into the first four
  message bytes.

Each padded chunk is viewed as 64-byte lanes.  One ``take`` from the
64 x 256 *position table* (``P[j][b]`` = remainder of byte ``b``
followed by ``63 - j`` zero bytes) plus one xor-reduce gives every
lane's remainder; ``k`` pairwise folds through per-level *advance
tables* (a 32-bit state moved across ``64 << level`` zero bytes in four
lookups, each level the square of the one below) give the chunk's.  The
tables are built at import in well under 5 ms and are read-only, so
every thread shares them.  Results are bit-identical to :func:`crc32c`:
no stored CRC, page file, sidecar or WAL record changes.

Verification failures surface as
:class:`~repro.core.errors.ChecksumError` at the call sites (page reads,
WAL scans); this module only computes.
"""

from __future__ import annotations

import struct
from typing import Sequence, Tuple

import numpy as np

_POLY = 0x82F63B78  # CRC-32C (Castagnoli), reflected


def _build_tables() -> Tuple[Tuple[int, ...], ...]:
    table0 = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table0.append(crc)
    tables = [table0]
    for _ in range(7):
        prev = tables[-1]
        tables.append([(prev[i] >> 8) ^ table0[prev[i] & 0xFF] for i in range(256)])
    return tuple(tuple(t) for t in tables)


_TABLES = _build_tables()
_U64 = struct.Struct("<Q")


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC32C of ``data``; pass a previous result as ``crc`` to chain."""
    crc = (crc ^ 0xFFFFFFFF) & 0xFFFFFFFF
    t0, t1, t2, t3, t4, t5, t6, t7 = _TABLES
    view = memoryview(data)
    end8 = len(view) - (len(view) % 8)
    for (word,) in _U64.iter_unpack(view[:end8]):
        word ^= crc
        crc = (
            t7[word & 0xFF]
            ^ t6[(word >> 8) & 0xFF]
            ^ t5[(word >> 16) & 0xFF]
            ^ t4[(word >> 24) & 0xFF]
            ^ t3[(word >> 32) & 0xFF]
            ^ t2[(word >> 40) & 0xFF]
            ^ t1[(word >> 48) & 0xFF]
            ^ t0[word >> 56]
        )
    for byte in view[end8:]:
        crc = (crc >> 8) ^ t0[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


# Chunks shorter than this go to the scalar loop: a kernel call costs a
# fixed dozen numpy dispatches, which a few hundred bytes cannot repay.
_SCALAR_BELOW = 256
# Padded input bytes per kernel call, and the largest chunk it takes: the
# index array is 8x its input, so bigger calls spill the cache.
_KERNEL_BYTES = 1 << 18
_LANE = 64
_OFFSETS = np.arange(_LANE, dtype=np.intp) * 256


def _gather(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """XOR over each row's bytes ``b`` at column ``j`` of ``table[j][b]``."""
    index = rows + _OFFSETS[: rows.shape[1]]
    return np.bitwise_xor.reduce(table.take(index), axis=1)


def _build_kernel_tables() -> tuple[np.ndarray, list[np.ndarray]]:
    table0 = np.array(_TABLES[0], dtype="<u4")
    rows = [table0]  # rows[z][b]: remainder of byte b followed by z zeros
    for _ in range(_LANE - 1):
        rows.append((rows[-1] >> 8) ^ table0[rows[-1] & 0xFF])
    position = np.concatenate(rows[::-1])
    # A state equals its four bytes xor-ed into the next four message
    # bytes, so advancing it across one zero lane is the first four rows
    # of the position table; squaring a level doubles the distance.
    advance = [position[: 4 * 256]]
    while _LANE << len(advance) < _KERNEL_BYTES:
        last = advance[-1]
        advance.append(_gather(last, last.view(np.uint8).reshape(-1, 4)))
    for table in (_OFFSETS, position, *advance):
        table.flags.writeable = False
    return position, advance


_POSITION, _ADVANCE = _build_kernel_tables()


def _remainders(padded: np.ndarray) -> np.ndarray:
    """Raw CRC remainder of every row of a ``(n, 64 << k)`` byte matrix."""
    state = _gather(_POSITION, padded.reshape(-1, _LANE))
    for level in range((padded.shape[1] // _LANE).bit_length() - 1):
        pairs = state.reshape(-1, 2)
        head = np.ascontiguousarray(pairs[:, 0]).view(np.uint8).reshape(-1, 4)
        state = _gather(_ADVANCE[level], head) ^ pairs[:, 1]
    return state


def crc32c_many(chunks: Sequence[bytes]) -> list[int]:
    """CRC32C of every chunk, block-parallel across and along the batch.

    Chunks are bucketed by padded width ``64 << k`` and each bucket runs
    through :func:`_remainders` about ``_KERNEL_BYTES`` at a time; chunks
    too short (or too long) for the kernel take the scalar loop.
    Bit-identical to ``[crc32c(c) for c in chunks]``.
    """
    out = [0] * len(chunks)
    buckets: dict[int, list[int]] = {}
    for i, chunk in enumerate(chunks):
        size = len(chunk)
        if size < _SCALAR_BELOW or size > _KERNEL_BYTES:
            out[i] = crc32c(chunk)
        else:
            lanes = (size + _LANE - 1) // _LANE
            buckets.setdefault(_LANE << (lanes - 1).bit_length(), []).append(i)
    for width, members in buckets.items():
        step = _KERNEL_BYTES // width
        for start in range(0, len(members), step):
            batch = members[start : start + step]
            padded = np.zeros((len(batch), width), dtype=np.uint8)
            for row, i in zip(padded, batch):
                data = np.frombuffer(chunks[i], dtype=np.uint8)
                body = row[width - data.size :]
                body[:] = data
                body[:4] ^= 0xFF  # the 0xFFFFFFFF init, as message bits
            for i, crc in zip(batch, _remainders(padded).tolist()):
                out[i] = crc ^ 0xFFFFFFFF
    return out


def page_checksums(payload: bytes, page_size: int) -> list[int]:
    """Per-page CRC32C list for a payload laid out across whole pages.

    The last chunk may be shorter than a page: only the stored bytes are
    checksummed (bytes past ``len(payload)`` in the final page are slack
    the reader never returns).  An empty payload has no chunks.
    """
    view = memoryview(payload)
    return crc32c_many(
        [view[offset : offset + page_size] for offset in range(0, len(view), page_size)]
    )


def page_checksums_many(
    payloads: Sequence[bytes], page_size: int
) -> list[list[int]]:
    """:func:`page_checksums` for many payloads in one kernel pass.

    All pages of all payloads feed a single :func:`crc32c_many` call, so
    a batch of tile payloads is checksummed at array speed — the reason
    the batched ingest path computes, and the read-ahead verifies, page
    CRCs here rather than tile by tile.
    """
    chunks: list[memoryview] = []
    counts: list[int] = []
    for payload in payloads:
        view = memoryview(payload)
        before = len(chunks)
        for offset in range(0, len(view), page_size):
            chunks.append(view[offset : offset + page_size])
        counts.append(len(chunks) - before)
    crcs = crc32c_many(chunks)
    out: list[list[int]] = []
    position = 0
    for count in counts:
        out.append(crcs[position : position + count])
        position += count
    return out


def mismatched_pages(actual: list[int], expected: list[int]) -> list[int]:
    """Indexes at which two per-page CRC lists disagree.

    A length mismatch marks every page as bad — the checksum table itself
    is inconsistent with the payload, which is exactly what a torn
    metadata write looks like.
    """
    if len(actual) != len(expected):
        return list(range(max(len(actual), len(expected))))
    return [i for i, (a, e) in enumerate(zip(actual, expected)) if a != e]


def verify_page_checksums(
    payload: bytes, page_size: int, expected: list[int]
) -> list[int]:
    """Indexes of pages whose checksum does not match ``expected``
    (see :func:`mismatched_pages`)."""
    return mismatched_pages(page_checksums(payload, page_size), expected)
