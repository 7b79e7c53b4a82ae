"""CRC-32 checksums for WAL records and storage pages.

The durability layer guards every write-ahead-log record and every data
page with a CRC-32 (the zlib polynomial), computed in C by the standard
library's :func:`zlib.crc32`.  A page is checksummed on its own, so a
read verifies exactly the pages it fetched and a mismatch names them.

Verification failures surface as
:class:`~repro.core.errors.ChecksumError` at the call sites (page reads,
WAL scans); this module only computes.
"""

from __future__ import annotations

import zlib
from typing import Sequence


def page_checksums(payload: bytes, page_size: int) -> list[int]:
    """Per-page CRC-32 list for a payload laid out across whole pages.

    The last chunk may be shorter than a page: only the stored bytes are
    checksummed (bytes past ``len(payload)`` in the final page are slack
    the reader never returns).  An empty payload has no chunks.
    """
    view = memoryview(payload)
    crc32 = zlib.crc32
    return [
        crc32(view[offset : offset + page_size])
        for offset in range(0, len(view), page_size)
    ]


def page_checksums_many(
    payloads: Sequence[bytes], page_size: int
) -> list[list[int]]:
    """:func:`page_checksums` for every payload of a batch."""
    return [page_checksums(payload, page_size) for payload in payloads]


def mismatched_pages(actual: list[int], expected: list[int]) -> list[int]:
    """Indexes at which two per-page CRC lists disagree.

    A length mismatch marks every page as bad — the checksum table itself
    is inconsistent with the payload, which is exactly what a torn
    metadata write looks like.
    """
    if actual == expected:  # one C comparison: the read path's case
        return []
    if len(actual) != len(expected):
        return list(range(max(len(actual), len(expected))))
    return [i for i, (a, e) in enumerate(zip(actual, expected)) if a != e]


def verify_page_checksums(
    payload: bytes, page_size: int, expected: list[int]
) -> list[int]:
    """Indexes of pages whose checksum does not match ``expected``
    (see :func:`mismatched_pages`)."""
    return mismatched_pages(page_checksums(payload, page_size), expected)
