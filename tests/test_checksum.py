"""Unit tests for the per-page CRC-32 checksums and what they catch.

Pages, blob sidecars and WAL frames are checksummed with CRC-32 (the
zlib polynomial); stores and logs of the earlier formats, which used
CRC32C (Castagnoli), are refused by version.  Every computed value is
checked against :func:`zlib.crc32` and against a bitwise reference.
"""

import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ChecksumError
from repro.storage import wal
from repro.storage.backends import FileBlobStore
from repro.storage.blob import BlobRecord
from repro.storage.checksum import (
    page_checksums,
    page_checksums_many,
    verify_page_checksums,
)
from repro.storage.pages import PageRange

CRC32 = 0xEDB88320  # the zlib polynomial, reflected
CASTAGNOLI = 0x82F63B78  # CRC32C, reflected: the earlier formats' CRC


def _reference(data: bytes, poly: int) -> int:
    """Bitwise reflected CRC with the usual all-ones init and final xor."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def _per_page(payload, page_size):
    return [
        zlib.crc32(bytes(payload[offset : offset + page_size]))
        for offset in range(0, len(payload), page_size)
    ]


class TestCrc32c:
    """The switch from CRC32C to CRC-32: the catalogue values of both,
    and the properties the page and WAL-frame checksums rely on."""

    def test_standard_vectors(self):
        # CRC catalogue check values ("CRC-32/ISO-HDLC", the zlib CRC)
        vectors = {
            b"123456789": 0xCBF43926,
            b"a": 0xE8B7BE43,
            bytes(32): 0x190A55AD,
            b"\xff" * 32: 0xFF6CAB0B,
        }
        for data, crc in vectors.items():
            assert _reference(data, CRC32) == crc
            assert page_checksums(data, 4096) == [crc]

    def test_empty_is_zero(self):
        assert zlib.crc32(b"") == _reference(b"", CRC32) == 0
        assert page_checksums(b"", 4096) == []

    def test_incremental_equals_one_shot(self):
        # a WAL frame CRC is chained over type || lsn, then the payload
        payload = bytes(range(256)) * 17
        for rtype in (wal.META, wal.COMMIT, wal.BLOB_PUT2):
            joined = bytes([rtype]) + (2**40 + 3).to_bytes(8, "little") + payload
            assert wal._frame_crc(rtype, 2**40 + 3, payload) == zlib.crc32(joined)

    def test_differs_from_crc32(self):
        # RFC 3720 check value: a CRC32C-era checksum never verifies now
        assert _reference(b"123456789", CASTAGNOLI) == 0xE3069283
        assert verify_page_checksums(b"123456789", 4096, [0xE3069283]) == [0]

    def test_single_bit_sensitivity(self):
        data = bytearray(b"x" * 100)
        baseline = page_checksums(bytes(data), 4096)
        data[50] ^= 0x01
        assert page_checksums(bytes(data), 4096) != baseline


class TestPageChecksums:
    def test_chunking(self):
        payload = b"a" * 100 + b"b" * 100 + b"c" * 50
        crcs = page_checksums(payload, page_size=100)
        assert len(crcs) == 3
        assert crcs[0] == zlib.crc32(b"a" * 100)
        assert crcs[2] == zlib.crc32(b"c" * 50)

    def test_empty_payload_has_no_pages(self):
        assert page_checksums(b"", page_size=100) == []

    def test_verify_clean(self):
        payload = bytes(range(256)) * 3
        crcs = page_checksums(payload, 256)
        assert verify_page_checksums(payload, 256, crcs) == []

    def test_verify_flags_corrupt_page_only(self):
        payload = bytearray(b"p" * 1000)
        crcs = page_checksums(bytes(payload), 256)
        payload[300] ^= 0x80  # inside page 1
        assert verify_page_checksums(bytes(payload), 256, crcs) == [1]

    def test_length_mismatch_marks_all(self):
        payload = b"q" * 600
        crcs = page_checksums(payload, 256)
        bad = verify_page_checksums(payload + b"r" * 256, 256, crcs)
        assert bad == [0, 1, 2, 3]  # four chunks now vs three recorded

    @pytest.mark.parametrize("size", [1, 7, 255, 256, 257, 1000])
    def test_roundtrip_sizes(self, size):
        payload = bytes(i % 251 for i in range(size))
        crcs = page_checksums(payload, 256)
        assert verify_page_checksums(payload, 256, crcs) == []


# Payload sizes around 64-byte and power-of-two boundaries, including
# the edges of one and two 4 KiB pages.
EDGE_SIZES = [
    0, 1, 3, 4, 5, 7, 8, 63, 64, 65, 127, 128, 129, 255, 256, 257, 4095,
    4096, 4097, 8191, 8192, 8193, 20_000, 70_000,
]


def _noise(size: int, seed: int = 0) -> bytes:
    return np.random.default_rng(size + seed).bytes(size)


class TestCrc32cMany:
    """The batch entry point, :func:`page_checksums_many` (it replaced
    the batched CRC32C kernel), equals one :func:`zlib.crc32` per page,
    and one :func:`page_checksums` per payload."""

    def test_mixed_sizes_match_scalar(self):
        sizes = [0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256,
                 257, 1000, 4096, 8192, 0, 5]
        payloads = [bytes((i * 7 + j) % 256 for j in range(n))
                    for i, n in enumerate(sizes)]
        # repeated payloads, and page sizes other than the store's
        payloads += [b"a" * 100, bytes(range(256)) * 3, bytes(i % 7 for i in range(515))] * 4
        for page_size in (128, 256):
            assert page_checksums_many(payloads, page_size) == [
                _per_page(p, page_size) for p in payloads
            ] == [page_checksums(p, page_size) for p in payloads]

    def test_empty_batch(self):
        assert page_checksums_many([], 4096) == []
        assert page_checksums_many([], 256) == []
        assert page_checksums_many([b""], 4096) == [[]]

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_every_lane_and_fold_edge(self, size):
        data = _noise(size)
        assert page_checksums_many([data], 4096) == [_per_page(data, 4096)]

    def test_catalogue_vectors_through_the_batch_entry_point(self):
        assert page_checksums_many([b"123456789"], 4096) == [[0xCBF43926]]
        assert page_checksums_many([bytes(32), b"\xff" * 32], 4096) == [
            [0x190A55AD],
            [0xFF6CAB0B],
        ]

    def test_memoryview_slices_at_odd_offsets(self):
        # the store hands payload slices of one run buffer, not bytes
        buffer = memoryview(_noise(40_000))
        slices = [buffer[1:8193], buffer[8193:9094], buffer[9095:29_999],
                  buffer[3:3], bytearray(buffer[7:777])]
        assert page_checksums_many(slices, 4096) == [
            _per_page(s, 4096) for s in slices
        ]

    def test_batch_of_a_thousand(self):
        payloads = [_noise(256 + 13 * i, i) for i in range(1000)]
        assert page_checksums_many(payloads, 4096) == [
            _per_page(p, 4096) for p in payloads
        ]

    def test_single_flipped_bit_in_any_lane_changes_the_result(self):
        # one flip in every 64-byte stretch of a two-page payload marks
        # exactly the page it falls in
        data = bytearray(_noise(8192 + 900))
        clean = page_checksums(data, 4096)
        for lane in range(0, len(data), 64):
            at = min(lane + lane // 64 % 64, len(data) - 1)
            bit = 1 << (lane // 64 % 8)
            data[at] ^= bit
            assert verify_page_checksums(data, 4096, clean) == [at // 4096]
            data[at] ^= bit
        assert page_checksums(data, 4096) == clean

    # st.binary(max_size=3 * 8192) alone never draws more than a few
    # dozen bytes, so the size is drawn and a short pattern repeated
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3 * 8192), st.binary(min_size=1, max_size=67)
            ),
            max_size=12,
        )
    )
    @settings(deadline=None)
    def test_matches_scalar_property(self, shapes):
        payloads = [
            (pattern * (size // len(pattern) + 1))[:size]
            for size, pattern in shapes
        ]
        assert page_checksums_many(payloads, 4096) == [
            _per_page(p, 4096) for p in payloads
        ]

    @given(st.lists(st.binary(max_size=700), max_size=20))
    def test_matches_per_payload_property(self, payloads):
        assert page_checksums_many(payloads, 128) == [
            page_checksums(p, 128) for p in payloads
        ]


# -- what the checksums catch -------------------------------------------

PAGE = 256
#: Page-adjacent payloads that straddle page boundaries, and a short one.
PAYLOADS = (_noise(700, 1), _noise(PAGE, 2), _noise(1000, 3), _noise(9, 4))


@st.composite
def bursts(draw, size: int):
    """``(first_bit, pattern)``: an error burst of 1..32 bits inside
    ``size`` bytes, bits numbered in a reflected CRC's order (LSB first).
    A burst's first and last bits are in error; those between are any."""
    length = draw(st.integers(1, 32))
    first = draw(st.integers(0, size * 8 - length))
    inner = draw(st.integers(0, (1 << max(length - 2, 0)) - 1))
    pattern = 1 | (inner << 1) | (1 << (length - 1))
    return first, pattern


def _flip(buffer: bytearray, base: int, burst) -> None:
    """XOR ``burst`` into ``buffer`` starting at byte ``base``."""
    first, pattern = burst
    start = base + first // 8
    end = start + (first % 8 + pattern.bit_length() + 7) // 8
    word = int.from_bytes(buffer[start:end], "little")
    word ^= pattern << (first % 8)
    buffer[start:end] = word.to_bytes(end - start, "little")


@pytest.fixture(scope="module")
def page_file():
    with tempfile.TemporaryDirectory() as directory:
        store = FileBlobStore(Path(directory) / "t.pages", page_size=PAGE)
        ids = [store.put(payload) for payload in PAYLOADS]
        store.sync()
        yield store, ids
        store.close()


@given(data=st.data())
@settings(deadline=None, max_examples=150)
def test_any_burst_in_any_page_fails_get_run(page_file, data):
    store, ids = page_file
    which = data.draw(st.integers(0, len(PAYLOADS) - 1))
    burst = data.draw(bursts(len(PAYLOADS[which])))
    offset = store.record(ids[which]).pages.start * PAGE
    stored = bytearray(PAYLOADS[which])
    _flip(stored, 0, burst)

    def write(payload):
        store._file.seek(offset)
        store._file.write(payload)
        store._file.flush()

    write(stored)
    try:
        with pytest.raises(ChecksumError, match=f"blob {ids[which]}:"):
            store.get_run(ids)
    finally:
        write(PAYLOADS[which])
    assert store.get_run(ids) == list(PAYLOADS)


def _log(path: Path) -> list[tuple[int, int]]:
    """Write two committed transactions, each a META, a BLOB_PUT2 of a
    page-straddling payload and a COMMIT; returns every record's
    ``(start, end)`` byte span in the file."""
    log = wal.WriteAheadLog(path, page_size=PAGE)
    for txn, payload in enumerate(PAYLOADS[:2]):
        log.log_meta({"op": "step", "txn": txn})
        record = BlobRecord(
            blob_id=txn + 1,
            byte_size=len(payload),
            pages=PageRange(txn * 4, 4),
            virtual=False,
            codec="none",
            stored_size=len(payload),
        )
        log.log_blob_put(record, payload)
        log.commit()
    log.close()
    spans = []
    offset = wal._HEADER.size
    data = path.read_bytes()
    while offset < len(data):
        length = wal._RECORD.unpack_from(data, offset)[0]
        end = offset + wal._RECORD.size + length
        spans.append((offset, end))
        offset = end
    return spans


@given(data=st.data())
@settings(deadline=None, max_examples=150)
def test_any_burst_in_a_log_record_ends_the_scan_there(data):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "wal.log"
        spans = _log(path)
        assert len(spans) == 6 and len(wal.scan_wal(path).batches) == 2
        which = data.draw(st.integers(0, len(spans) - 1))
        start, end = spans[which]
        log = bytearray(path.read_bytes())
        _flip(log, start, data.draw(bursts(end - start)))
        path.write_bytes(bytes(log))
        scan = wal.scan_wal(path)
    # the records of a transaction are sealed by its third, the COMMIT
    assert len(scan.batches) == which // 3
    assert scan.valid_bytes == (spans[2][1] if which >= 3 else wal._HEADER.size)
