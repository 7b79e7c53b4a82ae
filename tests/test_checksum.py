"""Unit tests for the CRC32C implementation and per-page checksums."""

import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import checksum
from repro.storage.checksum import (
    crc32c,
    crc32c_many,
    page_checksums,
    page_checksums_many,
    verify_page_checksums,
)


class TestCrc32c:
    def test_standard_vectors(self):
        # RFC 3720 / CRC catalogue check values for the Castagnoli polynomial.
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"a") == 0xC1D04330
        assert crc32c(bytes(32)) == 0x8A9136AA
        assert crc32c(b"\xff" * 32) == 0x62A8AB43

    def test_empty_is_zero(self):
        assert crc32c(b"") == 0

    def test_incremental_equals_one_shot(self):
        data = bytes(range(256)) * 17
        split = 131
        assert crc32c(data[split:], crc32c(data[:split])) == crc32c(data)

    def test_differs_from_crc32(self):
        # Castagnoli and the zlib polynomial must not be confused.
        assert crc32c(b"123456789") != zlib.crc32(b"123456789")

    def test_single_bit_sensitivity(self):
        data = bytearray(b"x" * 100)
        baseline = crc32c(bytes(data))
        data[50] ^= 0x01
        assert crc32c(bytes(data)) != baseline


class TestPageChecksums:
    def test_chunking(self):
        payload = b"a" * 100 + b"b" * 100 + b"c" * 50
        crcs = page_checksums(payload, page_size=100)
        assert len(crcs) == 3
        assert crcs[0] == crc32c(b"a" * 100)
        assert crcs[2] == crc32c(b"c" * 50)

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


KERNEL_EDGE_SIZES = [
    0, 1, 3, 4, 5, 7, 8, 63, 64, 65, 127, 128, 129, 255, 256, 257, 4095,
    4096, 4097, 8191, 8192, 8193, 20_000, 70_000,
]


def _noise(size: int, seed: int = 0) -> bytes:
    return np.random.default_rng(size + seed).bytes(size)


class TestCrc32cMany:
    """The block-parallel batch CRC must equal the scalar CRC."""

    def test_mixed_sizes_match_scalar(self):
        # every tail shape in one batch: empty, sub-word, word-aligned,
        # lane-straddling, scalar-sized and kernel-sized
        sizes = [0, 1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256,
                 257, 1000, 4096, 8192, 0, 5]
        chunks = [bytes((i * 7 + j) % 256 for j in range(n))
                  for i, n in enumerate(sizes)]
        assert crc32c_many(chunks) == [crc32c(c) for c in chunks]

    def test_below_kernel_cutover_uses_scalar(self):
        chunks = [b"abc", b"", bytes(range(100))]
        assert crc32c_many(chunks) == [crc32c(c) for c in chunks]

    def test_empty_batch(self):
        assert crc32c_many([]) == []

    @pytest.mark.parametrize("size", KERNEL_EDGE_SIZES)
    def test_every_lane_and_fold_edge(self, size):
        data = _noise(size)
        assert crc32c_many([data]) == [crc32c(data)]

    def test_above_kernel_limit_falls_back_to_scalar(self):
        data = _noise(checksum._KERNEL_BYTES + 1)
        assert crc32c_many([data, data[:-1]]) == [crc32c(data), crc32c(data[:-1])]

    def test_catalogue_vectors_through_the_batch_entry_point(self):
        assert crc32c_many([b"123456789"]) == [0xE3069283]
        assert crc32c_many([bytes(32), b"\xff" * 32]) == [0x8A9136AA, 0x62A8AB43]
        # the same vectors at kernel width: zeros and ones exercise the
        # folded-in init and the free leading padding
        for fill in (b"\x00", b"\xff"):
            assert crc32c_many([fill * 8192]) == [crc32c(fill * 8192)]

    def test_memoryview_slices_at_odd_offsets(self):
        # the store hands page slices of one run buffer, not bytes
        buffer = memoryview(_noise(40_000))
        slices = [buffer[1:8193], buffer[8193:9094], buffer[9095:29_999],
                  buffer[3:3], bytearray(buffer[7:777])]
        assert crc32c_many(slices) == [crc32c(bytes(s)) for s in slices]

    def test_batch_straddling_the_sub_batch_edge(self):
        # 8192-byte chunks fill a kernel call exactly at 32; 33 and 65
        # leave one-row tails, mixed with a second bucket
        page = checksum._KERNEL_BYTES // 8192
        for count in (page - 1, page, page + 1, 2 * page + 1):
            chunks = [_noise(8192, seed) for seed in range(count)]
            chunks.insert(count // 2, _noise(900))
            assert crc32c_many(chunks) == [crc32c(c) for c in chunks]

    def test_batch_of_a_thousand(self):
        chunks = [_noise(256 + 13 * i, i) for i in range(1000)]
        assert crc32c_many(chunks) == [crc32c(c) for c in chunks]

    def test_single_flipped_bit_in_any_lane_changes_the_result(self):
        data = bytearray(_noise(8192 + 900))
        (clean,) = crc32c_many([data])
        for lane in range(0, len(data), 64):
            at = min(lane + lane // 64 % 64, len(data) - 1)
            bit = 1 << (lane // 64 % 8)
            data[at] ^= bit
            (dirty,) = crc32c_many([data])
            assert dirty != clean and dirty == crc32c(data)
            data[at] ^= bit
        assert crc32c_many([data]) == [clean]

    def test_concurrent_callers_share_read_only_tables(self):
        chunks = [_noise(8192, i) for i in range(40)] + [_noise(900, 99)]
        want = [crc32c(c) for c in chunks]
        got: list = [None, None]

        def work(slot):
            for _ in range(10):
                got[slot] = crc32c_many(chunks)
                if got[slot] != want:
                    return

        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert got == [want, want]
        with pytest.raises(ValueError):
            checksum._POSITION[0] = 0

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
        chunks = [
            (pattern * (size // len(pattern) + 1))[:size]
            for size, pattern in shapes
        ]
        assert crc32c_many(chunks) == [crc32c(c) for c in chunks]


class TestPageChecksumsMany:
    def test_matches_per_payload(self):
        payloads = [
            b"",
            b"a" * 100,
            bytes(range(256)) * 3,
            b"z" * 1000,
            bytes(i % 7 for i in range(515)),
        ] * 4
        assert page_checksums_many(payloads, 256) == [
            page_checksums(p, 256) for p in payloads
        ]

    def test_empty_list(self):
        assert page_checksums_many([], 256) == []

    @given(st.lists(st.binary(max_size=700), max_size=20))
    def test_matches_per_payload_property(self, payloads):
        assert page_checksums_many(payloads, 128) == [
            page_checksums(p, 128) for p in payloads
        ]
