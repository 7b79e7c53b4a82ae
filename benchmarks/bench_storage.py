"""Micro-benchmarks of the storage substrate.

Disk-model regimes (sequential vs short-skip vs random), BLOB store
throughput (memory and page file), codec throughput, allocator churn.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import write_result

from repro.bench.report import format_table
from repro.storage.backends import FileBlobStore, MemoryBlobStore
from repro.storage.compression import compress, decompress
from repro.storage.disk import (
    RANDOM,
    SEQUENTIAL,
    SHORT_SKIP,
    DiskParameters,
    SimulatedDisk,
    price,
)
from repro.storage.pages import PageAllocator, PageRange

PAYLOAD = np.arange(65536, dtype=np.uint32).tobytes()


def test_bench_memory_store_put_get(benchmark):
    store = MemoryBlobStore()

    def roundtrip():
        blob_id = store.put(PAYLOAD)
        data = store.get(blob_id)
        store.delete(blob_id)
        return data

    assert benchmark(roundtrip) == PAYLOAD


def test_bench_file_store_put_get(benchmark, tmp_path):
    store = FileBlobStore(tmp_path / "bench.pages")

    def roundtrip():
        blob_id = store.put(PAYLOAD)
        data = store.get(blob_id)
        store.delete(blob_id)
        return data

    assert benchmark(roundtrip) == PAYLOAD
    store.close()


def test_disk_model_regimes(benchmark):
    """One table showing the three positioning regimes' charged costs."""
    params = DiskParameters(page_size=8192)
    runs = [PageRange(0, 10), PageRange(10, 10), PageRange(30, 10), PageRange(100_000, 10)]
    priced, _head = price(params, None, runs)
    sequential, continuation, skip, random = (cost for cost, _regime in priced)
    assert [regime for _cost, regime in priced] == [RANDOM, SEQUENTIAL, SHORT_SKIP, RANDOM]
    assert continuation < skip < random
    assert sequential == random  # first access is random too
    benchmark(lambda: price(params, None, runs))
    write_result(
        "disk_regimes.txt",
        format_table(
            ["Regime", "ms / 10 pages"],
            [["sequential continuation", f"{continuation:.2f}"],
             ["short forward skip", f"{skip:.2f}"],
             ["random access", f"{random:.2f}"]],
            title="Disk model positioning regimes",
        ),
    )


def test_sequential_vs_random_blob_pattern(benchmark):
    """Reading N adjacent BLOBs in layout order vs shuffled order —
    the effect tile clustering buys."""
    store = MemoryBlobStore(page_size=8192)
    disk = SimulatedDisk(DiskParameters(page_size=8192))
    ids = [store.put(b"x" * 32768) for _ in range(64)]

    rng = np.random.default_rng(3)
    shuffled = list(ids)
    rng.shuffle(shuffled)

    def charged(order):
        disk.reset()
        return sum(cost for cost, _regime in disk.charge_reads(store.records(order)))

    def ordered():
        return charged(ids)

    def scattered():
        return charged(shuffled)

    ordered_ms = ordered()
    scattered_ms = scattered()
    # Shuffled reads pay positioning on almost every blob (some forward
    # skips stay cheap, so the gap is bounded but must be clear).
    assert ordered_ms < scattered_ms * 0.7
    benchmark(ordered)
    write_result(
        "disk_clustering.txt",
        format_table(
            ["Read order", "t_o (ms, 64 x 32K blobs)"],
            [["layout order", f"{ordered_ms:.1f}"],
             ["shuffled", f"{scattered_ms:.1f}"]],
            title="Tile clustering effect on t_o",
        ),
    )


@pytest.mark.parametrize("codec", ["zlib", "planes"])
def test_bench_codec_roundtrip(benchmark, codec):
    sparse_payload = bytes(65536)  # best case for both codecs
    cells = np.dtype("<u4")

    def roundtrip():
        return bytes(decompress(compress(sparse_payload, codec, cells), codec))

    assert benchmark(roundtrip) == sparse_payload


def test_bench_allocator_churn(benchmark):
    def churn():
        alloc = PageAllocator()
        ranges = [alloc.allocate(4) for _ in range(256)]
        for page_range in ranges[::2]:
            alloc.release(page_range)
        for _ in range(128):
            alloc.allocate(2)
        return alloc.high_water

    assert benchmark(churn) >= 1024
