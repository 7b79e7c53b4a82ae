"""S1: used-byte gauges stay exact under real concurrent admit/evict.

No virtual scheduler here — these tests want genuine thread contention
on the pool and decoded-cache latches.  Each latch guards its LRU table
*and* the paired ``_used``/gauge delta, so after any interleaving the
gauge delta must equal the surviving contents exactly; a lost update
shows up as a drifted gauge, deterministically, once the threads join.
"""

from __future__ import annotations

import threading

import numpy as np

from repro import obs
from repro.storage.backends import MemoryBlobStore
from repro.storage.bufferpool import BufferPool
from repro.storage.decodedcache import DecodedTileCache
from repro.storage.disk import DiskParameters, SimulatedDisk

THREADS = 4
ITERATIONS = 400


def _gauge(name: str) -> float:
    return obs.registry.value(name)


def _hammer(worker, threads=THREADS):
    errors = []

    def wrapped(k):
        try:
            worker(k)
        except Exception as exc:  # noqa: BLE001 - reported after join
            errors.append(exc)

    pool = [
        threading.Thread(target=wrapped, args=(k,)) for k in range(threads)
    ]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert not errors, errors


class TestPoolGauge:
    def test_concurrent_admit_evict_keeps_used_bytes_exact(self):
        store = MemoryBlobStore(page_size=64)
        payloads = {
            store.put(bytes([i]) * (64 + i)): 64 + i for i in range(32)
        }
        blob_ids = list(payloads)
        disk = SimulatedDisk(DiskParameters(page_size=64))
        # capacity forces constant eviction: ~6 entries fit out of 32
        pool = BufferPool(store, disk, capacity_bytes=400)
        before = _gauge("pool.used_bytes")
        outcomes = []

        def worker(k):
            rng = np.random.default_rng(k)
            for _ in range(ITERATIONS):
                blob_id = blob_ids[int(rng.integers(len(blob_ids)))]
                payload, read = pool.read_blob(blob_id)
                assert len(payload) == payloads[blob_id]
                outcomes.append(read)

        _hammer(worker)
        # the gauge delta equals the pool's own accounting, which equals
        # the bytes actually resident — no lost increments or decrements
        assert _gauge("pool.used_bytes") - before == pool.used_bytes
        assert pool.used_bytes == sum(
            len(entry) for entry in pool._entries.values()
        )
        assert 0 < pool.used_bytes <= pool.capacity_bytes
        assert sum(read.hit in (True, False) for read in outcomes) == THREADS * ITERATIONS
        pool.clear()
        assert _gauge("pool.used_bytes") - before == 0
        assert pool.used_bytes == 0

    def test_concurrent_invalidate_against_admit(self):
        store = MemoryBlobStore(page_size=64)
        blob_ids = [store.put(bytes([i]) * 100) for i in range(16)]
        disk = SimulatedDisk(DiskParameters(page_size=64))
        pool = BufferPool(store, disk, capacity_bytes=100 * 8)
        before = _gauge("pool.used_bytes")

        def reader(k):
            rng = np.random.default_rng(k)
            for _ in range(ITERATIONS):
                pool.read_blob(blob_ids[int(rng.integers(len(blob_ids)))])

        def invalidator(k):
            rng = np.random.default_rng(100 + k)
            for _ in range(ITERATIONS):
                pool.invalidate(blob_ids[int(rng.integers(len(blob_ids)))])

        _hammer(lambda k: (reader(k) if k % 2 else invalidator(k)))
        assert _gauge("pool.used_bytes") - before == pool.used_bytes
        assert pool.used_bytes == sum(
            len(entry) for entry in pool._entries.values()
        )


class TestDecodedCacheGauge:
    def test_concurrent_put_get_keeps_used_bytes_exact(self):
        cache = DecodedTileCache(capacity_bytes=8 * 1024)
        arrays = {
            i: np.full((16, 16), i, np.uint8) for i in range(32)
        }  # 256 B decoded each; 32 fit in 8 KiB only partially
        before = _gauge("cache.decoded.used_bytes")

        def worker(k):
            rng = np.random.default_rng(k)
            for _ in range(ITERATIONS):
                i = int(rng.integers(len(arrays)))
                if rng.integers(3) == 0:
                    cache.invalidate(i)
                else:
                    got = cache.get(i)
                    if got is None:
                        got = cache.put(i, arrays[i])
                    assert got[0, 0] == i
                    assert not got.flags.writeable

        _hammer(worker)
        assert _gauge("cache.decoded.used_bytes") - before == cache.used_bytes
        assert cache.used_bytes == sum(
            entry.nbytes for entry in cache._entries.values()
        )
        assert cache.used_bytes <= cache.capacity_bytes
        cache.clear()
        assert _gauge("cache.decoded.used_bytes") - before == 0
        assert cache.used_bytes == 0
