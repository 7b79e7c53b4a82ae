"""Unit tests for the LRU buffer pool."""

import pytest

from repro.core.errors import StorageError
from repro.storage.backends import MemoryBlobStore
from repro.storage.bufferpool import BufferPool
from repro.storage.disk import DiskParameters, SimulatedDisk
from tests.counted import counted


def make_pool(capacity, page_size=1024):
    store = MemoryBlobStore(page_size=page_size)
    disk = SimulatedDisk(DiskParameters(page_size=page_size))
    return store, disk, BufferPool(store, disk, capacity)


class TestHitsAndMisses:
    def test_first_read_misses_then_hits(self):
        store, disk, pool = make_pool(10_000)
        blob_id = store.put(b"x" * 100)
        with counted() as delta:
            payload1, read1 = pool.read_blob(blob_id)
            payload2, read2 = pool.read_blob(blob_id)
        assert payload1 == payload2 == b"x" * 100
        assert read1.cost > 0
        assert read2.cost == 0.0
        assert (read1.hit, read2.hit) == (False, True)
        assert delta["disk.blob_reads"] == 1

    def test_hit_rate(self):
        store, _disk, pool = make_pool(10_000)
        blob_id = store.put(b"y" * 10)
        reads = [pool.read_blob(blob_id)[1] for _ in range(3)]
        assert [read.hit for read in reads] == [False, True, True]


class TestEviction:
    def test_lru_eviction_order(self):
        store, disk, pool = make_pool(250)
        a = store.put(b"a" * 100)
        b = store.put(b"b" * 100)
        c = store.put(b"c" * 100)
        pool.read_blob(a)
        pool.read_blob(b)
        pool.read_blob(a)  # a becomes most recent
        pool.read_blob(c)  # evicts b
        assert pool.read_blob(b)[1].cost > 0.0   # miss
        assert pool.used_bytes <= 250

    def test_each_read_reports_its_own_outcome(self):
        store, disk, pool = make_pool(250)
        a, b, c = (store.put(bytes([n]) * 100) for n in range(3))
        outcomes = [pool.read_blob(blob_id)[1] for blob_id in (a, b, a, c, b)]
        assert [read.hit for read in outcomes] == [False, False, True, False, False]
        assert [read.evicted for read in outcomes] == [0, 0, 0, 1, 1]
        assert [read.cost > 0.0 for read in outcomes] == [True, True, False, True, True]

    def test_a_batch_walks_like_single_reads(self):
        # one pool pass and one disk charge give the payloads, outcomes,
        # charges and LRU order of the same lookups made one at a time;
        # b misses twice (c's admission evicts it) and, not read ahead,
        # comes from the store both times
        (store, disk, pool), (twin_store, twin_disk, twin) = make_pool(250), make_pool(250)
        for n in range(3):
            store.put(bytes([n]) * 100)
            twin_store.put(bytes([n]) * 100)
        a, b, c = store.blob_ids()
        order = (a, b, a, c, b)
        fetched = {blob_id: store.get(blob_id) for blob_id in (a, c)}
        batch = pool.read_blobs(store.records(order), lambda i: fetched[i] if i in fetched else store.get(i))
        assert batch == [twin.read_blob(blob_id) for blob_id in order]
        assert (disk.time_ms, disk._head) == (twin_disk.time_ms, twin_disk._head)
        assert list(pool._entries) == list(twin._entries)
        assert [read.hit for _payload, read in batch].count(True) == 1
        assert sum(read.evicted for _payload, read in batch) == 2

    def test_oversized_payload_not_cached(self):
        store, _disk, pool = make_pool(50)
        blob_id = store.put(b"z" * 100)
        pool.read_blob(blob_id)
        assert pool.used_bytes == 0
        assert pool.read_blob(blob_id)[1].cost > 0  # still a miss

    def test_invalidate(self):
        store, _disk, pool = make_pool(1000)
        blob_id = store.put(b"v" * 100)
        pool.read_blob(blob_id)
        pool.invalidate(blob_id)
        assert pool.used_bytes == 0
        assert pool.read_blob(blob_id)[1].cost > 0

    def test_clear(self):
        store, _disk, pool = make_pool(1000)
        for _ in range(3):
            pool.read_blob(store.put(b"k" * 10))
        pool.clear()
        assert pool.used_bytes == 0

    def test_negative_capacity_rejected(self):
        store = MemoryBlobStore()
        with pytest.raises(StorageError):
            BufferPool(store, SimulatedDisk(), -1)


class TestObsGauge:
    def test_used_bytes_gauge_sums_over_pools(self):
        from repro import obs

        obs.reset()
        gauge = obs.gauge("pool.used_bytes")
        store_a, _disk_a, pool_a = make_pool(1000)
        store_b, _disk_b, pool_b = make_pool(1000)
        id_a = store_a.put(b"a" * 300)
        id_b = store_b.put(b"b" * 200)
        pool_a.read_blob(id_a)
        pool_b.read_blob(id_b)
        assert gauge.value == 500
        pool_a.invalidate(id_a)
        assert gauge.value == 200
        pool_b.clear()
        assert gauge.value == 0

    def test_gauge_tracks_evictions(self):
        from repro import obs

        obs.reset()
        gauge = obs.gauge("pool.used_bytes")
        store, _disk, pool = make_pool(250)
        for fill in (b"a", b"b", b"c"):
            pool.read_blob(store.put(fill * 100))
        assert gauge.value == pool.used_bytes == 200
