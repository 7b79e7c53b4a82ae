"""Unit tests for the decoded-tile cache."""

import numpy as np
import pytest

from repro import obs
from repro.core.errors import StorageError
from repro.storage.decodedcache import DecodedTileCache
from tests.counted import counted


def tile(n_bytes, fill=0):
    return np.full(n_bytes, fill, dtype=np.uint8)


class TestLookup:
    def test_miss_then_hit(self):
        cache = DecodedTileCache(1000)
        assert cache.get(1) is None
        cached = cache.put(1, tile(100))
        assert cache.get(1) is cached

    def test_peek_does_not_count_or_promote(self):
        cache = DecodedTileCache(250)
        cache.put(1, tile(100))
        cache.put(2, tile(100))
        cache.peek(1)  # no LRU promotion
        cache.put(3, tile(100))  # evicts 1, not 2
        assert 1 not in cache and 2 in cache

    def test_hit_rate(self):
        cache = DecodedTileCache(1000)
        cached = cache.put(1, tile(10))
        assert cache.get_many([1, 1, 2]) == [cached, cached, None]


class TestBudget:
    def test_lru_eviction_order(self):
        cache = DecodedTileCache(250)
        cache.put(1, tile(100))
        cache.put(2, tile(100))
        cache.get(1)  # 1 becomes most recent
        with counted() as delta:
            cache.put(3, tile(100))  # evicts 2
        assert 2 not in cache and 1 in cache and 3 in cache
        assert cache.used_bytes <= 250
        assert delta["cache.decoded.evictions"] == 1

    def test_oversized_tile_not_admitted_but_returned(self):
        cache = DecodedTileCache(50)
        out = cache.put(1, tile(100))
        assert out.nbytes == 100 and not out.flags.writeable
        assert len(cache) == 0 and cache.used_bytes == 0

    def test_replacing_entry_reclaims_bytes(self):
        cache = DecodedTileCache(1000)
        cache.put(1, tile(400))
        cache.put(1, tile(200))
        assert cache.used_bytes == 200 and len(cache) == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(StorageError):
            DecodedTileCache(-1)


class TestReadOnly:
    def test_cached_arrays_are_read_only(self):
        cache = DecodedTileCache(1000)
        source = tile(10)
        cached = cache.put(1, source)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 1
        # the caller's own array stays writable
        source[0] = 7
        assert source[0] == 7

    def test_already_readonly_array_not_copied(self):
        frozen = tile(10)
        frozen.flags.writeable = False
        cache = DecodedTileCache(1000)
        assert cache.put(1, frozen) is frozen


class TestInvalidation:
    def test_invalidate_drops_entry_and_bytes(self):
        cache = DecodedTileCache(1000)
        cache.put(1, tile(100))
        cache.invalidate(1)
        assert 1 not in cache and cache.used_bytes == 0
        cache.invalidate(1)  # absent id is a no-op
        assert cache.used_bytes == 0

    def test_clear(self):
        cache = DecodedTileCache(1000)
        cache.put(1, tile(100))
        cache.put(2, tile(100))
        cache.clear()
        assert len(cache) == 0 and cache.used_bytes == 0


class TestObsGauge:
    def test_used_bytes_gauge_sums_over_caches(self):
        obs.reset()
        gauge = obs.gauge("cache.decoded.used_bytes")
        first = DecodedTileCache(1000)
        second = DecodedTileCache(1000)
        first.put(1, tile(300))
        second.put(1, tile(200))
        assert gauge.value == 500
        first.invalidate(1)
        assert gauge.value == 200
        second.clear()
        assert gauge.value == 0
