"""A query's record counts its own cache lookups, not a concurrent query's.

No virtual scheduler here: two events pin the one interleaving that
matters.  Reader A's first cache lookup is held until reader B has run a
whole read of the same warm object; a record built by diffing the
shared pool or cache tallies around A's fetch would then also count B's
lookups (A would report 32 lookups for its 16 tiles).  Each record must
account exactly its own tiles.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling

CUBE = mdd_type("AttributionCube", "long", "[0:31,0:31]")
OUTCOMES = {  # registry counter -> the record field it sums
    "pool.hits": "pool_hits",
    "pool.misses": "pool_misses",
    "pool.evictions": "pool_evictions",
    "cache.decoded.hits": "decoded_hits",
    "cache.decoded.misses": "decoded_misses",
    "pipeline.tiles_decoded": "tiles_decoded",
}
DOMAIN = MInterval.parse("[0:31,0:31]")
TILES = 16
WAIT_S = 60


def _warm(**kwargs):
    database = Database(compression=True, **kwargs)
    obj = database.create_object("c", CUBE, "o")
    obj.load_array(
        (np.indices((32, 32)).sum(axis=0) % 13).astype(np.int32),
        RegularTiling(256),
    )
    database.reset_clock()
    obj.read(DOMAIN)  # every tile now cached
    assert obj.read(DOMAIN)[1].tiles_read == TILES
    return database, obj


def _race(obj, owner, method: str, monkeypatch):
    """Run reader A with its first ``owner.<method>`` call held until
    reader B (this thread) has finished a whole read; both records."""
    real = getattr(owner, method)
    a_waiting, b_done = threading.Event(), threading.Event()
    reader_a = None

    def held(*args, **kwargs):
        if threading.current_thread() is reader_a and not a_waiting.is_set():
            a_waiting.set()
            assert b_done.wait(WAIT_S)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, method, held)
    records: dict = {}

    def read_a():
        try:
            records["a"] = obj.read(DOMAIN)[1]
        finally:
            a_waiting.set()  # never leave B waiting on a failed A

    reader_a = threading.Thread(target=read_a)
    reader_a.start()
    try:
        assert a_waiting.wait(WAIT_S)
        records["b"] = obj.read(DOMAIN)[1]
    finally:
        b_done.set()
        reader_a.join(WAIT_S)
    assert not reader_a.is_alive() and "a" in records
    return records["a"], records["b"]


def test_pool_outcomes_are_the_querys_own(monkeypatch):
    database, obj = _warm(buffer_bytes=1 << 20)
    for timing in _race(obj, database.pool, "read_blobs", monkeypatch):
        assert timing.tiles_read == TILES
        assert timing.pool_hits + timing.pool_misses == timing.tiles_read
        assert timing.pool_hits == TILES and timing.pool_evictions == 0
    database.close()


@pytest.mark.parametrize("buffer_bytes", [0, 1 << 20], ids=["nopool", "pool"])
def test_decoded_outcomes_are_the_querys_own(buffer_bytes, monkeypatch):
    database, obj = _warm(buffer_bytes=buffer_bytes, decoded_cache_bytes=1 << 20)
    for timing in _race(obj, database.decoded_cache, "get_many", monkeypatch):
        assert timing.tiles_read == TILES
        assert timing.decoded_hits + timing.decoded_misses == timing.tiles_read
        assert timing.decoded_hits == TILES
        assert timing.pool_hits + timing.pool_misses == 0  # never reached
    database.close()


def test_concurrent_records_account_their_own_tiles_and_sum_to_the_registry():
    # a pool and a decoded cache each holding about half the object, so
    # every read mixes hits, misses and evictions with its neighbours'
    database, obj = _warm(io_workers=2, buffer_bytes=560, decoded_cache_bytes=2048)
    boxes = [DOMAIN, MInterval.parse("[0:15,0:31]"), MInterval.parse("[8:31,4:27]")]
    records: list = []
    errors: list = []

    def reader(k):
        try:
            for i in range(12):
                records.append(obj.read(boxes[(k + i) % len(boxes)])[1])
        except Exception as exc:  # noqa: BLE001 - reported after join
            errors.append(exc)

    was_enabled = obs.registry.enabled
    obs.enable()
    before = {name: obs.counter(name).value for name in OUTCOMES}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(WAIT_S)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        obs.registry.enabled = was_enabled
    assert not errors, errors
    assert len(records) == 48
    for timing in records:
        assert timing.pool_hits + timing.pool_misses + timing.decoded_hits == timing.tiles_read
        assert timing.decoded_hits + timing.decoded_misses == timing.tiles_read
    assert sum(t.pool_evictions for t in records) > 0
    for name, field in OUTCOMES.items():
        delta = obs.counter(name).value - before[name]
        assert delta == sum(getattr(t, field) for t in records), name
    database.close()
