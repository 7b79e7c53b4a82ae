"""The registry is the sum of the records.

Every read-side counter the registry keeps is also a field of each
query's :class:`~repro.query.timing.QueryTiming`.  Over a mixed sequence
— cold and warm reads, a predicated read, pushed-down aggregates and a
GROUP BY — each counter's delta must equal the sum of its field over
the queries' records: on a page-file store with a buffer pool and a
decoded cache, and on a 2-shard object.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.index.zonemap import CellPredicate
from repro.shard import ShardedDatabase
from repro.storage.catalog import create_database
from repro.tiling.aligned import RegularTiling

DOMAIN = MInterval.parse("[0:255,0:255]")
BOX = MInterval.parse("[40:150,17:200]")
# both caches hold a fraction of the cube's 64 tiles: evictions, and
# warm reads that hit either level
CACHES = {"buffer_bytes": 32 * 1024, "decoded_cache_bytes": 64 * 1024}

#: registry counter -> the record field it sums
FIELDS = {
    "pool.hits": "pool_hits",
    "pool.misses": "pool_misses",
    "pool.evictions": "pool_evictions",
    "cache.decoded.hits": "decoded_hits",
    "cache.decoded.misses": "decoded_misses",
    "pipeline.tiles_decoded": "tiles_decoded",
    "codec.decodes": "tiles_decoded",
    "tilestore.tiles_loaded": "tiles_read",
    "tilestore.cells_fetched": "cells_fetched",
    "index.zone.tiles_pruned": "tiles_pruned",
    "index.zone.synopsis_answered": "tiles_synopsis_answered",
}


def _data() -> np.ndarray:
    # rises along both axes, so a threshold prunes the low tiles
    # outright; the noise keeps compressed tiles near 1 KiB
    noise = np.random.default_rng(5).integers(0, 64, DOMAIN.shape)
    return (np.indices(DOMAIN.shape).sum(axis=0) * 2 + noise).astype(np.int32)


def _store(tmp_path):
    db = create_database(tmp_path / "db", compression=True, **CACHES)
    return db, db.create_object("c", mdd_type("Sum", "long", str(DOMAIN)), "o")


def _sharded(_tmp_path):
    sdb = ShardedDatabase(2, compression=True, **CACHES)
    return sdb, sdb.create_object("c", mdd_type("Sum", "long", str(DOMAIN)), "o")


def _queries(obj):
    """The mixed sequence: each query's record."""
    groups = [[(0, 99), (100, 255)], [(0, 127), (128, 255)]]
    yield obj.read(DOMAIN)[1]  # cold: pool misses and evictions
    yield obj.read(BOX)[1]  # warm: decoded-cache hits
    yield obj.read(BOX)[1]
    yield obj.read(DOMAIN, predicate=CellPredicate(">", 900))[1]
    yield obj.aggregate_push(DOMAIN, "add_cells")[1]  # synopses answer
    yield obj.aggregate_push(BOX, "count_cells", predicate=CellPredicate(">", 300))[1]
    yield obj.aggregate_push(DOMAIN, "max_cells", groups=groups)[1]


@pytest.mark.parametrize("build", [_store, _sharded], ids=["store", "2-shard"])
def test_each_counter_delta_is_the_sum_of_its_record_field(tmp_path, build):
    root, obj = build(tmp_path)
    obj.load_array(_data(), RegularTiling(4096))
    root.reset_clock()  # cold caches: the load admits what it writes
    before = {name: obs.registry.value(name) for name in FIELDS}
    records = list(_queries(obj))
    after = {name: obs.registry.value(name) for name in FIELDS}
    root.close()
    totals = {name: sum(getattr(t, field) for t in records) for name, field in FIELDS.items()}
    assert {name: after[name] - before[name] for name in FIELDS} == totals
    # the sequence exercises every counter
    assert all(totals.values()), totals
