"""A read updates each metric once per fetch batch, not once per tile.

The registry is always on, so its cost must not grow with the tiles a
read touches.  Two cold reads of 4 and 16 tiles both fit in one
read-ahead chunk, so they must make the same number of metric calls:
on a page-file store behind a 1 MiB pool, with and without a decoded
cache, as a read and as the aggregation pushdown.  Nor may it grow with
the shards a scatter pins but does not touch: a query folds its
record's counts into the registry once (a call), so on four shards only
the per-part pins and latches add calls.
"""

import numpy as np
import pytest

from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.obs import metrics
from repro.shard import ShardedDatabase
from repro.storage.catalog import create_database, open_database, save_database
from repro.tiling.base import grid_partition

DOMAIN = MInterval.parse("[0:127,0:2047]")
TILE = (64, 128)  # 32 KiB of uint32 cells
MIB = 1 << 20
# One row high, so no tile is fully covered and none is answered from
# its synopsis: every tile met is fetched and decoded.
FOUR = MInterval.parse("[5:5,3:500]")
SIXTEEN = MInterval.parse("[5:5,3:2044]")

INSTRUMENTS = (
    (metrics.Counter, ("inc",)),
    (metrics.Gauge, ("set", "inc", "dec")),
    (metrics.Histogram, ("observe", "observe_many")),
    (metrics.MetricsRegistry, ("fold",)),
)


def _load(root):
    data = np.random.default_rng(3).integers(0, 2**20, DOMAIN.shape, dtype=np.uint32)
    obj = root.create_object("c", mdd_type("Calls", "ulong", str(DOMAIN)), "o")
    obj.write_tiles(
        [Tile(box, data[box.to_slices((0, 0))].copy()) for box in grid_partition(DOMAIN, TILE)]
    )
    return obj


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    directory = tmp_path_factory.mktemp("calls") / "db"
    db = create_database(directory, compression=True)
    _load(db)
    save_database(db, directory)
    db.close()
    db.store.close()
    return directory


@pytest.fixture
def calls(monkeypatch):
    """Every instrument method, counting its calls in ``calls[0]``."""
    counted = [0]
    for cls, names in INSTRUMENTS:
        for name in names:
            method = vars(cls)[name]

            def counting(self, *args, _method=method, **kwargs):
                counted[0] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counting)
    return counted


@pytest.mark.parametrize("decoded_cache_bytes", [0, 4 * MIB], ids=["pool", "pool+decoded"])
@pytest.mark.parametrize("kind", ["read", "aggregate_push"])
def test_a_cold_chunk_costs_the_same_calls_at_4_and_16_tiles(
    stored, calls, decoded_cache_bytes, kind
):
    db = open_database(stored, buffer_bytes=MIB, decoded_cache_bytes=decoded_cache_bytes)
    obj = db.collection("c")["o"]
    made = []
    try:
        for region, tiles in ((FOUR, 4), (SIXTEEN, 16)):
            db.reset_clock()
            before = calls[0]
            if kind == "read":
                _array, timing = obj.read(region)
            else:
                _value, timing, pushed = obj.aggregate_push(region, "add_cells")
                assert pushed
            made.append(calls[0] - before)
            assert timing.tiles_read == timing.tiles_decoded == timing.pool_misses == tiles
    finally:
        db.close()
        db.store.close()
    assert made[0] == made[1], made


@pytest.fixture(scope="module")
def sharded():
    sdb = ShardedDatabase(4, compression=True, buffer_bytes=MIB)
    yield sdb, _load(sdb)
    sdb.close()


@pytest.mark.parametrize(
    "kind, region, touched, pinned",
    [
        ("read", MInterval.parse("[5:5,3:3]"), 1, 54),
        ("aggregate_push", MInterval.parse("[5:5,3:3]"), 1, 54),
        ("read", SIXTEEN, 4, 81),
    ],
    ids=["read-1-shard", "push-1-shard", "read-4-shards"],
)
def test_a_scatter_makes_its_calls_once_per_query(sharded, calls, kind, region, touched, pinned):
    """Cold queries on four shards: each part's pin and latches, then one
    fold.  (When every part ran every stage and each stage updated its
    instruments itself, these made 144, 147 and 189 calls.)"""
    sdb, obj = sharded
    sdb.reset_clock()
    before = calls[0]
    if kind == "read":
        obj.read(region)
    else:
        obj.aggregate_push(region, "add_cells")
    assert obj.last_scatter.shards_hit == touched
    assert calls[0] - before == pinned
