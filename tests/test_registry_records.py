"""The registry is the sum of the records.

Every read-side counter the registry keeps is a fold of the fields of
each query's :class:`~repro.query.timing.QueryTiming`.  Over a mixed
sequence — cold and warm reads, a predicated read, pushed-down
aggregates and a GROUP BY — each counter's delta must equal the sum of
its fields over the queries' records, and each read-side histogram must
have observed what the records count: on a page-file store with a
buffer pool and a decoded cache, and on a 2-shard object.  A
``read_blocks`` stream abandoned midway leaves the sum of the records it
yielded.
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

#: registry counter -> the record fields it sums, for every record
FETCH_FIELDS = {
    "pool.hits": ("pool_hits",),
    "pool.misses": ("pool_misses",),
    "pool.evictions": ("pool_evictions",),
    "cache.decoded.hits": ("decoded_hits",),
    "cache.decoded.misses": ("decoded_misses",),
    "pipeline.tiles_decoded": ("tiles_decoded",),
    "codec.decodes": ("tiles_decoded",),
    "index.zone.tiles_pruned": ("tiles_pruned",),
    "index.zone.synopsis_answered": ("tiles_synopsis_answered",),
    "index.zone.prune_checks": ("prune_checks",),
    "index.rplustree.searches": ("index_searches",),
    "index.rplustree.nodes_visited": ("index_nodes",),
    "index.rplustree.entries_found": ("index_entries_found",),
    "disk.blob_reads": ("disk_blobs",),
    "disk.pages_read": ("disk_pages", "index_nodes"),
    "disk.bytes_read": ("disk_bytes",),
    "disk.random_accesses": ("random_reads", "index_nodes"),
    "disk.short_skips": ("short_skips",),
    "disk.sequential_reads": ("sequential_reads",),
    "disk.index_node_reads": ("index_nodes",),
    "pipeline.partial_aggregates": ("partial_aggregates",),
}
#: ... and for the record of a finished query
FIELDS = {
    **FETCH_FIELDS,
    "tilestore.tiles_loaded": ("tiles_read",),
    "tilestore.cells_fetched": ("cells_fetched",),
}
HISTOGRAMS = ("codec.decode_ms", "tilestore.read_ms")


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
    """The mixed sequence: each query's record, and whether it returned
    its cells (a ``read``)."""
    groups = [[(0, 99), (100, 255)], [(0, 127), (128, 255)]]
    yield obj.read(DOMAIN)[1], True  # cold: pool misses and evictions
    yield obj.read(BOX)[1], True  # warm: decoded-cache hits
    yield obj.read(BOX)[1], True
    yield obj.read(DOMAIN, predicate=CellPredicate(">", 900))[1], True
    yield obj.aggregate_push(DOMAIN, "add_cells")[1], False  # synopses answer
    yield obj.aggregate_push(BOX, "count_cells", predicate=CellPredicate(">", 300))[1], False
    yield obj.aggregate_push(DOMAIN, "max_cells", groups=groups)[1], False


def _state() -> dict:
    snapshot = obs.snapshot()
    state = dict(snapshot["counters"])
    state.update({name: snapshot["histograms"][name]["count"] for name in HISTOGRAMS})
    return state


def _sums(fields: dict, records) -> dict:
    return {
        name: sum(getattr(record, field) for record in records for field in summed)
        for name, summed in fields.items()
    }


def _deltas(names, before: dict, after: dict) -> dict:
    return {name: after.get(name, 0) - before.get(name, 0) for name in names}


@pytest.mark.parametrize("build", [_store, _sharded], ids=["store", "2-shard"])
def test_each_counter_delta_is_the_sum_of_its_record_field(tmp_path, build):
    root, obj = build(tmp_path)
    obj.load_array(_data(), RegularTiling(4096))
    root.reset_clock()  # cold caches: the load admits what it writes
    before = _state()
    queries = list(_queries(obj))
    after = _state()
    root.close()
    records = [record for record, _returned in queries]
    totals = _sums(FIELDS, records)
    totals["tilestore.reads"] = totals["tilestore.read_ms"] = len(records)
    totals["tilestore.cells_returned"] = sum(r.cells_result for r, returned in queries if returned)
    totals["codec.decode_ms"] = totals["codec.decodes"]
    assert _deltas(totals, before, after) == totals
    assert after["disk.model_ms"] - before["disk.model_ms"] == pytest.approx(
        sum(record.t_o + record.t_ix_pages for record in records)
    )
    # the sequence exercises every counter (on two shards no page run is
    # a short skip), and the regimes of the page runs sum to the reads
    missed = {name for name, total in totals.items() if not total}
    assert missed == (set() if build is _store else {"disk.short_skips"}), totals
    for record in records:
        assert record.random_reads + record.short_skips + record.sequential_reads == (
            record.disk_blobs
        )


@pytest.mark.parametrize("build", [_store, _sharded], ids=["store", "2-shard"])
def test_an_abandoned_stream_leaves_the_sum_of_what_it_yielded(tmp_path, build):
    root, obj = build(tmp_path)
    obj.load_array(_data(), RegularTiling(4096))
    root.reset_clock()
    before = _state()
    stream = obj.read_blocks(BOX)
    records = [next(stream)[2] for _ in range(2)]
    stream.close()
    after = _state()
    root.close()
    totals = _sums(FETCH_FIELDS, records)
    totals["codec.decode_ms"] = totals["codec.decodes"]
    # a stream is no finished query: no read, no tilestore.* counts
    for name in ("tilestore.reads", "tilestore.read_ms", "tilestore.tiles_loaded"):
        totals[name] = 0
    assert _deltas(totals, before, after) == totals
    assert totals["disk.blob_reads"] == 2 and totals["index.rplustree.searches"] > 0
