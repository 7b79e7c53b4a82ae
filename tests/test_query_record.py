"""One record per query: ``QueryTiming`` carries the executor's stage
walls and decode count, and the plan, the profile and the served
counters are renderings of it."""

import json
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.client import Client
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.zonemap import CellPredicate
from repro.query.engine import QueryEngine
from repro.serve import TileServer
from repro.shard import ShardedDatabase
from repro.storage.catalog import create_database
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from repro.tiling.base import grid_partition

DOMAIN = MInterval.parse("[0:63,0:63]")
CUBE = mdd_type("RecordCube", "long", str(DOMAIN))


@pytest.fixture(autouse=True)
def _obs_clean():
    was_registry = obs.registry.enabled
    obs.enable()
    obs.reset()
    yield
    obs.reset()
    obs.registry.enabled = was_registry


# ----------------------------------------------------------------------
# tiles_decoded / decode_ms against the pipeline's own counter
# ----------------------------------------------------------------------

def _decoded_counter() -> int:
    return int(obs.counter("pipeline.tiles_decoded").value)


def _run(obj, entry: str) -> list:
    """The query's record(s): one per streamed block for read_blocks."""
    region = MInterval.parse("[3:60,5:58]")
    predicate = CellPredicate(">", 3)
    if entry == "read":
        return [obj.read(region)[1]]
    if entry == "read_blocks":
        return [timing for _, _, timing in obj.read_blocks(region)]
    if entry == "read_stored":
        return [obj.read_stored(region)[1]]
    groups = [[(3, 30), (31, 60)], [(5, 58)]] if entry == "group_by" else None
    return [obj.aggregate_push(region, "add_cells", predicate=predicate, groups=groups)[1]]


CASES = [
    (entry, shards)
    for shards in (0, 2)
    for entry in ("read", "read_blocks", "aggregate_push", "group_by", "read_stored")
    # read_blocks / read_stored are single-store entry points
    if not shards or entry in ("read", "aggregate_push", "group_by")
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cached", [False, True], ids=["nocache", "cache"])
@pytest.mark.parametrize("entry,shards", CASES)
def test_tiles_decoded_is_the_pipeline_counter(entry, shards, cached, workers):
    kwargs = dict(
        compression=True,
        io_workers=workers,
        decoded_cache_bytes=(1 << 20) if cached else 0,
    )
    root = ShardedDatabase(shards, **kwargs) if shards else Database(**kwargs)
    obj = root.create_object("c", CUBE, "o")
    data = (np.indices((64, 64)).sum(axis=0) % 17).astype(np.int32)
    obj.load_array(data, RegularTiling(1024))
    root.reset_clock()  # the load wrote its tiles through the cache
    decoded = []
    for _ in range(2):  # cold, then a repeat
        before = _decoded_counter()
        timings = _run(obj, entry)
        assert sum(t.tiles_decoded for t in timings) == _decoded_counter() - before
        for timing in timings:
            assert (timing.decode_ms > 0) == (timing.tiles_decoded > 0)
            assert timing.tiles_decoded <= timing.tiles_read
        decoded.append(sum(t.tiles_decoded for t in timings))
    if entry == "read_stored":
        assert decoded == [0, 0]  # payloads are never decoded
    else:
        # a repeat read hits the cache; pushdown never admits its tiles
        assert decoded[0] > 0
        repeat_hits = cached and entry in ("read", "read_blocks")
        assert decoded[1] == (0 if repeat_hits else decoded[0])
    root.close()


def test_stage_walls_cover_every_record():
    """Every executor read fills its select / fetch / sink walls."""
    database = Database()
    obj = database.create_object("c", CUBE, "o")
    obj.load_array(np.ones((64, 64), dtype=np.int32), RegularTiling(1024))
    for timing in (
        obj.read(DOMAIN)[1],
        obj.read_stored(DOMAIN)[1],
        obj.aggregate_push(DOMAIN, "max_cells", predicate=CellPredicate(">", 0))[1],
    ):
        assert timing.select_ms > 0 and timing.fetch_ms > 0 and timing.sink_ms > 0
        summed = timing.scaled(1.0).add(timing)
        assert summed.fetch_ms == 2 * timing.fetch_ms
        assert summed.tiles_decoded == 2 * timing.tiles_decoded
        assert {"select_ms", "fetch_ms", "sink_ms", "decode_ms", "tiles_decoded"} <= set(
            timing.as_dict()
        )


# ----------------------------------------------------------------------
# served counters: X-Repro-Tiles-Decoded is the record's decode count
# ----------------------------------------------------------------------

def _served_decodes(warm: bool) -> tuple[int, int, int]:
    """(header, body timing, client stats) decode counts of a predicated
    count_cells over HTTP, its four tiles warm in the decoded cache or
    not."""
    database = Database(compression=True, decoded_cache_bytes=1 << 20)
    obj = database.create_object("imgs", mdd_type("Img", "ulong", str(DOMAIN)), "a")
    rng = np.random.default_rng(42)
    obj.load_array(rng.integers(0, 60, size=(64, 64)).astype("<u4"), RegularTiling(4096))
    database.reset_clock()
    if warm:
        obj.read(DOMAIN)
    statement = "select count_cells(a) from imgs as a where a > 30"
    with TileServer(database, port=0) as server:
        request = urllib.request.Request(
            f"{server.url}/v1/query",
            data=json.dumps({"query": statement}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            header = int(response.headers["X-Repro-Tiles-Decoded"])
            body = json.loads(response.read())
        with Client(server.url) as client:
            client.query(statement)
            stats = client.stats.tiles_decoded
    entry = body["results"][0]
    assert entry["plan"]["tiles_decoded"] == entry["timing"]["tiles_decoded"]
    return header, entry["timing"]["tiles_decoded"], stats


def test_served_decodes_count_decodes_not_tiles_read():
    # warm: both requests hit the decoded cache, nothing is decoded
    assert _served_decodes(warm=True) == (0, 0, 0)
    # cold: pushdown decodes all four and never admits them to the cache
    assert _served_decodes(warm=False) == (4, 4, 4)


# ----------------------------------------------------------------------
# plans: literal renderings of pushdown, predicated, GROUP BY and fallback
# statements (no decoded cache, so tiles decoded == tiles read)
# ----------------------------------------------------------------------

def _built(data: np.ndarray, base: str):
    domain = MInterval.from_shape(data.shape)
    database = Database()
    obj = database.create_object("c", mdd_type("T", base, str(domain)), "o")
    obj.write_tiles(
        [Tile(box, data[box.to_slices(domain.lowest)]) for box in grid_partition(domain, (4, 4))]
    )
    return QueryEngine(database), obj


def _plans() -> dict:
    ints = (np.arange(144, dtype=np.int32) % 31).reshape(12, 12)
    engine, obj = _built(ints, "long")
    ramp_engine, ramp = _built(np.arange(144, dtype=np.int32).reshape(12, 12), "long")
    float_engine, floats = _built(np.linspace(0.0, 1.0, 144).reshape(12, 12), "double")
    return {
        "pushdown": engine.aggregate_query(obj, obj.current_domain, "add_cells"),
        "predicated": ramp_engine.aggregate_query(
            ramp, MInterval.parse("[1:10,0:11]"), "add_cells",
            predicate=CellPredicate(">", 100),
        ),
        "group_by": engine.group_by_query(
            obj, obj.current_domain, "max_cells", {0: [(0, 3), (4, 9)]},
            predicate=CellPredicate("<", 25),
        ),
        "fallback": float_engine.aggregate_query(floats, floats.current_domain, "add_cells"),
    }


PARTIALS = (
    "per-tile partials as tiles are fetched (decode, clip, mask, reduce; "
    "box never materialized)"
)

EXPECTED_TEXT = {
    "pushdown": (
        "QUERY PLAN (aggregate add_cells, pushdown)\n"
        "  scan               o[0:11,0:11]\n"
        f"  partial-aggregate  {PARTIALS} — 0 tiles decoded, 9 synopsis-answered "
        "(zero decode), peak 0 decoded bytes live\n"
        "  combine            partials merged in tile-id order (deterministic)\n"
        "  project            scalar add_cells"
    ),
    "predicated": (
        "QUERY PLAN (aggregate add_cells, pushdown)\n"
        "  scan               o[1:10,0:11]\n"
        "  prune              zone maps vs `cell > 100` — 6 tiles pruned\n"
        f"  partial-aggregate  {PARTIALS} — 3 tiles decoded, 0 synopsis-answered "
        "(zero decode), peak 64 decoded bytes live\n"
        "  combine            partials merged in tile-id order (deterministic)\n"
        "  project            scalar add_cells"
    ),
    "group_by": (
        "QUERY PLAN (group-by max_cells, pushdown)\n"
        "  scan               o[0:11,0:11] grouped by dim0(0:3, 4:9) (2 groups)\n"
        "  prune              zone maps vs `cell < 25` — 0 tiles pruned\n"
        f"  partial-aggregate  {PARTIALS} — 9 tiles decoded, 0 synopsis-answered "
        "(zero decode), peak 64 decoded bytes live\n"
        "  combine            partials routed to 2 group cells, merged per cell "
        "in tile-id order\n"
        "  project            float64 cube of 2 group aggregates"
    ),
    "fallback": (
        "QUERY PLAN (aggregate add_cells, pushdown -> materialize (exactness fallback))\n"
        "  scan         o[0:11,0:11]\n"
        "  materialize  compose the full box, reduce on the coordinator — 9 tiles decoded\n"
        "  project      scalar add_cells"
    ),
}

EXPECTED_COUNTERS = {
    "pushdown": dict(pushed=True, tiles_pruned=0, tiles_synopsis_answered=9,
                     tiles_decoded=0, tiles_partial_agg=0, peak_partial_bytes=0),
    "predicated": dict(pushed=True, tiles_pruned=6, tiles_synopsis_answered=0,
                       tiles_decoded=3, tiles_partial_agg=3, peak_partial_bytes=64),
    "group_by": dict(pushed=True, tiles_pruned=0, tiles_synopsis_answered=0,
                     tiles_decoded=9, tiles_partial_agg=9, peak_partial_bytes=64),
    "fallback": dict(pushed=False, tiles_pruned=0, tiles_synopsis_answered=0,
                     tiles_decoded=9, tiles_partial_agg=0, peak_partial_bytes=0),
}

EXPECTED_HEAD = {
    "pushdown": {"kind": "aggregate", "op": "add_cells", "region": "[0:11,0:11]"},
    "predicated": {
        "kind": "aggregate", "op": "add_cells", "region": "[1:10,0:11]",
        "predicate": "cell > 100",
    },
    "group_by": {
        "kind": "group-by", "op": "max_cells", "region": "[0:11,0:11]",
        "predicate": "cell < 25", "group_by": {"0": [[0, 3], [4, 9]]}, "groups": 2,
    },
    "fallback": {"kind": "aggregate", "op": "add_cells", "region": "[0:11,0:11]"},
}


def test_plans_render_as_before():
    for name, result in _plans().items():
        plan = result.plan
        assert plan.format() == EXPECTED_TEXT[name], name
        header, *lines = EXPECTED_TEXT[name].splitlines()
        width = max(len(line.split()[0]) for line in lines)
        stages = [
            {"name": line[2:2 + width].rstrip(), "detail": line[4 + width:]}
            for line in lines
        ]
        assert plan.as_dict() == {
            **EXPECTED_HEAD[name],
            "object": "o",
            "stages": stages,
            **EXPECTED_COUNTERS[name],
        }, name
        assert list(plan.as_dict())[:5] == ["kind", "op", "object", "region", "stages"]


# ----------------------------------------------------------------------
# the registry's fetch counters are the sum of the records
# ----------------------------------------------------------------------

FOLDED = {  # registry counter -> the record field it sums
    "pool.hits": "pool_hits",
    "pool.misses": "pool_misses",
    "pool.evictions": "pool_evictions",
    "cache.decoded.hits": "decoded_hits",
    "cache.decoded.misses": "decoded_misses",
    "pipeline.tiles_decoded": "tiles_decoded",
}
FLOATS = mdd_type("FoldedCube", "double", str(DOMAIN))
UPDATE_BOX = MInterval.parse("[0:20,0:20]")


def _counters() -> dict:
    return {name: obs.counter(name).value for name in FOLDED}


def _folded_db(tmp_path, store, **kwargs):
    kwargs["compression"] = True
    database = (
        create_database(tmp_path / "db", **kwargs) if store == "file" else Database(**kwargs)
    )
    obj = database.create_object("c", FLOATS, "o")
    obj.load_array((np.indices((64, 64)).sum(axis=0) % 17).astype(np.float64), RegularTiling(1024))
    database.reset_clock()  # the load wrote its tiles through the cache
    return database, obj


def _query_records(obj) -> list:
    """The records of a query-only sequence over every read entry point;
    the repeated small read hits the caches the big ones evict from."""
    region, small = MInterval.parse("[3:60,5:58]"), MInterval.parse("[0:15,0:15]")
    above = CellPredicate(">", 8)
    pushed = obj.aggregate_push(region, "max_cells", predicate=above)
    fallen = obj.aggregate_push(region, "add_cells")  # float sums materialize
    grouped = obj.aggregate_push(
        region, "count_cells", predicate=above, groups=[[(3, 30), (31, 60)], [(5, 58)]]
    )
    assert pushed[2] and not fallen[2] and grouped[2]
    return [
        obj.read(small)[1],
        obj.read(small)[1],
        obj.read(region)[1],
        obj.read(region, predicate=above)[1],
        pushed[1],
        fallen[1],
        grouped[1],
        *(timing for _, _, timing in obj.read_blocks(region)),
        obj.read_stored(region)[1],
    ]


@pytest.mark.parametrize("store", ["memory", "file"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("decoded", [0, 8192], ids=["nodecoded", "decoded"])
@pytest.mark.parametrize("pool", [0, 4096], ids=["nopool", "pool"])
def test_registry_fetch_counters_are_the_records_summed(tmp_path, store, workers, decoded, pool):
    database, obj = _folded_db(
        tmp_path, store, io_workers=workers, buffer_bytes=pool, decoded_cache_bytes=decoded
    )
    records = []
    before = _counters()
    for _ in range(2):  # cold, then warm
        records += _query_records(obj)
    after = _counters()
    for name, field in FOLDED.items():
        assert after[name] - before[name] == sum(getattr(t, field) for t in records), name
    lookups = sum(t.tiles_read for t in records)
    pool_lookups = sum(t.pool_hits + t.pool_misses for t in records)
    decoded_lookups = sum(t.decoded_hits + t.decoded_misses for t in records)
    assert 0 < pool_lookups <= lookups if pool else pool_lookups == 0
    assert 0 < decoded_lookups < lookups if decoded else decoded_lookups == 0
    if pool:
        assert sum(t.pool_hits for t in records) > 0
        assert sum(t.pool_evictions for t in records) > 0
    database.close()


@pytest.mark.parametrize("pool", [0, 1 << 20], ids=["nopool", "pool"])
def test_update_fetch_counts_in_the_registry(tmp_path, pool):
    database, obj = _folded_db(
        tmp_path, "memory", buffer_bytes=pool, decoded_cache_bytes=1 << 20
    )
    tiles = len(obj.index.search(UPDATE_BOX).entries)
    before = _counters()
    obj.update(UPDATE_BOX, np.full(UPDATE_BOX.shape, 5.0))
    delta = {name: value - before[name] for name, value in _counters().items()}
    assert delta["cache.decoded.misses"] == delta["pipeline.tiles_decoded"] == tiles
    assert delta["pool.misses"] == (tiles if pool else 0)
    assert delta["pool.hits"] == delta["cache.decoded.hits"] == 0
    database.close()
