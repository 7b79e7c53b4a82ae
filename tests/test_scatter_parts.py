"""A scatter pays for the parts it touches, and answers as it did.

A sharded query selects, classifies and accounts every pinned part in
one pass, and a part with no hits costs its index charge and nothing
more (DESIGN §16–17).  Seeded boxes touch 0 to 4 shards of a cube with
holes: on 1, 2 and 4 shards, and on 2 and 4 shards holding one tile
twice, as a migration's copy does before its delete.  Through ``read``,
a predicated read, ``read_blocks``, ``aggregate_push`` (plain,
predicated, and with a predicate that prunes every tile) and a GROUP BY:

* every answer equals the one store's, and so does every charge that
  does not depend on how the tiles lie on the disks; on 1 shard every
  ``CHARGE_FIELDS`` entry does;
* what the queries leave — values, every ``CHARGE_FIELDS`` entry, the
  ``ScatterStats``, every store's access-log events and the registry's
  counter deltas (latch acquisitions, a count of synchronisation, aside)
  — hashes, per deployment and entry point, to what the executor that
  selected, fetched and accounted one part at a time left (``DIGESTS``,
  recorded from it);
* a part with no tile to fetch starts no fetch.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.zonemap import CellPredicate
from repro.shard import ShardedDatabase
from repro.storage import tilestore
from repro.storage.tilestore import Database
from repro.tiling.base import grid_partition
from tests.counted import counted, counts

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from check_regression import CHARGE_FIELDS  # noqa: E402

DOMAIN = MInterval.parse("[0:47,0:47]")
TILE = (12, 12)
#: Tiles left out: a box inside one meets no tile.
HOLES = (MInterval.parse("[12:23,24:35]"), MInterval.parse("[36:47,0:11]"))
#: Stored twice on the sharded deployments marked "+twin".
TWIN = MInterval.parse("[24:35,12:23]")
#: Uncompressed: stored sizes, page placement and charges depend on no codec build.
OPTIONS = {"buffer_bytes": 16 * 1024, "decoded_cache_bytes": 16 * 1024}
THRESHOLD = CellPredicate(">", 120)
NONE_PASS = CellPredicate(">", 10**6)
#: Charges that count tiles, bytes and cells, not disk positions or index nodes.
LAYOUT_FREE = (
    "tiles_read", "bytes_read", "pages_read", "cells_result", "cells_fetched",
    "tiles_pruned", "tiles_synopsis_answered", "tiles_partial_agg",
)
DEPLOYMENTS = ("store", "1", "2", "4", "2+twin", "4+twin")


def _data() -> np.ndarray:
    # rises along both axes, so the threshold prunes the low tiles
    noise = np.random.default_rng(53).integers(0, 64, DOMAIN.shape)
    return (np.indices(DOMAIN.shape).sum(axis=0) * 2 + noise).astype(np.int32)


def _boxes() -> list[MInterval]:
    """A hole, one cell, the whole cube and seeded boxes of every size."""
    rng = np.random.default_rng(53)
    boxes = [MInterval.parse("[14:20,26:33]"), MInterval.parse("[30:30,17:17]"), DOMAIN]
    for _ in range(12):
        low = rng.integers(0, 48, 2)
        extent = rng.choice([1, 6, 13, 25, 48], 2)
        high = np.minimum(low + extent - 1, 47)
        boxes.append(MInterval(low.tolist(), high.tolist()))
    return boxes


def _groups(box: MInterval) -> list:
    """Two spans per axis, one where the box is one cell wide."""
    return [
        [(lo, hi)] if lo == hi else [(lo, (lo + hi) // 2), ((lo + hi) // 2 + 1, hi)]
        for lo, hi in zip(box.lowest, box.highest)
    ]


def _build(deployment: str):
    """The loaded object and the databases it lives on."""
    data = _data()
    kind = mdd_type("Scatter", "long", str(DOMAIN))
    if deployment == "store":
        root = Database(**OPTIONS)
        stores = [root]
    else:
        root = ShardedDatabase(int(deployment[0]), **OPTIONS)
        stores = root.shards
    obj = root.create_object("c", kind, "o")
    obj.write_tiles([
        Tile(box, data[box.to_slices((0, 0))].copy())
        for box in grid_partition(DOMAIN, TILE)
        if box not in HOLES
    ])
    if deployment.endswith("+twin"):
        other = obj._parts[(obj.shard_of(TWIN.lowest) + 1) % len(obj._parts)]
        other.write_tiles([Tile(TWIN, data[TWIN.to_slices((0, 0))].copy())])
    return root, stores, obj


ENTRIES = {
    "read": lambda obj, box: obj.read(box),
    "read_where": lambda obj, box: obj.read(box, predicate=THRESHOLD),
    "read_blocks": lambda obj, box: list(obj.read_blocks(box)),
    "push": lambda obj, box: obj.aggregate_push(box, "max_cells")[:2],
    "push_where": lambda obj, box: obj.aggregate_push(box, "add_cells", predicate=THRESHOLD)[:2],
    "push_pruned": lambda obj, box: obj.aggregate_push(
        box, "count_cells", predicate=NONE_PASS
    )[:2],
    "group_by": lambda obj, box: obj.aggregate_push(box, "add_cells", groups=_groups(box))[:2],
}


def _value(value) -> str:
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}" + hashlib.sha256(value.tobytes()).hexdigest()
    return f"{type(value).__name__}:{value!r}"


def _charges(timing) -> list:
    return [getattr(timing, name) for name in CHARGE_FIELDS]


def _run(deployment: str, entry: str) -> list[dict]:
    """Every box through one entry point on a fresh deployment, each
    query cold: what each query returned and left behind."""
    root, stores, obj = _build(deployment)
    left = []
    try:
        for box in _boxes():
            root.reset_clock()
            with counted() as delta:
                outcome = ENTRIES[entry](obj, box)
            if entry == "read_blocks":
                value = [[str(part), _value(data)] for part, data, _timing in outcome]
                charges = [_charges(timing) for _part, _data, timing in outcome]
                timings = [timing for _part, _data, timing in outcome]
            else:
                value, timing = outcome
                value, charges, timings = _value(value), _charges(timing), [timing]
            scatter = [list(part) for part in obj.last_scatter]
            left.append({
                "value": value,
                "charges": charges,
                "scatter": scatter,
                "log": [[event.as_dict() for event in db.access_log.events()] for db in stores],
                "counts": sorted(
                    (name, count) for name, count in counts(delta, "").items()
                    if count and not name.startswith("latch.")
                ),
                "timings": timings,
            })
    finally:
        root.close()
    return left


def _digest(left: list[dict]) -> str:
    """A hash of everything but the timings, each float to ten digits: an
    index charge is a builtin ``sum()``, whose last bit differs between
    Python versions (3.12 compensates)."""
    def rounded(value):
        if isinstance(value, float):
            return f"{value:.10g}"
        if isinstance(value, dict):
            return {key: rounded(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [rounded(item) for item in value]
        return value

    kept = [rounded({k: v for k, v in query.items() if k != "timings"}) for query in left]
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]


def _layout_free(timings) -> list:
    return [sum(getattr(timing, name) for timing in timings) for name in LAYOUT_FREE]


#: What the executor that ran its stages one part at a time left, per
#: ``(deployment, entry point)``: ``_digest(_run(deployment, entry))``.
#: The ``read_blocks`` ones were recorded again once a finished stream
#: became a finished query: its access-log reads, ``tilestore.reads`` /
#: ``tiles_loaded`` / ``cells_fetched`` counts and ``ScatterStats`` are
#: a ``read``'s of the same box; values and charges are unchanged.
DIGESTS = {
    ('store', 'read'): 'd86472c7853c3ab6',
    ('store', 'read_where'): 'b5f93b20c04bea96',
    ('store', 'read_blocks'): 'e3a775d874609cf5',
    ('store', 'push'): 'bc92f3ed710232e1',
    ('store', 'push_where'): '777d784589a6c7ba',
    ('store', 'push_pruned'): 'c6783cc74500c73e',
    ('store', 'group_by'): 'e53a171d4f7a19c4',
    ('1', 'read'): 'd86472c7853c3ab6',
    ('1', 'read_where'): 'b5f93b20c04bea96',
    ('1', 'read_blocks'): 'e3a775d874609cf5',
    ('1', 'push'): 'bc92f3ed710232e1',
    ('1', 'push_where'): '777d784589a6c7ba',
    ('1', 'push_pruned'): 'c6783cc74500c73e',
    ('1', 'group_by'): 'e53a171d4f7a19c4',
    ('2', 'read'): '7fde9493a141fd74',
    ('2', 'read_where'): 'f27d2d37845e589b',
    ('2', 'read_blocks'): 'c44de9fe035c754a',
    ('2', 'push'): 'e0f21b4beedda8ca',
    ('2', 'push_where'): 'b8286009742a782a',
    ('2', 'push_pruned'): '2149c30a0f1d61f3',
    ('2', 'group_by'): '8f321c1c5176d712',
    ('4', 'read'): '630c8ffb754ac6b3',
    ('4', 'read_where'): '494e01301bc0912a',
    ('4', 'read_blocks'): '433cacf59e1e3b54',
    ('4', 'push'): 'd40a4887a3b9034c',
    ('4', 'push_where'): 'd2b9a7f646cfb5bf',
    ('4', 'push_pruned'): 'f90fb6429be5aabf',
    ('4', 'group_by'): '262df34f429a9b92',
    ('2+twin', 'read'): '1a2ebbff7b2a8539',
    ('2+twin', 'read_where'): 'dac543ffed3f12f4',
    ('2+twin', 'read_blocks'): '8296011874c2f48f',
    ('2+twin', 'push'): '0384e36c1a253638',
    ('2+twin', 'push_where'): 'd5d21f840accd1b9',
    ('2+twin', 'push_pruned'): '56cc621c8af7044d',
    ('2+twin', 'group_by'): 'f185d28b92685e91',
    ('4+twin', 'read'): '9dded1418af87f39',
    ('4+twin', 'read_where'): '48ac64554d219783',
    ('4+twin', 'read_blocks'): '88037a6ac97ee173',
    ('4+twin', 'push'): '389571c4772d986f',
    ('4+twin', 'push_where'): '3cc378d6a90764c2',
    ('4+twin', 'push_pruned'): 'ff53353efd648f85',
    ('4+twin', 'group_by'): 'a5f4f6c96c07b4bc',
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("deployment", [d for d in DEPLOYMENTS if d != "store"])
def test_every_scatter_answers_as_the_store(deployment, entry):
    want, got = _run("store", entry), _run(deployment, entry)
    for box, mine, store in zip(_boxes(), got, want):
        if entry == "read_blocks":  # part by part, each in its own page order
            mine["value"].sort()
            store["value"].sort()
        assert mine["value"] == store["value"], box
        assert _layout_free(mine["timings"]) == _layout_free(store["timings"]), box
        if deployment == "1":
            assert mine["charges"] == store["charges"], box


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_what_each_query_leaves_is_unchanged(deployment, entry):
    assert _digest(_run(deployment, entry)) == DIGESTS[deployment, entry]


def test_the_boxes_touch_zero_to_four_shards():
    root, _stores, obj = _build("4")
    touched = set()
    for box in _boxes():
        obj.read(box)
        touched.add(obj.last_scatter.shards_hit)
    root.close()
    assert touched == {0, 1, 2, 3, 4}


def test_a_part_without_tiles_to_fetch_starts_no_fetch(monkeypatch):
    """Only the parts with tiles to fetch reach the pipeline; every part
    still takes its index charge, its access-log ``read`` and its entry
    in the scatter account."""
    root, stores, obj = _build("4")
    batches = []
    for name in ("fetch_tiles", "fetch_tile_partials"):
        real = getattr(tilestore, name)

        def spy(database, *args, _real=real, **kwargs):
            batches.append(database)
            return _real(database, *args, **kwargs)

        monkeypatch.setattr(tilestore, name, spy)
    cell = MInterval.parse("[30:30,17:17]")
    for query in (
        lambda: obj.read(cell),
        lambda: obj.aggregate_push(cell, "add_cells", predicate=THRESHOLD),
        lambda: obj.aggregate_push(DOMAIN, "count_cells", predicate=NONE_PASS),
    ):
        root.reset_clock()
        batches.clear()
        _value, timing = query()[:2]
        assert len(batches) == len({id(db) for db in batches}) == obj.last_scatter.shards_hit
        assert len(obj.last_scatter.per_shard_ms) == 4
        assert [len(db.access_log.events()) for db in stores] == [1, 1, 1, 1]
        assert timing.t_ix_pages + timing.t_o == pytest.approx(sum(obj.last_scatter.per_shard_ms))
    assert not batches  # every tile pruned: nothing fetched anywhere
    root.close()
