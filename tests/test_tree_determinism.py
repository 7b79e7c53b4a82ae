"""A read's index charge is a function of the stored rows (DESIGN §11).

A version's R+-tree is the insert of its tile rows in row order, so a
read's ``index_nodes`` and ``t_ix_pages`` are the same live, after a
reopen that replays the log, and after a reopen from the checkpoint —
whatever ``delete_region``, ``retile`` and shard migrations left those
rows, and whenever a tree was walked along the way.  A tree edited by
those removals instead would keep the shape of the history: the live
read and the replay agree, the checkpoint's rebuild does not.
"""

import numpy as np
import pytest

from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.shard import Rebalancer, ShardedDatabase
from repro.storage.catalog import create_database, open_database
from repro.tiling.aligned import RegularTiling

CUBE = mdd_type("TreeCube", "long", "[0:127,0:127]")
DOMAIN = CUBE.definition_domain
PAGE = 512  # 25 entries a node: the trees have two levels and more
DELETES = ["[0:31,0:31]", "[40:79,8:47]", "[96:127,64:127]", "[8:23,80:119]"]


def _boxes() -> list[MInterval]:
    rng = np.random.default_rng(56)
    boxes = [DOMAIN]
    for _ in range(60):
        lo = rng.integers(0, 120, 2)
        hi = np.minimum(lo + rng.integers(0, 48, 2), 127)
        boxes.append(MInterval(lo.tolist(), hi.tolist()))
    return boxes


BOXES = _boxes()


def _charges(obj) -> list[tuple[int, float]]:
    """Per box, the index nodes and modelled index ms of its read."""
    return [
        (timing.index_nodes, timing.t_ix_pages)
        for timing in (obj.read(box)[1] for box in BOXES)
    ]


def _history(obj, sdb=None) -> None:
    """A load, deletes, then a retile (one store) or a shard migration
    (sharded) and more deletes, with reads between them, so trees are
    built mid-history."""
    data = np.random.default_rng(3).integers(0, 500, size=DOMAIN.shape, dtype=np.int32)
    obj.load_array(data, RegularTiling(256))  # 8 x 8 cells a tile: 256 tiles
    _charges(obj)
    for region in DELETES[:2]:
        assert obj.delete_region(MInterval.parse(region))
        _charges(obj)
    if sdb is None:
        obj.retile(RegularTiling(128))
    else:
        for entry in obj._parts[0].tile_entries() * 4:
            obj.read(entry.domain)
        assert Rebalancer(sdb).rebalance_once() is not None
    _charges(obj)
    for region in DELETES[2:]:
        assert obj.delete_region(MInterval.parse(region))


def _store(tmp_path):
    """The object live, then after each of two reopens, with the reopen's
    recovery report."""
    db = create_database(tmp_path / "db", durability="wal", page_size=PAGE)
    _history(db.create_object("c", CUBE, "cube"))
    yield db.collection("c")["cube"], []
    for _ in range(2):
        db.close()  # the log is left to replay: the page file's catalog is not synced
        db = open_database(tmp_path / "db", durability="wal")
        yield db.collection("c")["cube"], [db.last_recovery]
    db.close()
    db.store.close()


def _shards(tmp_path):
    """As :func:`_store`, on two shards (one recovery report each)."""
    sdb = ShardedDatabase.create(tmp_path / "sdb", 2, durability="wal", page_size=PAGE)
    _history(sdb.create_object("c", CUBE, "cube"), sdb)
    yield sdb.collection("c")["cube"], []
    for _ in range(2):
        sdb.close()
        sdb = ShardedDatabase.open(tmp_path / "sdb", durability="wal")
        yield sdb.collection("c")["cube"], [db.last_recovery for db in sdb.shards]
    sdb.close()


@pytest.mark.parametrize("deployment", [_store, _shards], ids=["store", "2-shard"])
def test_a_read_is_priced_alike_live_replayed_and_from_the_checkpoint(tmp_path, deployment):
    priced, replays = [], []
    for obj, recoveries in deployment(tmp_path):
        priced.append(_charges(obj))
        replays.append({report.transactions_replayed > 0 for report in recoveries})
    assert replays == [set(), {True}, {False}]  # live, the log replayed, the checkpoint loaded
    assert max(nodes for nodes, _ms in priced[0]) > 2  # trees of several levels
    assert priced[1] == priced[0]
    assert priced[2] == priced[0]
