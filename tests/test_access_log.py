"""The database's access log: writes land at commit with the published
epoch, and every read entry point logs the access kind of the region as
asked — one store and N shards alike."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.errors import GeometryError
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.query.access import classify
from repro.query.engine import QueryEngine
from repro.shard.sharded import ShardedDatabase
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling

DOMAIN = MInterval.parse("[0:99,5:5,0:49]")
CUBE = mdd_type("LogCube", "long", str(DOMAIN))
DATA = np.arange(100 * 50, dtype=np.int32).reshape(100, 1, 50)


def _store():
    database = Database()
    obj = database.create_object("c", CUBE, "cube")
    obj.load_array(DATA, RegularTiling(2048), origin=DOMAIN.lowest)
    return database, obj


def _writes(database):
    return [(e.op, e.region, e.epoch) for e in database.access_log.events() if e.op != "read"]


class TestWritesLandAtCommit:
    REGION = MInterval.parse("[0:7,5:5,0:7]")
    VALUES = np.ones((8, 1, 8), dtype=np.int32)

    def test_rolled_back_update_leaves_no_event(self):
        database, obj = _store()
        database.access_log.clear()
        with pytest.raises(RuntimeError):
            with database.transaction():
                obj.update(self.REGION, self.VALUES)
                raise RuntimeError("abort")
        assert database.access_log.events() == ()

    def test_rolled_back_delete_leaves_no_event(self):
        database, obj = _store()
        database.access_log.clear()
        with pytest.raises(RuntimeError):
            with database.transaction():
                assert obj.delete_region(DOMAIN) > 0
                raise RuntimeError("abort")
        assert database.access_log.events() == ()

    def test_update_carries_the_epoch_its_commit_published(self):
        database, obj = _store()
        obj.update(self.REGION, self.VALUES)
        assert _writes(database)[-1] == (
            "write", self.REGION, database.last_commit_epoch()
        )

    def test_nested_writes_share_the_outermost_commit_epoch(self):
        database, obj = _store()
        database.access_log.clear()
        with database.transaction():
            obj.update(self.REGION, self.VALUES)
            dropped = obj.delete_region(MInterval.parse("[50:99,5:5,0:49]"))
            assert dropped > 0
            assert database.access_log.events() == ()  # nothing before the commit
        epoch = database.last_commit_epoch()
        assert _writes(database) == [
            ("write", self.REGION, epoch),
            ("delete", MInterval.parse("[50:99,5:5,0:49]"), epoch),
        ]

    def test_a_read_at_the_published_epoch_orders_after_the_write(self):
        database, obj = _store()
        obj.update(self.REGION, self.VALUES)
        obj.read(self.REGION)
        write, read = database.access_log.events()[-2:]
        assert (write.op, read.op) == ("write", "read")
        assert write.epoch == read.epoch


# ----------------------------------------------------------------------
# Kind parity: the logged kind is classify(region as asked, domain)
# ----------------------------------------------------------------------

def _deploy(deployment):
    if deployment == "single":
        database, obj = _store()
        return database, [database], obj
    sdb = ShardedDatabase(deployment)
    obj = sdb.create_object("c", CUBE, "cube")
    obj.load_array(DATA, RegularTiling(2048), origin=DOMAIN.lowest)
    return sdb, sdb.shards, obj


DEPLOYMENTS = {name: _deploy(name) for name in ("single", 1, 2)}


def _bound(draw, lo, hi):
    """An axis bound: open, inside, or overhanging the domain axis."""
    return draw(st.one_of(st.none(), st.integers(lo - 20, hi + 20)))


@st.composite
def asked_regions(draw):
    lower, upper = [], []
    for lo, hi in zip(DOMAIN.lowest, DOMAIN.highest):
        low, high = _bound(draw, lo, hi), _bound(draw, lo, hi)
        if draw(st.booleans()) and low is not None:
            high = low  # degenerate axis
        if low is not None and high is not None and low > high:
            low, high = high, low
        lower.append(low)
        upper.append(high)
    return MInterval(lower, upper)


def _meets(region):
    """Whether a read of ``region`` resolves to cells (else it raises)."""
    try:
        return region.resolve(DOMAIN).intersection(DOMAIN) is not None
    except GeometryError:  # an open bound resolves past the other one
        return False


def _logged_kinds(stores, run):
    """The kinds one query logged — one read per store."""
    before = [db.access_log.total_recorded for db in stores]
    run()
    events = [e for db, n in zip(stores, before) for e in db.access_log.events() if e.seq > n]
    assert [e.op for e in events] == ["read"] * len(stores)
    return {e.kind for e in events}


@pytest.mark.parametrize("deployment", list(DEPLOYMENTS))
@given(region=asked_regions())
# asked: PARTIAL; resolved and clipped to [99:99,5:5,0:49] it would read SECTION
@example(region=MInterval.parse("[99:150,*:*,*:*]"))
@settings(max_examples=60, deadline=None)
def test_logged_kind_is_the_asked_region_classified(deployment, region):
    root, stores, obj = DEPLOYMENTS[deployment]
    assume(_meets(region))
    want = classify(region, DOMAIN)
    assert _logged_kinds(stores, lambda: obj.read(region)) == {want}
    assert _logged_kinds(stores, lambda: obj.aggregate_push(region, "add_cells")) == {want}
    # what the engine recorded: the section slab; a GROUP BY's resolved region
    engine = QueryEngine(root)
    axis, coordinate = 0, region.resolve(DOMAIN).intersection(DOMAIN).lowest[0]
    section = DOMAIN.section(axis, coordinate)
    assert _logged_kinds(stores, lambda: obj.read_section(axis, coordinate)) == {
        classify(section, DOMAIN)
    }
    resolved = obj.resolve_region(region)
    spans = {2: [(lo, lo) for lo in range(resolved.lowest[2], resolved.highest[2] + 1, 7)]}
    assert _logged_kinds(
        stores, lambda: engine.group_by_query(obj, region, "add_cells", spans)
    ) == {classify(resolved, DOMAIN)}

