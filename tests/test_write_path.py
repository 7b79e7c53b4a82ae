"""One write path (DESIGN §10): every object mutation is a redo record
with one applier, and ``update`` is one fetch batch and one encode batch.

* The per-tile update loop it replaced (:mod:`tests.write_oracle`) is the
  byte oracle of the batch: twin file databases running the same scripted
  mix must agree on WAL bytes, page-file bytes, blob ids, checkpoint,
  synopses and the charges of every write.
* After every committed write, reopening a copy of the directory replays
  to exactly the live state — tile table, synopses, index hits, current
  domain — on one store and on two shards.
* A delete that drops nothing, a partial-coverage load and the regions
  ``delete_region`` accepts behave the same on one store and sharded.
"""

import dataclasses
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import DomainError, StorageError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.shard.sharded import ShardedDatabase
from repro.storage import tilestore
from repro.storage.catalog import create_database, open_database, save_database
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from tests import write_oracle

CUBE = mdd_type("WriteCube", "long", "[0:127,0:127]")
DEFINITION = MInterval.parse("[0:127,0:127]")
TILING = RegularTiling(4096)  # 32 x 32 int32 cells: one page, or less
KIB = 1024


def box(text: str) -> MInterval:
    return MInterval.parse(text)


def cube_data() -> np.ndarray:
    """96 x 96 small integers (zlib shrinks them) whose right column of
    tiles is all default: ``skip_default_tiles`` leaves the load partial,
    its tiles' hull short of the loaded region."""
    data = np.random.default_rng(11).integers(1, 40, size=(96, 96), dtype=np.int32)
    data[:, 64:96] = 0
    return data


def patch(seed: int, region: MInterval) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 60, size=region.shape, dtype=np.int32)


def batch_update(obj, region: MInterval, values: np.ndarray) -> int:
    return obj.update(region, values)


def write_mix(obj, update) -> list:
    """The scripted mix: ``(name, write)`` steps run in order, ``update``
    being either the store's batch or the oracle's per-tile loop."""

    def unchanged_and_changed(region: MInterval, changed: MInterval) -> np.ndarray:
        # the tiles left of column 32 get their own cells back; only the
        # ``changed`` box differs
        values = obj.read(region)[0].copy()
        values[changed.to_slices(region.lowest)] += 1
        return values

    spans = box("[20:70,10:50]")
    pair = box("[0:31,16:47]")
    hole = box("[64:95,0:31]")
    return [
        ("load", lambda: obj.load_array(cube_data(), TILING, skip_default_tiles=True)),
        ("update spanning tiles", lambda: update(obj, spans, patch(1, spans))),
        (
            "update with an unchanged tile",
            lambda: update(obj, pair, unchanged_and_changed(pair, box("[0:3,40:47]"))),
        ),
        ("update changing nothing", lambda: update(obj, pair, obj.read(pair)[0].copy())),
        ("delete dropping nothing", lambda: obj.delete_region(box("[0:10,0:10]"))),
        ("delete", lambda: obj.delete_region(hole)),
        (
            "update over a hole",
            lambda: update(obj, box("[60:80,0:40]"), patch(2, box("[60:80,0:40]"))),
        ),
        ("retile", lambda: obj.retile(RegularTiling(8192), skip_default_tiles=True)),
        ("update after retile", lambda: update(obj, spans, patch(3, spans))),
    ]


def object_state(obj) -> dict:
    """What the appliers maintain: tile table, synopses, index, domain."""
    return {
        "tiles": [dataclasses.astuple(entry) for entry in obj.tile_entries()],
        "zones": {tile_id: syn.to_dict() for tile_id, syn in obj._zones.items()},
        "hits": sorted(
            (hit.tile_id, str(hit.domain))
            for hit in obj.index.search(DEFINITION).entries
        ),
        "domain": obj.current_domain,
    }


def close(store) -> None:
    """Close a file-backed database, or every shard of a sharded one,
    page files included."""
    for db in getattr(store, "shards", [store]):
        db.close()
        db.store.close()


def delta(before, after) -> dict:
    return {
        name: value - getattr(before, name) for name, value in vars(after).items()
    }


# ----------------------------------------------------------------------
# (i) the batch update against the per-tile oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("durability", ["wal", "wal+fsync"])
@pytest.mark.parametrize("compression", [False, True])
@pytest.mark.parametrize("zone_maps", [True, False])
def test_batch_update_matches_per_tile_oracle(tmp_path, durability, compression, zone_maps):
    options = dict(
        durability=durability,
        compression=compression,
        zone_maps=zone_maps,
        io_workers=2,
        buffer_bytes=256 * KIB,
        decoded_cache_bytes=256 * KIB,
    )
    twins = []
    for name, update in (("batch", batch_update), ("oracle", write_oracle.update)):
        directory = tmp_path / name
        db = create_database(directory, **options)
        obj = db.create_object("c", CUBE, "o")
        twins.append((directory, db, write_mix(obj, update)))
    (left_dir, left_db, left), (right_dir, right_db, right) = twins
    for (step, left_write), (_, right_write) in zip(left, right):
        charges = []
        for db, write in ((left_db, left_write), (right_db, right_write)):
            before = db.disk.counters.snapshot()
            write()
            charges.append(delta(before, db.disk.counters))
        assert charges[0] == charges[1], step
        for name in ("wal.log", "blobs.pages"):
            assert (left_dir / name).read_bytes() == (right_dir / name).read_bytes(), (step, name)
        assert sorted(left_db.store.blob_ids()) == sorted(right_db.store.blob_ids()), step
        left_obj = left_db.collection("c")["o"]
        right_obj = right_db.collection("c")["o"]
        assert object_state(left_obj) == object_state(right_obj), step
    for db, directory in ((left_db, left_dir), (right_db, right_dir)):
        save_database(db, directory)
        close(db)
    for name in ("catalog.json", "zones.json"):
        assert (left_dir / name).read_bytes() == (right_dir / name).read_bytes(), name


corner = st.integers(0, 95)


@st.composite
def update_boxes(draw) -> MInterval:
    lows = [draw(corner), draw(corner)]
    return MInterval(lows, [draw(st.integers(lo, min(lo + 40, 111))) for lo in lows])


@settings(max_examples=15, deadline=None)
@given(
    boxes=st.lists(update_boxes(), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
    compression=st.booleans(),
)
def test_random_updates_match_per_tile_oracle(boxes, seed, compression):
    with tempfile.TemporaryDirectory() as scratch:
        twins = []
        for name in ("batch", "oracle"):
            db = Database(
                compression=compression,
                durability="wal",
                wal_path=Path(scratch) / f"{name}.log",
                decoded_cache_bytes=64 * KIB,
            )
            obj = db.create_object("c", CUBE, "o")
            obj.load_array(cube_data(), TILING, skip_default_tiles=True)
            twins.append((db, obj))
        (left_db, left), (right_db, right) = twins
        for index, region in enumerate(boxes):
            values = patch(seed + index, region)
            if index % 2 and left.current_domain.contains(region):
                # the upper half as stored: some tiles stay unchanged
                stored = left.read(region)[0]
                right.read(region)  # keeps the twins' disk charges paired
                half = region.shape[0] // 2
                values[:half] = stored[:half]
            assert left.update(region, values) == write_oracle.update(right, region, values)
            assert object_state(left) == object_state(right)
            assert vars(left_db.disk.counters) == vars(right_db.disk.counters)
        for db, _obj in twins:
            db.close()
        assert (Path(scratch) / "batch.log").read_bytes() == (
            Path(scratch) / "oracle.log"
        ).read_bytes()


def test_update_fetches_and_encodes_once(tmp_path, monkeypatch):
    db = create_database(tmp_path / "db", durability="wal", io_workers=2)
    obj = db.create_object("c", CUBE, "o")
    obj.load_array(cube_data(), TILING)
    calls = []
    for name in ("fetch_tiles", "encode_tiles"):
        original = getattr(tilestore, name)
        monkeypatch.setattr(
            tilestore, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    region = box("[0:95,0:95]")
    assert obj.update(region, patch(4, region)) == region.cell_count
    assert calls == ["fetch_tiles", "encode_tiles"]
    same = obj.read(region)[0].copy()
    calls.clear()
    blobs = sorted(db.store.blob_ids())
    assert obj.update(region, same) == region.cell_count
    assert calls == ["fetch_tiles", "encode_tiles"]  # an empty encode batch
    assert sorted(db.store.blob_ids()) == blobs
    close(db)


# ----------------------------------------------------------------------
# (ii) replay equivalence after every committed write
# ----------------------------------------------------------------------


def test_every_write_replays_to_the_live_state(tmp_path):
    db = create_database(tmp_path / "live", durability="wal")
    obj = db.create_object("c", CUBE, "o")
    for index, (step, write) in enumerate(write_mix(obj, batch_update)):
        write()
        copy = tmp_path / f"replay{index}"
        shutil.copytree(tmp_path / "live", copy)
        reopened = open_database(copy)
        assert object_state(reopened.collection("c")["o"]) == object_state(obj), step
        close(reopened)
    close(db)


def sharded_mix(obj) -> list:
    spans = box("[20:70,10:50]")
    return [
        ("partial load", lambda: obj.load_array(cube_data(), TILING, skip_default_tiles=True)),
        ("update", lambda: obj.update(spans, patch(5, spans))),
        ("delete dropping nothing", lambda: obj.delete_region(box("[0:10,0:10]"))),
        ("delete", lambda: obj.delete_region(box("[64:95,0:31]"))),
        ("update over a hole", lambda: obj.update(box("[60:80,0:40]"), patch(6, box("[60:80,0:40]")))),
        ("insert", lambda: obj.insert_tile(Tile(box("[96:111,96:111]"), patch(7, box("[96:111,96:111]"))))),
    ]


def test_every_sharded_write_replays_to_the_live_state(tmp_path):
    sdb = ShardedDatabase.create(tmp_path / "live", 2, durability="wal")
    obj = sdb.create_object("c", CUBE, "o")
    for index, (step, write) in enumerate(sharded_mix(obj)):
        write()
        copy = tmp_path / f"replay{index}"
        shutil.copytree(tmp_path / "live", copy)
        reopened = ShardedDatabase.open(copy)
        again = reopened.collection("c")["o"]
        assert [object_state(part) for part in again._parts] == [
            object_state(part) for part in obj._parts
        ], step
        assert again.current_domain == obj.current_domain, step
        assert again.read(obj.current_domain)[0].tobytes() == obj.read(obj.current_domain)[0].tobytes()
        close(reopened)
    close(sdb)


# ----------------------------------------------------------------------
# (iv) a virtual tile fails an update before any I/O
# ----------------------------------------------------------------------


def test_update_over_a_virtual_tile_changes_nothing(tmp_path):
    db = create_database(tmp_path / "db", durability="wal", buffer_bytes=64 * KIB)
    obj = db.create_object("c", CUBE, "o")
    real = box("[0:31,0:31]")
    obj.insert_tile(Tile(real, patch(8, real)))
    obj.load_virtual(box("[32:63,0:31]"), TILING)
    db.reset_clock()

    def state():
        return (
            sorted(db.store.blob_ids()),
            db.wal._buf()[:],
            db.wal._next_lsn,
            db.epoch.active_pins,
            db.epoch.current,
            vars(db.disk.counters).copy(),
            object_state(obj),
            (tmp_path / "db" / "wal.log").read_bytes(),
        )

    before = state()
    region = box("[0:63,0:31]")
    with pytest.raises(StorageError, match="virtual tile"):
        obj.update(region, patch(9, region))
    assert state() == before
    close(db)


# ----------------------------------------------------------------------
# One store and sharded: the three divergences this path removed
# ----------------------------------------------------------------------


SPARSE = mdd_type("Sparse", "char", "[0:99,0:99]")


def sparse_data() -> np.ndarray:
    data = np.zeros((100, 100), dtype=np.uint8)
    data[10:20, 10:20] = 7
    return data


def make_store(kind: str, directory):
    """A ``wal`` deployment: one store (``"single"``) or N shards."""
    if kind == "single":
        return create_database(directory, durability="wal")
    return ShardedDatabase.create(directory, int(kind), durability="wal")


def reopen(kind: str, directory):
    if kind == "single":
        return open_database(directory)
    return ShardedDatabase.open(directory)


KINDS = ["single", "2", "4"]


@pytest.mark.parametrize("kind", KINDS)
def test_delete_dropping_nothing_keeps_the_domain(tmp_path, kind):
    store = make_store(kind, tmp_path / "db")
    obj = store.create_object("c", SPARSE, "o")
    obj.load_array(sparse_data(), RegularTiling(256), skip_default_tiles=True)
    assert obj.current_domain == box("[0:99,0:99]")
    assert obj.delete_region(box("[90:99,90:99]")) == 0
    assert obj.current_domain == box("[0:99,0:99]")
    close(store)
    reopened = reopen(kind, tmp_path / "db")
    assert reopened.collection("c")["o"].current_domain == box("[0:99,0:99]")
    close(reopened)


def test_partial_load_reopens_with_its_domain_on_any_shard_count(tmp_path):
    reads = {}
    for kind in KINDS:
        store = make_store(kind, tmp_path / kind)
        obj = store.create_object("c", SPARSE, "o")
        obj.load_array(sparse_data(), RegularTiling(256), skip_default_tiles=True)
        close(store)
        reopened = reopen(kind, tmp_path / kind)
        obj = reopened.collection("c")["o"]
        assert obj.current_domain == box("[0:99,0:99]"), kind
        reads[kind] = obj.read(obj.current_domain)[0].tobytes()
        close(reopened)
    assert reads["2"] == reads["4"] == reads["single"] == sparse_data().tobytes()


def test_sharded_delete_shrinks_as_one_store_does(tmp_path):
    domains = []
    for kind in KINDS:
        store = make_store(kind, tmp_path / kind)
        obj = store.create_object("c", SPARSE, "o")
        obj.load_array(sparse_data(), RegularTiling(256), skip_default_tiles=True)
        assert obj.delete_region(box("[16:31,16:31]")) == 1
        domains.append(obj.current_domain)
        close(store)
        reopened = reopen(kind, tmp_path / kind)
        assert reopened.collection("c")["o"].current_domain == domains[-1]
        close(reopened)
    assert domains == [box("[0:31,0:31]")] * len(KINDS)


@pytest.mark.parametrize("n_shards", [None, 2, 4])
def test_delete_regions_are_valid_as_on_a_single_store(n_shards):
    store = Database() if n_shards is None else ShardedDatabase(n_shards)
    obj = store.create_object("c", mdd_type("Grid", "long", "[0:99,0:99]"), "o")
    inner = box("[0:49,0:49]")
    obj.load_array(patch(10, inner), RegularTiling(1600))
    for region in ("[*:*,0:15]", "[40:*,40:*]", "[0:120,0:9]"):
        with pytest.raises(DomainError):
            obj.delete_region(box(region))
    assert obj.delete_region(box("[60:70,60:70]")) == 0  # outside the current domain
    assert obj.current_domain == inner
    before = obj.tile_count
    assert obj.delete_region(box("[0:19,0:19]")) == 1
    assert obj.tile_count == before - 1


def test_checkpoint_records_each_tile_once(tmp_path):
    # the reload path replays tile rows through the same applier: a
    # reopen of a reopen is the same checkpoint
    db = create_database(tmp_path / "db", durability="wal")
    obj = db.create_object("c", CUBE, "o")
    for _step, write in write_mix(obj, batch_update)[:5]:
        write()
    save_database(db, tmp_path / "db")
    close(db)
    first = json.loads((tmp_path / "db" / "catalog.json").read_text())
    reopened = open_database(tmp_path / "db")
    save_database(reopened, tmp_path / "db")
    close(reopened)
    assert json.loads((tmp_path / "db" / "catalog.json").read_text()) == first
