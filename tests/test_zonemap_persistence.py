"""Zone maps across the durability boundary: inline in the checkpoint's
tile rows, in WAL replay, and tile rows that carry none."""

import json

import numpy as np

from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.index.zonemap import AGG_FUNCS, CellPredicate
from repro.storage.catalog import create_database, open_database, save_database
from repro.storage.fsck import fsck_database
from repro.tiling.base import grid_partition

IMG = mdd_type("Img", "long", "[0:15,0:15]")
DOMAIN = MInterval.parse("[0:15,0:15]")


def _data():
    return np.arange(256, dtype=np.int32).reshape(16, 16)


def _fill(db):
    obj = db.create_object("c", IMG, "o")
    data = _data()
    obj.write_tiles(
        [
            Tile(box, data[box.to_slices(DOMAIN.lowest)])
            for box in grid_partition(DOMAIN, (4, 16))
        ]
    )
    return obj, data


def _assert_pruning_works(obj, data):
    pred = CellPredicate(">", 195)  # only the last band matches
    pruned, timing = obj.read(DOMAIN, predicate=pred)
    full, _ = obj.read(DOMAIN, predicate=pred, prune=False)
    assert pruned.tobytes() == full.tobytes()
    assert timing.tiles_pruned == 3
    for op in AGG_FUNCS:
        value, agg_timing = obj.aggregate(DOMAIN, op)
        assert value == AGG_FUNCS[op](data), op
        assert agg_timing.tiles_read == 0, op
        assert agg_timing.tiles_synopsis_answered == 4, op


class TestCheckpointSidecar:
    def test_round_trip(self, tmp_path):
        directory = tmp_path / "db"
        db = create_database(directory, page_size=128)
        _fill(db)
        save_database(db, directory)
        db.close()
        # one catalog, zones inline in its tile rows: no zone sidecar
        assert sorted(p.name for p in directory.iterdir()) == [
            "blobs.pages", "blobs.pages.catalog.json", "catalog.json",
        ]
        catalog = json.loads((directory / "catalog.json").read_text())
        assert catalog["version"] == 3
        assert all("zone" in row for row in catalog["collections"]["c"][0]["tiles"])
        db2 = open_database(directory)
        obj = db2.collection("c")["o"]
        _assert_pruning_works(obj, _data())
        db2.close()
        assert fsck_database(directory, deep=True).ok

    def test_wal_replay_rebuilds_zones(self, tmp_path):
        """Synopses ride the redo records: a close without a checkpoint
        (or a crash) rebuilds them during replay."""
        directory = tmp_path / "db"
        db = create_database(directory, durability="wal", page_size=128)
        _fill(db)
        db.close()  # committed work sits in the log, not the checkpoint
        db2 = open_database(directory)  # replay
        _assert_pruning_works(db2.collection("c")["o"], _data())
        save_database(db2, directory)
        db2.close()
        assert fsck_database(directory, deep=True).ok

    def test_update_then_replay_keeps_synopses_fresh(self, tmp_path):
        directory = tmp_path / "db"
        db = create_database(directory, durability="wal", page_size=128)
        obj, data = _fill(db)
        save_database(db, directory)
        obj.update(
            MInterval.parse("[0:3,0:15]"), np.full((4, 16), 9000, np.int32)
        )
        db.close()
        new = data.copy()
        new[0:4, :] = 9000
        db2 = open_database(directory)
        obj2 = db2.collection("c")["o"]
        value, timing = obj2.aggregate(DOMAIN, "max_cells")
        assert value == 9000 and timing.tiles_read == 0
        pruned, read_timing = obj2.read(
            DOMAIN, predicate=CellPredicate(">", 5000)
        )
        np.testing.assert_array_equal(pruned, np.where(new > 5000, new, 0))
        assert read_timing.tiles_pruned == 3
        save_database(db2, directory)
        db2.close()
        assert fsck_database(directory, deep=True).ok

    def test_rows_without_zones_open_cold(self, tmp_path):
        """A tile row without a zone (what ``attach_tile`` registers) is
        legal: the database opens without pruning those tiles, reads stay
        correct, and fsck is clean."""
        directory = tmp_path / "db"
        db = create_database(directory, page_size=128)
        _, data = _fill(db)
        save_database(db, directory)
        db.close()
        catalog_path = directory / "catalog.json"
        catalog = json.loads(catalog_path.read_text())
        for row in catalog["collections"]["c"][0]["tiles"]:
            del row["zone"]
        catalog_path.write_text(json.dumps(catalog))
        assert fsck_database(directory, deep=True).ok
        db2 = open_database(directory)
        obj = db2.collection("c")["o"]
        pred = CellPredicate(">", 190)
        pruned, timing = obj.read(DOMAIN, predicate=pred)
        assert timing.tiles_pruned == 0  # nothing to prune against
        np.testing.assert_array_equal(pruned, np.where(data > 190, data, 0))
        for op in AGG_FUNCS:
            value, _ = obj.aggregate(DOMAIN, op)
            assert value == AGG_FUNCS[op](data), op
        db2.close()
