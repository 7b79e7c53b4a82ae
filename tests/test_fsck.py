"""Unit tests for the offline consistency checker."""

import json

import numpy as np
import pytest

from repro.core.cells import base_type
from repro.core.errors import RecoveryError, StorageError
from repro.core.geometry import MInterval
from repro.core.mddtype import MDDType
from repro.storage.catalog import create_database, open_database, save_database
from repro.storage.fsck import fsck_database
from repro.tiling.aligned import RegularTiling


def _build(directory, durability="none"):
    db = create_database(directory, durability=durability, page_size=128)
    t = MDDType("img", base_type("char"), MInterval.parse("[0:15,0:15]"))
    obj = db.create_object("c", t, "o")
    data = (np.arange(256) % 251).astype(np.uint8).reshape(16, 16)
    obj.load_array(data, RegularTiling(128))
    save_database(db, directory)
    db.close()
    return directory


def _codes(report):
    return {issue.code for issue in report.issues}


class TestFsckClean:
    def test_clean_database(self, tmp_path):
        report = fsck_database(_build(tmp_path / "db"))
        assert report.ok, report.issues
        assert report.blobs_checked > 0
        assert report.payloads_verified > 0
        assert report.tiles_checked > 0
        assert "clean" in report.summary()

    def test_clean_durable_database(self, tmp_path):
        report = fsck_database(_build(tmp_path / "db", durability="wal"))
        assert report.ok, report.issues


class TestFsckDetects:
    def test_missing_directory(self, tmp_path):
        report = fsck_database(tmp_path / "nothing")
        assert not report.ok
        assert "missing-catalog" in _codes(report)

    def test_crc32c_era_catalog_version(self, tmp_path):
        directory = _build(tmp_path / "db")
        catalog_path = directory / "catalog.json"
        catalog = json.loads(catalog_path.read_text())
        catalog["version"] = 1
        catalog_path.write_text(json.dumps(catalog))
        report = fsck_database(directory)
        assert not report.ok
        (issue,) = report.issues
        assert issue.code == "catalog-version"
        assert "version 1 " in issue.message

    def test_corrupt_payload_byte(self, tmp_path):
        directory = _build(tmp_path / "db")
        pages = directory / "blobs.pages"
        data = bytearray(pages.read_bytes())
        data[10] ^= 0xFF
        pages.write_bytes(bytes(data))
        report = fsck_database(directory)
        assert not report.ok
        assert "payload-checksum" in _codes(report)

    def test_truncated_page_file(self, tmp_path):
        directory = _build(tmp_path / "db")
        pages = directory / "blobs.pages"
        pages.write_bytes(pages.read_bytes()[:64])
        report = fsck_database(directory)
        assert not report.ok
        assert "payload-truncated" in _codes(report)

    def test_dangling_blob_reference(self, tmp_path):
        directory = _build(tmp_path / "db")
        catalog_path = directory / "catalog.json"
        catalog = json.loads(catalog_path.read_text())
        catalog["collections"]["c"][0]["tiles"][0]["blob"] = 999
        catalog_path.write_text(json.dumps(catalog))
        report = fsck_database(directory)
        assert not report.ok
        assert "tile-dangling-blob" in _codes(report)

    def test_tile_size_mismatch(self, tmp_path):
        directory = _build(tmp_path / "db")
        catalog_path = directory / "catalog.json"
        catalog = json.loads(catalog_path.read_text())
        # claim the tile spans the whole object: blob is now too small
        catalog["collections"]["c"][0]["tiles"][0]["domain"] = "[0:15,0:15]"
        catalog_path.write_text(json.dumps(catalog))
        report = fsck_database(directory)
        assert not report.ok
        assert "tile-size-mismatch" in _codes(report)

    def test_overlapping_tiles(self, tmp_path):
        directory = _build(tmp_path / "db")
        catalog_path = directory / "catalog.json"
        catalog = json.loads(catalog_path.read_text())
        tiles = catalog["collections"]["c"][0]["tiles"]
        tiles[1]["domain"] = tiles[0]["domain"]
        catalog_path.write_text(json.dumps(catalog))
        report = fsck_database(directory)
        assert not report.ok
        assert "tile-overlap" in _codes(report)

    def test_overlapping_page_ranges(self, tmp_path):
        directory = _build(tmp_path / "db")
        sidecar = directory / "blobs.pages.catalog.json"
        meta = json.loads(sidecar.read_text())
        meta["blobs"][1]["start"] = meta["blobs"][0]["start"]
        sidecar.write_text(json.dumps(meta))
        report = fsck_database(directory)
        assert not report.ok
        assert "page-overlap" in _codes(report)

    def test_unreplayed_wal_flagged_then_recovered(self, tmp_path):
        directory = tmp_path / "db"
        db = create_database(directory, durability="wal", page_size=128)
        t = MDDType("img", base_type("char"), MInterval.parse("[0:15,0:15]"))
        obj = db.create_object("c", t, "o")
        data = np.zeros((16, 16), np.uint8)
        obj.load_array(data, RegularTiling(128), skip_default_tiles=False)
        db.close()  # committed work sits in the log, not the checkpoint
        report = fsck_database(directory)
        assert not report.ok
        assert "wal-unreplayed" in _codes(report)
        open_database(directory).close()  # recovery replays + checkpoints
        report = fsck_database(directory)
        assert report.ok, report.issues

    def test_fsck_never_mutates(self, tmp_path):
        directory = _build(tmp_path / "db")
        before = {
            p.name: p.read_bytes() for p in sorted(directory.iterdir())
        }
        fsck_database(directory)
        after = {
            p.name: p.read_bytes() for p in sorted(directory.iterdir())
        }
        assert before == after


def _set_zone(directory, make):
    """Replace the first tile row's zone in ``catalog.json`` by
    ``make(zone)``."""
    catalog_path = directory / "catalog.json"
    catalog = json.loads(catalog_path.read_text())
    row = catalog["collections"]["c"][0]["tiles"][0]
    row["zone"] = make(row["zone"])
    catalog_path.write_text(json.dumps(catalog))


class TestZoneAudit:
    """The audit of each tile row's inline zone (shallow and ``--deep``)."""

    def test_clean_deep_audit(self, tmp_path):
        report = fsck_database(_build(tmp_path / "db"), deep=True)
        assert report.ok, report.issues
        assert report.zones_checked > 0
        assert "zone entries" in report.summary()

    def test_an_attached_tile_without_a_zone_is_clean(self, tmp_path):
        directory = tmp_path / "db"
        db = create_database(directory, page_size=128)
        t = MDDType("img", base_type("char"), MInterval.parse("[0:15,0:15]"))
        obj = db.create_object("c", t, "o")
        obj.load_array(np.ones((8, 16), np.uint8), RegularTiling(128), origin=(0, 0))
        blob_id = db.store.put(np.full((8, 16), 7, np.uint8).tobytes())
        obj.attach_tile(MInterval.parse("[8:15,0:15]"), blob_id)
        save_database(db, directory)
        db.close()
        for deep in (False, True):
            report = fsck_database(directory, deep=deep)
            assert report.ok and not report.issues, report.issues
            assert report.zones_checked == report.tiles_checked - 1

    def test_count_mismatch(self, tmp_path):
        directory = _build(tmp_path / "db")
        _set_zone(directory, lambda zone: {**zone, "count": zone["count"] + 1})
        report = fsck_database(directory)
        assert not report.ok
        assert "zone-count-mismatch" in _codes(report)

    def test_inverted_range(self, tmp_path):
        directory = _build(tmp_path / "db")
        _set_zone(directory, lambda zone: {**zone, "min": zone["max"] + 1, "max": zone["min"]})
        report = fsck_database(directory)
        assert not report.ok
        assert "zone-range-invalid" in _codes(report)

    def test_stale_synopsis_needs_deep(self, tmp_path):
        directory = _build(tmp_path / "db")
        # plausible but wrong
        _set_zone(directory, lambda zone: {**zone, "min": zone["min"] + 1, "sum": zone["sum"] + 1})
        assert fsck_database(directory).ok  # shallow cannot see it
        report = fsck_database(directory, deep=True)
        assert not report.ok
        assert "zone-stale" in _codes(report)


def _without(key):
    return lambda zone: {k: v for k, v in zone.items() if k != key}


#: Malformed zones of a checkpoint row, each wrong in one way.
MALFORMED_ZONES = {
    "no count": _without("count"),
    "no min": _without("min"),
    "min not a number": lambda zone: {**zone, "min": "x"},
    "sum not a number": lambda zone: {**zone, "sum": [1]},
    "count not an integer": lambda zone: {**zone, "count": 2.5},
    "negative nonzero": lambda zone: {**zone, "nonzero": -1},
    "nbins 1": lambda zone: {**zone, "nbins": 1},
    "nbins 64": lambda zone: {**zone, "nbins": 64},
    "bins past nbins": lambda zone: {**zone, "bins": 1 << zone["nbins"]},
    "a list": lambda zone: list(zone.values()),
}


@pytest.mark.parametrize("mutation", sorted(MALFORMED_ZONES))
def test_a_malformed_zone_fails_typed(tmp_path, mutation):
    """Open refuses the row with a ``StorageError``; fsck, shallow and
    deep, reports it and never raises."""
    directory = _build(tmp_path / "db")
    _set_zone(directory, MALFORMED_ZONES[mutation])
    with pytest.raises(StorageError, match="malformed zone"):
        open_database(directory)
    for deep in (False, True):
        report = fsck_database(directory, deep=deep)
        assert _codes(report) == {"zone-malformed"}, report.issues


#: Malformed tile rows of a checkpoint, each wrong in one way.
MALFORMED_ROWS = {
    "no domain": lambda row: {k: v for k, v in row.items() if k != "domain"},
    "domain not a literal": lambda row: {**row, "domain": "[0:x]"},
    "domain a list": lambda row: {**row, "domain": [0, 15]},
    "no blob": lambda row: {k: v for k, v in row.items() if k != "blob"},
    "blob a string": lambda row: {**row, "blob": str(row["blob"])},
    "tile id a bool": lambda row: {**row, "tile_id": True},
    "a list": lambda row: list(row.values()),
}


def _set_row(directory, make) -> int:
    """Replace the first tile row in ``catalog.json`` by ``make(row)``;
    returns the object's row count."""
    catalog_path = directory / "catalog.json"
    catalog = json.loads(catalog_path.read_text())
    rows = catalog["collections"]["c"][0]["tiles"]
    rows[0] = make(rows[0])
    catalog_path.write_text(json.dumps(catalog))
    return len(rows)


@pytest.mark.parametrize("mutation", sorted(MALFORMED_ROWS))
def test_a_malformed_tile_row_fails_typed(tmp_path, mutation):
    """Open refuses the row with a ``RecoveryError`` (a ``StorageError``);
    fsck, shallow and deep, reports it, skips it and checks the rest."""
    directory = _build(tmp_path / "db")
    rows = _set_row(directory, MALFORMED_ROWS[mutation])
    with pytest.raises(RecoveryError, match="malformed tile row"):
        open_database(directory)
    for deep in (False, True):
        report = fsck_database(directory, deep=deep)
        assert _codes(report) == {"tile-malformed"}, report.issues
        assert report.tiles_checked == rows
        assert report.zones_checked == rows - 1


#: Checkpoint object entries, each missing one field recovery reads.
MISSING_OBJECT_FIELDS = ("tiles", "next_tile_id", "obj", "type")


@pytest.mark.parametrize("field", MISSING_OBJECT_FIELDS)
def test_an_object_entry_missing_a_field_fails_typed(tmp_path, field):
    """Open refuses the entry with a ``RecoveryError`` naming the object;
    fsck, shallow and deep, reports it and checks the next object."""
    directory = tmp_path / "db"
    db = create_database(directory, page_size=128)
    cube = MDDType("img", base_type("char"), MInterval.parse("[0:15,0:15]"))
    for name in ("o", "p"):
        db.create_object("c", cube, name).load_array(
            (np.arange(256) % 251).astype(np.uint8).reshape(16, 16), RegularTiling(128)
        )
    save_database(db, directory)
    db.close()
    db.store.close()
    catalog_path = directory / "catalog.json"
    catalog = json.loads(catalog_path.read_text())
    del catalog["collections"]["c"][0][field]
    catalog_path.write_text(json.dumps(catalog))
    named = "c/None" if field == "obj" else "c/o"
    with pytest.raises(RecoveryError, match=f"malformed object entry {named}: no '{field}'"):
        open_database(directory)
    for deep in (False, True):
        report = fsck_database(directory, deep=deep)
        assert _codes(report) == {"object-malformed"}, report.issues
        assert report.objects_checked == 2
        assert report.tiles_checked == len(catalog["collections"]["c"][1]["tiles"])


def test_a_row_whose_virtual_flag_is_not_a_bool_fails_open(tmp_path):
    """fsck reads a tile's ``virtual`` from its blob record; open builds
    the row from the catalog's and refuses an ill-typed one."""
    directory = _build(tmp_path / "db")
    _set_row(directory, lambda row: {**row, "virtual": 0})
    with pytest.raises(RecoveryError, match="virtual 0 is not a bool"):
        open_database(directory)
    assert fsck_database(directory).ok
