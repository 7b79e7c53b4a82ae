"""Unit tests for the offline consistency checker."""

import json

import numpy as np

from repro.core.cells import base_type
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


class TestZoneAudit:
    """The zone-map sidecar audit (shallow and ``--deep``)."""

    def _entries(self, directory):
        sidecar = json.loads((directory / "zones.json").read_text())
        return sidecar, sidecar["collections"]["c"]["o"]

    def test_clean_deep_audit(self, tmp_path):
        report = fsck_database(_build(tmp_path / "db"), deep=True)
        assert report.ok, report.issues
        assert report.zones_checked > 0
        assert "zone entries" in report.summary()

    def test_absent_sidecar_is_only_a_warning(self, tmp_path):
        directory = _build(tmp_path / "db")
        (directory / "zones.json").unlink()
        report = fsck_database(directory)
        assert report.ok  # warnings never fail the check
        assert "zone-sidecar-absent" in _codes(report)

    def test_corrupt_sidecar(self, tmp_path):
        directory = _build(tmp_path / "db")
        (directory / "zones.json").write_text("{not json")
        report = fsck_database(directory)
        assert not report.ok
        assert "zone-sidecar-corrupt" in _codes(report)

    def test_missing_entry(self, tmp_path):
        directory = _build(tmp_path / "db")
        sidecar, entries = self._entries(directory)
        entries.pop(sorted(entries)[0])
        assert entries, "need a second entry to keep zone maps enabled"
        (directory / "zones.json").write_text(json.dumps(sidecar))
        report = fsck_database(directory)
        assert not report.ok
        assert "zone-missing" in _codes(report)

    def test_orphan_entry(self, tmp_path):
        directory = _build(tmp_path / "db")
        sidecar, entries = self._entries(directory)
        entries["9999"] = next(iter(entries.values()))
        (directory / "zones.json").write_text(json.dumps(sidecar))
        report = fsck_database(directory)
        assert not report.ok
        assert "zone-orphan" in _codes(report)

    def test_count_mismatch(self, tmp_path):
        directory = _build(tmp_path / "db")
        sidecar, entries = self._entries(directory)
        next(iter(entries.values()))["count"] += 1
        (directory / "zones.json").write_text(json.dumps(sidecar))
        report = fsck_database(directory)
        assert not report.ok
        assert "zone-count-mismatch" in _codes(report)

    def test_inverted_range(self, tmp_path):
        directory = _build(tmp_path / "db")
        sidecar, entries = self._entries(directory)
        entry = next(iter(entries.values()))
        entry["min"], entry["max"] = entry["max"] + 1, entry["min"]
        (directory / "zones.json").write_text(json.dumps(sidecar))
        report = fsck_database(directory)
        assert not report.ok
        assert "zone-range-invalid" in _codes(report)

    def test_stale_synopsis_needs_deep(self, tmp_path):
        directory = _build(tmp_path / "db")
        sidecar, entries = self._entries(directory)
        entry = next(iter(entries.values()))
        entry["min"] = entry["min"] + 1  # plausible but wrong
        entry["sum"] = entry["sum"] + 1
        (directory / "zones.json").write_text(json.dumps(sidecar))
        assert fsck_database(directory).ok  # shallow cannot see it
        report = fsck_database(directory, deep=True)
        assert not report.ok
        assert "zone-stale" in _codes(report)
