"""Regression tests for ``Database.reset_clock`` at batch boundaries.

``reset_clock`` marks a cold measurement boundary between benchmark
batches: it zeroes the disk's read clock and head and empties the
caches.  Activity is counted in the registry and each query's record,
so there are no tallies to reset; the WAL's durable state (log file,
armed mode, pending buffers) must never be touched by a measurement
boundary.
"""

import numpy as np

from repro import obs
from repro.core.cells import base_type
from repro.core.geometry import MInterval
from repro.core.mddtype import MDDType
from repro.storage.catalog import create_database, open_database
from repro.storage.tilestore import Database
from repro.storage.wal import scan_wal
from repro.tiling.aligned import RegularTiling


def _loaded_database(**kwargs):
    db = Database(**kwargs)
    t = MDDType("img", base_type("char"), MInterval.parse("[0:31,0:31]"))
    obj = db.create_object("c", t, "o")
    data = (np.arange(32 * 32) % 251).astype(np.uint8).reshape(32, 32)
    obj.load_array(data, RegularTiling(512))
    return db, obj


class TestCacheCounters:
    def test_reset_zeroes_disk_counters(self):
        db, obj = _loaded_database()
        region = MInterval.parse("[0:31,0:31]")
        _, first = obj.read(region)
        assert db.disk.time_ms > 0.0
        db.reset_clock()
        assert db.disk.time_ms == 0.0
        # the head is forgotten too: the same read is charged the same again
        _, again = obj.read(region)
        assert (again.t_o, again.t_ix_pages) == (first.t_o, first.t_ix_pages)
        assert abs(db.disk.time_ms - (first.t_o + first.t_ix_pages)) <= 1e-6


class TestWalClockInteraction:
    def test_reset_zeroes_wal_stats_only(self, tmp_path):
        db = create_database(
            tmp_path / "db", durability="wal", page_size=128
        )
        t = MDDType("img", base_type("char"), MInterval.parse("[0:15,0:15]"))
        obj = db.create_object("c", t, "o")
        obj.load_array(
            (np.arange(256) % 251).astype(np.uint8).reshape(16, 16),
            RegularTiling(128),
        )
        commits = obs.registry.value("wal.commits")
        assert commits > 0
        log_size = db.wal.path.stat().st_size
        db.reset_clock()
        # the WAL keeps no tallies; its process-wide count is not a clock
        assert obs.registry.value("wal.commits") == commits
        # durable state: untouched
        assert db.wal.path.stat().st_size == log_size
        assert db.durability == "wal"
        assert db.store.pending_writes == 0
        assert len(scan_wal(db.wal.path).batches) > 0
        db.close()
        # and the logged work still recovers after the reset
        reopened = open_database(tmp_path / "db")
        assert reopened.last_recovery.transactions_replayed > 0
        assert reopened.collection("c")["o"].tile_count == obj.tile_count
        reopened.close()

    def test_wal_charges_never_touch_t_o(self, tmp_path):
        db = create_database(
            tmp_path / "db", durability="wal+fsync", page_size=128
        )
        t = MDDType("img", base_type("char"), MInterval.parse("[0:15,0:15]"))
        obj = db.create_object("c", t, "o")
        db.reset_clock()
        wal_ms = obs.registry.value("disk.wal_ms")
        obj.load_array(
            (np.arange(256) % 251).astype(np.uint8).reshape(16, 16),
            RegularTiling(128),
        )
        assert obs.registry.value("disk.wal_ms") > wal_ms
        assert db.disk.time_ms == 0.0  # writes charge no read clock
        db.close()
