"""Unit tests for access logs and the tiling advisor."""

import json

import numpy as np
import pytest

from repro.core.errors import ReproError
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.query.access import Access, AccessKind
from repro.query.engine import QueryEngine
from repro.stats.advisor import advise
from repro.stats.log import AccessLog
from repro.storage.tilestore import Database
from repro.tiling.aligned import AlignedTiling, RegularTiling
from repro.tiling.statistic import StatisticTiling

DOMAIN = MInterval.parse("[0:99,0:99]")


def access(text, kind=AccessKind.SUBARRAY):
    return Access(MInterval.parse(text), kind)


class TestAccessLog:
    def test_record_and_query(self):
        log = AccessLog()
        log.record("read", "c", "obj", MInterval.parse("[0:9,0:9]"), 1, kind=AccessKind.SUBARRAY)
        log.record("write", "c", "obj", MInterval.parse("[0:9,0:9]"), 2)
        log.record("read", "c", "obj", MInterval.parse("[5:9,0:9]"), 2, kind=AccessKind.SUBARRAY)
        log.record("read", "c", "other", MInterval.parse("[0:1,0:1]"), 2, kind=AccessKind.SUBARRAY)
        assert log.accesses("obj") == [access("[0:9,0:9]"), access("[5:9,0:9]")]
        assert log.regions("obj") == [
            MInterval.parse("[0:9,0:9]"),
            MInterval.parse("[5:9,0:9]"),
        ]
        assert log.regions("nobody") == []

    def test_clear(self):
        log = AccessLog()
        log.record("read", "c", "a", MInterval.parse("[0:1,0:1]"), 1, kind=AccessKind.WHOLE)
        log.record("read", "c", "b", MInterval.parse("[0:1,0:1]"), 1, kind=AccessKind.WHOLE)
        log.clear()
        assert log.events() == ()
        assert log.total_recorded == 0
        log.record("read", "c", "a", MInterval.parse("[0:1,0:1]"), 1, kind=AccessKind.WHOLE)
        assert [e.seq for e in log.events()] == [1]

    def test_save_load_roundtrip(self, tmp_path):
        log = AccessLog()
        log.record("read", "c", "obj", MInterval.parse("[0:9,0:9]"), 3,
                   cost_ms=1.5, cells=100, kind=AccessKind.PARTIAL)
        log.record("read", "c", "obj", MInterval.parse("[5:5,0:9]"), 3, kind=AccessKind.SECTION)
        log.record("delete", "c", "obj", MInterval.parse("[0:4,0:9]"), 4, cells=50)
        path = tmp_path / "accesses.jsonl"
        assert log.flush_jsonl(path) == 3
        loaded = AccessLog.load(path)
        assert loaded.events() == log.events()
        assert loaded.accesses("obj") == log.accesses("obj")
        assert loaded.total_recorded == 3

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            AccessLog.load(tmp_path / "nope.jsonl")

    def test_load_corrupt_line(self, tmp_path):
        good = AccessLog()
        good.record("read", "c", "x", MInterval.parse("[0:9]"), 1, kind=AccessKind.WHOLE)
        entry = good.events()[0].as_dict()
        corrupt = [
            '{"object": "x"}',
            "not json",
            "[1, 2]",
            json.dumps({**entry, "region": "[0:9"}),
            json.dumps({**entry, "kind": "diagonal"}),
            json.dumps({**entry, "epoch": "late"}),
        ]
        for number, line in enumerate(corrupt):
            path = tmp_path / f"bad{number}.jsonl"
            good.flush_jsonl(path)
            with open(path, "a") as handle:
                handle.write(line + "\n")
            with pytest.raises(ReproError, match=f"{path}:2: corrupt log entry"):
                AccessLog.load(path)

    def test_drained_flush_loses_nothing_and_keeps_counting(self, tmp_path, monkeypatch):
        """An event recorded while a draining flush writes stays in the
        log (or lands in the file), and two drains to one file carry
        strictly increasing sequence numbers."""
        log = AccessLog()
        region = MInterval.parse("[0:9]")
        log.record("read", "c", "x", region, 1, kind=AccessKind.WHOLE)
        log.record("read", "c", "x", region, 1, kind=AccessKind.WHOLE)
        path = tmp_path / "access.jsonl"
        opened = type(path).open

        def open_and_record(self, *args, **kwargs):
            # a concurrent query finishing while the file is written
            log.record("read", "c", "x", region, 2, kind=AccessKind.WHOLE)
            return opened(self, *args, **kwargs)

        monkeypatch.setattr(type(path), "open", open_and_record)
        assert log.flush_jsonl(path, clear=True) == 2
        monkeypatch.undo()
        assert [e.seq for e in log.events()] == [3]
        log.record("read", "c", "x", region, 2, kind=AccessKind.WHOLE)
        assert log.flush_jsonl(path, clear=True) == 2
        seqs = [e.seq for e in AccessLog.load(path).events()]
        assert seqs == [1, 2, 3, 4]
        assert len(log) == 0 and log.dropped == 0


class TestEngineLogging:
    def test_engine_records_accesses(self):
        db = Database()
        t = mdd_type("Img", "char", "[0:99,0:99]")
        obj = db.create_object("imgs", t, "img")
        obj.load_array(np.zeros((100, 100), np.uint8), RegularTiling(2048))
        engine = QueryEngine(db)
        engine.range_query(obj, MInterval.parse("[0:9,*:*]"))
        engine.section_query(obj, 0, 5)
        accesses = db.access_log.accesses("img")
        assert [a.kind for a in accesses] == [AccessKind.PARTIAL, AccessKind.SECTION]
        assert [a.region for a in accesses] == [
            MInterval.parse("[0:9,0:99]"), MInterval.parse("[5:5,0:99]"),
        ]


class TestAdvisor:
    def test_empty_history_defaults_aligned(self):
        advice = advise([])
        assert isinstance(advice.strategy, AlignedTiling)
        assert "default" in advice.reason

    def test_whole_reads_stay_aligned(self):
        history = [access("[0:99,0:99]", AccessKind.WHOLE)] * 5 + [
            access("[0:9,0:9]")
        ]
        advice = advise(history)
        assert isinstance(advice.strategy, AlignedTiling)

    def test_sections_get_starred_config(self):
        history = [
            access(f"[{i}:{i},0:99]", AccessKind.SECTION) for i in range(6)
        ]
        advice = advise(history)
        assert isinstance(advice.strategy, AlignedTiling)
        config = advice.strategy.config_for(DOMAIN)
        assert config.elements[0] == 1.0   # pinned axis short
        assert config.elements[1] is None  # scan axis starred

    def test_positional_accesses_get_statistic(self):
        history = [access("[10:20,10:20]")] * 4
        advice = advise(history, frequency_threshold=2)
        assert isinstance(advice.strategy, StatisticTiling)
        spec = advice.strategy.tile(DOMAIN, 1)
        hot = MInterval.parse("[10:20,10:20]")
        touched = [t for t in spec.tiles if t.intersects(hot)]
        assert sum(t.cell_count for t in touched) == hot.cell_count

    def test_mixed_sections_without_common_axis(self):
        history = [
            access("[5:5,0:99]", AccessKind.SECTION),
            access("[0:99,7:7]", AccessKind.SECTION),
            access("[9:9,0:99]", AccessKind.SECTION),
        ]
        advice = advise(history)
        # no common pinned axis -> falls through to statistic tiling
        assert isinstance(advice.strategy, StatisticTiling)

    def test_advice_carries_reason(self):
        assert advise([]).reason
