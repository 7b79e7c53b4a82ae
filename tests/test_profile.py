"""EXPLAIN ANALYZE profiler: per-stage accounting and reconciliation.

A profile is a rendering of the query's own :class:`QueryTiming`: its
stage walls are the executor's timers, so they exist (and reconcile)
with every registry instrument patched to a no-op and are untouched by
queries on other threads.
"""

import contextlib

import numpy as np
import pytest

from repro import obs
from repro.bench.obsbench import noop_instruments
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.query.profile import profile_read
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling

DOMAIN = MInterval.parse("[0:63,0:63]")
IMG = mdd_type("ProfImg", "char", str(DOMAIN))


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.reset()
    yield
    obs.reset()


def _load(**kwargs) -> Database:
    database = Database(**kwargs)
    mdd = database.create_object("prof", IMG, "img")
    data = (np.indices((64, 64)).sum(axis=0) % 251).astype(np.uint8)
    mdd.load_array(data, RegularTiling(1024))
    return database


class TestProfileRead:
    def test_modelled_time_reconciles_exactly(self):
        database = _load()
        database.reset_clock()
        profile = database.profile("prof", "img", DOMAIN)
        assert profile.modelled_reconciles
        assert profile.disk_ms_delta == pytest.approx(
            profile.timing.t_o + profile.timing.t_ix_pages, abs=1e-6
        )

    def test_wall_time_within_tolerance(self):
        database = _load()
        profile = database.profile("prof", "img", DOMAIN)
        assert profile.wall_reconciles() is True
        timing = profile.timing
        assert profile.stage_wall_ms == (
            timing.select_ms + timing.fetch_ms + timing.sink_ms
        )
        assert 0.0 < profile.stage_wall_ms <= profile.wall_ms

    def test_stage_structure(self):
        database = _load()
        profile = database.profile("prof", "img", DOMAIN)
        names = [stage.name for stage in profile.stages]
        assert names[0] == "index"
        assert "fetch" in names
        assert names[-1] == "compose"
        index = profile.stages[0]
        assert index.modelled_ms == profile.timing.t_ix
        assert index.detail["nodes"] == profile.timing.index_nodes
        fetch = next(s for s in profile.stages if s.name == "fetch")
        assert fetch.modelled_ms == profile.timing.t_o
        assert fetch.detail["tiles"] == profile.timing.tiles_read

    def test_fetch_stage_shows_the_page_runs(self):
        """A cold read's charged reads, each one page run, by regime."""
        database = _load()
        database.reset_clock()
        profile = database.profile("prof", "img", DOMAIN)
        detail = next(s for s in profile.stages if s.name == "fetch").detail
        runs = detail["random"] + detail["short_skip"] + detail["sequential"]
        assert runs == detail["disk_reads"] == profile.timing.disk_blobs > 0
        assert detail["sequential"] > 0  # the tiles lie in page order

    def test_parallel_read_profile_keeps_one_tree(self):
        """An ``io_workers=4`` read's decodes land in its one record: the
        decode stage is the summed wall of every decoded tile."""
        database = _load(io_workers=4, compression=True)
        database.reset_clock()
        profile = database.profile("prof", "img", DOMAIN)
        assert profile.modelled_reconciles
        assert profile.wall_reconciles() is True
        names = [stage.name for stage in profile.stages]
        assert names == ["index", "fetch", "decode", "compose"]
        decode = profile.stages[2]
        assert decode.detail["tiles"] == profile.timing.tiles_decoded
        assert decode.detail["tiles"] == profile.timing.tiles_read > 0
        assert decode.wall_ms == profile.timing.decode_ms > 0.0
        database.close()

    def test_concurrent_spans_not_leaked_into_profile(self):
        """Another thread's queries stay out of this profile's record."""
        import threading

        database = _load()
        other = _load()
        stop = threading.Event()

        def noisy():
            mdd = other.collection("prof")["img"]
            while not stop.is_set():
                mdd.read(MInterval.parse("[0:7,0:7]"))

        quiet = _load().profile("prof", "img", DOMAIN)
        thread = threading.Thread(target=noisy)
        thread.start()
        try:
            profile = database.profile("prof", "img", DOMAIN)
        finally:
            stop.set()
            thread.join()
        # The other thread's reads leave this query's record untouched:
        # every counter and modelled charge equals the quiet twin's.
        assert _counters(profile) == _counters(quiet)
        assert [s.name for s in profile.stages] == [
            s.name for s in quiet.stages
        ]

    def test_decoded_cache_warm_profile_reconciles(self):
        database = _load(decoded_cache_bytes=1 << 20)
        mdd = database.collection("prof")["img"]
        mdd.read(DOMAIN)  # warm the decoded cache
        profile = database.profile("prof", "img", DOMAIN)
        # Warm reads charge no tile retrieval; reconciliation still holds
        # (only index-node pages hit the disk clock).
        assert profile.timing.t_o == 0.0
        assert profile.modelled_reconciles

    def test_profile_with_obs_disabled_still_reconciles_model(self):
        database = _load()
        with noop_instruments():  # bench obs's floor: the registry records nothing
            profile = database.profile("prof", "img", DOMAIN)
        assert profile.modelled_reconciles
        assert profile.wall_reconciles() is True
        assert all(stage.wall_ms is not None for stage in profile.stages)
        assert "spans" not in profile.as_dict()

    def test_format_and_as_dict(self):
        database = _load()
        profile = database.profile("prof", "img", DOMAIN)
        text = profile.format()
        assert "EXPLAIN ANALYZE" in text
        assert "exact" in text
        assert "prof.img" in text
        payload = profile.as_dict()
        assert payload["modelled_reconciles"] is True
        assert payload["timing"]["t_ix_pages"] >= 0.0
        assert len(payload["stages"]) == len(profile.stages)

    def test_profile_read_function_matches_method(self):
        database = _load()
        via_function = profile_read(database, "prof", "img", DOMAIN)
        assert via_function.modelled_reconciles


def _counters(profile) -> dict:
    """The record's counters, then its modelled disk charges."""
    timing = profile.timing
    counters = {k: v for k, v in timing.as_dict().items() if isinstance(v, int)}
    return {**counters, "t_o": timing.t_o, "t_ix_pages": timing.t_ix_pages}


def _shape(profile) -> list:
    """Stage names and details in order, less the measured CPU share."""
    return [
        (stage.name, {k: v for k, v in stage.detail.items() if k != "measured_cpu_ms"})
        for stage in profile.stages
    ]


class TestObsIndependence:
    """With the registry live or patched to no-ops (``bench obs``'s
    floor), the profile is the same rendering: it reads no metric."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"op": "add_cells"},
            {"op": "add_cells", "predicate": "> 40"},
            {"predicate": "> 200"},
        ],
        ids=["read", "aggregate", "predicated-aggregate", "predicated-read"],
    )
    def test_obs_off_profile_matches_obs_on(self, kwargs):
        from repro.index.zonemap import parse_predicate

        if "predicate" in kwargs:
            kwargs = dict(kwargs, predicate=parse_predicate(kwargs["predicate"]))
        profiles = []
        for floor in (contextlib.nullcontext(), noop_instruments()):
            with floor:
                database = _load(compression=True)
                database.reset_clock()
                profiles.append(database.profile("prof", "img", DOMAIN, **kwargs))
        on, off = profiles
        assert _shape(off) == _shape(on)
        assert _counters(off) == _counters(on)
        assert off.modelled_reconciles and on.modelled_reconciles
        assert off.wall_reconciles() is True
        assert all(
            stage.wall_ms is not None
            for stage in off.stages
            if stage.name != "prune"
        )
        assert "-> exact" in off.format()
        assert "within tolerance" in off.format()


class TestTimingPageComponent:
    def test_t_ix_pages_accumulates_and_scales(self):
        from repro.query.timing import QueryTiming

        a = QueryTiming(t_ix=2.0, t_ix_pages=1.5)
        b = QueryTiming(t_ix=1.0, t_ix_pages=0.5)
        a.add(b)
        assert a.t_ix_pages == 2.0
        assert a.scaled(0.5).t_ix_pages == 1.0
        assert "t_ix_pages" in a.as_dict()

    def test_read_splits_index_time_into_pages_and_cpu(self):
        database = _load()
        _, timing = database.collection("prof")["img"].read(DOMAIN)
        assert 0.0 < timing.t_ix_pages <= timing.t_ix


class TestExplainOnSalesCube:
    def test_sales_cube_reconciliation(self):
        """The acceptance workload: per-stage totals reconcile against
        QueryTiming on the sales cube (modelled exactly, wall within
        tolerance)."""
        from repro.bench import salescube

        database = Database()
        schemes = salescube.build_schemes()
        mdd = database.create_object(
            "explain", salescube.sales_mdd_type(), "Dir64K3P"
        )
        mdd.load_array(
            salescube.generate_sales_data(),
            schemes["Dir64K3P"],
            origin=(1, 1, 1),
        )
        database.reset_clock()
        obs.reset()
        profile = database.profile(
            "explain", "Dir64K3P", salescube.QUERIES["e"]
        )
        assert profile.modelled_reconciles
        assert profile.wall_reconciles() is not False
        assert profile.timing.tiles_read > 0
        database.close()


class TestPredicateProfile:
    def test_prune_stage_reported(self):
        from repro.index.zonemap import CellPredicate

        database = _load()
        database.reset_clock()
        predicate = CellPredicate(">", 10_000)  # nothing matches uint8
        profile = database.profile(
            "prof", "img", DOMAIN, predicate=predicate
        )
        names = [stage.name for stage in profile.stages]
        assert names[:2] == ["index", "prune"]
        prune = profile.stages[1]
        assert prune.detail["predicate"] == "cell > 10000"
        assert prune.detail["tiles_pruned"] == profile.timing.tiles_pruned
        assert profile.timing.tiles_pruned > 0
        assert profile.timing.tiles_read == 0
        assert profile.modelled_reconciles
        assert "pruned" in profile.format()

    def test_unpredicated_profile_has_no_prune_stage(self):
        database = _load()
        profile = database.profile("prof", "img", DOMAIN)
        assert "prune" not in [stage.name for stage in profile.stages]
