"""The verified read-ahead of the fetch path (``pipeline._read_runs``).

Shape under test is the wall-clock benchmark's ``range_cold``: a page-file
store behind a 1 MiB pool that evicts *during* one read of > 100
multi-page tiles.  The read-ahead may change how many store reads and
CRC passes a query costs — never what it returns, what it is charged,
how the pool evolves, or which pages get verified.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.errors import ChecksumError
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.index.zonemap import CellPredicate
from repro.storage import pipeline
from repro.storage.backends import FileBlobStore
from repro.storage.blob import BlobStore
from repro.storage.catalog import create_database, open_database, save_database
from repro.tiling.aligned import RegularTiling
from tests.counted import counted, counts

CUBE = mdd_type("Cube", "ulong", "[0:767,0:767]")
FULL = MInterval.parse("[0:767,0:767]")
LEFT = MInterval.parse("[0:767,0:383]")
TILE_BYTES = 16 * 1024
MIB = 1 << 20
# measured wall time is part of t_ix / t_cpu and all of the stage
# walls; everything else is modelled
MEASURED = {"t_ix", "t_cpu", "select_ms", "fetch_ms", "sink_ms", "decode_ms"}


def cube_data() -> np.ndarray:
    # full-range noise: zlib cannot shrink it, so every tile spans two pages
    return np.random.default_rng(7).integers(
        0, 2**32, size=(768, 768), dtype=np.uint32
    )


DATA = cube_data()


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.reset()
    yield
    obs.reset()


@pytest.fixture()
def stored(tmp_path):
    """A saved database directory (per test: some damage its page file)."""
    directory = tmp_path / "db"
    db = create_database(directory, compression=True)
    db.create_object("cubes", CUBE, "c").load_array(
        DATA, RegularTiling(TILE_BYTES)
    )
    save_database(db, directory)
    db.close()
    db.store.close()
    return directory


def reopen(directory, io_workers=1, **kwargs):
    db = open_database(
        directory, buffer_bytes=MIB, io_workers=io_workers, **kwargs
    )
    return db, db.collection("cubes")["c"]


def shut(db):
    db.close()
    db.store.close()


def page_ordered(db, obj):
    return sorted(obj.tile_entries(), key=db.first_page)


def modelled(timing) -> dict:
    fields = dataclasses.asdict(timing)
    return {k: v for k, v in fields.items() if k not in MEASURED}


def counter(name: str) -> float:
    return obs.registry.value(name)


def flip_bit(db, entry, page: int) -> None:
    """Flip one bit inside ``page`` of the tile's blob (twice = repaired)."""
    pages = db.store.record(entry.blob_id).pages
    assert page < pages.count
    offset = (pages.start + page) * db.store.page_size + 100
    with open(db.store.path, "r+b") as raw:
        raw.seek(offset)
        byte = raw.read(1)[0]
        raw.seek(offset)
        raw.write(bytes([byte ^ 0x10]))


class TestPinnedToPerBlobBehaviour:
    """(a) chunk = 1 is the per-blob path; the real chunk must match it."""

    def _trajectory(self, directory, io_workers, monkeypatch, chunk, run):
        if chunk is not None:
            monkeypatch.setattr(pipeline, "_READ_AHEAD_RUNS", chunk)
        db, obj = reopen(directory, io_workers)
        per_blob_reads = []
        real_get = BlobStore.get

        def spy(store, blob_id):
            per_blob_reads.append(blob_id)
            return real_get(store, blob_id)

        monkeypatch.setattr(BlobStore, "get", spy)
        try:
            with counted() as delta:
                results = run(obj)
            return (
                results,
                (db.disk.time_ms, counts(delta, "disk.")),
                counts(delta, "pool."),
                list(db.pool._entries),
                len(per_blob_reads),
            )
        finally:
            monkeypatch.undo()
            shut(db)

    @pytest.mark.parametrize("io_workers", [1, 2])
    def test_read_is_identical(self, stored, io_workers, monkeypatch):
        def run(obj):
            # LEFT fills the pool; FULL then finds tiles cached at the
            # peek that its own admissions evict before their turn
            return [obj.read(region) for region in (LEFT, FULL, LEFT)]

        one = self._trajectory(stored, io_workers, monkeypatch, 1, run)
        real = self._trajectory(stored, io_workers, monkeypatch, None, run)
        for (a, ta), (b, tb), region in zip(one[0], real[0], (LEFT, FULL, LEFT)):
            assert a.tobytes() == b.tobytes()
            assert np.array_equal(b, DATA[region.to_slices((0, 0))])
            assert modelled(ta) == modelled(tb)
        full = real[0][1][1]
        assert full.tiles_read >= 100 and full.pool_evictions > 0
        assert one[1:4] == real[1:4]
        assert one[4] == 0, "chunk of one: the peek is never stale"
        assert real[4] > 0, "no blob was evicted between peek and turn"

    @pytest.mark.parametrize("io_workers", [1, 2])
    def test_aggregate_push_is_identical(self, stored, io_workers, monkeypatch):
        above = CellPredicate(">", 2**31)  # undecidable from any synopsis

        def run(obj):
            return [
                obj.aggregate_push(region, "count_cells", predicate=above)[:2]
                for region in (LEFT, FULL, LEFT)
            ]

        one = self._trajectory(stored, io_workers, monkeypatch, 1, run)
        real = self._trajectory(stored, io_workers, monkeypatch, None, run)
        for (a, ta), (b, tb), region in zip(one[0], real[0], (LEFT, FULL, LEFT)):
            assert a == b == (DATA[region.to_slices((0, 0))] > 2**31).sum()
            ma, mb = modelled(ta), modelled(tb)
            assert 0 < ma["peak_partial_bytes"] <= TILE_BYTES  # one tile at a time
            assert ma == mb
        assert real[0][1][1].tiles_partial_agg >= 100
        assert one[1:4] == real[1:4]
        assert real[4] > 0


    @pytest.mark.parametrize("io_workers", [1, 2])
    def test_pool_less_read_is_identical(self, stored, io_workers, monkeypatch):
        above = CellPredicate(">", 2**31)

        def trajectory(chunk):
            if chunk is not None:
                monkeypatch.setattr(pipeline, "_READ_AHEAD_RUNS", chunk)
            db = open_database(stored, io_workers=io_workers)
            obj = db.collection("cubes")["c"]
            try:
                with counted() as delta:
                    reads = [obj.read(region) for region in (LEFT, FULL)]
                    pushed = obj.aggregate_push(FULL, "count_cells", predicate=above)
                return reads, pushed[:2], (db.disk.time_ms, counts(delta, "disk."))
            finally:
                monkeypatch.undo()
                shut(db)

        one, real = trajectory(1), trajectory(None)
        for (a, ta), (b, tb), region in zip(one[0], real[0], (LEFT, FULL)):
            assert a.tobytes() == b.tobytes()
            assert np.array_equal(b, DATA[region.to_slices((0, 0))])
            assert modelled(ta) == modelled(tb)
            assert tb.pool_hits + tb.pool_misses == 0
        (va, ta), (vb, tb) = one[1], real[1]
        assert va == vb == (DATA > 2**31).sum()
        ma, mb = modelled(ta), modelled(tb)
        assert 0 < ma["peak_partial_bytes"] <= TILE_BYTES  # one tile at a time
        assert ma == mb
        assert one[2] == real[2]

    def test_pool_less_read_takes_one_get_run_per_chunk(self, stored, monkeypatch):
        db = open_database(stored)
        obj = db.collection("cubes")["c"]
        runs, per_blob = [], []
        real_run, real_get = FileBlobStore.get_run, BlobStore.get

        def spy_run(store, blob_ids):
            runs.append(len(blob_ids))
            return real_run(store, blob_ids)

        def spy_get(store, blob_id):
            per_blob.append(blob_id)
            return real_get(store, blob_id)

        monkeypatch.setattr(FileBlobStore, "get_run", spy_run)
        monkeypatch.setattr(BlobStore, "get", spy_get)
        try:
            array, timing = obj.read(FULL)
        finally:
            monkeypatch.undo()
            shut(db)
        assert np.array_equal(array, DATA)
        chunk = pipeline._READ_AHEAD_RUNS
        assert timing.tiles_read > 3 * chunk
        assert runs == [
            min(chunk, timing.tiles_read - start)
            for start in range(0, timing.tiles_read, chunk)
        ]
        assert per_blob == []


class TestCorruptPage:
    """(b), (c): a flipped bit never reaches a pool, a cache or a caller."""

    K = 40  # page-order position of the damaged tile: inside chunk two

    def test_failed_chunk_leaves_nothing_behind(self, stored):
        db, obj = reopen(stored, io_workers=2, decoded_cache_bytes=8 * MIB)
        try:
            entries = page_ordered(db, obj)
            chunk = pipeline._READ_AHEAD_RUNS
            assert chunk <= self.K < 2 * chunk < len(entries)
            victim = entries[self.K]
            flip_bit(db, victim, page=1)
            failures = counter("checksum.page_failures")
            with pytest.raises(ChecksumError) as raised:
                obj.read(FULL)
            message = str(raised.value)
            assert f"blob {victim.blob_id}:" in message
            assert "page(s) [1]" in message
            assert counter("checksum.page_failures") == failures + 1
            for entry in entries[chunk:]:
                assert entry.blob_id not in db.pool
            for entry in entries[:chunk]:
                assert entry.blob_id in db.pool
            assert all(
                db.decoded_cache.get(e.blob_id) is None for e in entries
            )
            assert db.epoch.active_pins == 0
            assert obs.snapshot()["gauges"]["mvcc.pin_floor"] == db.epoch.current
            flip_bit(db, victim, page=1)  # repaired
            array, _timing = obj.read(FULL)
            assert np.array_equal(array, DATA)
        finally:
            shut(db)

    def test_concurrent_readers_never_see_the_corrupt_blob(self, stored):
        db, obj = reopen(stored, io_workers=2)
        victim = page_ordered(db, obj)[self.K]
        flip_bit(db, victim, page=1)
        # three readers on two cores sharing one pool; the last box
        # overlaps the others but not the damaged tile
        boxes = [FULL, LEFT, MInterval.parse("[100:700,330:760]")]
        outcomes: list = []

        def reader(box):
            for _ in range(3):
                try:
                    outcomes.append((box, obj.read(box)[0]))
                except ChecksumError as exc:
                    outcomes.append((box, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(box,)) for box in boxes
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert len(outcomes) == 9
            for box, outcome in outcomes:
                if box.intersects(victim.domain):
                    assert f"blob {victim.blob_id}:" in str(outcome)
                    assert isinstance(outcome, ChecksumError)
                else:
                    assert np.array_equal(outcome, DATA[box.to_slices((0, 0))])
            assert victim.blob_id not in db.pool
            assert db.epoch.active_pins == 0
        finally:
            sys.setswitchinterval(interval)
            shut(db)


class TestEveryMissedPageVerifiedOnce:
    """(d) the benchmark identity ``checksum.pages_verified`` =
    ``store.pages_read``, including reads that mix hits, read-ahead
    misses and the eviction fallback."""

    @pytest.mark.parametrize("io_workers", [1, 2])
    def test_pages_verified_equals_pages_missed(self, stored, io_workers):
        db, obj = reopen(stored, io_workers)
        try:
            for region in (LEFT, FULL, LEFT, MInterval.parse("[5:300,9:760]")):
                verified = counter("checksum.pages_verified")
                charged = counter("disk.pages_read") - counter(
                    "disk.index_node_reads"
                )
                _array, timing = obj.read(region)
                assert timing.pool_misses > 0
                assert counter("checksum.pages_verified") - verified == (
                    counter("disk.pages_read")
                    - counter("disk.index_node_reads")
                    - charged
                )
        finally:
            shut(db)


class TestFallbacks:
    """(e) pending and virtual blobs take the store's per-blob path."""

    def test_read_of_pending_blobs_inside_a_transaction(self, tmp_path):
        directory = tmp_path / "wal"
        db = create_database(
            directory, durability="wal", buffer_bytes=MIB, compression=True
        )
        try:
            obj = db.create_object("cubes", CUBE, "c")
            obj.load_array(DATA, RegularTiling(TILE_BYTES))
            patch_box = MInterval.parse("[10:500,20:600]")
            patch = np.full(patch_box.shape, 9, dtype=np.uint32)
            mirror = DATA.copy()
            mirror[patch_box.to_slices((0, 0))] = patch
            with db.transaction():
                obj.update(patch_box, patch)
                assert db.store.pending_writes >= 64
                array, timing = obj.read(FULL)
                assert timing.tiles_read >= 100
                assert np.array_equal(array, mirror)
            array, _timing = obj.read(FULL)
            assert np.array_equal(array, mirror)
        finally:
            shut(db)

    def test_virtual_tiles(self, tmp_path, monkeypatch):
        def read(directory, chunk):
            if chunk is not None:
                monkeypatch.setattr(pipeline, "_READ_AHEAD_RUNS", chunk)
            db = create_database(tmp_path / directory, buffer_bytes=MIB)
            try:
                obj = db.create_object("cubes", CUBE, "v")
                obj.load_virtual(FULL, RegularTiling(TILE_BYTES))
                array, timing = obj.read(FULL)
                return array, modelled(timing), list(db.pool._entries)
            finally:
                monkeypatch.undo()
                shut(db)

        one = read("one", 1)
        real = read("real", None)
        assert not one[0].any() and not real[0].any()
        assert one[1] == real[1] and one[1]["tiles_read"] >= 100
        assert one[2] == real[2]
