"""The disk is charged per read-ahead chunk, never while a latch sleeps,
and only with parameters it can price.

A cold read of a page-file store, with and without a 1 MiB pool (the
wall-clock benchmark's ``range_cold`` shape): each chunk of
``pipeline._READ_AHEAD_RUNS`` blobs takes a bounded number of latch
acquisitions, whatever its size; the realtime wait of
``DiskParameters.realtime_scale`` runs with no latch held; and a
``DiskParameters`` that cannot be priced is refused where it is made.
"""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.storage import disk, latch, pipeline
from repro.storage.catalog import create_database
from repro.storage.disk import DiskParameters
from repro.tiling.aligned import RegularTiling

CUBE = mdd_type("BatchCube", "ulong", "[0:511,0:511]")
FULL = MInterval.parse("[0:511,0:511]")
MIB = 1 << 20
POOLS = pytest.mark.parametrize("buffer_bytes", [0, MIB], ids=["nopool", "pool"])


def _cold(tmp_path, buffer_bytes, **kwargs):
    db = create_database(tmp_path / "db", buffer_bytes=buffer_bytes, **kwargs)
    obj = db.create_object("cubes", CUBE, "c")
    data = np.random.default_rng(5).integers(0, 2**32, size=(512, 512), dtype=np.uint32)
    obj.load_array(data, RegularTiling(4096))  # 256 tiles: 8 chunks
    db.reset_clock()
    return db, obj, data


def _shut(db):
    db.close()
    db.store.close()


def _acquisitions(read) -> tuple[Counter, tuple]:
    """Latch acquisitions by name during ``read()``, and its result."""
    acquired: Counter = Counter()

    def hook(label: str) -> None:
        if label.startswith("latch:") and not label.endswith(":blocked"):
            acquired[label[len("latch:"):]] += 1

    latch.set_schedule_hook(hook)
    try:
        return acquired, read()
    finally:
        latch.clear_schedule_hook()


@POOLS
def test_latch_traffic_is_per_chunk_not_per_blob(tmp_path, buffer_bytes):
    db, obj, data = _cold(tmp_path, buffer_bytes)
    try:
        acquired, (array, timing) = _acquisitions(lambda: obj.read(FULL))
    finally:
        _shut(db)
    assert np.array_equal(array, data)
    chunks = math.ceil(timing.tiles_read / pipeline._READ_AHEAD_RUNS)
    assert chunks >= 4
    assert timing.pool_misses == (timing.tiles_read if buffer_bytes else 0)
    assert acquired["pool"] <= 2 * chunks
    assert acquired["disk"] <= chunks + 1  # one select: one index charge
    assert acquired["store"] <= 2 * chunks


def test_a_chunk_of_pool_hits_leaves_the_disk_alone(tmp_path):
    db, obj, _data = _cold(tmp_path, MIB)
    region = MInterval.parse("[0:63,0:511]")  # one chunk: 32 tiles, 128 KiB, all pooled
    try:
        obj.read(region)
        acquired, (_array, timing) = _acquisitions(lambda: obj.read(region))
    finally:
        _shut(db)
    assert timing.pool_hits == timing.tiles_read == pipeline._READ_AHEAD_RUNS
    assert acquired["disk"] == 1  # the index charge only


@POOLS
def test_realtime_sleep_holds_no_latch(tmp_path, buffer_bytes, monkeypatch):
    db, obj, _data = _cold(
        tmp_path, buffer_bytes, disk_parameters=DiskParameters(realtime_scale=0.01)
    )
    held = []
    monkeypatch.setattr(
        disk, "time", SimpleNamespace(sleep=lambda _s: held.append(latch.held_ranks()))
    )
    try:
        for region in ("[0:511,0:511]", "[0:99,0:511]", "[200:511,7:300]", "[0:511,0:511]"):
            obj.read(MInterval.parse(region))
    finally:
        _shut(db)
    assert held and all(ranks == () for ranks in held)


@pytest.mark.parametrize(
    "field, value",
    [
        ("page_size", 0),
        ("transfer_mb_per_s", 0),
        ("transfer_mb_per_s", -5.0),
        ("seek_ms", -50),
        ("rotation_ms", -1.0),
        ("blob_overhead_ms", -0.5),
        ("settle_ms", -2.0),
        ("short_skip_pages", -1),
        ("realtime_scale", -0.01),
    ],
)
def test_bad_disk_parameters_are_refused(field, value):
    with pytest.raises(StorageError, match=field):
        DiskParameters(**{field: value})
