"""Served reads are executor reads.

The tile plan is the executor's select and page order with no fetch; a
tile-frame (RTF1) slice is the executor's stored-tile sink, charged,
verified and recorded like a local read; the parallel client fetches
page-contiguous chunks of the plan, one request each.  The server's
old per-blob frame walk is the byte oracle (:mod:`tests.frame_oracle`).
"""

import json
import socket
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.client import Client
from repro.core.cells import BaseType, base_type, register_base_type
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.serve import TileServer, wire
from repro.storage.catalog import create_database, open_database, save_database
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from repro.tiling.base import grid_partition
from tests.counted import counted, counts
from tests.frame_oracle import tile_frames

DOMAIN = MInterval.parse("[0:63,0:63]")
#: Every box ``tests/test_serve.py`` reads, plus the whole object.
BOXES = (
    "[0:15,0:15]",
    "[0:3,0:3]",
    "[5:40,9:60]",
    "[0:7,0:7]",
    "[3:44,7:61]",
    "[0:31,0:31]",
    "[0:63,0:63]",
    None,
)
#: An inner tile left out: virtual in ``v``, a hole in ``d``.
GAP = MInterval.parse("[16:31,32:47]")
SEVEN = register_base_type(
    BaseType("served_sink_long7", np.dtype(np.int32), default=7)
)
#: The objects :func:`_build` makes.
OBJECTS = ("a", "v", "d")


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.reset()
    yield
    obs.reset()


def _build(**database_kwargs) -> Database:
    """``a``: the test_serve cube; ``v``: 16×16 tiles with a virtual one;
    ``d``: default-7 cells with a hole.  Deterministic, so two calls build
    identical databases."""
    db = Database(compression=True, **database_kwargs)
    rng = np.random.default_rng(42)
    data = rng.integers(0, 60, size=DOMAIN.shape).astype("<u4")
    db.create_object("imgs", mdd_type("img", "ulong", str(DOMAIN)), "a").load_array(
        data, RegularTiling(4096)
    )
    boxes = [box for box in grid_partition(DOMAIN, (16, 16)) if box != GAP]
    for name, base in (("v", base_type("long")), ("d", SEVEN)):
        obj = db.create_object("imgs", mdd_type(f"img_{name}", base, str(DOMAIN)), name)
        cells = rng.integers(0, 100, size=DOMAIN.shape).astype(base.dtype)
        obj.write_tiles([Tile(box, cells[box.to_slices(DOMAIN.lowest)].copy()) for box in boxes])
        if name == "v":
            obj.insert_virtual_tile(GAP)
    db.reset_clock()
    return db


@pytest.fixture()
def served():
    db = _build(decoded_cache_bytes=1 << 20)
    with TileServer(db, port=0) as server:
        yield db, server


def _get(url: str, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def _url(server, name: str, action: str, box) -> str:
    url = f"{server.url}/v1/imgs/{name}/{action}"
    return url if box is None else f"{url}?box={urllib.parse.quote(box)}"


def _frames(server, name: str, box):
    return _get(_url(server, name, "slice", box), {"Accept": wire.FORMAT_TILES})


def _region(db, name: str, box) -> MInterval:
    obj = db.collection("imgs")[name]
    return obj.current_domain if box is None else obj.resolve_region(MInterval.parse(box))


@pytest.mark.parametrize("name", OBJECTS)
def test_frames_match_the_per_blob_oracle(served, name):
    db, server = served
    obj = db.collection("imgs")[name]
    for box in BOXES:
        status, headers, body = _frames(server, name, box)
        assert status == 200, body
        region = _region(db, name, box)
        with db.snapshot() as snap:
            expected = tile_frames(db, obj, snap.version("imgs", name), region)
        assert body == expected, box
        header, frames = wire.decode_frames(body)
        out = wire.assemble(region, np.dtype(header["dtype"]), header["default"], frames)
        assert out.tobytes() == obj.read(region)[0].tobytes()


def test_frame_reads_charge_like_a_local_read_without_decoded_cache():
    # The served database has a pool and a decoded cache; its twin has the
    # same pool and none.  Frames never touch the cache, so each frame read
    # charges what the twin's read of the same box charges.
    served_db = _build(buffer_bytes=64 * 1024, decoded_cache_bytes=1 << 20)
    twin = _build(buffer_bytes=64 * 1024)
    served_counts, twin_counts = Counter(), Counter()
    with TileServer(served_db, port=0) as server:
        for name in OBJECTS:
            for box in BOXES:
                with counted() as delta:
                    status, headers, _body = _frames(server, name, box)
                served_counts.update(counts(delta, "disk.", "pool."))
                assert status == 200
                with counted() as delta:
                    _out, timing = twin.collection("imgs")[name].read(_region(twin, name, box))
                twin_counts.update(counts(delta, "disk.", "pool."))
                assert headers["X-Repro-T-O"] == f"{timing.t_o:.6f}"
                assert headers["X-Repro-Tiles-Read"] == str(timing.tiles_read)
    assert served_counts == twin_counts
    assert served_db.disk.time_ms == twin.disk.time_ms


def test_plan_charges_exactly_its_index_nodes(served):
    db, server = served
    obj = db.collection("imgs")["a"]
    cost = db.disk.parameters.random_access_ms() + db.disk.parameters.transfer_ms_per_page()
    for box in BOXES:
        region = _region(db, "a", box)
        expected = db.disk.time_ms
        ring = len(db.access_log)
        with counted() as delta:
            status, _headers, body = _get(_url(server, "a", "tiles", box))
        assert status == 200
        nodes = obj.index.search(region).nodes_visited
        for _ in range(nodes):
            expected += cost
        assert db.disk.time_ms == expected
        assert delta["disk.pages_read"] == delta["disk.index_node_reads"] == nodes
        assert delta["disk.blob_reads"] == 0
        assert len(db.access_log) == ring  # a plan is not a read
        # the same tiles in the same order as the per-blob walk
        hits = obj.index.search(region).entries
        listed = sorted((obj._published.tiles[hit.tile_id] for hit in hits), key=db.first_page)
        assert [tile["id"] for tile in json.loads(body)["tiles"]] == [e.tile_id for e in listed]


def test_each_frame_read_records_one_ring_read_and_one_tilestore_read(served):
    db, server = served
    for name in OBJECTS:
        for box in BOXES:
            ring = len(db.access_log)
            reads = obs.registry.value("tilestore.reads")
            assert _frames(server, name, box)[0] == 200
            assert len(db.access_log) == ring + 1
            event = db.access_log.events()[-1]
            assert (event.op, event.object, event.region) == (
                "read", name, _region(db, name, box)
            )
            assert obs.registry.value("tilestore.reads") - reads == 1


def test_frame_reads_never_touch_the_decoded_cache(served):
    db, server = served
    cache = db.decoded_cache
    obj = db.collection("imgs")["a"]
    obj.read(MInterval.parse("[0:31,0:63]"))  # some tiles cached, some not
    before = list(cache._entries)
    assert before
    with counted() as delta:
        for name in OBJECTS:
            for box in BOXES:
                assert _frames(server, name, box)[0] == 200
    assert list(cache._entries) == before
    assert not any(counts(delta, "cache.decoded.").values())


def test_a_flipped_page_bit_is_a_500_and_leaves_no_pin(tmp_path):
    directory = tmp_path / "db"
    db = create_database(directory)
    cube = mdd_type("img", "ulong", str(DOMAIN))
    data = np.random.default_rng(3).integers(0, 2**32, size=DOMAIN.shape, dtype=np.uint32)
    db.create_object("imgs", cube, "a").load_array(data, RegularTiling(4096))
    save_database(db, directory)
    db.close()
    db.store.close()
    db = open_database(directory, buffer_bytes=1 << 20)
    try:
        entry = min(db.collection("imgs")["a"].tile_entries(), key=db.first_page)
        offset = db.store.record(entry.blob_id).pages.start * db.store.page_size + 100
        with open(db.store.path, "r+b") as raw:
            raw.seek(offset)
            byte = raw.read(1)[0]
            raw.seek(offset)
            raw.write(bytes([byte ^ 0x10]))
        floor = obs.registry.value("mvcc.pin_floor")
        with TileServer(db, port=0) as server:
            status, _headers, body = _frames(server, "a", None)
        assert status == 500
        assert "ChecksumError" in json.loads(body)["error"]
        assert db.epoch.active_pins == 0
        assert obs.registry.value("mvcc.pin_floor") == floor
    finally:
        db.close()
        db.store.close()


# ----------------------------------------------------------------------
# The chunked parallel client
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_cold_parallel_read_sends_at_most_one_request_per_worker(served, workers):
    db, server = served
    for name in OBJECTS:
        obj = db.collection("imgs")[name]
        for box in ("[5:40,9:60]", "[3:44,7:61]", None):
            region = _region(db, name, box)
            assert len(obj.tile_plan(region)) >= 3
            with Client(server.url, workers=workers) as client:
                out = client.read("imgs", name, box)
                assert client.stats.requests <= 1 + workers
            assert out.tobytes() == obj.read(region)[0].tobytes()


# ----------------------------------------------------------------------
# The network edge: write parameters and request bodies
# ----------------------------------------------------------------------


@pytest.mark.parametrize("tile_kb", ["0", "abc", "-4"])
def test_bad_tile_kb_is_400_and_creates_nothing(served, tile_kb):
    _db, server = served
    request = urllib.request.Request(
        f"{server.url}/v1/w/o/write?box={urllib.parse.quote('[0:3,0:3]')}&tile_kb={tile_kb}",
        data=np.zeros(16, dtype="<u4").tobytes(),
        headers={"X-Repro-Dtype": "<u4"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400
    assert "tile_kb" in json.loads(excinfo.value.read())["error"]
    _status, _headers, body = _get(f"{server.url}/v1/collections")
    assert not json.loads(body)["collections"].get("w")


def _raw_exchange(server, request: bytes) -> tuple[bytes, float]:
    """Send raw bytes, read until the server closes: (response, seconds)."""
    host, port = urllib.parse.urlparse(server.url).netloc.split(":")
    with socket.create_connection((host, int(port)), timeout=1.0) as sock:
        started = time.perf_counter()
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
        return b"".join(chunks), time.perf_counter() - started


@pytest.mark.parametrize("path", ["/v1/query", "/v1/imgs/a/write?box=[0:3,0:3]"])
def test_oversized_body_is_413_without_reading_it(served, path):
    _db, server = served
    response, seconds = _raw_exchange(
        server,
        f"POST {path} HTTP/1.1\r\nHost: x\r\nX-Repro-Dtype: <u4\r\n"
        f"Content-Length: {2**40}\r\n\r\n".encode(),
    )
    assert seconds < 1.0
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413")
    assert b"Connection: close" in head
    assert json.loads(body)["status"] == 413


@pytest.mark.parametrize("length", ["-5", "abc"])
def test_negative_or_garbage_content_length_is_400(served, length):
    _db, server = served
    response, _seconds = _raw_exchange(
        server, f"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n".encode()
    )
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400")
    assert "Content-Length" in json.loads(body)["error"]
