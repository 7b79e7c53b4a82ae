"""Tile server, wire formats, parallel client, and the server's HTTP lifecycle."""

import json
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.client import Client, ClientError
from repro.core.cells import base_type
from repro.core.geometry import MInterval
from repro.core.mddtype import MDDType
from repro.serve import TileServer, wire
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling

DOMAIN = MInterval.parse("[0:63,0:63]")


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.reset()
    yield
    obs.reset()


def _build_database(compression: bool = True) -> tuple[Database, np.ndarray]:
    db = Database(compression=compression)
    mdd = MDDType("img", base_type("ulong"), DOMAIN)
    obj = db.create_object("imgs", mdd, "a")
    rng = np.random.default_rng(42)
    data = rng.integers(0, 60, size=(64, 64)).astype("<u4")
    obj.load_array(data, RegularTiling(4096))
    return db, data


@pytest.fixture()
def served():
    db, data = _build_database()
    server = TileServer(db, port=0)
    server.start()
    yield db, data, server
    server.stop()


def _get(url: str, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        with exc:  # an error response holds its socket until closed
            return exc.code, dict(exc.headers), exc.read()


def _box(text: str) -> str:
    return urllib.parse.quote(text)


# ----------------------------------------------------------------------
# Content negotiation
# ----------------------------------------------------------------------

class TestNegotiation:
    def test_default_accept_is_raw_bytes(self, served):
        db, data, server = served
        status, headers, body = _get(
            f"{server.url}/v1/imgs/a/slice?box={_box('[0:15,0:15]')}"
        )
        assert status == 200
        assert headers["Content-Type"] == wire.FORMAT_RAW
        got = np.frombuffer(body, dtype=headers["X-Repro-Dtype"]).reshape(
            16, 16
        )
        assert got.tobytes() == data[:16, :16].tobytes()

    def test_json_accept(self, served):
        _db, data, server = served
        status, headers, body = _get(
            f"{server.url}/v1/imgs/a/slice?box={_box('[0:3,0:3]')}",
            {"Accept": "application/json"},
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["shape"] == [4, 4]
        assert payload["data"] == data[:4, :4].tolist()
        assert "timing" in payload

    def test_tile_frames_reassemble_byte_identically(self, served):
        _db, data, server = served
        box = MInterval.parse("[5:40,9:60]")
        status, _headers, body = _get(
            f"{server.url}/v1/imgs/a/slice?box={_box(str(box))}",
            {"Accept": wire.FORMAT_TILES},
        )
        assert status == 200
        header, frames = wire.decode_frames(body)
        assert {frame.codec for frame in frames} == {"planes"}  # the default store
        out = wire.assemble(
            MInterval.parse(header["box"]),
            np.dtype(header["dtype"]),
            header["default"],
            frames,
        )
        assert out.tobytes() == data[5:41, 9:61].tobytes()

    def test_unsupported_accept_is_406(self, served):
        _db, _data, server = served
        status, _headers, body = _get(
            f"{server.url}/v1/imgs/a/slice?box={_box('[0:3,0:3]')}",
            {"Accept": "text/html"},
        )
        assert status == 406
        assert "error" in json.loads(body)

    def test_wildcard_accept_resolves_to_raw(self, served):
        _db, _data, server = served
        status, headers, _body = _get(
            f"{server.url}/v1/imgs/a/slice?box={_box('[0:3,0:3]')}",
            {"Accept": "*/*"},
        )
        assert status == 200
        assert headers["Content-Type"] == wire.FORMAT_RAW


# ----------------------------------------------------------------------
# Error mapping: JSON bodies with 4xx statuses
# ----------------------------------------------------------------------

class TestErrors:
    def test_malformed_box_is_400_with_json_body(self, served):
        _db, _data, server = served
        status, headers, body = _get(
            f"{server.url}/v1/imgs/a/slice?box=garbage"
        )
        assert status == 400
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == 400
        assert "garbage" in payload["error"]

    def test_unknown_object_is_404(self, served):
        _db, _data, server = served
        status, _headers, body = _get(
            f"{server.url}/v1/imgs/nope/slice?box={_box('[0:3,0:3]')}"
        )
        assert status == 404
        assert json.loads(body)["status"] == 404

    def test_unknown_route_is_404(self, served):
        _db, _data, server = served
        status, _headers, body = _get(f"{server.url}/v2/everything")
        assert status == 404
        assert "error" in json.loads(body)

    def test_bad_predicate_in_query_is_400(self, served):
        _db, _data, server = served
        request = urllib.request.Request(
            f"{server.url}/v1/query",
            data=json.dumps({"query": "select bogus ((("}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value as error:
            assert error.code == 400
            assert "error" in json.loads(error.read())

    def test_non_json_query_body_is_400(self, served):
        _db, _data, server = served
        request = urllib.request.Request(
            f"{server.url}/v1/query", data=b"\xff\xfe", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value as error:
            assert error.code == 400

    def test_write_with_wrong_byte_count_is_400(self, served):
        _db, _data, server = served
        request = urllib.request.Request(
            f"{server.url}/v1/imgs/a/write?box={_box('[0:3,0:3]')}",
            data=b"short",
            headers={"X-Repro-Dtype": "<u4"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value as error:
            assert error.code == 400
            assert "bytes" in json.loads(error.read())["error"]


# ----------------------------------------------------------------------
# ETags: revalidation, write invalidation, mid-read epoch pinning
# ----------------------------------------------------------------------

class TestEtags:
    def test_if_none_match_revalidates_304(self, served):
        _db, _data, server = served
        url = f"{server.url}/v1/imgs/a/slice?box={_box('[0:7,0:7]')}"
        _status, headers, _body = _get(url)
        etag = headers["ETag"]
        status, headers2, body = _get(url, {"If-None-Match": etag})
        assert status == 304
        assert body == b""
        assert headers2["ETag"] == etag

    def test_write_bumps_etag_and_invalidates(self, served):
        db, data, server = served
        url = f"{server.url}/v1/imgs/a/slice?box={_box('[0:7,0:7]')}"
        _status, headers, _body = _get(url)
        old_etag = headers["ETag"]
        patch = np.full((8, 8), 61, dtype="<u4")
        request = urllib.request.Request(
            f"{server.url}/v1/imgs/a/write?box={_box('[0:7,0:7]')}",
            data=patch.tobytes(),
            headers={"X-Repro-Dtype": "<u4"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            written = json.loads(response.read())
        assert written["written_cells"] == 64
        assert written["etag"] != old_etag
        assert (
            wire.epoch_from_etag(written["etag"])
            > wire.epoch_from_etag(old_etag)
        )
        # the stale ETag no longer revalidates; fresh bytes come back
        status, headers, body = _get(url, {"If-None-Match": old_etag})
        assert status == 200
        got = np.frombuffer(body, dtype="<u4").reshape(8, 8)
        assert (got == 61).all()

    def test_commit_to_other_object_keeps_etag_valid(self, served):
        db, _data, server = served
        url = f"{server.url}/v1/imgs/a/slice?box={_box('[0:7,0:7]')}"
        _status, headers, _body = _get(url)
        etag = headers["ETag"]
        # a commit elsewhere must not invalidate this object's ETag
        other = MDDType("img2", base_type("char"), DOMAIN)
        obj = db.create_object("imgs", other, "b")
        obj.load_array(
            np.zeros((64, 64), dtype=np.uint8), RegularTiling(4096)
        )
        status, _headers, _body = _get(url, {"If-None-Match": etag})
        assert status == 304

    def test_expect_etag_mismatch_is_409(self, served):
        _db, _data, server = served
        status, _headers, body = _get(
            f"{server.url}/v1/imgs/a/slice?box={_box('[0:7,0:7]')}",
            {"X-Repro-Expect-Etag": '"imgs/a@999999"'},
        )
        assert status == 409
        assert json.loads(body)["status"] == 409


# ----------------------------------------------------------------------
# The parallel client
# ----------------------------------------------------------------------

class TestClient:
    def test_parallel_read_byte_identical(self, served):
        _db, data, server = served
        with Client(server.url, workers=4) as client:
            full = client.read("imgs", "a")
            boxed = client.read("imgs", "a", "[3:44,7:61]")
        assert full.tobytes() == data.tobytes()
        assert boxed.tobytes() == data[3:45, 7:62].tobytes()

    def test_serial_read_byte_identical(self, served):
        _db, data, server = served
        with Client(server.url) as client:
            out = client.read("imgs", "a", "[0:31,0:31]", parallel=False)
        assert out.tobytes() == data[:32, :32].tobytes()

    def test_repeat_reads_hit_304(self, served):
        _db, _data, server = served
        with Client(server.url) as client:
            first = client.read("imgs", "a", "[0:15,0:15]")
            assert client.stats.not_modified == 0
            again = client.read("imgs", "a", "[0:15,0:15]")
            assert client.stats.not_modified == 1
            serial = client.read(
                "imgs", "a", "[0:15,0:15]", parallel=False
            )
            assert client.stats.not_modified == 2
        assert again.tobytes() == first.tobytes()
        assert serial.tobytes() == first.tobytes()

    def test_client_write_then_read_round_trip(self, served):
        db, data, server = served
        patch = np.full((4, 4), 77, dtype="<u4")
        with Client(server.url) as client:
            before = client.read("imgs", "a", "[0:3,0:3]")
            result = client.write("imgs", "a", "[0:3,0:3]", patch)
            assert result["written_cells"] == 16
            after = client.read("imgs", "a", "[0:3,0:3]")
        assert before.tobytes() == data[:4, :4].tobytes()
        assert after.tobytes() == patch.tobytes()

    def test_client_autocreates_objects(self, served):
        _db, _data, server = served
        fresh = np.arange(64, dtype="<f8").reshape(8, 8)
        with Client(server.url) as client:
            client.write("made", "new", "[0:7,0:7]", fresh)
            back = client.read("made", "new")
            catalog = client.collections()["collections"]
        assert back.tobytes() == fresh.tobytes()
        assert "made" in catalog

    def test_query_over_http(self, served):
        _db, data, server = served
        with Client(server.url) as client:
            results = client.query(
                "select avg_cells(a[0:15,0:15]) from imgs as a"
            )
        assert len(results) == 1
        assert results[0]["kind"] == "scalar"
        assert results[0]["value"] == pytest.approx(
            float(data[:16, :16].mean())
        )

    def test_query_predicate_routes_through_pruning(self, served):
        _db, data, server = served
        with Client(server.url) as client:
            results = client.query(
                "select count_cells(a) from imgs as a where a > 1000"
            )
        assert results[0]["value"] == 0
        # nothing can exceed 1000 (values < 60): zone maps prune all
        assert results[0]["timing"]["tiles_pruned"] > 0

    def test_query_pushdown_counters_surface(self, served):
        """Headers + ClientStats expose prune/synopsis/decode effectiveness."""
        _db, data, server = served
        with Client(server.url) as client:
            # pruned: nothing exceeds 1000, zone maps drop every tile
            client.query("select count_cells(a) from imgs as a where a > 1000")
            assert client.stats.tiles_pruned > 0
            assert client.stats.tiles_decoded == 0
            pruned = client.stats.tiles_pruned
            # aligned aggregate: answered from synopses with zero decode
            client.query("select add_cells(a) from imgs as a")
            assert client.stats.tiles_synopsis_answered > 0
            assert client.stats.tiles_decoded == 0
            assert client.stats.tiles_pruned == pruned  # unchanged
            # predicate that matches some cells: tiles must decode
            client.query(
                "select count_cells(a) from imgs as a where a > 30"
            )
            assert client.stats.tiles_decoded > 0
        # raw header check: the totals ride on the HTTP response itself
        request = urllib.request.Request(
            f"{server.url}/v1/query",
            data=json.dumps(
                {"query": "select add_cells(a) from imgs as a"}
            ).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            headers = dict(response.headers)
            body = json.loads(response.read())
        assert int(headers["X-Repro-Tiles-Synopsis"]) > 0
        assert int(headers["X-Repro-Tiles-Decoded"]) == 0
        entry = body["results"][0]
        assert entry["timing"]["tiles_synopsis_answered"] > 0
        assert entry["plan"]["pushed"] is True
        assert entry["value"] == int(data.astype(np.int64).sum())

    def test_group_by_over_http(self, served):
        _db, data, server = served
        with Client(server.url) as client:
            results = client.query(
                "select add_cells(a) from imgs as a "
                "group by dim0(0:31, 32:63)"
            )
        entry = results[0]
        assert entry["groups"] == [[[0, 31], [32, 63]], [[0, 63]]]
        values = np.asarray(entry["value"])
        assert values.shape == (2, 1)
        assert values[0, 0] == data[:32].astype(np.int64).sum()
        assert values[1, 0] == data[32:].astype(np.int64).sum()

    def test_error_surfaces_with_status(self, served):
        _db, _data, server = served
        with Client(server.url) as client:
            with pytest.raises(ClientError) as excinfo:
                client.read("imgs", "a", "not-a-box")
        assert excinfo.value.status == 400

    def test_metrics_text_includes_serve_instruments(self, served):
        _db, _data, server = served
        with Client(server.url) as client:
            client.read("imgs", "a", "[0:3,0:3]")
            text = client.metrics_text()
        assert "repro_serve_requests" in text


# ----------------------------------------------------------------------
# Concurrent readers under a writer: snapshot-consistent responses
# ----------------------------------------------------------------------

class TestConcurrency:
    def test_reads_never_tear_under_writes(self, served):
        import time

        from repro.client import StaleReadError

        db, _data, server = served
        obj = db.collection("imgs")["a"]
        region = MInterval.parse("[0:63,0:63]")
        stop = threading.Event()
        torn: list[str] = []
        completed: list[int] = []
        latch = threading.Lock()

        def writer():
            value = 100
            while not stop.is_set():
                value += 1
                obj.update(
                    region, np.full((64, 64), value, dtype="<u4")
                )
                # give in-flight parallel reads a window to finish at
                # one epoch; a nonstop writer would 409 every plan
                time.sleep(0.005)

        def reader():
            done = 0
            with Client(server.url, workers=2) as client:
                for i in range(12):
                    try:
                        array = client.read(
                            "imgs", "a", parallel=(i % 2 == 0)
                        )
                    except StaleReadError:
                        # retry budget exhausted under a hot writer is
                        # legitimate; what matters is that no response
                        # that did arrive mixes epochs
                        continue
                    done += 1
                    # every full-region commit is constant-valued, so a
                    # snapshot-consistent response has exactly one value
                    if len(np.unique(array)) != 1:
                        with latch:
                            torn.append(f"mixed values in read {i}")
            with latch:
                completed.append(done)

        # seed a constant committed state so every epoch is constant
        obj.update(region, np.full((64, 64), 100, dtype="<u4"))
        threads = [threading.Thread(target=writer, name="w")]
        threads += [
            threading.Thread(target=reader, name=f"r{k}") for k in range(3)
        ]
        for thread in threads[1:]:
            thread.start()
        threads[0].start()
        for thread in threads[1:]:
            thread.join()
        stop.set()
        threads[0].join()
        assert torn == []
        assert sum(completed) > 0


# ----------------------------------------------------------------------
# Wire-format unit coverage
# ----------------------------------------------------------------------

class TestWire:
    def test_frame_round_trip(self):
        box = MInterval.parse("[0:3,0:3]")
        frames = [
            wire.TileFrame(box, "none", b"\x01" * 16),
            wire.TileFrame(
                MInterval.parse("[4:7,0:3]"), "none", b"", virtual=True
            ),
        ]
        body = wire.encode_frames(box, np.dtype("|u1"), 0, frames)
        header, decoded = wire.decode_frames(body)
        assert header["count"] == 2
        assert decoded[0].payload == b"\x01" * 16
        assert decoded[1].virtual and decoded[1].payload == b""

    def test_decode_rejects_bad_magic_and_truncation(self):
        with pytest.raises(wire.WireError):
            wire.decode_frames(b"NOPE")
        box = MInterval.parse("[0:3,0:3]")
        body = wire.encode_frames(
            box, np.dtype("|u1"), 0, [wire.TileFrame(box, "none", b"x" * 16)]
        )
        with pytest.raises(wire.WireError):
            wire.decode_frames(body[:-3])
        with pytest.raises(wire.WireError):
            wire.decode_frames(body + b"trailing")

    def test_etag_helpers(self):
        etag = wire.etag_for("c", "o", 7)
        assert wire.epoch_from_etag(etag) == 7
        assert wire.etag_matches(etag, etag)
        assert wire.etag_matches(etag, f'"other", {etag}')
        assert wire.etag_matches(etag, "*")
        assert not wire.etag_matches(etag, '"c/o@8"')
        assert not wire.etag_matches(etag, None)
        with pytest.raises(wire.WireError):
            wire.epoch_from_etag('"no-epoch-here"')

    def test_negotiate(self):
        assert wire.negotiate(None) == wire.FORMAT_RAW
        assert wire.negotiate("*/*") == wire.FORMAT_RAW
        assert wire.negotiate("application/json") == wire.FORMAT_JSON
        assert (
            wire.negotiate("application/x-repro-tiles")
            == wire.FORMAT_TILES
        )
        assert wire.negotiate("text/html") is None


# ----------------------------------------------------------------------
# The server's HTTP lifecycle
# ----------------------------------------------------------------------

class TestTileServerLifecycle:
    def test_ephemeral_port_and_restart(self):
        server = TileServer(Database(), port=0)
        server.start()
        first_port = server.port
        assert first_port != 0
        assert server.running
        server.stop()
        assert not server.running
        server.start()
        assert server.running
        server.stop()

    def test_start_twice_raises(self):
        server = TileServer(Database(), port=0)
        server.start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_stop_is_idempotent(self):
        server = TileServer(Database(), port=0)
        server.start()
        server.stop()
        server.stop()  # no error

    def test_response_body_does_not_wait_for_delayed_ack(self, served):
        # headers and body are two sends; without TCP_NODELAY on the
        # accepted socket the body waits ~40 ms for the client's ACK
        _db, data, server = served
        laps = []
        with Client(server.url) as client:
            for _ in range(20):
                started = time.perf_counter()
                results = client.query("select count_cells(a) from imgs as a")
                laps.append(time.perf_counter() - started)
                assert results[0]["value"] == np.count_nonzero(data)
        assert statistics.median(laps) < 0.020
