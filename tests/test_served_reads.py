"""Served range reads: the parallel client's raw slabs, the ETag cache
and the server's one-``sendmsg`` responses.

A parallel read cuts its box into at most ``workers`` slabs along the
longest axis and fetches each as a raw slice; the slabs are kept only if
they (and the ``/tiles`` plan an open box is resolved through) carry one
ETag.  Every result is checked byte for byte against a serial read and a
direct local read.
"""

import gc
import socket
import threading
import time
import urllib.parse
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.client import Client, ClientError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.serve import TileServer
from repro.serve.server import _send_all
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from repro.tiling.base import grid_partition

PLANE = MInterval.parse("[0:63,0:63]")
#: Longest along axis 1, so slabs are not cut along axis 0.
VOLUME = MInterval.parse("[0:7,0:39,0:15]")
HOLE = MInterval.parse("[16:31,32:47]")
#: (object, box) pairs: concrete, ``*``-bounded and whole-object reads.
READS = (
    ("a", "[3:44,7:61]"),
    ("a", "[5:5,0:63]"),
    ("a", "[9:9,9:9]"),
    ("a", "[*:20,10:*]"),
    ("a", None),
    ("h", "[10:40,20:60]"),
    ("h", None),
    ("c", "[1:6,2:37,*:*]"),
    ("c", None),
)


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.reset()
    yield
    obs.reset()


def _build() -> Database:
    """``a``: a compressed plane; ``h``: a plane with a hole (default
    cells); ``c``: a 3-d volume of 16-bit cells."""
    db = Database(compression=True)
    rng = np.random.default_rng(7)
    plane = rng.integers(0, 1000, size=PLANE.shape).astype("<u4")
    db.create_object("imgs", mdd_type("img", "ulong", str(PLANE)), "a").load_array(
        plane, RegularTiling(1024)
    )
    holed = db.create_object("imgs", mdd_type("img_h", "long", str(PLANE)), "h")
    cells = rng.integers(-50, 50, size=PLANE.shape).astype("<i4")
    holed.write_tiles(
        [
            Tile(box, cells[box.to_slices(PLANE.lowest)].copy())
            for box in grid_partition(PLANE, (16, 16))
            if box != HOLE
        ]
    )
    volume = rng.integers(0, 60000, size=VOLUME.shape).astype("<u2")
    db.create_object("vols", mdd_type("vol", "ushort", str(VOLUME)), "c").load_array(
        volume, RegularTiling(512)
    )
    return db


@pytest.fixture()
def served():
    db = _build()
    with TileServer(db, port=0) as server:
        yield db, server


def _collection(name: str) -> str:
    return "vols" if name == "c" else "imgs"


def _local(db: Database, name: str, box) -> np.ndarray:
    obj = db.collection(_collection(name))[name]
    region = obj.current_domain if box is None else obj.resolve_region(MInterval.parse(box))
    return obj.read(region)[0]


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_parallel_reads_equal_serial_and_local_reads(served, workers):
    db, server = served
    for name, box in READS:
        with Client(server.url, workers=workers) as client:
            parallel = client.read(_collection(name), name, box)
        with Client(server.url) as client:
            serial = client.read(_collection(name), name, box, parallel=False)
        local = _local(db, name, box)
        for out in (parallel, serial):
            assert (out.dtype, out.shape) == (local.dtype, local.shape), (name, box)
            assert out.tobytes() == local.tobytes(), (name, box)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_cold_reads_send_one_request_per_slab_plus_one_to_resolve(served, workers):
    _db, server = served
    for name, box in READS:
        with Client(server.url, workers=workers) as client:
            client.read(_collection(name), name, box)
            sent = client.stats.requests
        concrete = box is not None and "*" not in box
        if concrete:
            longest = max(MInterval.parse(box).shape)
            assert sent == min(workers, longest), (name, box)
        else:
            assert sent <= workers + 1, (name, box)


@pytest.mark.parametrize("parallel", [True, False])
@pytest.mark.parametrize("box", ["[3:44,7:61]", "[*:20,10:*]", None])
def test_a_revalidated_read_is_one_request_answered_304(served, parallel, box):
    _db, server = served
    with Client(server.url, workers=4) as client:
        first = client.read("imgs", "a", box, parallel=parallel)
        sent = client.stats.requests
        again = client.read("imgs", "a", box, parallel=parallel)
        assert client.stats.requests - sent == 1
        assert client.stats.not_modified == 1
    assert again.tobytes() == first.tobytes()


@pytest.mark.parametrize("parallel", [True, False])
def test_cached_arrays_are_read_only_and_every_caller_gets_a_copy(served, parallel):
    _db, server = served
    box = "[3:44,7:61]"
    with Client(server.url, workers=2) as client:
        first = client.read("imgs", "a", box, parallel=parallel)
        expected = first.copy()
        cached = client._cache[("imgs", "a", box)][1]
        assert not cached.flags.writeable
        assert first.flags.writeable and not np.shares_memory(first, cached)
        first[...] = 0
        again = client.read("imgs", "a", box, parallel=parallel)
        assert client.stats.not_modified == 1
        assert again.tobytes() == expected.tobytes()
        again[...] = 1
        third = client.read("imgs", "a", box, parallel=not parallel)
        assert client.stats.not_modified == 2
    assert third.tobytes() == expected.tobytes()


def test_an_evicted_box_is_fetched_again_with_a_200(served, monkeypatch):
    _db, server = served
    first, second = "[0:31,0:63]", "[32:63,0:63]"  # 8 KiB of cells each
    monkeypatch.setattr(Client, "CACHE_BYTES", 12 << 10)
    with Client(server.url) as client:
        client.read("imgs", "a", first, parallel=False)
        client.read("imgs", "a", second, parallel=False)  # evicts ``first``
        assert list(client._cache) == [("imgs", "a", second)]
        again = client.read("imgs", "a", first, parallel=False)
        assert client.stats.not_modified == 0
        client.read("imgs", "a", first, parallel=False)
        assert client.stats.not_modified == 1
    assert again.tobytes() == _local(_db, "a", first).tobytes()


def test_a_box_larger_than_the_budget_is_not_cached(served, monkeypatch):
    _db, server = served
    monkeypatch.setattr(Client, "CACHE_BYTES", 1 << 10)
    with Client(server.url) as client:
        client.read("imgs", "a", "[0:9,0:9]", parallel=False)
        client.read("imgs", "a", None, parallel=False)
        assert list(client._cache) == [("imgs", "a", "[0:9,0:9]")]
        assert client.cached_bytes == 400


@given(
    reads=st.lists(
        st.tuples(st.sampled_from(READS), st.booleans()), min_size=1, max_size=12
    ),
    budget=st.integers(0, 40 << 10),
)
@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_the_cache_never_holds_more_than_its_budget(
    served, monkeypatch, reads, budget
):
    _db, server = served
    monkeypatch.setattr(Client, "CACHE_BYTES", budget)
    with Client(server.url, workers=2) as client:
        for (name, box), parallel in reads:
            client.read(_collection(name), name, box, parallel=parallel)
            held = sum(array.nbytes for _etag, array in client._cache.values())
            assert held == client.cached_bytes <= budget


def _commit_after_first(client: Client, marker: str, commit) -> list:
    """Make ``client`` run ``commit`` right after its first request whose
    path holds ``marker`` is answered, before any later request of that
    kind is sent (those wait on a gate)."""
    original = client._request
    gate = threading.Lock()
    commits: list = []

    def request(method, path, headers=None, body=None):
        if marker not in path:
            return original(method, path, headers, body)
        with gate:
            response = original(method, path, headers, body)
            if not commits:
                commit()
                commits.append(path)
        return response

    client._request = request
    return commits


@pytest.mark.parametrize(
    "box,marker", [("[0:63,0:63]", "/slice"), (None, "/tiles")]
)
def test_a_commit_between_requests_is_one_retry_and_one_version(served, box, marker):
    db, server = served
    obj = db.collection("imgs")["a"]
    obj.update(PLANE, np.full(PLANE.shape, 100, dtype="<u4"))
    client = Client(server.url, workers=2)
    commits = _commit_after_first(
        client, marker, lambda: obj.update(PLANE, np.full(PLANE.shape, 200, dtype="<u4"))
    )
    with client:
        out = client.read("imgs", "a", box)
    assert len(commits) == 1
    assert client.stats.retries == 1
    assert out.shape == PLANE.shape
    assert np.unique(out).tolist() == [200]


def test_a_box_reaching_past_the_domain_reads_like_a_serial_read(served):
    db, server = served
    with Client(server.url, workers=4) as client:
        parallel = client.read("imgs", "a", "[40:90,50:70]")
        serial = client.read("imgs", "a", "[40:90,50:70]", parallel=False)
        with pytest.raises(ClientError) as excinfo:
            client.read("imgs", "a", "[100:120,0:3]")
    assert excinfo.value.status == 400
    assert parallel.shape == (24, 14)
    assert parallel.tobytes() == serial.tobytes() == _local(db, "a", "[40:63,50:63]").tobytes()


def test_close_releases_every_server_connection(served):
    db, server = served
    _local(db, "a", None)  # anything the database starts lazily, started
    baseline = threading.active_count()
    clients = []
    for _ in range(5):
        client = Client(server.url, workers=2)
        client.read("imgs", "a", "[0:40,0:40]")
        client.close()
        clients.append(client)  # kept alive: only close() may free its sockets
    _wait_for_thread_count(baseline)


def test_a_finished_callers_connection_closes_without_close(served):
    # close() reaches every connection, yet the client holds them weakly:
    # a caller thread that ends takes its connection with it.
    db, server = served
    _local(db, "a", None)
    with Client(server.url, workers=1) as client:
        baseline = threading.active_count()
        caller = threading.Thread(
            target=client.read, args=("imgs", "a", "[0:3,0:3]"), kwargs={"parallel": False}
        )
        caller.start()
        caller.join(timeout=10.0)
        assert not caller.is_alive()
        gc.collect()
        _wait_for_thread_count(baseline)
        assert client.stats.requests == 1


def _wait_for_thread_count(expected: int) -> None:
    deadline = time.monotonic() + 5.0
    while threading.active_count() > expected and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() == expected


# ----------------------------------------------------------------------
# One response, one sendmsg loop
# ----------------------------------------------------------------------


class _Trickle:
    """A socket stand-in that takes at most ``step`` bytes per call."""

    def __init__(self, step: int) -> None:
        self.step = step
        self.out = bytearray()
        self.calls = 0

    def sendmsg(self, buffers) -> int:
        self.calls += 1
        taken = b"".join(bytes(buffer) for buffer in buffers)[: self.step]
        self.out += taken
        return len(taken)


@pytest.mark.parametrize("step", [1, 3, 5, 6, 64, 1 << 20])
def test_send_all_resumes_after_partial_sends(step):
    head = b"HEAD\r\n"
    body = np.arange(300, dtype=np.uint16).view(np.uint8)
    sock = _Trickle(step)
    _send_all(sock, [memoryview(head), memoryview(body)])
    assert bytes(sock.out) == head + body.tobytes()
    assert sock.calls == -(-(len(head) + body.nbytes) // step)


def test_send_all_over_a_socket_that_sends_partially():
    # A socket with a timeout sends without blocking, so a full buffer
    # gives partial sends.
    payload = np.random.default_rng(1).integers(0, 256, size=4 << 20, dtype=np.uint8)
    sender, receiver = socket.socketpair()
    sender.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    sender.settimeout(30.0)
    received = bytearray()

    def drain():
        while chunk := receiver.recv(8192):
            received.extend(chunk)

    reader = threading.Thread(target=drain)
    reader.start()
    with sender, receiver:
        _send_all(sender, [memoryview(b"head"), memoryview(payload)])
        sender.shutdown(socket.SHUT_WR)
        reader.join(timeout=30.0)
    assert not reader.is_alive()
    assert bytes(received) == b"head" + payload.tobytes()


def test_a_body_larger_than_the_send_buffer_arrives_whole():
    domain = MInterval.parse("[0:1023,0:2047]")
    data = np.random.default_rng(5).integers(0, 2**32, size=domain.shape, dtype=np.uint32)
    db = Database(compression=False)
    db.create_object("big", mdd_type("big", "ulong", str(domain)), "b").load_array(
        data, RegularTiling(256 * 1024)
    )
    with socket.socket() as probe:
        send_buffer = probe.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    assert data.nbytes > 4 * send_buffer
    with TileServer(db, port=0) as server:
        url = f"{server.url}/v1/big/b/slice"
        with urllib.request.urlopen(url) as response:
            length = int(response.headers["Content-Length"])
            body = response.read()
        with Client(server.url, workers=2) as client:
            parallel = client.read("big", "b", str(domain))
    assert length == len(body) == data.nbytes
    assert body == data.tobytes()
    assert parallel.tobytes() == data.tobytes()


def test_raw_slice_headers_and_body_arrive_together(served):
    _db, server = served
    host, port = urllib.parse.urlparse(server.url).netloc.split(":")
    box = urllib.parse.quote("[0:15,0:15]")
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(
            f"GET /v1/imgs/a/slice?box={box} HTTP/1.1\r\nHost: x\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0] == "HTTP/1.1 200 OK"
    fields = dict(line.split(": ", 1) for line in lines[1:])
    assert int(fields["Content-Length"]) == len(body) == 16 * 16 * 4
    assert fields["Content-Type"] == "application/octet-stream"
    assert fields["X-Repro-Shape"] == "16,16"
