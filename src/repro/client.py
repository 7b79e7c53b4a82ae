"""Parallel HTTP client of the tile service (standard library only).

:class:`Client` talks to a :class:`repro.serve.TileServer` over
keep-alive connections (one per thread) and returns range reads
**byte-identical** to a direct :meth:`Database.read`:

* **parallel reads** (the default) cut the box into at most ``workers``
  equal slabs along its longest axis and fetch every slab as one raw
  slice, concurrently: the server composes only the cells asked for and
  the client stacks the slabs.  A box with open bounds (or no box) is
  first resolved through the ``/tiles`` plan.  The slabs are accepted
  only if every response (the plan's too) carries the same ETag, i.e.
  one object version; if a writer published in between, the client
  retries the whole read, so an array is always one snapshot, never a
  torn mix of versions.
* **ETag caching**: results are cached, read-only, with their ETag, in
  an LRU bounded to :attr:`Client.CACHE_BYTES` of cells; a repeat read
  in either mode revalidates with one ``If-None-Match`` request for the
  whole box, an unchanged object answers **304** with no body, the
  caller gets its own copy of the cached array and
  :attr:`ClientStats.not_modified` counts the round trip saved.  An
  evicted box is read afresh.

Usage::

    with Client("http://127.0.0.1:8765") as client:
        array = client.read("imgs", "a", "[0:255,0:255]")
        result = client.query("select avg_cells(a) from imgs as a")
"""

from __future__ import annotations

import json
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPResponse, RemoteDisconnected
from typing import Optional, Union
from urllib.parse import quote, urlparse

import numpy as np

from repro.core.errors import ReproError
from repro.core.geometry import MInterval
from repro.serve import wire


class ClientError(ReproError):
    """A request the server rejected (carries the HTTP status)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class StaleReadError(ClientError):
    """The object changed mid-read more times than the retry budget."""


@dataclass
class ClientStats:
    """Counters of one client's traffic (monotonic, thread-safe)."""

    requests: int = 0
    not_modified: int = 0
    retries: int = 0
    bytes_received: int = 0
    #: Pushdown effectiveness of ``query()`` statements, accumulated
    #: from the ``X-Repro-Tiles-*`` response headers: tiles the server
    #: pruned by zone map, answered from stored synopses with zero
    #: decode, and actually fetched/decoded.
    tiles_pruned: int = 0
    tiles_synopsis_answered: int = 0
    tiles_decoded: int = 0
    _latch: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _count(self, bytes_received: int, not_modified: bool) -> None:
        with self._latch:
            self.requests += 1
            self.bytes_received += bytes_received
            if not_modified:
                self.not_modified += 1

    def _count_pushdown(
        self, pruned: int, synopsis: int, decoded: int
    ) -> None:
        with self._latch:
            self.tiles_pruned += pruned
            self.tiles_synopsis_answered += synopsis
            self.tiles_decoded += decoded


class _Connection(HTTPConnection):
    """One thread's keep-alive connection, closed when the thread-local
    holding it is dropped (its thread ended, or the client went away), so
    no socket is left for the garbage collector to close."""

    def __del__(self) -> None:
        self.close()


@dataclass(frozen=True)
class _Response:
    status: int
    headers: dict
    body: bytes


class Client:
    """Connection-pooled client of one tile server.

    ``workers`` bounds the slabs of a parallel read and the thread pool
    that fetches them; every thread that sends a request (pool workers
    and callers) owns one keep-alive connection, opened lazily.
    :attr:`CACHE_BYTES` bounds the cells the ETag cache holds; the least
    recently read box goes first, and a box larger than the whole budget
    is not cached.
    """

    #: Byte budget of the ETag cache.
    CACHE_BYTES = 256 << 20

    def __init__(
        self,
        base_url: str,
        workers: int = 4,
        timeout: float = 30.0,
        max_retries: int = 3,
    ) -> None:
        parsed = urlparse(base_url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ClientError(0, f"need an http:// base URL, got {base_url!r}")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self.max_retries = max_retries
        self.stats = ClientStats()
        self.workers = max(1, workers)
        self._local = threading.local()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-client"
        )
        # ETag cache, least recently read first:
        # (collection, name, box text) -> (etag, read-only array).
        self.cached_bytes = 0
        self._cache: OrderedDict[tuple[str, str, str], tuple[str, np.ndarray]] = (
            OrderedDict()
        )
        # Every live connection, for close(); a thread's closes with the thread.
        self._connections: weakref.WeakSet[HTTPConnection] = weakref.WeakSet()
        self._latch = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close every connection this client opened, then stop the workers
        (so no worker's connection is left to the garbage collector)."""
        with self._latch:
            connections = list(self._connections)
        for conn in connections:
            conn.close()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- public API --------------------------------------------------------

    def collections(self) -> dict:
        """The server's catalog: collections, objects, ETags."""
        return self._json(self._request("GET", "/v1/collections"))

    def meta(self, collection: str, name: str) -> dict:
        """One object's metadata (type, domain, tiles, ETag)."""
        return self._json(
            self._request("GET", f"/v1/{quote(collection)}/{quote(name)}")
        )

    def read(
        self,
        collection: str,
        name: str,
        box: Optional[Union[str, MInterval]] = None,
        parallel: bool = True,
    ) -> np.ndarray:
        """A range read, byte-identical to the server reading directly.

        ``parallel=True`` fetches at most ``workers`` slabs of the box
        concurrently; ``parallel=False`` issues one raw-format request.
        A cached box revalidates with one conditional request either way.
        """
        box_text = str(box) if box is not None else ""
        for attempt in range(self.max_retries + 1):
            try:
                # a cached box revalidates as one conditional request
                if parallel and (collection, name, box_text) not in self._cache:
                    return self._read_parallel(collection, name, box_text)
                return self._read_serial(collection, name, box_text)
            except StaleReadError:
                with self.stats._latch:
                    self.stats.retries += 1
                if attempt == self.max_retries:
                    raise
        raise AssertionError("unreachable")

    def query(self, statement: str) -> list[dict]:
        """Run a RaSQL statement; returns the per-object result dicts."""
        response = self._request(
            "POST",
            "/v1/query",
            body=json.dumps({"query": statement}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        results = self._json(response)["results"]
        self.stats._count_pushdown(
            int(response.headers.get("x-repro-tiles-pruned", 0)),
            int(response.headers.get("x-repro-tiles-synopsis", 0)),
            int(response.headers.get("x-repro-tiles-decoded", 0)),
        )
        return results

    def write(
        self,
        collection: str,
        name: str,
        box: Union[str, MInterval],
        values: np.ndarray,
        tile_kb: Optional[int] = None,
    ) -> dict:
        """Ingest a dense array into ``box`` (auto-creates the object)."""
        values = np.ascontiguousarray(values)
        path = (
            f"/v1/{quote(collection)}/{quote(name)}/write"
            f"?box={quote(str(box))}"
        )
        if tile_kb is not None:
            path += f"&tile_kb={tile_kb}"
        response = self._request(
            "POST",
            path,
            body=values.tobytes(order="C"),
            headers={"X-Repro-Dtype": wire.dtype_token(values.dtype)},
        )
        return self._json(response)

    def metrics_text(self) -> str:
        """The server's Prometheus exposition (``GET /metrics``)."""
        response = self._request("GET", "/metrics")
        if response.status != 200:
            raise ClientError(response.status, "metrics scrape failed")
        return response.body.decode("utf-8")

    # -- read strategies ---------------------------------------------------

    def _read_serial(
        self, collection: str, name: str, box_text: str
    ) -> np.ndarray:
        key = (collection, name, box_text)
        headers = {"Accept": wire.FORMAT_RAW}
        with self._latch:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
        if cached is not None:
            headers["If-None-Match"] = cached[0]
        response = self._request(
            "GET", self._path(collection, name, "slice", box_text), headers
        )
        if response.status == 304:
            assert cached is not None
            return cached[1].copy()
        self._raise_for_status(response)
        array = _raw_array(response)
        self._remember(key, response.headers.get("etag"), array)
        return array.copy()

    def _read_parallel(
        self, collection: str, name: str, box_text: str
    ) -> np.ndarray:
        etags: set[str] = set()
        box = _bounded(box_text)
        if box is None:
            plan = self._json(
                self._request("GET", self._path(collection, name, "tiles", box_text))
            )
            etags.add(plan["etag"])
            box = MInterval.parse(plan["box"])
        axis, slabs = _slabs(box, self.workers)
        raw = {"Accept": wire.FORMAT_RAW}
        paths = [self._path(collection, name, "slice", str(slab)) for slab in slabs]
        futures = [self._pool.submit(self._request, "GET", path, raw) for path in paths[1:]]
        responses = [self._request("GET", paths[0], raw)]
        responses += [future.result() for future in futures]
        if any(
            response.status != 200 or response.headers.get("x-repro-box") != str(slab)
            for response, slab in zip(responses, slabs)
        ):
            # The server clips a box reaching past the object's current
            # domain (or refuses it): read it whole, as a serial read would.
            return self._read_serial(collection, name, box_text)
        etags.update(response.headers.get("etag") for response in responses)
        if len(etags) != 1:
            raise StaleReadError(409, f"{collection}/{name} changed mid-read")
        parts = [_raw_array(response) for response in responses]
        array = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)
        self._remember((collection, name, box_text), etags.pop(), array)
        return array.copy()

    # -- plumbing ----------------------------------------------------------

    def _path(self, collection: str, name: str, action: str, box_text: str) -> str:
        path = f"/v1/{quote(collection)}/{quote(name)}/{action}"
        return f"{path}?box={quote(box_text)}" if box_text else path

    def _remember(
        self,
        key: tuple[str, str, str],
        etag: Optional[str],
        array: np.ndarray,
    ) -> None:
        """Cache ``array`` itself, made read-only: callers only ever get
        copies of it.  Evicts least recently read boxes to stay within
        :attr:`CACHE_BYTES`."""
        if etag is None:
            return
        array.flags.writeable = False
        with self._latch:
            previous = self._cache.pop(key, None)
            if previous is not None:
                self.cached_bytes -= previous[1].nbytes
            if array.nbytes > self.CACHE_BYTES:
                return
            while self.cached_bytes + array.nbytes > self.CACHE_BYTES:
                _key, (_etag, evicted) = self._cache.popitem(last=False)
                self.cached_bytes -= evicted.nbytes
            self._cache[key] = (etag, array)
            self.cached_bytes += array.nbytes

    def _connection(self) -> HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = _Connection(self.host, self.port, timeout=self.timeout)
            self._local.conn = conn
            with self._latch:
                self._connections.add(conn)
        return conn

    def _request(
        self,
        method: str,
        path: str,
        headers: Optional[dict] = None,
        body: Optional[bytes] = None,
    ) -> _Response:
        """One round trip on this thread's keep-alive connection.

        A connection the server closed between requests surfaces as
        ``RemoteDisconnected``/``BrokenPipeError`` — reconnect once.
        """
        last_error: Optional[Exception] = None
        for _ in range(2):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers or {})
                raw: HTTPResponse = conn.getresponse()
                payload = raw.read()
            except (RemoteDisconnected, BrokenPipeError, ConnectionError) as exc:
                conn.close()
                last_error = exc
                continue
            response = _Response(
                status=raw.status,
                headers={k.lower(): v for k, v in raw.getheaders()},
                body=payload,
            )
            self.stats._count(len(payload), raw.status == 304)
            return response
        raise ClientError(0, f"connection failed: {last_error}")

    def _raise_for_status(self, response: _Response) -> None:
        if response.status < 400:
            return
        try:
            message = json.loads(response.body.decode("utf-8"))["error"]
        except (ValueError, KeyError, UnicodeDecodeError):
            message = response.body.decode("utf-8", "replace")[:200]
        raise ClientError(response.status, message)

    def _json(self, response: _Response) -> dict:
        self._raise_for_status(response)
        return json.loads(response.body.decode("utf-8"))


def _raw_array(response: _Response) -> np.ndarray:
    """A raw-format body as an array: a read-only view of the bytes."""
    shape = tuple(int(side) for side in response.headers["x-repro-shape"].split(","))
    dtype = np.dtype(response.headers["x-repro-dtype"])
    return np.frombuffer(response.body, dtype=dtype).reshape(shape)


def _bounded(box_text: str) -> Optional[MInterval]:
    """The box, if it is one the client can cut without the server:
    parseable and with no open bound."""
    try:
        box = wire.parse_box(box_text)
    except wire.WireError:
        return None  # no box, or a malformed one the plan request refuses
    return box if box.is_bounded else None


def _slabs(box: MInterval, count: int) -> tuple[int, list[MInterval]]:
    """At most ``count`` slabs of near-equal thickness tiling ``box``
    along its longest axis, in order: ``(axis, slabs)``."""
    axis = int(np.argmax(box.shape))
    low, extent = box.lowest[axis], box.shape[axis]
    count = min(count, extent)
    slabs: list[MInterval] = []
    rest = box
    for k in range(1, count):
        slab, rest = rest.split(axis, low + extent * k // count)
        slabs.append(slab)
    return axis, slabs + [rest]
