"""Parallel HTTP client of the tile service (standard library only).

:class:`Client` talks to a :class:`repro.serve.TileServer` over a pool
of keep-alive connections (one per worker thread) and reassembles range
reads **byte-identically** to a direct :meth:`Database.read`:

* **parallel reads** (the default) first fetch the tile *plan* of the
  box — the stored tiles intersecting it at one pinned epoch, in page
  order — then split its tiles into at most ``workers`` page-contiguous
  chunks and fetch each chunk's hull with one request over the worker
  pool, in the tile-frame format (compressed exactly as stored; the
  client decodes), composing with :func:`repro.serve.wire.assemble`, the
  same rule the storage layer uses.  Every chunk fetch carries
  ``X-Repro-Expect-Etag``; if a writer publishes a new epoch mid-read
  the server answers 409 and the client retries the whole read at the
  new epoch, so an assembled array is always one snapshot, never a torn
  mix of epochs.
* **ETag caching**: responses are cached keyed on the epoch-keyed ETag;
  repeat reads revalidate with ``If-None-Match`` and an unchanged
  object answers **304** with no body — the cached array is returned
  and :attr:`ClientStats.not_modified` counts the round trip saved.

Usage::

    with Client("http://127.0.0.1:8765") as client:
        array = client.read("imgs", "a", "[0:255,0:255]")
        result = client.query("select avg_cells(a) from imgs as a")
"""

from __future__ import annotations

import json
import threading
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


@dataclass(frozen=True)
class _Response:
    status: int
    headers: dict
    body: bytes


class Client:
    """Connection-pooled client of one tile server.

    ``workers`` bounds both the thread pool and the number of live
    keep-alive connections (each worker thread owns one, lazily).
    """

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
        # ETag cache: (collection, name, box text) -> (etag, array copy).
        self._cache: dict[tuple[str, str, str], tuple[str, np.ndarray]] = {}
        self._cache_latch = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
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

        ``parallel=True`` fetches the tile plan and fans at most
        ``workers`` chunk fetches out over the worker pool;
        ``parallel=False`` issues one raw-format request.  Both
        revalidate through the ETag cache.
        """
        box_text = str(box) if box is not None else ""
        for attempt in range(self.max_retries + 1):
            try:
                if parallel:
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
        response, cached = self._revalidate(
            key, self._path(collection, name, "slice", box_text), {"Accept": wire.FORMAT_RAW}
        )
        if cached is not None:
            return cached
        shape = tuple(
            int(side)
            for side in response.headers["x-repro-shape"].split(",")
        )
        dtype = np.dtype(response.headers["x-repro-dtype"])
        array = np.frombuffer(response.body, dtype=dtype).reshape(shape)
        self._remember(key, response.headers.get("etag"), array)
        return array.copy()

    def _read_parallel(
        self, collection: str, name: str, box_text: str
    ) -> np.ndarray:
        key = (collection, name, box_text)
        response, cached = self._revalidate(
            key, self._path(collection, name, "tiles", box_text), {}
        )
        if cached is not None:
            return cached
        plan = self._json(response)
        etag = plan["etag"]
        box = MInterval.parse(plan["box"])
        dtype = np.dtype(plan["dtype"])
        default = plan["default"]

        # The plan is in page order, so consecutive tiles are neighbours
        # on disk and (along the clustering curve) in space: one chunk of
        # them per worker, one request per chunk.
        real = [MInterval.parse(t["domain"]) for t in plan["tiles"] if not t["virtual"]]
        size = max(1, -(-len(real) // self.workers))
        futures = [
            self._pool.submit(
                self._fetch_chunk, collection, name, real[start : start + size], box, etag
            )
            for start in range(0, len(real), size)
        ]
        frames = [frame for future in futures for frame in future.result()]
        array = wire.assemble(box, dtype, default, frames)
        self._remember(key, etag, array)
        return array.copy()

    def _fetch_chunk(
        self, collection: str, name: str, tiles: list, box: MInterval, etag: str
    ) -> list[wire.TileFrame]:
        """One chunk's frames: one request for the chunk's hull inside the
        box, pinned to the plan's epoch via the ETag."""
        hull = MInterval.hull_of(tiles).intersection(box)
        response = self._request(
            "GET",
            self._path(collection, name, "slice", str(hull)),
            {"Accept": wire.FORMAT_TILES, "X-Repro-Expect-Etag": etag},
        )
        if response.status == 409:
            raise StaleReadError(409, f"{collection}/{name} changed mid-read")
        self._raise_for_status(response)
        _header, frames = wire.decode_frames(response.body)
        # The hull may meet other chunks' tiles too; keep only this
        # chunk's, so the final assemble sees each tile exactly once.
        wanted = set(tiles)
        return [frame for frame in frames if frame.domain in wanted]

    # -- plumbing ----------------------------------------------------------

    def _path(self, collection: str, name: str, action: str, box_text: str) -> str:
        path = f"/v1/{quote(collection)}/{quote(name)}/{action}"
        return f"{path}?box={quote(box_text)}" if box_text else path

    def _revalidate(
        self, key: tuple[str, str, str], path: str, headers: dict
    ) -> tuple[_Response, Optional[np.ndarray]]:
        """GET ``path``, revalidating the cached copy of ``key``: the
        response, and a copy of the cached array if it answered 304."""
        with self._cache_latch:
            cached = self._cache.get(key)
        if cached is not None:
            headers["If-None-Match"] = cached[0]
        response = self._request("GET", path, headers)
        if response.status == 304:
            assert cached is not None
            return response, cached[1].copy()
        self._raise_for_status(response)
        return response, None

    def _remember(
        self,
        key: tuple[str, str, str],
        etag: Optional[str],
        array: np.ndarray,
    ) -> None:
        if etag is None:
            return
        with self._cache_latch:
            self._cache[key] = (etag, array.copy())

    def _connection(self) -> HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
            self._local.conn = conn
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
                self._local.conn = None
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
