"""The tile server: a database behind REST (DESIGN §14).

A zero-dependency threaded HTTP server exposing one
:class:`~repro.storage.tilestore.Database`, and the process's one
metrics endpoint:

* ``GET  /healthz``                     — liveness JSON (epoch, objects);
* ``GET  /metrics``                     — Prometheus exposition, including
  the ``serve.*`` instruments below;
* ``GET  /v1/collections``              — catalog listing with ETags;
* ``GET  /v1/{coll}/{obj}``             — object metadata;
* ``GET  /v1/{coll}/{obj}/tiles?box=``  — tile plan (domains, codecs) of a
  box at one pinned epoch (the client resolves open boxes with it);
* ``GET  /v1/{coll}/{obj}/slice?box=``  — range read; content negotiation
  picks raw numpy bytes, compressed tile frames, or JSON
  (:mod:`repro.serve.wire`);
* ``POST /v1/query``                    — RaSQL (predicates route through
  zone-map pruning, condensers through the synopsis short-circuit);
* ``POST /v1/{coll}/{obj}/write?box=``  — ingest: update an object in
  place, or auto-create it from the request's dtype and box.

**Snapshot isolation.**  Every read request opens one
:meth:`Database.snapshot` pin for its whole lifetime, so a response is
always one committed state — never half a concurrent transaction.  Plans
and reads of every format run through the storage layer's one read
executor, so a served read is charged and recorded like a local one.

**ETags.**  Responses carry a strong epoch-keyed ETag
(:func:`repro.serve.wire.etag_for`); ``If-None-Match`` revalidation
answers 304 with no body while the object's published epoch is
unchanged, and ``X-Repro-Expect-Etag`` lets a client demand one epoch
across many requests (a mismatch answers 409).

Every response goes out as one ``sendmsg`` loop over the header block
and the body; a raw slice's body is the composed array's own buffer.

Errors are JSON bodies ``{"error": ..., "status": ...}`` with the
matching 4xx/5xx status.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, unquote, urlparse

import numpy as np

from repro import obs
from repro.core.cells import base_type, known_base_types
from repro.core.errors import (
    DomainError,
    QueryError,
    ReproError,
    StorageError,
)
from repro.core.geometry import MInterval
from repro.core.mddtype import MDDType
from repro.obs import export
from repro.query.engine import QueryEngine
from repro.query.rasql import execute as rasql_execute
from repro.query.timing import QueryTiming
from repro.serve import wire
from repro.storage.mvcc import ObjectVersion
from repro.storage.tilestore import Database, StoredMDD
from repro.tiling.aligned import RegularTiling

_REQUESTS = obs.counter("serve.requests", "HTTP requests received")
#: Responses by status class (the first digit); the only 3xx sent is 304.
_STATUS_CLASS = {
    2: obs.counter("serve.status_2xx", "Successful responses"),
    3: obs.counter("serve.status_304", "Conditional reads answered not-modified"),
    4: obs.counter("serve.status_4xx", "Client-error responses"),
    5: obs.counter("serve.status_5xx", "Server-error responses"),
}
_BYTES_OUT = obs.counter("serve.bytes_out", "Response body bytes sent")
_BYTES_IN = obs.counter("serve.bytes_in", "Request body bytes received")
_ENDPOINT_MS = {
    "meta": obs.histogram(
        "serve.meta_ms", "Wall ms per catalog/metadata request"
    ),
    "slice": obs.histogram("serve.slice_ms", "Wall ms per slice read"),
    "tiles": obs.histogram("serve.tiles_ms", "Wall ms per tile-plan request"),
    "query": obs.histogram("serve.query_ms", "Wall ms per RaSQL query"),
    "write": obs.histogram("serve.write_ms", "Wall ms per ingest write"),
    "metrics": obs.histogram(
        "serve.metrics_ms", "Wall ms per metrics/health scrape"
    ),
}

#: Default tile budget for auto-created objects (bytes).
DEFAULT_TILE_BYTES = 64 * 1024
#: Largest request body read (bytes); a larger declared length is 413.
MAX_BODY_BYTES = 256 * 1024 * 1024


class _HttpError(Exception):
    """An error with a wire status; the handler turns it into JSON."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


#: The slice of :meth:`QueryTiming.as_dict` a JSON response carries.
_WIRE_TIMING = (
    "t_ix", "t_o", "t_cpu", "tiles_read", "tiles_pruned",
    "tiles_synopsis_answered", "tiles_decoded", "tiles_partial_agg",
    "peak_partial_bytes", "bytes_read", "pages_read", "cells_result",
)


def _timing_dict(timing: QueryTiming) -> dict:
    record = timing.as_dict()
    return {key: record[key] for key in _WIRE_TIMING}


class _NoDelayServer(ThreadingHTTPServer):
    def get_request(self):
        connection, address = super().get_request()
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection, address


class TileServer:
    """The database behind REST; start/stop or use as a context manager.

    The server owns its socket and accept loop:

    * ``port=0`` binds an ephemeral port, readable from :attr:`port`
      as soon as :meth:`start` returns;
    * ``SO_REUSEADDR`` is set before binding, so a restart on a
      just-closed port does not fail with ``EADDRINUSE`` in
      ``TIME_WAIT``;
    * the accept loop and every request handler run on daemon threads,
      so a process that exits never hangs on an open connection;
    * ``TCP_NODELAY`` is set on every accepted connection: a response in
      two writes (headers and body, or a partial send) would wait ~40 ms
      under Nagle for the client's delayed ACK;
    * :meth:`stop` is idempotent, and a stopped server can be started
      again (a fresh socket is bound each time).
    """

    def __init__(
        self,
        database: Database,
        host: str = "127.0.0.1",
        port: int = 8765,
    ) -> None:
        self.database = database
        self.host = host
        self._requested_port = port
        self._handler = _make_handler(database)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound TCP port (the requested one before :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "TileServer":
        if self._httpd is not None:
            raise RuntimeError("server already started")
        # Bind here, not in the constructor, so SO_REUSEADDR is set
        # before bind() and a failed bind leaves no half-open server.
        httpd = _NoDelayServer(
            (self.host, self._requested_port), self._handler, bind_and_activate=False
        )
        httpd.allow_reuse_address = True
        httpd.daemon_threads = True
        try:
            httpd.server_bind()
            httpd.server_activate()
        except OSError:
            httpd.server_close()
            raise
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="repro-tile-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the accept loop down and close the socket (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = self._thread = None

    def join(self) -> None:
        """Block until the accept loop exits (Ctrl-C to stop)."""
        if self._thread is not None:
            self._thread.join()

    def __enter__(self) -> "TileServer":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()


def _make_handler(database: Database) -> type[BaseHTTPRequestHandler]:
    """Handler class closed over the database it serves."""

    class Handler(BaseHTTPRequestHandler):
        # Keep-alive matters for the parallel client's connection pool.
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
            pass

        # -- dispatch ------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
            self._dispatch("POST")

        def _dispatch(self, method: str) -> None:
            _REQUESTS.inc()
            parsed = urlparse(self.path)
            segments = [
                unquote(part) for part in parsed.path.split("/") if part
            ]
            params = {
                key: values[-1]
                for key, values in parse_qs(parsed.query).items()
            }
            endpoint = "meta"
            started = time.perf_counter()
            try:
                if method == "GET" and segments == ["healthz"]:
                    endpoint = "metrics"
                    self._healthz()
                elif method == "GET" and segments == ["metrics"]:
                    endpoint = "metrics"
                    self._metrics()
                elif method == "GET" and segments == ["v1", "collections"]:
                    self._collections()
                elif method == "POST" and segments == ["v1", "query"]:
                    endpoint = "query"
                    self._query()
                elif len(segments) == 3 and segments[0] == "v1":
                    if method != "GET":
                        raise _HttpError(405, "object metadata is GET-only")
                    self._object_meta(segments[1], segments[2])
                elif len(segments) == 4 and segments[0] == "v1":
                    coll, obj, action = segments[1], segments[2], segments[3]
                    if action == "slice" and method == "GET":
                        endpoint = "slice"
                        self._slice(coll, obj, params)
                    elif action == "tiles" and method == "GET":
                        endpoint = "tiles"
                        self._tiles(coll, obj, params)
                    elif action == "write" and method == "POST":
                        endpoint = "write"
                        self._write(coll, obj, params)
                    else:
                        raise _HttpError(
                            404, f"no route {method} {parsed.path}"
                        )
                else:
                    raise _HttpError(404, f"no route {method} {parsed.path}")
            except _HttpError as exc:
                self._error(exc.status, exc.message)
            except (wire.WireError, QueryError, DomainError) as exc:
                # Malformed boxes, bad predicates, RaSQL syntax errors,
                # out-of-domain regions: the client's fault.
                self._error(400, str(exc))
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away mid-response
            except ReproError as exc:
                self._error(500, f"{type(exc).__name__}: {exc}")
            except Exception as exc:  # noqa: BLE001 - last-resort boundary
                self._error(500, f"{type(exc).__name__}: {exc}")
            finally:
                _ENDPOINT_MS[endpoint].observe(
                    (time.perf_counter() - started) * 1000.0
                )

        # -- endpoint implementations --------------------------------------

        def _healthz(self) -> None:
            payload = {
                "status": "ok",
                "epoch": database.epoch.current,
                "collections": len(database.collections),
                "objects": sum(
                    len(objects) for objects in database.collections.values()
                ),
            }
            self._reply_json(200, payload)

        def _metrics(self) -> None:
            body = export.prometheus_text(obs.registry).encode("utf-8")
            self._reply(200, body, "text/plain; version=0.0.4; charset=utf-8")

        def _collections(self) -> None:
            with database.snapshot() as snap:
                listing: dict = {}
                for coll_name in sorted(database.collections):
                    entries = []
                    for obj_name in snap.objects(coll_name):
                        version = snap.version(coll_name, obj_name)
                        obj = database.collection(coll_name)[obj_name]
                        entries.append(
                            self._describe(coll_name, obj_name, obj, version)
                        )
                    listing[coll_name] = entries
                self._reply_json(
                    200, {"collections": listing, "epoch": snap.epoch}
                )

        def _object_meta(self, coll: str, name: str) -> None:
            with database.snapshot() as snap:
                obj, version = self._lookup(snap, coll, name)
                payload = self._describe(coll, name, obj, version)
                payload["tiles"] = _tile_rows(version.tiles.values())
                self._reply_json(
                    200,
                    payload,
                    headers={
                        "ETag": wire.etag_for(coll, name, version.epoch)
                    },
                )

        def _tiles(self, coll: str, name: str, params: dict) -> None:
            """The tile plan of a box at one pinned epoch: the tiles a
            read of it fetches, in page order (index lookup only)."""
            with database.snapshot() as snap:
                obj, version = self._lookup(snap, coll, name)
                etag = wire.etag_for(coll, name, version.epoch)
                if self._not_modified(etag):
                    return
                region = self._resolve_box(obj, version, params)
                payload = {
                    "etag": etag,
                    "epoch": version.epoch,
                    "box": str(region),
                    "dtype": wire.dtype_token(obj.mdd_type.base.dtype),
                    "default": wire.default_token(obj.mdd_type.base.default),
                    "tiles": _tile_rows(obj.tile_plan(region, version)),
                }
                self._reply_json(200, payload, headers={"ETag": etag})

        def _slice(self, coll: str, name: str, params: dict) -> None:
            fmt = wire.negotiate(self.headers.get("Accept"))
            if fmt is None:
                raise _HttpError(
                    406,
                    "unsupported Accept; offer application/octet-stream, "
                    "application/x-repro-tiles, or application/json",
                )
            with database.snapshot() as snap:
                obj, version = self._lookup(snap, coll, name)
                etag = wire.etag_for(coll, name, version.epoch)
                if self._not_modified(etag):
                    return
                expect = self.headers.get("X-Repro-Expect-Etag")
                if expect is not None and expect.strip() != etag:
                    self._reply_json(
                        409,
                        {
                            "error": "object changed since the plan was made",
                            "status": 409,
                            "etag": etag,
                        },
                        headers={"ETag": etag},
                    )
                    return
                region = self._resolve_box(obj, version, params)
                dtype = obj.mdd_type.base.dtype
                headers = {
                    "ETag": etag,
                    "Cache-Control": "no-cache",
                    "X-Repro-Epoch": str(version.epoch),
                    "X-Repro-Box": str(region),
                    "X-Repro-Dtype": wire.dtype_token(dtype),
                    "X-Repro-Default": json.dumps(
                        wire.default_token(obj.mdd_type.base.default)
                    ),
                }
                # Every format is one executor read of the pinned version:
                # tile frames take the stored-tile sink, raw / json compose.
                if fmt == wire.FORMAT_TILES:
                    tiles, timing = obj.read_stored(region, version)
                    frames = [
                        wire.TileFrame(entry.domain, entry.codec, stored, entry.virtual)
                        for entry, stored in tiles
                    ]
                    default = obj.mdd_type.base.default
                    body = memoryview(wire.encode_frames(region, dtype, default, frames))
                else:
                    array, timing = obj.read(region, version=version)
                    # raw bytes are the composed array's own buffer, not a copy
                    body = memoryview(np.ascontiguousarray(array).reshape(-1).view(np.uint8))
                headers["X-Repro-T-O"] = f"{timing.t_o:.6f}"
                headers["X-Repro-Tiles-Read"] = str(timing.tiles_read)
                if fmt == wire.FORMAT_RAW:
                    headers["X-Repro-Shape"] = ",".join(str(side) for side in array.shape)
                if fmt != wire.FORMAT_JSON:
                    self._reply(200, body, fmt, headers=headers)
                else:
                    payload = {
                        "box": str(region),
                        "shape": list(array.shape),
                        "dtype": wire.dtype_token(dtype),
                        "data": array.tolist(),
                        "timing": _timing_dict(timing),
                    }
                    self._reply_json(200, payload, headers=headers)

        def _query(self) -> None:
            payload = self._json_body()
            statement = payload.get("query")
            if not isinstance(statement, str) or not statement.strip():
                raise _HttpError(400, "body must be JSON {\"query\": \"...\"}")
            engine = QueryEngine(database)
            results = rasql_execute(engine, statement)
            out = []
            for result in results:
                if result.is_scalar:
                    value = result.value
                    entry = {
                        "object": result.object_name,
                        "kind": "scalar",
                        "value": (
                            value.item()
                            if isinstance(value, np.generic)
                            else value
                        ),
                    }
                else:
                    array = result.array
                    entry = {
                        "object": result.object_name,
                        "kind": "array",
                        "shape": list(array.shape),
                        "dtype": wire.dtype_token(array.dtype),
                        "value": array.tolist(),
                    }
                if result.region is not None:
                    entry["region"] = str(result.region)
                if result.groups is not None:
                    entry["groups"] = [
                        [list(span) for span in axis_spans]
                        for axis_spans in result.groups
                    ]
                if result.plan is not None:
                    entry["plan"] = result.plan.as_dict()
                entry["timing"] = _timing_dict(result.timing)
                out.append(entry)
            # Pushdown effectiveness, observable without parsing the
            # body: totals over every result of the statement.
            pushdown_headers = {
                "X-Repro-Tiles-Pruned": str(
                    sum(r.timing.tiles_pruned for r in results)
                ),
                "X-Repro-Tiles-Synopsis": str(
                    sum(r.timing.tiles_synopsis_answered for r in results)
                ),
                "X-Repro-Tiles-Decoded": str(
                    sum(r.timing.tiles_decoded for r in results)
                ),
            }
            self._reply_json(
                200,
                {
                    "query": statement,
                    "epoch": database.epoch.current,
                    "results": out,
                },
                headers=pushdown_headers,
            )

        def _write(self, coll: str, name: str, params: dict) -> None:
            box_text = params.get("box") or self.headers.get("X-Repro-Box")
            if box_text is None:
                raise _HttpError(400, "write needs a box parameter")
            region = wire.parse_box(box_text)
            dtype_text = self.headers.get("X-Repro-Dtype")
            if dtype_text is None:
                raise _HttpError(400, "write needs an X-Repro-Dtype header")
            dtype = wire.parse_dtype(dtype_text)
            body = self._raw_body()
            expected = region.cell_count * dtype.itemsize
            if len(body) != expected:
                raise _HttpError(
                    400,
                    f"body holds {len(body)} bytes, box {region} with dtype "
                    f"{dtype_text} needs {expected}",
                )
            values = np.frombuffer(body, dtype=dtype).reshape(region.shape)
            # Checked before the object is auto-created: a rejected write
            # must leave nothing behind.
            tile_kb = params.get("tile_kb", str(DEFAULT_TILE_BYTES // 1024))
            if not tile_kb.isdecimal() or int(tile_kb) <= 0:
                raise _HttpError(400, f"tile_kb must be a positive integer, got {tile_kb!r}")
            obj = self._find_or_create(coll, name, region, dtype, params)
            if obj.tile_count == 0:
                stats = obj.load_array(values.copy(), RegularTiling(int(tile_kb) * 1024))
                written, tiles = region.cell_count, stats.tile_count
            else:
                written, tiles = obj.update(region, values), obj.tile_count
            self._reply_json(
                200,
                {
                    "written_cells": written,
                    "tiles": tiles,
                    "epoch": database.last_commit_epoch(),
                    "etag": wire.etag_for(coll, name, obj._published.epoch),
                },
            )

        # -- plumbing ------------------------------------------------------

        def _find_or_create(
            self,
            coll: str,
            name: str,
            region: MInterval,
            dtype: np.dtype,
            params: dict,
        ):
            objects = database.collections.get(coll, {})
            obj = objects.get(name)
            if obj is not None:
                return obj
            base_name = params.get("base") or _base_for_dtype(dtype)
            domain_text = params.get("domain")
            domain = (
                wire.parse_box(domain_text)
                if domain_text is not None
                else region
            )
            mdd_type = MDDType(f"{name}_t", base_type(base_name), domain)
            return database.create_object(coll, mdd_type, name)

        def _lookup(self, snap, coll: str, name: str):
            try:
                version = snap.version(coll, name)
            except StorageError as exc:
                raise _HttpError(404, str(exc)) from None
            obj = database.collection(coll)[name]
            return obj, version

        def _resolve_box(
            self, obj: StoredMDD, version: ObjectVersion, params: dict
        ) -> MInterval:
            if version.domain is None:
                raise _HttpError(
                    404, f"object {obj.name!r} holds no tiles yet"
                )
            box_text = params.get("box")
            if box_text is None:
                return version.domain
            return obj._resolve_in(wire.parse_box(box_text), version.domain)

        def _describe(
            self,
            coll: str,
            name: str,
            obj: StoredMDD,
            version: ObjectVersion,
        ) -> dict:
            return {
                "name": name,
                "collection": coll,
                "type": {
                    "name": obj.mdd_type.name,
                    "base": obj.mdd_type.base.name,
                    "definition_domain": str(obj.mdd_type.definition_domain),
                },
                "domain": (
                    str(version.domain) if version.domain is not None else None
                ),
                "tile_count": len(version.tiles),
                "epoch": version.epoch,
                "etag": wire.etag_for(coll, name, version.epoch),
            }

        def _not_modified(self, etag: str) -> bool:
            if wire.etag_matches(etag, self.headers.get("If-None-Match")):
                self._reply(304, b"", None, headers={"ETag": etag})
                return True
            return False

        def _json_body(self) -> dict:
            body = self._raw_body()
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError) as exc:
                raise _HttpError(
                    400, f"request body is not JSON: {exc}"
                ) from None
            if not isinstance(payload, dict):
                raise _HttpError(400, "request body must be a JSON object")
            return payload

        def _raw_body(self) -> bytes:
            declared = self.headers.get("Content-Length", "0").strip()
            length = int(declared) if declared.isdecimal() else -1
            if not 0 <= length <= MAX_BODY_BYTES:
                # The body stays unread, so the connection cannot carry
                # another request: answer and close it.
                self.close_connection = True
                if length < 0:
                    raise _HttpError(400, f"bad Content-Length {declared!r}")
                raise _HttpError(
                    413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
                )
            body = self.rfile.read(length) if length > 0 else b""
            _BYTES_IN.inc(len(body))
            return body

        def _error(self, status: int, message: str) -> None:
            self._reply_json(status, {"error": message, "status": status})

        def _reply_json(
            self,
            status: int,
            payload: dict,
            headers: Optional[dict] = None,
        ) -> None:
            self._reply(
                status,
                json.dumps(payload).encode("utf-8"),
                "application/json",
                headers=headers,
            )

        def _reply(
            self,
            status: int,
            body,
            content_type: Optional[str],
            headers: Optional[dict] = None,
        ) -> None:
            """Status line, headers and ``body`` (a 1-D byte buffer) in one :func:`_send_all`."""
            if status // 100 in _STATUS_CLASS:
                _STATUS_CLASS[status // 100].inc()
            body = memoryview(body)
            _BYTES_OUT.inc(body.nbytes)
            fields = {
                "Server": self.version_string(),
                "Date": self.date_time_string(),
                "Content-Type": content_type,
                "Content-Length": body.nbytes,
                **(headers or {}),
                "Connection": "close" if self.close_connection else None,
            }
            lines = [f"{self.protocol_version} {status} {self.responses[status][0]}"]
            lines += [f"{key}: {value}" for key, value in fields.items() if value is not None]
            head = "\r\n".join(lines) + "\r\n\r\n"
            _send_all(self.connection, [memoryview(head.encode("latin-1")), body])

    return Handler


def _send_all(sock: socket.socket, buffers: list[memoryview]) -> None:
    """Send ``buffers`` in order with ``sendmsg``, resuming after the
    partial sends a full socket buffer gives."""
    while buffers:
        sent = sock.sendmsg(buffers)
        while buffers and sent >= buffers[0].nbytes:
            sent -= buffers.pop(0).nbytes
        if buffers:
            buffers[0] = buffers[0][sent:]


def _tile_rows(entries) -> list[dict]:
    """Tile-table rows as the metadata and plan endpoints list them."""
    return [
        {
            "id": entry.tile_id,
            "domain": str(entry.domain),
            "codec": entry.codec,
            "virtual": entry.virtual,
        }
        for entry in entries
    ]


def _base_for_dtype(dtype: np.dtype) -> str:
    """The registered base type matching a numpy dtype (for auto-create)."""
    for name in known_base_types():
        candidate = base_type(name)
        if candidate.dtype.fields is None and candidate.dtype == dtype:
            return name
    raise _HttpError(
        400,
        f"no base type matches dtype {dtype.str!r}; pass an explicit "
        f"base parameter (known: {', '.join(known_base_types())})",
    )
