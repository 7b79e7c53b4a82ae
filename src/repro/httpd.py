"""Shared threaded HTTP server lifecycle (standard library only).

The tile service (``repro serve``, :mod:`repro.serve.server`), which
also serves ``/metrics`` and ``/healthz``, runs on this helper, so
ephemeral-port selection, ``SO_REUSEADDR``, daemon threading, and
graceful shutdown live in one place.

The contract:

* ``port=0`` binds an ephemeral port; the bound port is readable from
  :attr:`HttpServerHandle.port` immediately after :meth:`start` (tests
  and the CI smoke jobs rely on this);
* ``SO_REUSEADDR`` is set before binding, so a restart on a
  just-closed port does not fail with ``EADDRINUSE`` in ``TIME_WAIT``;
* request handlers run on daemon threads and the accept loop runs on a
  daemon thread, so a process that exits never hangs on an open
  connection;
* ``TCP_NODELAY`` is set on every accepted connection: a response in
  two writes (headers and body, or a partial send)
  would wait ~40 ms under Nagle for the client's delayed ACK;
* :meth:`stop` is idempotent and a stopped handle can be started again
  (a fresh socket is bound each time).
"""

from __future__ import annotations

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional


class _NoDelayServer(ThreadingHTTPServer):
    def get_request(self):
        connection, address = super().get_request()
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection, address


class HttpServerHandle:
    """Lifecycle wrapper around one :class:`ThreadingHTTPServer`.

    ``handler`` is a :class:`BaseHTTPRequestHandler` subclass (typically
    produced by a closure-based factory so it can reach the state it
    serves).  The handle owns the socket and the accept-loop thread.
    """

    def __init__(
        self,
        handler: type[BaseHTTPRequestHandler],
        host: str = "127.0.0.1",
        port: int = 0,
        thread_name: str = "repro-httpd",
    ) -> None:
        self.host = host
        self._handler = handler
        self._requested_port = port
        self._thread_name = thread_name
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- introspection -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (meaningful after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "HttpServerHandle":
        if self._httpd is not None:
            raise RuntimeError("server already started")
        # Bind explicitly (not in the constructor) so SO_REUSEADDR is
        # guaranteed to be set on the socket before bind(), and so a
        # failed bind leaves no half-open server behind.
        httpd = _NoDelayServer(
            (self.host, self._requested_port),
            self._handler,
            bind_and_activate=False,
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
            target=httpd.serve_forever,
            name=self._thread_name,
            daemon=True,
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
        self._httpd = None
        self._thread = None

    def join(self) -> None:
        """Block until the accept-loop thread exits (Ctrl-C to stop)."""
        if self._thread is not None:
            self._thread.join()

    def __enter__(self) -> "HttpServerHandle":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

