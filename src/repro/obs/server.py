"""Zero-dependency HTTP endpoint for live metrics.

A tiny threaded HTTP server (standard library only, lifecycle via
:class:`repro.httpd.HttpServerHandle`) exposing the process-wide
observability state:

* ``GET /metrics``  — Prometheus exposition text (version 0.0.4);
* ``GET /healthz``  — liveness JSON (enabled flag, instrument count).

The server serves *reads* of the registry — it never mutates it — and
runs on a daemon thread, so a process that exits does not hang on an
open scrape.  Port ``0`` binds an ephemeral port; the bound
port is available as :attr:`MetricsServer.port` after :meth:`start`
(the pattern tests and the CI smoke job rely on).

Usage::

    server = MetricsServer(port=0)
    server.start()
    ...  # scrape http://127.0.0.1:{server.port}/metrics
    server.stop()

or via the CLI: ``python -m repro serve-metrics --port 9464``.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler
from typing import Optional

from repro.httpd import HttpServerHandle
from repro.obs import export, metrics


class MetricsServer:
    """Threaded HTTP server over a registry (default: the global one).

    Socket lifecycle (ephemeral ports, ``SO_REUSEADDR``, graceful
    shutdown) is delegated to :class:`repro.httpd.HttpServerHandle`,
    the helper shared with the tile server.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9464,
        registry: Optional[metrics.MetricsRegistry] = None,
    ) -> None:
        # Late import keeps module load free of the obs package cycle
        # (obs/__init__ does not import this module).
        from repro import obs

        self.host = host
        self.registry = registry if registry is not None else obs.registry
        self._handle = HttpServerHandle(
            _make_handler(self.registry),
            host=host,
            port=port,
            thread_name="repro-metrics-server",
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (meaningful after :meth:`start`)."""
        return self._handle.port

    @property
    def running(self) -> bool:
        return self._handle.running

    def start(self) -> "MetricsServer":
        self._handle.start()
        return self

    def stop(self) -> None:
        self._handle.stop()

    def join(self) -> None:
        """Block until the server thread exits (Ctrl-C to stop)."""
        self._handle.join()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def _make_handler(registry):
    """Handler class closed over the registry to serve."""

    class Handler(BaseHTTPRequestHandler):
        # Scrapes arrive every few seconds; stock stderr access logging
        # would drown the process output.
        def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
            pass

        def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
            path = self.path.split("?", 1)[0]
            if path == "/metrics":
                body = export.prometheus_text(registry).encode("utf-8")
                self._reply(
                    200, body, "text/plain; version=0.0.4; charset=utf-8"
                )
            elif path == "/healthz":
                payload = {
                    "status": "ok",
                    "enabled": registry.enabled,
                    "instruments": len(registry.metrics()),
                }
                self._reply(
                    200,
                    json.dumps(payload).encode("utf-8"),
                    "application/json",
                )
            else:
                self._reply(
                    404,
                    b"not found; try /metrics, /healthz\n",
                    "text/plain; charset=utf-8",
                )

        def _reply(self, status: int, body: bytes, content_type: str) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    return Handler
