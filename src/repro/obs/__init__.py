"""Observability layer: process-wide metrics registry and its exporter.

The storage stack (disk model, buffer pool, tile store, indexes, query
engine, codecs) reports what it does through this package:

* **metrics** — counters / gauges / fixed-bucket histograms in one
  process-wide :data:`registry` (:mod:`repro.obs.metrics`);
* **exporter** — Prometheus text (:mod:`repro.obs.export`), served live
  by :mod:`repro.obs.server`.

One query is explained by its :class:`~repro.query.timing.QueryTiming`
record (``repro explain`` renders it); the registry aggregates across
queries (``repro stats``).  Instrumented modules keep module-level
handles::

    from repro import obs
    _READS = obs.counter("disk.blob_reads", "BLOBs fetched")
    ...
    _READS.inc()

Everything is togglable: :func:`disable` turns the whole layer into
near-zero-overhead no-ops (one branch per call site), :func:`enable`
turns it back on.  The layer starts enabled unless the environment sets
``REPRO_OBS=0`` (also accepted: ``off``, ``false``, ``no``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.obs.metrics import (
    BYTE_BUCKETS,
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    FINE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.export import escape_label_value, prometheus_name, prometheus_text

__all__ = [
    "BYTE_BUCKETS",
    "COUNT_BUCKETS",
    "DEFAULT_BUCKETS",
    "FINE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "disable",
    "disabled",
    "enable",
    "enabled",
    "escape_label_value",
    "gauge",
    "histogram",
    "prometheus_name",
    "prometheus_text",
    "registry",
    "reset",
    "snapshot",
]


def _env_enabled() -> bool:
    value = os.environ.get("REPRO_OBS", "1").strip().lower()
    return value not in ("0", "off", "false", "no")


#: The process-wide registry all instrumentation reports to.
registry = MetricsRegistry(enabled=_env_enabled())


# -- instrument shortcuts (get-or-create on the default registry) ----------

def counter(name: str, help: str = "") -> Counter:
    """Get-or-create a counter on the default registry."""
    return registry.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    """Get-or-create a gauge on the default registry."""
    return registry.gauge(name, help)


def histogram(
    name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
) -> Histogram:
    """Get-or-create a fixed-bucket histogram on the default registry."""
    return registry.histogram(name, help, buckets=buckets)


# -- global switches -------------------------------------------------------

def enable() -> None:
    """Turn metrics on."""
    registry.enable()


def disable() -> None:
    """Turn the whole layer into near-zero-overhead no-ops."""
    registry.disable()


def enabled() -> bool:
    """Whether the observability layer is currently recording."""
    return registry.enabled


@contextmanager
def disabled() -> Iterator[None]:
    """Temporarily disable the layer (restores the previous state)."""
    was_enabled = registry.enabled
    disable()
    try:
        yield
    finally:
        registry.enabled = was_enabled


def reset() -> None:
    """Zero all metrics (measurement boundary)."""
    registry.reset()


def snapshot() -> dict:
    """JSON-able snapshot of the default registry."""
    return registry.snapshot()
