"""Observability layer: process-wide metrics registry and its exporter.

The storage stack (disk model, buffer pool, tile store, indexes, query
engine, codecs) reports what it does through this package:

* **metrics** — counters / gauges / fixed-bucket histograms in one
  process-wide :data:`registry` (:mod:`repro.obs.metrics`);
* **exporter** — Prometheus text (:mod:`repro.obs.export`), served on
  the tile server's ``/metrics`` (``repro serve``).

One query is explained by its :class:`~repro.query.timing.QueryTiming`
record (``repro explain`` renders it); the registry aggregates across
queries (``repro stats``).  Every read-side counter is a fold of those
records: a query counts into its record alone, and finishing it adds
the record's fields to their counters in one locked
:meth:`~repro.obs.metrics.MetricsRegistry.fold` (the fixed tables of
:mod:`repro.query.timing`).  The write side, the gauges and the latches
keep module-level handles::

    from repro import obs
    _APPENDS = obs.counter("disk.wal_appends", "Write-ahead-log append charges")
    ...
    _APPENDS.inc()

The layer is always on.  It stays cheap because a query folds once and
the write path updates each instrument once per batch, not once per
tile; ``repro bench obs`` measures what it costs against a build whose
instrument methods are empty.
"""

from __future__ import annotations

from typing import Sequence

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
    "escape_label_value",
    "gauge",
    "histogram",
    "prometheus_name",
    "prometheus_text",
    "registry",
    "reset",
    "snapshot",
]


#: The process-wide registry all instrumentation reports to.
registry = MetricsRegistry()


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


def reset() -> None:
    """Zero all metrics (measurement boundary)."""
    registry.reset()


def snapshot() -> dict:
    """JSON-able snapshot of the default registry."""
    return registry.snapshot()
