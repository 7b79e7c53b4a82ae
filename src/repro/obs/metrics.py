"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the observability layer's cross-query account (one
query's own account is its ``QueryTiming`` record).  It is deliberately
dependency-free and cheap:

* instruments are created once (module import time in the instrumented
  code) and looked up by name — creation is get-or-create, so two modules
  asking for ``disk.blob_reads`` share one counter;
* it is always on: a mutation is one lock hold, so the hot paths
  update each instrument once per batch, not once per tile (a
  histogram takes a batch's values in one :meth:`Histogram.observe_many`);
* mutations are lock-protected so instrumented code may run from any
  thread;
* the read side is a fold of records: a query counts into its
  ``QueryTiming`` alone, and :meth:`MetricsRegistry.fold` adds the
  record's fields to their counters (``repro.query.timing``'s fixed
  tables) in one lock hold, however many parts, batches and disk charges
  the query ran.

Histograms use fixed upper-bound buckets (Prometheus style): ``observe``
bins the value into the first bucket whose bound is >= the value, with an
implicit ``+Inf`` overflow bucket.  :meth:`MetricsRegistry.snapshot`
returns plain JSON-able dicts; the exporters in :mod:`repro.obs.export`
render them as Prometheus text or JSON lines.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: Default histogram bounds in milliseconds — spans the simulated disk's
#: range from a sub-millisecond page transfer to a multi-second scan.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: Power-of-four byte bounds for size-flavoured histograms (WAL commit
#: batches, payload sizes) — 64 B up to 4 MiB.
BYTE_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
)

#: Microsecond-resolution bounds for latch wait/hold times — an
#: uncontended hold lasts microseconds; contention pushes into
#: milliseconds, and anything past 100 ms is pathological.
FINE_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
)

#: Small-integer bounds for count-flavoured histograms (coalescing run
#: lengths, group-commit batch sizes).
COUNT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class Metric:
    """Base of all instruments: a name, a help string, a home registry."""

    kind = "metric"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help
        self._registry = registry

    def reset(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing value (int or float increments)."""

    kind = "counter"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, help, registry)
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {amount}")
        with self._registry._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._registry._lock:
            return self._value

    def reset(self) -> None:
        with self._registry._lock:
            self._value = 0


class Gauge(Metric):
    """Point-in-time value that can move both ways (e.g. pool bytes)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry") -> None:
        super().__init__(name, help, registry)
        self._value: float = 0

    def set(self, value: float) -> None:
        with self._registry._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._registry._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._registry._lock:
            return self._value

    def reset(self) -> None:
        with self._registry._lock:
            self._value = 0


class Histogram(Metric):
    """Fixed-bucket distribution with a running sum and count."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, registry)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} has duplicate buckets")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._sum: float = 0.0
        self._count: int = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._registry._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """One :meth:`observe` per value under one lock hold: the same
        count, sum and buckets."""
        indexes = [bisect_left(self.buckets, value) for value in values]
        with self._registry._lock:
            for index, value in zip(indexes, values):
                self._counts[index] += 1
                self._sum += value
            self._count += len(indexes)

    @property
    def count(self) -> int:
        with self._registry._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._registry._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Bucket-interpolated percentile estimate (Prometheus style).

        Linear interpolation inside the bucket that crosses the target
        rank, against the bucket's lower bound (0 for the first).  A
        rank that falls into the ``+Inf`` overflow bucket clamps to the
        highest finite bound — the estimate cannot exceed what the
        bucket layout can resolve.  An empty histogram estimates 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._registry._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        target = q * total
        running = 0
        lower = 0.0
        for bound, count in zip(self.buckets, counts):
            if count:
                before = running
                running += count
                if running >= target:
                    fraction = (target - before) / count
                    fraction = min(max(fraction, 0.0), 1.0)
                    return lower + (bound - lower) * fraction
            lower = bound
        return self.buckets[-1]

    def bucket_counts(self) -> Tuple[Tuple[float, int], ...]:
        """Cumulative ``(upper_bound, count)`` pairs, +Inf bound last."""
        with self._registry._lock:
            counts = list(self._counts)
        cumulative = []
        running = 0
        for bound, count in zip(
            list(self.buckets) + [float("inf")], counts
        ):
            running += count
            cumulative.append((bound, running))
        return tuple(cumulative)

    def reset(self) -> None:
        with self._registry._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0


class MetricsRegistry:
    """Named home of all instruments; one process-wide default in ``obs``."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, Metric] = {}

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument; registrations are kept."""
        with self._lock:
            for metric in self._metrics.values():
                metric.reset()

    def fold(
        self,
        counters: Sequence[Counter],
        amounts: Sequence[float],
        observed: Iterable[Tuple[Histogram, Sequence[float]]] = (),
    ) -> None:
        """Add each amount to its counter (a zero is skipped) and observe
        each histogram's values, under one lock hold: every instrument
        ends as its own ``inc`` / ``observe_many`` calls would have left
        it."""
        with self._lock:
            for counter, amount in zip(counters, amounts):
                if amount:
                    counter._value += amount
            for histogram, values in observed:
                for value in values:
                    histogram._counts[bisect_left(histogram.buckets, value)] += 1
                    histogram._sum += value
                histogram._count += len(values)

    # -- instrument creation (get-or-create by name) -----------------------

    def _register(self, name: str, factory) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                wanted = factory(name)
                if existing.kind != wanted.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {wanted.kind}"
                    )
                return existing
            metric = factory(name)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(name, lambda n: Counter(n, help, self))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(name, lambda n: Gauge(n, help, self))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(
            name, lambda n: Histogram(n, help, self, buckets=buckets)
        )

    # -- inspection --------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> Tuple[Metric, ...]:
        with self._lock:
            return tuple(
                self._metrics[name] for name in sorted(self._metrics)
            )

    def value(self, name: str, default: float = 0) -> float:
        """Counter/gauge value by name (0 for unknown — absent == never hit)."""
        metric = self.get(name)
        if metric is None or isinstance(metric, Histogram):
            return default
        return metric.value  # type: ignore[union-attr]

    def snapshot(self) -> dict:
        """JSON-able view of every instrument's current state."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, dict] = {}
        for metric in self.metrics():
            if isinstance(metric, Counter):
                counters[metric.name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[metric.name] = metric.value
            elif isinstance(metric, Histogram):
                histograms[metric.name] = {
                    "count": metric.count,
                    "sum": metric.sum,
                    "p50": metric.quantile(0.5),
                    "p99": metric.quantile(0.99),
                    "buckets": [
                        ["+Inf" if bound == float("inf") else bound, count]
                        for bound, count in metric.bucket_counts()
                    ],
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
