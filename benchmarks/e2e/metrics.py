"""Metric definitions: samples, spans and counters in, named numbers out.

``BENCHMARK.json`` is the authority on which metrics exist and what their
units are; this module computes a value for every name it lists and
:func:`select` refuses to emit anything else.  Exact definitions are in
the README next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import tracing
from calibrate import SpeedMeter, at_reference_speed

#: Op kinds behind each latency class.  A revalidation is a read the
#: server answers 304, so it counts in the read latencies; ``read_mb_s``
#: and the per-read tile counts take the reads answered 200 only.
READ_KINDS = ("read", "pread")
READ_LATENCY_KINDS = READ_KINDS + ("revalidate",)
AGG_KINDS = ("agg", "fullagg")
WRITE_KINDS = ("write", "update")


def select(values: dict[str, float], listed: Iterable[dict]) -> dict:
    """The contract's ``metrics`` object: exactly the listed names, each
    with its unit.  A listed metric nobody computed is a harness bug."""
    out = {}
    for entry in listed:
        name = entry["name"]
        if name not in values:
            raise KeyError(f"no value computed for metric {name!r}")
        out[name] = {"value": float(values[name]), "unit": entry["unit"]}
    return out


@dataclass
class Samples:
    """Per-op outcomes of one pass over an op list."""

    kinds: list[str] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    cpu_seconds: list[float] = field(default_factory=list)
    nbytes: list[int] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    intervals: list[tuple[float, float]] = field(default_factory=list)
    #: Machine speed while these ops ran (kernel timed between ops), and
    #: how many kernel samples had been taken when each op started.
    meter: SpeedMeter = field(default_factory=SpeedMeter)
    marks: list[int] = field(default_factory=list)

    def add(
        self, kind: str, start: float, end: float, cpu: float, nbytes: int,
        ok: bool,
    ) -> None:
        self.marks.append(len(self.meter.samples))
        self.meter.after_op(end - start)
        self.kinds.append(kind)
        self.seconds.append(end - start)
        self.cpu_seconds.append(cpu)
        self.nbytes.append(nbytes)
        self.ok.append(ok)
        self.intervals.append((start, end))

    def at_reference_speed(self) -> "Samples":
        """The same ops, each latency scaled to reference speed by the
        kernel samples taken around that op."""
        scaled = [
            at_reference_speed(wall, cpu, self.meter.speed(mark))
            for wall, cpu, mark in zip(
                self.seconds, self.cpu_seconds, self.marks
            )
        ]
        return Samples(
            self.kinds, scaled, self.cpu_seconds, self.nbytes, self.ok,
            self.intervals, self.meter, self.marks,
        )

    def latencies(self, kinds: Sequence[str]) -> list[float]:
        return [
            seconds
            for kind, seconds, ok in zip(self.kinds, self.seconds, self.ok)
            if kind in kinds and ok
        ]

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def ops_per_s(self) -> float:
        """Verified ops divided by summed op latency (closed loop, one
        caller: the rate the caller saw while it was waiting)."""
        busy = sum(self.seconds)
        return (self.attempted - self.failed) / busy if busy else 0.0


#: A percentile is reported only when this many samples lie beyond it.
SAMPLES_BEYOND = 10


def percentile_ms(
    latencies: Sequence[float], q: int, beyond: int = SAMPLES_BEYOND
) -> float:
    """``q``-th percentile in ms (linear interpolation), or 0 — not
    reported — when fewer than ``beyond`` samples lie beyond it: a p95
    needs 200 samples, a median 20."""
    if not latencies or len(latencies) * (100 - q) < beyond * 100:
        return 0.0
    return float(np.percentile(latencies, q)) * 1000.0


def op_class_metrics(samples: Samples) -> dict[str, float]:
    """Latency and throughput per op class, from one (untraced) pass."""
    reads = samples.latencies(READ_LATENCY_KINDS)
    full_reads = samples.latencies(READ_KINDS)
    read_bytes = sum(
        nbytes
        for kind, nbytes, ok in zip(samples.kinds, samples.nbytes, samples.ok)
        if kind in READ_KINDS and ok
    )
    aggs = samples.latencies(AGG_KINDS)
    return {
        "ops_per_s": samples.ops_per_s(),
        "read_p50_ms": percentile_ms(reads, 50),
        "read_p95_ms": percentile_ms(reads, 95),
        "read_mb_s": (
            read_bytes / 1e6 / sum(full_reads) if full_reads else 0.0
        ),
        "agg_p50_ms": percentile_ms(aggs, 50),
        "agg_p95_ms": percentile_ms(aggs, 95),
        "groupby_p50_ms": percentile_ms(samples.latencies(("groupby",)), 50),
        "revalidate_p50_ms": percentile_ms(
            samples.latencies(("revalidate",)), 50
        ),
        "write_p50_ms": percentile_ms(samples.latencies(WRITE_KINDS), 50),
        "error_rate": (
            samples.failed / samples.attempted if samples.attempted else 0.0
        ),
    }


def sample_counts(samples: Samples) -> dict[str, int]:
    """How many verified samples stand behind each latency metric."""
    return {
        "read": len(samples.latencies(READ_LATENCY_KINDS)),
        "agg": len(samples.latencies(AGG_KINDS)),
        "groupby": len(samples.latencies(("groupby",))),
        "revalidate": len(samples.latencies(("revalidate",))),
        "write": len(samples.latencies(WRITE_KINDS)),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run
# ---------------------------------------------------------------------------


@dataclass
class Tallies:
    """Counts the harness takes beside the spans, over the same windows.

    ``obs`` holds ``repro.obs.snapshot()`` deltas (counters, and the sum
    of each histogram); ``local`` the workload's own counters
    (``ClientStats``, ``ScatterStats``); the rest is bracketed per op.
    """

    obs: dict[str, float] = field(default_factory=dict)
    local: dict[str, float] = field(default_factory=dict)
    read_cells_fetched: float = 0.0
    read_cells_returned: float = 0.0
    read_tiles: float = 0.0
    groupby_groups: float = 0.0
    groupby_index_entries: float = 0.0
    wal_user_bytes: float = 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _scatter_metrics(spans: Sequence[list]) -> dict[str, float]:
    """Parent/child arithmetic of the shard scatter: each shard's fetch is
    one child span of ``shard.read`` / ``shard.aggregate_push``."""
    parents = tracing.children_of(spans, {"shard.read", "shard.aggregate_push"})
    child_sum = 0.0
    child_max = 0.0
    child_wall = 0.0
    for children in parents.values():
        fetches = [
            (child[tracing.START], child[tracing.END])
            for child in children
            if child[tracing.NAME] in ("pipeline.fetch", "pipeline.partial")
        ]
        if not fetches:
            continue
        durations = [end - start for start, end in fetches]
        child_sum += sum(durations)
        child_max += max(durations)
        child_wall += tracing.covered(fetches)
    return {
        "shard.child_sum_ms": child_sum * 1000.0,
        "shard.child_max_ms": child_max * 1000.0,
        # 1.0 = the children ran one after the other.
        "shard.parallelism": _ratio(child_sum, child_wall),
    }


def layer_metrics(
    spans: Sequence[list],
    traced: Samples,
    untraced: Samples,
    tallies: Tallies,
) -> dict[str, float]:
    """Every per-layer metric.  ``*_ms`` values are summed over the traced
    windows (set-up without the cache pre-warm, the traced ops, and the
    recovery phase); a layer the workload never enters reads 0."""
    selfs = tracing.self_times(spans)
    self_ms = {
        name: seconds * 1000.0
        for name, seconds in tracing.sum_by_name(spans, selfs).items()
    }
    total_ms = {
        name: seconds * 1000.0
        for name, seconds in tracing.sum_by_name(spans).items()
    }
    calls: dict[str, int] = {}
    amounts: dict[str, float] = {}
    for span in spans:
        name = span[tracing.NAME]
        calls[name] = calls.get(name, 0) + 1
        amounts[name] = amounts.get(name, 0) + span[tracing.AMOUNT]

    def own(name: str) -> float:
        return self_ms.get(name, 0.0)

    def whole(name: str) -> float:
        return total_ms.get(name, 0.0)

    obs = tallies.obs
    local = tallies.local

    def count(name: str) -> float:
        return obs.get(name, 0.0)

    reads = len(traced.latencies(READ_KINDS))
    scatters = local.get("scatter_ops", 0.0)
    pool_lookups = count("pool.hits") + count("pool.misses")
    decoded_lookups = count("cache.decoded.hits") + count("cache.decoded.misses")
    values = {
        "tiling.tile_ms": own("tiling.tile"),
        "tiling.tiles_out": amounts.get("tiling.tile", 0),
        "index.search_ms": own("index.search"),
        "index.nodes_visited": count("index.rplustree.nodes_visited"),
        "index.entries_returned": count("index.rplustree.entries_found"),
        "zone.prune_ms": own("zone.prune"),
        "zone.tiles_candidate": count("index.zone.prune_checks"),
        "zone.tiles_pruned": count("index.zone.tiles_pruned"),
        "zone.tiles_synopsis_answered": count("index.zone.synopsis_answered"),
        "zone.prune_ratio": _ratio(
            count("index.zone.tiles_pruned"), count("index.zone.prune_checks")
        ),
        "store.get_run_ms": own("store.get_run") + own("store.get"),
        # A run of one blob, or of pending ones, is fetched blob by blob
        # from inside ``get_run``: those fetches are not runs of their own.
        "store.runs": sum(
            1
            for span in spans
            if span[tracing.NAME] in ("store.get_run", "store.get")
            and (
                span[tracing.PARENT] is None
                or span[tracing.PARENT][tracing.NAME] != "store.get_run"
            )
        ),
        # The modelled disk charges index nodes as page reads too.
        "store.pages_read": (
            count("disk.pages_read") - count("disk.index_node_reads")
        ),
        "store.flush_ms": own("store.flush"),
        "store.pages_written": count("disk.pages_written"),
        "checksum.verify_ms": own("checksum.verify"),
        "checksum.pages_verified": count("checksum.pages_verified"),
        "checksum.compute_ms": own("checksum.compute"),
        "pool.hits": count("pool.hits"),
        "pool.misses": count("pool.misses"),
        "pool.evictions": count("pool.evictions"),
        "pool.hit_ratio": _ratio(count("pool.hits"), pool_lookups),
        "decoded.hits": count("cache.decoded.hits"),
        "decoded.misses": count("cache.decoded.misses"),
        "decoded.hit_ratio": _ratio(
            count("cache.decoded.hits"), decoded_lookups
        ),
        "codec.decode_ms": own("codec.decode"),
        "codec.encode_ms": own("codec.encode"),
        "codec.bytes_decoded": amounts.get("codec.decode", 0),
        "pipeline.fetch_ms": own("pipeline.fetch"),
        "pipeline.partial_ms": own("pipeline.partial"),
        "pipeline.tiles_decoded": count("pipeline.tiles_decoded"),
        "pipeline.partials": count("pipeline.partial_aggregates"),
        "tilestore.read_ms": whole("tilestore.read"),
        "tilestore.read_self_ms": own("tilestore.read"),
        "tilestore.aggregate_push_ms": whole("tilestore.aggregate_push"),
        "tilestore.update_ms": whole("tilestore.update"),
        "tilestore.cells_fetched_per_cell_result": _ratio(
            tallies.read_cells_fetched, tallies.read_cells_returned
        ),
        "tilestore.tiles_per_read": _ratio(tallies.read_tiles, reads),
        "ingest.encode_ms": own("ingest.encode"),
        "ingest.bytes_in": count("ingest.bytes_raw"),
        "ingest.bytes_out": count("ingest.bytes_encoded"),
        "wal.commit_ms": own("wal.commit") + own("wal.sync"),
        "wal.fsync_ms": own("wal.fsync"),
        "wal.fsyncs": count("wal.fsyncs"),
        "wal.commits": count("wal.commits"),
        "wal.bytes_written": count("wal.bytes_written"),
        "wal.bytes_per_user_byte": _ratio(
            count("wal.bytes_written"), tallies.wal_user_bytes
        ),
        "catalog.open_ms": own("catalog.open"),
        "catalog.replayed_txns": count("recovery.transactions_replayed"),
        "catalog.save_ms": own("catalog.save"),
        "rasql.parse_ms": own("rasql.parse"),
        "rasql.execute_ms": own("rasql.execute"),
        "engine.aggregate_ms": own("engine.aggregate"),
        "engine.groupby_ms": own("engine.groupby"),
        "engine.groups": tallies.groupby_groups,
        "engine.tile_visits_per_group": _ratio(
            tallies.groupby_index_entries, tallies.groupby_groups
        ),
        "serve.requests": count("serve.requests"),
        "serve.status_304": count("serve.status_304"),
        "serve.status_4xx5xx": (
            count("serve.status_4xx") + count("serve.status_5xx")
        ),
        "serve.bytes_out": count("serve.bytes_out"),
        "serve.slice_ms": count("serve.slice_ms"),
        "serve.tiles_ms": count("serve.tiles_ms"),
        "serve.query_ms": count("serve.query_ms"),
        "serve.write_ms": count("serve.write_ms"),
        "wire.encode_ms": own("wire.encode"),
        "wire.decode_ms": own("wire.decode"),
        "wire.assemble_ms": own("wire.assemble"),
        "wire.bytes_framed": amounts.get("wire.encode", 0),
        "client.read_serial_ms": whole("client.read_serial"),
        "client.read_parallel_ms": whole("client.read_parallel"),
        "client.http_requests_per_read": _ratio(
            local.get("read_requests", 0.0), reads
        ),
        "client.socket_wait_ms": whole("client.socket_wait"),
        "client.bytes_received": local.get("bytes_received", 0.0),
        "client.retries": local.get("retries", 0.0),
        # A tail indicator over the ~130 traced client ops, not a gate.
        "client.p99_ms": (
            percentile_ms(traced.latencies(set(traced.kinds)), 99, beyond=1)
            if "client.socket_wait" in calls
            else 0.0
        ),
        "shard.read_ms": whole("shard.read"),
        "shard.gather_self_ms": own("shard.read") + own("shard.aggregate_push"),
        "shard.shards_hit": _ratio(local.get("shards_hit", 0.0), scatters),
        "shard.read_retries": count("shard.read_retries"),
        "shard.tiles_routed": count("shard.tiles_routed"),
        "bench.ops_traced": traced.attempted,
        # Machine speed during the traced pass; the ``*_ms`` sums above
        # are as measured, divide by this to compare across runs.
        "bench.speed_factor": traced.meter.speed()[0],
        # >= 1: how much slower the same op mix ran with spans recorded
        # (both rates at reference speed).
        "bench.trace_overhead": _ratio(
            untraced.at_reference_speed().ops_per_s(),
            traced.at_reference_speed().ops_per_s(),
        ),
        "bench.unattributed_share": tracing.unattributed_share(
            spans, traced.intervals
        ),
    }
    values.update(_scatter_metrics(spans))
    return values
