"""Query timing breakdown — the measured quantities of Section 6.

The paper reports, per query:

* ``t_o``   — time to retrieve intersected tiles from disk;
* ``t_ix``  — time to find the affected tiles in the index;
* ``t_cpu`` — post-processing time composing tile parts into the result;
* ``t_totalaccess = t_o + t_ix``;
* ``t_totalcpu    = t_o + t_ix + t_cpu``.

Here ``t_o`` and the page component of ``t_ix`` come from the simulated
disk (deterministic); ``t_cpu`` and the CPU component of ``t_ix`` are real
measured time of the numpy composition work.  All figures are
milliseconds.

A record is also the query's one account: the registry's read-side
counters are folds of records, each counter the sum of its fields in
the fixed tables below (:meth:`QueryTiming.fold`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import ClassVar

from repro import obs


@dataclass
class QueryTiming:
    """Per-query cost breakdown in milliseconds plus activity counters.

    ``pool_hits`` / ``pool_misses`` / ``pool_evictions`` are the buffer
    pool's activity attributable to this query (all zero when the database
    runs without a pool — the paper's cold protocol); ``decoded_hits`` /
    ``decoded_misses`` are the same for the decoded-tile cache above it.
    """

    t_ix: float = 0.0
    t_o: float = 0.0
    t_cpu: float = 0.0
    #: Modelled page component of ``t_ix`` (index-node reads charged to
    #: the simulated disk); ``t_ix - t_ix_pages`` is the measured CPU
    #: part.  The per-query profiler reconciles ``t_o + t_ix_pages``
    #: against the disk's modelled clock.
    t_ix_pages: float = 0.0
    tiles_read: int = 0
    bytes_read: int = 0
    pages_read: int = 0
    index_nodes: int = 0
    cells_result: int = 0
    cells_fetched: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    pool_evictions: int = 0
    decoded_hits: int = 0
    decoded_misses: int = 0
    #: Tiles the zone-map pruner skipped (no cell could satisfy the
    #: value predicate — no fetch, no decode, no charges).
    tiles_pruned: int = 0
    #: Fully-covered tiles an aggregate answered from the synopsis
    #: without decoding.
    tiles_synopsis_answered: int = 0
    #: Tiles whose partial aggregate was computed from decoded cells
    #: (the pushdown path; zero on materialize).
    tiles_partial_agg: int = 0
    #: Peak bytes of decoded tile arrays alive at once during the
    #: pushdown partial-aggregate phase: the largest tile reduced, never
    #: the query box (zero outside the pushdown path).
    peak_partial_bytes: int = 0
    #: Tiles actually decompressed for this query (decoded-cache hits,
    #: virtual tiles and stored-payload reads decode nothing).
    tiles_decoded: int = 0
    #: Wall ms of the executor's stages, measured with or without
    #: observability: index search + prune + classification, page order
    #: + fetch, and the sink's measured numpy work.  Their sum is the
    #: query's coordinator wall up to bookkeeping between the stages.
    select_ms: float = 0.0
    fetch_ms: float = 0.0
    sink_ms: float = 0.0
    #: Summed wall ms of the per-tile decode (+ partial reduce) steps,
    #: part of ``fetch_ms``.
    decode_ms: float = 0.0
    #: The disk's share of the fetch: the blob reads it charged (pool
    #: misses; every tile without a pool), their pages and bytes, and
    #: their page runs by positioning regime — random, short skip,
    #: sequential, summing to ``disk_blobs``.  An index-node visit is
    #: counted in ``index_nodes``: one random page each.
    disk_blobs: int = 0
    disk_pages: int = 0
    disk_bytes: int = 0
    random_reads: int = 0
    short_skips: int = 0
    sequential_reads: int = 0
    #: R+-tree walks (one per part) and the hits they priced.
    index_searches: int = 0
    index_entries_found: int = 0
    #: Zone-map synopses the pruner consulted.
    prune_checks: int = 0
    #: Partial aggregates computed on the pushdown, one per tile part.
    partial_aggregates: int = 0
    #: A record is one query's account: a finished one counts one read.
    queries: ClassVar[int] = 1

    @property
    def t_totalaccess(self) -> float:
        """Total retrieval time from disk: ``t_o + t_ix``."""
        return self.t_o + self.t_ix

    @property
    def t_totalcpu(self) -> float:
        """Total query execution time: ``t_o + t_ix + t_cpu``."""
        return self.t_o + self.t_ix + self.t_cpu

    @property
    def read_amplification(self) -> float:
        """Cells fetched per result cell (1.0 = perfectly tiled)."""
        if self.cells_result == 0:
            return float("inf")
        return self.cells_fetched / self.cells_result

    @property
    def pool_hit_rate(self) -> float:
        """Fraction of this query's pool lookups served from cache."""
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    def add(self, other: "QueryTiming") -> "QueryTiming":
        """Accumulate another timing into this one (in place) and return it.

        Peaks don't sum: the live bytes of two sequential queries never
        coexist, so the accumulated ``peak_partial_bytes`` is the max.
        """
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(
                self,
                f.name,
                max(mine, theirs) if f.name == "peak_partial_bytes" else mine + theirs,
            )
        return self

    def scaled(self, factor: float) -> "QueryTiming":
        """Every component — times *and* counters — scaled by ``factor``.

        Scaling the activity counters too is what makes
        ``accumulated.scaled(1 / runs)`` a true per-run average: a
        multi-run bench that accumulates with :meth:`add` would otherwise
        report N-run counter totals (N× ``bytes_read``) next to 1-run
        average times.  Counters are rounded back to ints; for identical
        cold runs the rounding is exact.  A peak is identical across
        identical runs, so ``peak_partial_bytes`` passes through unscaled.
        """
        out = QueryTiming()
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "peak_partial_bytes":
                value *= factor
                if isinstance(f.default, int):
                    value = round(value)
            setattr(out, f.name, value)
        return out

    def as_dict(self) -> dict:
        """JSON-able view with the derived totals included."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(
            t_totalaccess=self.t_totalaccess,
            t_totalcpu=self.t_totalcpu,
            pool_hit_rate=self.pool_hit_rate,
        )
        return payload

    def __str__(self) -> str:
        return (
            f"t_ix={self.t_ix:.2f}ms t_o={self.t_o:.2f}ms "
            f"t_cpu={self.t_cpu:.2f}ms total={self.t_totalcpu:.2f}ms "
            f"(tiles={self.tiles_read}, pages={self.pages_read})"
        )

    def fold(self, table: tuple, observed=()) -> None:
        """Fold this record into the registry in one locked call: each
        counter of ``table`` adds its field (a zero is skipped), and each
        ``(histogram, values)`` of ``observed`` observes its values."""
        counters, fields = table
        obs.registry.fold(counters, fields(self), observed)


def _table(*rows: tuple) -> tuple:
    """``(counter, help, *fields)`` rows as the counters, one per field,
    and one getter of all the fields they add."""
    pairs = [(obs.counter(name, about), field) for name, about, *names in rows for field in names]
    return tuple(counter for counter, _ in pairs), attrgetter(*(field for _, field in pairs))


_SEARCH = (
    ("index.rplustree.searches", "R+-tree lookups", "index_searches"),
    ("index.rplustree.nodes_visited", "Tree node pages visited during descent", "index_nodes"),
    ("index.rplustree.entries_found", "Tile entries returned by tree lookups",
     "index_entries_found"),
)
_FETCH = _SEARCH + (
    ("disk.blob_reads", "BLOBs fetched from the simulated disk", "disk_blobs"),
    ("disk.pages_read", "Pages charged on the simulated disk", "disk_pages", "index_nodes"),
    ("disk.bytes_read", "BLOB payload bytes read", "disk_bytes"),
    ("disk.random_accesses", "Full seek+rotation positionings", "random_reads", "index_nodes"),
    ("disk.short_skips", "Settle-only forward skips", "short_skips"),
    ("disk.sequential_reads", "Reads continuing at the head", "sequential_reads"),
    ("disk.index_node_reads", "Index node pages charged", "index_nodes"),
    ("disk.model_ms", "Modelled disk milliseconds charged", "t_o", "t_ix_pages"),
    ("index.zone.prune_checks", "Tile synopses consulted for pruning", "prune_checks"),
    ("index.zone.tiles_pruned", "Tiles skipped by value-predicate pruning", "tiles_pruned"),
    ("index.zone.synopsis_answered",
     "Fully-covered tiles answered from the synopsis with zero decode",
     "tiles_synopsis_answered"),
    ("pool.hits", "Buffer-pool hits (no disk charge)", "pool_hits"),
    ("pool.misses", "Buffer-pool misses (read through disk)", "pool_misses"),
    ("pool.evictions", "LRU evictions from the pool", "pool_evictions"),
    ("cache.decoded.hits", "Decoded-tile cache hits", "decoded_hits"),
    ("cache.decoded.misses", "Decoded-tile cache misses", "decoded_misses"),
    ("pipeline.tiles_decoded", "Tiles decompressed + reshaped", "tiles_decoded"),
    ("codec.decodes", "Payloads decoded by reads (all codecs)", "tiles_decoded"),
    ("pipeline.partial_aggregates",
     "Partial aggregates (one per tile part) computed on the pushdown path",
     "partial_aggregates"),
)
_QUERY = _FETCH + (
    ("tilestore.reads", "Range reads served", "queries"),
    ("tilestore.tiles_loaded", "Tiles fetched for reads", "tiles_read"),
    ("tilestore.cells_fetched", "Cells in fetched tiles", "cells_fetched"),
)

#: Counter <- record field tables, one per kind of record: an index
#: search outside a query; a fetch (a streamed tile, a plan, or a read
#: outside a query: an update's read-modify, a single blob or tile); a
#: finished query; a finished ``read``, which also returns its cells.
SEARCH_COUNTS = _table(*_SEARCH)
FETCH_COUNTS = _table(*_FETCH)
QUERY_COUNTS = _table(*_QUERY)
READ_COUNTS = _table(*_QUERY, ("tilestore.cells_returned", "Cells in query results", "cells_result"))


def speedup(baseline: QueryTiming, tuned: QueryTiming) -> dict[str, float]:
    """Baseline-over-tuned ratios for the three reported components.

    Matches the paper's Tables 4 and 6 (values > 1 mean ``tuned`` wins).
    """

    def ratio(b: float, t: float) -> float:
        return b / t if t > 0 else float("inf")

    return {
        "t_o": ratio(baseline.t_o, tuned.t_o),
        "t_totalaccess": ratio(baseline.t_totalaccess, tuned.t_totalaccess),
        "t_totalcpu": ratio(baseline.t_totalcpu, tuned.t_totalcpu),
    }


@dataclass
class LoadStats:
    """Cost of loading an array into a stored MDD (paper's load-time note)."""

    tiling_ms: float = 0.0
    store_ms: float = 0.0
    tile_count: int = 0
    bytes_stored: int = 0
    index_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.tiling_ms + self.store_ms + self.index_ms

    def as_dict(self) -> dict:
        return {
            "tiling_ms": self.tiling_ms,
            "store_ms": self.store_ms,
            "index_ms": self.index_ms,
            "total_ms": self.total_ms,
            "tile_count": self.tile_count,
            "bytes_stored": self.bytes_stored,
        }
