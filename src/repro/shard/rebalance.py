"""Key-range rebalancing driven by the observed access load.

Each shard's access log (:mod:`repro.stats.log`) records every read with
its modelled cost, whatever the observability switch says; the
:class:`Rebalancer` folds those per-shard, and when one shard is
carrying at least ``ratio`` times the load of the coldest, it carves the
hot shard's busiest key span at the median stored key and hands the
upper half to the cold shard.  Contiguity is preserved by construction
(:meth:`RangeMap.reassign` only moves bound-aligned spans and coalesces
equal-owner neighbours), so shard-local curve ranges stay unfragmented.

A migration is crash- and reader-safe without any cross-shard
transaction machinery:

1. fetch an object's moving tiles from the source in one page-ordered
   batch (a fetch, not a logged read) and write them to the destination
   as **one MVCC commit** — its load step, closing its domain over the
   source's, so (3) cannot shrink the object's domain.  Readers pinned
   to the old epoch still read the source; new readers see the tile on
   both shards, and reads and pushdowns dedupe by tile domain, so the
   dual-presence window is value-invisible;
2. update the ownership map (new writes route to the destination);
3. drop the source copies as **one MVCC commit** per object — one
   write step, logging one domain shrink.

A crash between (1) and (3) leaves duplicate tiles, never missing or
torn ones; re-running the move is idempotent on the destination side.
The whole move holds the sharded write latch, so no write or other
migration interleaves.  Readers never take that latch, and they pin
their per-shard views sequentially — a reader that viewed the
destination before (1) and the source after (3) would see the moving
tiles on *neither* shard.  The whole move therefore also runs inside
:meth:`~repro.shard.sharded.ShardedDatabase.fanout_commit`, the reader
seqlock: any scatter pass the move overlapped is discarded and retried,
so a torn or mixed-epoch read can never escape to a caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median_low
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.mdd import Tile
from repro.shard.sharded import ShardedDatabase, ShardedMDD
from repro.storage.pipeline import fetch_tiles, fold_fetch
from repro.storage.tilestore import TileEntry

_MOVES = obs.counter("shard.rebalance.moves", "Tiles moved between shards")
_SPLITS = obs.counter("shard.rebalance.splits", "Key-range splits performed")
_CYCLES = obs.counter("shard.rebalance.cycles", "Rebalance cycles evaluated")


@dataclass(frozen=True)
class MoveReport:
    """One completed range migration."""

    source: int
    dest: int
    key_lo: int
    key_hi: int
    tiles_moved: int
    source_load_ms: float
    dest_load_ms: float

    def __str__(self) -> str:
        return (
            f"moved {self.tiles_moved} tiles [{self.key_lo}:{self.key_hi}) "
            f"shard{self.source}->shard{self.dest} "
            f"(load {self.source_load_ms:.1f}ms vs {self.dest_load_ms:.1f}ms)"
        )


class Rebalancer:
    """Splits and reassigns key ranges by observed per-shard read load."""

    def __init__(self, sdb: ShardedDatabase) -> None:
        self.sdb = sdb

    def shard_loads(self) -> List[float]:
        """Modelled read cost per shard from each store's access log."""
        return [
            sum(event.cost_ms for event in db.access_log.events() if event.op == "read")
            for db in self.sdb.shards
        ]

    def rebalance_once(self, ratio: float = 1.5) -> Optional[MoveReport]:
        """One cycle: move the hot shard's upper median key span to the
        coldest shard, or return ``None`` when load is already balanced.
        """
        _CYCLES.inc()
        with self.sdb.writer:
            loads = self.shard_loads()
            if len(loads) < 2:
                return None
            hot = max(range(len(loads)), key=lambda i: loads[i])
            cold = min(range(len(loads)), key=lambda i: loads[i])
            if hot == cold or loads[hot] < ratio * max(loads[cold], 1e-9):
                return None
            return self._move_upper_half(hot, cold, loads)

    def _move_upper_half(
        self, hot: int, cold: int, loads: List[float]
    ) -> Optional[MoveReport]:
        # Gather the hot shard's stored keys per curve layout; rebalance
        # the layout carrying the most tiles this cycle.
        by_layout: Dict[
            Tuple[int, int], List[Tuple[int, ShardedMDD, TileEntry]]
        ] = {}
        for coll in self.sdb.collections.values():
            for obj in coll.values():
                layout = (obj.dim, obj._bits)
                bucket = by_layout.setdefault(layout, [])
                for entry in obj._parts[hot].tile_entries():
                    bucket.append(
                        (obj._key(entry.domain.lowest), obj, entry)
                    )
        if not by_layout:
            return None
        layout, keyed = max(by_layout.items(), key=lambda kv: len(kv[1]))
        if not keyed:
            return None
        rmap = self.sdb.range_map(*layout)

        # Busiest hot-owned span = the one holding the most tiles.
        spans = rmap.shard_spans(hot)
        if not spans:
            return None
        per_span = {
            span: [row for row in keyed if row[0] in span] for span in spans
        }
        span, rows = max(per_span.items(), key=lambda kv: len(kv[1]))
        if len(rows) < 2:
            return None  # nothing to split off without emptying the span
        split_at = median_low(sorted(key for key, _obj, _entry in rows))
        if split_at <= span.lo:
            return None
        moving = [row for row in rows if row[0] >= split_at]
        if not moving or len(moving) == len(rows):
            return None

        with self.sdb.fanout_commit():
            # (1) Copy into the destination: one fetch batch and one MVCC
            # commit per object (see the module docstring).
            per_obj: Dict[int, Tuple[ShardedMDD, List[TileEntry]]] = {}
            for _key, obj, entry in moving:
                per_obj.setdefault(id(obj), (obj, []))[1].append(entry)
            src_db = self.sdb.shards[hot]
            for obj, entries in per_obj.values():
                base = obj.mdd_type.base
                fetched = fetch_tiles(src_db, sorted(entries, key=src_db.first_page), base.dtype)
                fold_fetch(fetched)
                tiles = [  # a virtual tile lands as its default cells
                    Tile.filled(tile.entry.domain, base.dtype, base.default)
                    if tile.array is None else Tile(tile.entry.domain, tile.array)
                    for tile in fetched
                ]
                obj._parts[cold]._write(tiles, obj._parts[hot].current_domain)

            # (2) Route new writes: split + reassign the upper span.
            rmap.split(split_at)
            _SPLITS.inc()
            rmap.reassign(split_at, span.hi, cold)
            self.sdb.save_meta()

            # (3) Drop the source copies: one MVCC commit per object, one
            # write step (and one logged domain shrink) for all its tiles.
            for obj, entries in per_obj.values():
                with src_db.transaction():
                    obj._parts[hot]._drop_tiles(entries)
        # Start the next measurement window fresh: the moved tiles' past
        # reads must not keep indicting the source shard.
        for db in self.sdb.shards:
            db.access_log.clear()
        _MOVES.inc(len(moving))
        return MoveReport(
            source=hot,
            dest=cold,
            key_lo=split_at,
            key_hi=span.hi,
            tiles_moved=len(moving),
            source_load_ms=loads[hot],
            dest_load_ms=loads[cold],
        )

    def rebalance(
        self, ratio: float = 1.5, max_cycles: int = 8
    ) -> List[MoveReport]:
        """Run cycles until balanced or ``max_cycles`` moves happened."""
        reports = []
        for _ in range(max_cycles):
            report = self.rebalance_once(ratio)
            if report is None:
                break
            reports.append(report)
        return reports
