"""Sharded multi-store: tiles partitioned across N independent stores.

A :class:`ShardedDatabase` owns N :class:`~repro.storage.tilestore.Database`
shards — each with its own page file, WAL, buffer pool, pipeline pool and
MVCC epochs — and places every tile on exactly one shard by the
space-filling-curve key of its lowest vertex (:mod:`repro.core.order`),
looked up in a contiguous :class:`~repro.shard.ranges.RangeMap`.  The
survey argument (PAPERS.md, Rusu & Cheng) is that chunk-partitioned
scale-out is what production array stores do; the paper's arbitrary
tiling makes the tile the natural distribution unit because each tile is
already an independent BLOB.

:class:`ShardedMDD` is the scatter-gather layer, and it owns no read
path of its own: a query runs through the single
:class:`~repro.storage.tilestore.ReadExecutor` (DESIGN §17), which
selects on every shard's pinned view, fetches each shard's tiles through
that shard's pipeline pool and feeds one sink.  Fragments are therefore
reassembled by *the* compose code — per-cell masking and default fill
included — and tiles are disjoint across shards, so copy order cannot
change the result; aggregation pushdown combines per-tile partials with
the order-insensitive :func:`~repro.index.zonemap.combine_aggregate`
under one global exactness decision, so a pushed aggregate is
bitwise-equal no matter how tiles are spread.

Writes route each tile batch to its owner shard as **one WAL transaction
per shard**; a cross-shard batch is one commit on every shard it
touches.  The sharded-level write latch (``shard.writer``, rank 5 —
below every per-shard latch) serializes sharded mutations so the
rebalancer's two-commit migrations can never interleave with updates.

Readers never take that latch.  Because a scatter read pins its
per-shard MVCC views *sequentially*, a multi-shard commit sequence
completing between two pins could be observed half-done — worst case, a
migration's copy lands after the reader viewed the destination shard and
its delete before the reader views the source, hiding the moving tile
from both views.  :attr:`ShardedDatabase.fanout_seq` is the seqlock that
closes this: writers hold it odd across any commit sequence touching
more than one shard, readers snapshot it before pinning and discard +
retry any pass over the shards during which it moved
(:meth:`ShardedMDD._with_stable_views`), escalating to the write latch
after a few failed passes so a steady stream of writers cannot starve a
read.

Duck-typing contract: ``ShardedMDD`` exposes the read/query surface of
:class:`~repro.storage.tilestore.StoredMDD` (``read``, ``aggregate``,
``aggregate_push``, ``read_section``, ``resolve_region``,
``current_domain``, ``mdd_type``, ``name``), so the planned
:class:`~repro.query.engine.QueryEngine` runs GROUP BY roll-ups over a
sharded object unchanged.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.core.errors import DomainError, QueryError, StorageError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import MDDType
from repro.core.order import TileKey, shifted_key, tile_order
from repro.index.zonemap import (
    CellPredicate,
    check_aggregate,
    synopsis_can_match,  # noqa: F401  (a trace target, see below)
)
from repro.query.timing import LoadStats, QueryTiming
from repro.shard.ranges import RangeMap
from repro.storage.latch import OrderedLatch

# Trace targets: the read executor prunes and fetches for every shard, so
# nothing here calls these (or synopsis_can_match) any more — but
# benchmarks/e2e/tracing.py wraps them as attributes of this module and
# refuses to run if one is unbound (its TARGETS change in a benchmark PR).
from repro.storage.pipeline import fetch_tile_partials, fetch_tiles  # noqa: F401
from repro.storage.tilestore import (
    Database,
    ReadExecutor,
    StoredMDD,
    TileEntry,
)

#: The sharded write latch ranks below every per-shard latch
#: (``txn.writer`` is rank 10), so it may be held across per-shard
#: transactions without violating the deadlock-free latch order.
SHARD_WRITER_RANK = 5

#: Curve key width when an object's definition domain is open on some
#: side (bounded domains get a tight per-object width instead).
DEFAULT_KEY_BITS = 21

#: Metadata file for on-disk sharded deployments.
META_NAME = "shards.json"

_SCATTER_READS = obs.counter(
    "shard.scatter_reads", "Scatter-gather reads over all shards"
)
_SCATTER_AGGS = obs.counter(
    "shard.scatter_aggregates", "Scatter-gather pushdown aggregates"
)
_TILES_ROUTED = obs.counter(
    "shard.tiles_routed", "Tiles routed to an owner shard on write"
)
_READ_RETRIES = obs.counter(
    "shard.read_retries",
    "Scatter passes discarded because a multi-shard commit raced them",
)

#: Optimistic passes a scatter read makes before serializing with the
#: sharded write latch (each pass only loses to a *completed* multi-shard
#: commit sequence, so contention this deep is already pathological).
STABLE_VIEW_RETRIES = 3


def _key_layout(mdd_type: MDDType) -> Tuple[Tuple[int, ...], int]:
    """Per-object curve layout: (origin, bits per coordinate).

    The origin is the definition domain's lower corner (``*`` bounds
    fall back to 0, exactly like :meth:`StoredMDD.load_array`); the key
    width is the smallest that fits the bounded extents, so the curve's
    key space is dense over the domain and an even range split spreads
    real tiles instead of parking them all in shard 0.
    """
    dd = mdd_type.definition_domain
    origin = tuple(0 if lo is None else lo for lo in dd.lower)
    bits = 1
    bounded = True
    for lo, hi in zip(dd.lower, dd.upper):
        if lo is None or hi is None:
            bounded = False
            continue
        bits = max(bits, int(hi - lo).bit_length() or 1)
    if not bounded:
        bits = DEFAULT_KEY_BITS
    return origin, bits


class ScatterStats:
    """Per-shard accounting of the last scatter-gather operation.

    The modelled parallel completion time of a scatter is the **maximum**
    per-shard time (each shard has its own disk head), while a single
    store pays the sum — the bench's read-scaling verdict is
    ``single_total / max(per_shard)``.
    """

    __slots__ = ("per_shard_ms", "per_shard_tiles")

    def __init__(
        self, per_shard_ms: Sequence[float], per_shard_tiles: Sequence[int]
    ) -> None:
        self.per_shard_ms = tuple(per_shard_ms)
        self.per_shard_tiles = tuple(per_shard_tiles)

    @property
    def max_ms(self) -> float:
        return max(self.per_shard_ms) if self.per_shard_ms else 0.0

    @property
    def total_ms(self) -> float:
        return float(sum(self.per_shard_ms))

    @property
    def shards_hit(self) -> int:
        return sum(1 for tiles in self.per_shard_tiles if tiles)

    def __repr__(self) -> str:
        return (
            f"ScatterStats(ms={self.per_shard_ms}, "
            f"tiles={self.per_shard_tiles})"
        )


class ShardedDatabase:
    """N independent tile stores behind one placement map."""

    def __init__(
        self,
        n_shards: int = 2,
        *,
        order: str = "z",
        shards: Optional[Sequence[Database]] = None,
        directory: Optional[Union[str, Path]] = None,
        shard_dirs: Optional[Sequence[Path]] = None,
        **db_kwargs,
    ) -> None:
        if order not in ("z", "hilbert"):
            raise StorageError(
                f"sharding needs a space-filling order ('z' or 'hilbert'), "
                f"got {order!r}"
            )
        if n_shards < 1:
            raise StorageError(f"need >= 1 shard, got {n_shards}")
        self.order = order
        self._base_key = tile_order(order)
        if shards is not None:
            if len(shards) != n_shards:
                raise StorageError(
                    f"{n_shards} shards declared but {len(shards)} given"
                )
            self.shards: List[Database] = list(shards)
        else:
            self.shards = [Database(**db_kwargs) for _ in range(n_shards)]
        self.n_shards = n_shards
        self.directory = Path(directory) if directory is not None else None
        self.shard_dirs = list(shard_dirs) if shard_dirs is not None else None
        #: Rank-5 latch serializing every sharded-level mutation; held
        #: across the per-shard transactions of one logical write.
        #: Reentrant so a read that escalates to the latch can nest
        #: inside a latched caller (e.g. a pushdown fallback).
        self.writer = OrderedLatch(
            "shard.writer", SHARD_WRITER_RANK, reentrant=True
        )
        #: Seqlock versus in-flight multi-shard commit sequences: odd
        #: while one is running, bumped even when it finishes.  Mutated
        #: only under :attr:`writer`; read racily by scatter readers.
        self.fanout_seq = 0
        #: One ownership map per (dim, key bits) curve layout.
        self._maps: Dict[Tuple[int, int], RangeMap] = {}
        self._collections: Dict[str, Dict[str, "ShardedMDD"]] = {}

    # -- deployment ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        n_shards: int = 2,
        *,
        order: str = "z",
        durability: str = "none",
        injector=None,
        page_size: Optional[int] = None,
        **db_kwargs,
    ) -> "ShardedDatabase":
        """Create an on-disk deployment: one subdirectory per shard.

        A shared ``injector`` threads one global fault plan through every
        shard's page file and WAL, so the crash gauntlet's byte offsets
        sweep the combined write stream of the whole deployment.
        """
        from repro.storage.catalog import create_database

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        shard_dirs = [
            directory / f"shard{index:02d}" for index in range(n_shards)
        ]
        shards = [
            create_database(
                shard_dir,
                durability=durability,
                page_size=page_size,
                injector=injector,
                **db_kwargs,
            )
            for shard_dir in shard_dirs
        ]
        sdb = cls(
            n_shards,
            order=order,
            shards=shards,
            directory=directory,
            shard_dirs=shard_dirs,
        )
        sdb.save_meta()
        return sdb

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        *,
        durability: str = "none",
        injector=None,
        **db_kwargs,
    ) -> "ShardedDatabase":
        """Reopen a deployment created by :meth:`create` (recovery runs
        per shard, exactly as for a single store)."""
        from repro.storage.catalog import open_database

        directory = Path(directory)
        meta = json.loads((directory / META_NAME).read_text())
        shard_dirs = [
            directory / f"shard{index:02d}"
            for index in range(int(meta["n_shards"]))
        ]
        shards = [
            open_database(
                shard_dir,
                durability=durability,
                injector=injector,
                **db_kwargs,
            )
            for shard_dir in shard_dirs
        ]
        sdb = cls.from_shards(
            shards,
            order=meta.get("order", "z"),
            directory=directory,
            shard_dirs=shard_dirs,
        )
        for key_text, payload in meta.get("maps", {}).items():
            dim_text, bits_text = key_text.split("x")
            sdb._maps[(int(dim_text), int(bits_text))] = RangeMap.from_dict(
                payload
            )
        return sdb

    @classmethod
    def from_shards(
        cls,
        shards: Sequence[Database],
        *,
        order: str = "z",
        directory: Optional[Union[str, Path]] = None,
        shard_dirs: Optional[Sequence[Path]] = None,
    ) -> "ShardedDatabase":
        """Assemble a sharded database over already-open shard stores,
        rebuilding the sharded object wrappers from the shard catalogs
        (the failover path: promote a follower set in place)."""
        sdb = cls(
            len(shards),
            order=order,
            shards=shards,
            directory=directory,
            shard_dirs=shard_dirs,
        )
        names: Dict[str, Dict[str, MDDType]] = {}
        for shard in shards:
            for coll_name, objects in shard.collections.items():
                bucket = names.setdefault(coll_name, {})
                for obj_name, obj in objects.items():
                    bucket.setdefault(obj_name, obj.mdd_type)
        for coll_name, objects in names.items():
            coll = sdb._collections.setdefault(coll_name, {})
            for shard in shards:
                if coll_name not in shard.collections:
                    shard.create_collection(coll_name)
            for obj_name, mdd_type in objects.items():
                parts = []
                for shard in shards:
                    part = shard.collections[coll_name].get(obj_name)
                    if part is None:
                        part = shard.create_object(
                            coll_name, mdd_type, obj_name
                        )
                    parts.append(part)
                coll[obj_name] = ShardedMDD(
                    sdb, mdd_type, obj_name, coll_name, parts
                )
        return sdb

    def save_meta(self) -> None:
        """Persist shard count, order, and range maps for :meth:`open`."""
        if self.directory is None:
            return
        payload = {
            "n_shards": self.n_shards,
            "order": self.order,
            "maps": {
                f"{dim}x{bits}": rmap.to_dict()
                for (dim, bits), rmap in self._maps.items()
            },
        }
        (self.directory / META_NAME).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )

    # -- placement ----------------------------------------------------------

    def range_map(
        self,
        dim: int,
        bits: int,
        sample_keys: Optional[Sequence[int]] = None,
    ) -> RangeMap:
        """The ownership map for one curve layout.

        The first write batch to a layout pre-splits its map at the
        quantiles of the batch's curve keys (curve keys of a bounded
        domain cluster in a corner of the key space, so an even split
        would park everything on shard 0); later batches and lookups
        reuse the established map, which only the rebalancer mutates.
        """
        key = (dim, bits)
        rmap = self._maps.get(key)
        if rmap is None:
            size = 1 << (dim * bits)
            if sample_keys:
                rmap = RangeMap.from_sample(
                    self.n_shards, size, sample_keys
                )
            else:
                rmap = RangeMap.even(self.n_shards, size)
            self._maps[key] = rmap
            self.save_meta()
        return rmap

    # -- catalog ------------------------------------------------------------

    @contextmanager
    def fanout_commit(self):
        """Mark a multi-shard commit sequence for the reader seqlock.

        Wrap any sequence of per-shard transactions that must look
        atomic to a scatter read — a cross-shard tile batch, an update
        or delete spanning shards, a migration's copy/delete pair.  The
        caller must hold :attr:`writer`.  The sequence number stays odd
        for the duration and lands even (and larger) afterwards, so a
        reader comparing snapshots taken before and after its pass over
        the shards detects any overlap with the sequence.
        """
        self.fanout_seq += 1
        try:
            yield
        finally:
            self.fanout_seq += 1

    def create_collection(self, name: str) -> Dict[str, "ShardedMDD"]:
        if name in self._collections:
            raise StorageError(f"collection {name!r} already exists")
        for shard in self.shards:
            shard.create_collection(name)
        self._collections[name] = {}
        return self._collections[name]

    def collection(self, name: str) -> Dict[str, "ShardedMDD"]:
        try:
            return self._collections[name]
        except KeyError:
            raise StorageError(f"no collection {name!r}") from None

    def create_object(
        self, collection: str, mdd_type: MDDType, name: str
    ) -> "ShardedMDD":
        """Create the object on **every** shard (tiles land per owner)."""
        coll = self._collections.setdefault(collection, {})
        if name in coll:
            raise StorageError(
                f"object {name!r} already exists in collection {collection!r}"
            )
        parts = [
            shard.create_object(collection, mdd_type, name)
            for shard in self.shards
        ]
        obj = ShardedMDD(self, mdd_type, name, collection, parts)
        coll[name] = obj
        return obj

    def objects(self, collection: str) -> Tuple["ShardedMDD", ...]:
        return tuple(self.collection(collection).values())

    @property
    def collections(self) -> Dict[str, Dict[str, "ShardedMDD"]]:
        return self._collections

    # -- lifecycle ----------------------------------------------------------

    def reset_clock(self) -> None:
        for shard in self.shards:
            shard.reset_clock()

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __repr__(self) -> str:
        return (
            f"ShardedDatabase(n_shards={self.n_shards}, order={self.order!r})"
        )


class ShardedMDD:
    """One logical MDD spread over the shards of a :class:`ShardedDatabase`."""

    def __init__(
        self,
        sdb: ShardedDatabase,
        mdd_type: MDDType,
        name: str,
        collection: str,
        parts: Sequence[StoredMDD],
    ) -> None:
        self.sdb = sdb
        self.mdd_type = mdd_type
        self.name = name
        self.collection = collection
        self._parts: List[StoredMDD] = list(parts)
        origin, bits = _key_layout(mdd_type)
        self._origin = origin
        self._bits = bits
        base = sdb._base_key
        self._key: TileKey = shifted_key(
            lambda point: base(point, bits), origin
        )
        self.last_scatter: Optional[ScatterStats] = None

    # -- state --------------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.mdd_type.dim

    @property
    def current_domain(self) -> Optional[MInterval]:
        """The hull of the parts' published domains — derived, never
        stored, so it reopens as it was committed (DESIGN §16)."""
        domains = [
            part._published.domain
            for part in self._parts
            if part._published.domain is not None
        ]
        return MInterval.hull_of(domains) if domains else None

    _current_domain = current_domain

    @property
    def tile_count(self) -> int:
        return sum(part.tile_count for part in self._parts)

    def tile_entries(self) -> Tuple[TileEntry, ...]:
        """All tile rows, shard by shard (disjoint outside a migration)."""
        entries: List[TileEntry] = []
        for part in self._parts:
            entries.extend(part.tile_entries())
        return tuple(entries)

    def shard_of(self, point: Sequence[int]) -> int:
        """Owner shard of a tile whose lowest vertex is ``point``."""
        rmap = self.sdb.range_map(self.dim, self._bits)
        return rmap.owner(self._key(point))

    def tiles_per_shard(self) -> Tuple[int, ...]:
        return tuple(part.tile_count for part in self._parts)

    # -- writes -------------------------------------------------------------

    def _check_cross_shard_overlap(
        self, groups: Dict[int, List[Tile]]
    ) -> None:
        """Overlaps a single shard's index cannot see: a new tile against
        tiles stored on *other* shards, and same-batch tiles routed to
        different owners."""
        for owner, tiles in groups.items():
            for tile in tiles:
                for other, part in enumerate(self._parts):
                    if other == owner:
                        continue  # that shard's own _admit_domain checks
                    hits = part.index.search(tile.domain)
                    if hits.entries:
                        raise DomainError(
                            f"tile {tile.domain} overlaps stored tile "
                            f"{hits.entries[0].domain} of {self.name!r} "
                            f"on shard {other}"
                        )
        owners = sorted(groups)
        for i, left in enumerate(owners):
            for right in owners[i + 1 :]:
                for a in groups[left]:
                    for b in groups[right]:
                        if a.domain.intersects(b.domain):
                            raise DomainError(
                                f"tile {a.domain} overlaps tile {b.domain} "
                                f"in the same batch for {self.name!r}"
                            )

    def write_tiles(self, tiles: Sequence[Tile]) -> List[int]:
        """Bulk insert: one WAL transaction on every owner shard.

        Tiles are grouped by owner; each group is the shard's own
        :meth:`StoredMDD.write_tiles` step (``_write``) — one group
        commit (and one fsync in ``wal+fsync`` mode) per shard touched,
        in ascending shard order.
        """
        with self.sdb.writer:
            return self._route(tiles, None)

    def _route(
        self, tiles: Sequence[Tile], region: Optional[MInterval]
    ) -> List[int]:
        """Group ``tiles`` by owner shard and run each group as that
        shard's :meth:`StoredMDD._write` — for a load (``region`` given)
        every owner's transaction carries the domain closure."""
        # First batch for this curve layout pre-splits the ownership map
        # at the batch keys' quantiles (see ShardedDatabase.range_map).
        rmap = self.sdb.range_map(
            self.dim,
            self._bits,
            sample_keys=[self._key(t.domain.lowest) for t in tiles],
        )
        groups: Dict[int, List[Tile]] = {}
        for tile in tiles:
            groups.setdefault(rmap.owner(self._key(tile.domain.lowest)), [])\
                .append(tile)
        self._check_cross_shard_overlap(groups)
        tile_ids: List[int] = []
        guard = (
            self.sdb.fanout_commit() if len(groups) > 1 else nullcontext()
        )
        with guard, obs.span(
            "shard.write_tiles",
            object=self.name,
            tiles=len(tiles),
            shards=len(groups),
        ):
            for owner in sorted(groups):
                tile_ids.extend(self._parts[owner]._write(groups[owner], region))
        _TILES_ROUTED.inc(len(tiles))
        return tile_ids

    def insert_tile(self, tile: Tile) -> int:
        return self.write_tiles([tile])[0]

    def load_array(
        self,
        array: np.ndarray,
        strategy,
        origin: Optional[Sequence[int]] = None,
        skip_default_tiles: bool = False,
    ) -> LoadStats:
        """Tile and store a dense array: the strategy plans **once**
        (:meth:`StoredMDD._plan_load`), the tile batches commit once per
        owner shard, each closing that shard's domain over the loaded
        region — so partial coverage reopens with the domain it loaded."""
        region, tiles, stats = self._plan_load(
            array, strategy, origin, skip_default_tiles
        )
        started = time.perf_counter()
        with self.sdb.writer:
            self._route(tiles, region)
        stats.store_ms = (time.perf_counter() - started) * 1000.0
        stats.bytes_stored = sum(
            part.stored_bytes() for part in self._parts
        )
        return stats

    def update(self, region: MInterval, values: np.ndarray) -> int:
        """Overwrite the covered parts of ``region``; returns covered
        cells.  Every shard holding a tile that meets ``region`` updates
        it in its own transaction, with ``region`` and ``values`` as the
        caller gave them."""
        self._check_update(region, values)
        with self.sdb.writer:
            parts = [
                part for part in self._parts if part.index.search(region).entries
            ]
            guard = self.sdb.fanout_commit() if len(parts) > 1 else nullcontext()
            with guard:
                return sum(part.update(region, values) for part in parts)

    def delete_region(self, region: MInterval) -> int:
        """Drop tiles fully inside ``region``; returns tiles dropped.

        Single-store semantics (:meth:`StoredMDD.delete_region`): a
        delete that drops nothing changes nothing; otherwise the domain
        shrinks to the hull of the remaining tiles — so every shard whose
        domain is not already its own tiles' hull (a load's closure)
        commits that shrink, victims or not.
        """
        self._check_delete(region)
        with self.sdb.writer:
            plans = [(part, part._victims(region)) for part in self._parts]
            dropped = sum(len(victims) for _part, victims in plans)
            if not dropped:
                return 0
            plans = [
                (part, victims)
                for part, victims in plans
                if victims or part.current_domain != part._tile_hull()
            ]
            guard = self.sdb.fanout_commit() if len(plans) > 1 else nullcontext()
            with guard:
                for part, victims in plans:
                    if victims:
                        part.delete_region(region)
                    else:
                        with part.database.transaction():
                            part._drop_tiles(())  # the shrink alone
            return dropped

    # -- reads --------------------------------------------------------------

    def _with_stable_views(self, action):
        """Run ``action`` with the guarantee that no multi-shard commit
        sequence overlapped its pass over the shards.

        Per-shard reader views are pinned sequentially, so a migration
        (or any cross-shard commit) landing between two pins could be
        observed half-done — a moving tile hidden from both of the
        reader's views, or half of a cross-shard batch.  The optimistic
        path snapshots :attr:`ShardedDatabase.fanout_seq` around the
        action and discards + retries on movement; after
        ``STABLE_VIEW_RETRIES`` lost races it serializes with the
        sharded write latch, which no commit sequence can bypass.
        """
        for _ in range(STABLE_VIEW_RETRIES):
            seq = self.sdb.fanout_seq
            if seq % 2 == 0:
                result = action()
                if self.sdb.fanout_seq == seq:
                    return result
            _READ_RETRIES.inc()
        with self.sdb.writer:
            return action()

    def read(
        self,
        region: MInterval,
        version=None,
        *,
        predicate: Optional[CellPredicate] = None,
        prune: bool = True,
    ) -> Tuple[np.ndarray, QueryTiming]:
        """Scatter-gather range read, byte-identical to a single store.

        The box is planned once; every shard runs its own index lookup,
        zone-map prune, page-ordered fetch through its pipeline pool, and
        the coordinator copies fragments into one result array with
        exactly the single-store per-cell logic (masking included).
        Tiles are disjoint across shards, so copy order is irrelevant —
        and the :meth:`_with_stable_views` seqlock discards any pass a
        concurrent migration or cross-shard commit raced.
        """
        self._reject_version(version)
        return self._with_stable_views(
            lambda: self._scatter(region, None, predicate, prune)[:2]
        )

    #: Access type (d), region resolution, write validation and load
    #: planning read only ``name``, ``dim``, ``mdd_type``, the current
    #: domain and ``read`` — the single-store bodies serve the sharded
    #: object unchanged.
    read_section = StoredMDD.read_section
    resolve_region = StoredMDD.resolve_region
    _resolve_in = StoredMDD._resolve_in
    _check_update = StoredMDD._check_update
    _check_delete = StoredMDD._check_delete
    _plan_load = StoredMDD._plan_load

    def aggregate(
        self,
        region: MInterval,
        op: str,
        version=None,
        prune: bool = True,
    ) -> Tuple[Union[int, float, bool], QueryTiming]:
        """The two-tuple short form of :meth:`aggregate_push`
        (unpredicated; ``pushed`` dropped) — bitwise what a single
        store's :meth:`StoredMDD.aggregate` returns, charge for charge."""
        return self.aggregate_push(region, op, version, prune=prune)[:2]

    def aggregate_push(
        self,
        region: MInterval,
        op: str,
        version=None,
        *,
        predicate: Optional[CellPredicate] = None,
        prune: bool = True,
        groups: Optional[Sequence[Sequence[Tuple[int, int]]]] = None,
    ) -> Tuple[Union[int, float, bool, np.ndarray], QueryTiming, bool]:
        """Distributed aggregation pushdown over all shards.

        Every shard reduces its tiles to per-tile partials on its own
        pipeline workers (:func:`fetch_tile_partials`); fully-covered
        tiles answer from stored synopses with zero decode; the
        coordinator combines everything with the order-insensitive
        :func:`combine_aggregate` under the same
        :func:`partial_aggregate_eligible` guards as a single store —
        so the pushed value is bitwise-equal however tiles are spread.
        Contributions are deduplicated by tile domain, so a migration's
        transient dual-presence can never double-count.  Returns
        ``(value, timing, pushed)``; ineligible combinations (float
        add/avg, unbounded integer ranges) fall back to the materialized
        scatter-gather read, reduced on the coordinator.  ``groups``
        makes it a GROUP BY exactly as :meth:`StoredMDD.aggregate_push`
        — still one pass over the shards under one stable set of views.
        """
        self._reject_version(version)
        check_aggregate(op, self)
        return self._with_stable_views(
            lambda: self._scatter(region, op, predicate, prune, groups)
        )

    @staticmethod
    def _reject_version(version) -> None:
        if version is not None:
            raise QueryError(
                "sharded objects do not support explicit version reads; "
                "pin per-shard snapshots instead"
            )

    def _scatter(
        self,
        region: MInterval,
        op: Optional[str],
        predicate: Optional[CellPredicate],
        prune: bool,
        groups=None,
    ) -> tuple:
        """One pass over the shards through the read executor
        (DESIGN §17): select on every shard's pinned view, take one
        global exactness decision, run each shard's part on its own
        pipeline pool, feed one sink.  ``op`` is ``None`` for a read;
        an aggregate that may not be combined exactly shares the read's
        slab sink and reduces the slab.
        """
        query = ReadExecutor(
            self.mdd_type,
            self.resolve_region(region),
            predicate=predicate,
            prune=prune,
            merge=True,
            groups=groups,
        )
        with ExitStack() as pins:
            for part in self._parts:
                view = pins.enter_context(part._reader_view(None))
                query.select(part, view, condense=op is not None)
            pushed = op is not None and query.exact(op)
            if pushed:
                span = obs.span(
                    "shard.aggregate_push",
                    object=self.name,
                    op=op,
                    shards=sum(1 for sel in query.selections if sel.items),
                )
            else:
                span = obs.span(
                    "shard.read",
                    object=self.name,
                    region=str(query.region),
                    shards=self.sdb.n_shards,
                )
            with span:
                for selection in query.selections:
                    query.fetch(selection, partials=pushed)
                result = query.combine(op) if pushed else query.compose()
                if op is not None and not pushed:
                    result = query.condense(op, result)
        query.finish(cells_returned=op is None)
        self.last_scatter = ScatterStats(
            [sel.model_ms for sel in query.selections],
            [len(sel.fetched) for sel in query.selections],
        )
        (_SCATTER_AGGS if pushed else _SCATTER_READS).inc()
        return result, query.timing, pushed

    def __repr__(self) -> str:
        return (
            f"ShardedMDD({self.name!r}, shards={self.tiles_per_shard()}, "
            f"domain={self._current_domain})"
        )

