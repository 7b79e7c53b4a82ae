"""Sharded multi-store: tiles partitioned across N independent stores.

A :class:`ShardedDatabase` owns N :class:`~repro.storage.tilestore.Database`
shards — each with its own page file, WAL, buffer pool, encode pool and
MVCC epochs — and places every tile on exactly one shard by the
space-filling-curve key of its lowest vertex (:mod:`repro.core.order`),
looked up in a contiguous :class:`~repro.shard.ranges.RangeMap`.  The
survey argument (PAPERS.md, Rusu & Cheng) is that chunk-partitioned
scale-out is what production array stores do; the paper's arbitrary
tiling makes the tile the natural distribution unit because each tile is
already an independent BLOB.

:class:`ShardedMDD` is the scatter-gather layer, and it owns no query
or write body of its own: its entry points *are* :class:`StoredMDD`'s
(aliased, DESIGN §16–17), which run over its parts — one for a store,
one per shard here.  A query runs over the parts' pinned ``(store,
view)`` pairs: the region resolves against the hull of the pinned
views' domains; the single
:class:`~repro.storage.tilestore.ReadExecutor` selects on every part,
fetches and decodes each shard's tiles from that shard's pool and disk
on the calling thread, and feeds one sink.  Fragments are therefore reassembled by *the* compose code —
per-cell masking and default fill included — and tiles are disjoint
across shards, so copy order cannot change the result; aggregation
pushdown combines per-tile partials with the order-insensitive
:func:`~repro.index.zonemap.combine_cells` under one global
exactness decision, so a pushed aggregate is bitwise-equal no matter how
tiles are spread.

A write admits its batch once against every shard's index and routes it
to the owner shards (:meth:`ShardedMDD._owners`) as **one WAL
transaction per shard**; a cross-shard batch, update or delete is one
commit on every shard it touches.  The sharded-level write latch
(``shard.writer``, rank 5 — below every per-shard latch) scopes every
write body (:meth:`ShardedMDD._write_scope`), so the rebalancer's
two-commit migrations can never interleave with updates.

Readers do not hold that latch while they query.  Because a query pins
its per-shard MVCC views *sequentially*, a multi-shard commit sequence
completing between two pins could be observed half-done — worst case, a
migration's copy lands after the reader viewed the destination shard and
its delete before the reader views the source, hiding the moving tile
from both views.  :attr:`ShardedDatabase.fanout_seq` is the seqlock that
validates the pins: writers hold it odd across any commit sequence
touching more than one shard, and :meth:`ShardedMDD._pinned` snapshots
it before the first pin and re-pins when it moved by the last — the
query then runs once, on a consistent cut.  After a few lost races the
pins are taken under the write latch (released before the query runs),
so a steady stream of writers cannot starve a read.

Aliasing contract: the store bodies ``ShardedMDD`` shares — the query
entry points (``read``, ``read_blocks``, ``read_stored``, ``tile_plan``,
``aggregate``, ``aggregate_push``, ``read_section``,
``resolve_region``), the write entry points (``write_tiles``,
``insert_tile``, ``load_array``, ``update``, ``delete_region``), their
validation, admission and load planning — read only ``name``, ``dim``,
``mdd_type``, the current domain, ``_MERGE`` and ``_parts``, and call
three hooks: ``_pinned`` (the parts' views as one cut), ``_owners``
(route a batch to its owner parts) and ``_write_scope`` (the latch and
the fan-out guard around the parts' commits).  So the planned
:class:`~repro.query.engine.QueryEngine` runs GROUP BY roll-ups over a
sharded object unchanged; an explicit ``version=`` is rejected until
one statement pin spans the shards.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.core.errors import QueryError, StorageError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import MDDType
from repro.core.order import TileKey, shifted_key, tile_order
from repro.index.zonemap import synopsis_can_match  # noqa: F401  (a trace target, see below)
from repro.shard.ranges import RangeMap
from repro.storage.latch import OrderedLatch

# Trace targets: the read executor prunes and fetches for every shard, so
# nothing here calls these (or synopsis_can_match) any more — but
# benchmarks/e2e/tracing.py wraps them as attributes of this module and
# refuses to run if one is unbound (its TARGETS change in a benchmark PR).
from repro.storage.pipeline import fetch_tile_partials, fetch_tiles  # noqa: F401
from repro.storage.tilestore import Database, ReaderView, ScatterStats, StoredMDD

#: The sharded write latch ranks below every per-shard latch
#: (``txn.writer`` is rank 10), so it may be held across per-shard
#: transactions without violating the deadlock-free latch order.
SHARD_WRITER_RANK = 5

#: Curve key width when an object's definition domain is open on some
#: side (bounded domains get a tight per-object width instead).
DEFAULT_KEY_BITS = 21

#: Metadata file for on-disk sharded deployments.
META_NAME = "shards.json"

_TILES_ROUTED = obs.counter(
    "shard.tiles_routed", "Tiles routed to an owner shard on write"
)
_READ_RETRIES = obs.counter(
    "shard.read_retries",
    "Shard pin sets discarded because a multi-shard commit raced them",
)

#: Optimistic pin passes a query makes before pinning under the sharded
#: write latch (each pass only loses to a multi-shard commit sequence
#: overlapping it, so contention this deep is already pathological).
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

    #: Catalog lookups read only :attr:`collections`: the store's serve.
    collection = Database.collection
    objects = Database.objects

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

    @property
    def collections(self) -> Dict[str, Dict[str, "ShardedMDD"]]:
        return self._collections

    # -- lifecycle ----------------------------------------------------------

    def reset_clock(self) -> None:
        for shard in self.shards:
            shard.reset_clock()

    def close(self) -> None:
        """Close every shard and drop the sharded objects, which hold this
        database: a closed one is then freed by reference counting."""
        for shard in self.shards:
            shard.close()
        self._collections.clear()

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
        #: Per-shard account of the last finished query.
        self.last_scatter: Optional[ScatterStats] = None
        self._stack: tuple = ((), None)

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

    def shard_of(self, point: Sequence[int]) -> int:
        """Owner shard of a tile whose lowest vertex is ``point``."""
        rmap = self.sdb.range_map(self.dim, self._bits)
        return rmap.owner(self._key(point))

    def tiles_per_shard(self) -> Tuple[int, ...]:
        return tuple(part.tile_count for part in self._parts)

    # -- the write hooks ----------------------------------------------------

    def _owners(self, tiles: Sequence[Tile]) -> List[Tuple[StoredMDD, Sequence[Tile]]]:
        """Route an admitted batch to its owner shards by curve key, in
        ascending shard order.  The first batch for this curve layout
        pre-splits the ownership map at the batch keys' quantiles (see
        :meth:`ShardedDatabase.range_map`)."""
        keys = [self._key(tile.domain.lowest) for tile in tiles]
        rmap = self.sdb.range_map(self.dim, self._bits, sample_keys=keys)
        groups: Dict[int, List[Tile]] = {}
        for key, tile in zip(keys, tiles):
            groups.setdefault(rmap.owner(key), []).append(tile)
        _TILES_ROUTED.inc(len(tiles))
        return [(self._parts[owner], groups[owner]) for owner in sorted(groups)]

    @contextmanager
    def _write_scope(self):
        """Scope one write body: the sharded write latch, held across the
        shards' transactions.  Commits on more than one shard run inside
        :meth:`ShardedDatabase.fanout_commit`, the readers' seqlock."""
        sdb = self.sdb
        with sdb.writer:
            yield lambda n: sdb.fanout_commit() if n > 1 else nullcontext()

    # -- reads --------------------------------------------------------------

    #: Parts number tiles independently and may both hold a tile while a
    #: migration runs: hits dedup and combine by domain corner, 1 shard
    #: included.
    _MERGE = True

    @contextmanager
    def _pinned(self, version) -> Iterator[list[tuple[StoredMDD, ReaderView]]]:
        """Every shard's view, pinned as one consistent cut.

        Views are pinned one shard at a time, so a multi-shard commit
        sequence landing between two pins could be seen half-done — a
        migrating tile hidden from both views, or half a cross-shard
        batch.  The pins form a cut when
        :attr:`ShardedDatabase.fanout_seq` was even before the first and
        is unchanged after the last; a lost race unpins and re-pins (the
        query itself runs once), and after ``STABLE_VIEW_RETRIES`` lost
        races the pins are taken under the sharded write latch, held
        only while pinning.
        """
        if version is not None:
            raise QueryError(
                "sharded objects do not support explicit version reads; "
                "pin per-shard snapshots instead"
            )
        sdb = self.sdb

        def pin(pins: ExitStack) -> list[tuple[StoredMDD, ReaderView]]:
            return [(part, pins.enter_context(part._reader_view(None))) for part in self._parts]

        for _ in range(STABLE_VIEW_RETRIES):
            with ExitStack() as pins:
                seq = sdb.fanout_seq
                if seq % 2 == 0:
                    parts = pin(pins)
                    if sdb.fanout_seq == seq:
                        yield parts
                        return
            _READ_RETRIES.inc()
        with ExitStack() as pins:
            with sdb.writer:
                parts = pin(pins)
            yield parts

    #: The store's query and write entry points, its tile-table totals,
    #: region resolution, access type (d), admission, write validation and
    #: load planning read only ``name``, ``dim``, ``mdd_type``, the current domain,
    #: :attr:`_MERGE`, ``_parts`` and the hooks :meth:`_pinned`,
    #: :meth:`_owners` and :meth:`_write_scope` — the single-store bodies
    #: serve the sharded object unchanged.
    read = StoredMDD.read
    read_blocks = StoredMDD.read_blocks
    read_stored = StoredMDD.read_stored
    tile_plan = StoredMDD.tile_plan
    aggregate = StoredMDD.aggregate
    aggregate_push = StoredMDD.aggregate_push
    _select = StoredMDD._select
    _stacked = StoredMDD._stacked
    read_section = StoredMDD.read_section
    resolve_region = StoredMDD.resolve_region
    _resolve_in = StoredMDD._resolve_in
    _check_update = StoredMDD._check_update
    _check_delete = StoredMDD._check_delete
    _plan_load = StoredMDD._plan_load
    tile_count = StoredMDD.tile_count
    tile_entries = StoredMDD.tile_entries
    stored_bytes = StoredMDD.stored_bytes
    write_tiles = StoredMDD.write_tiles
    insert_tile = StoredMDD.insert_tile
    load_array = StoredMDD.load_array
    update = StoredMDD.update
    delete_region = StoredMDD.delete_region
    _write = StoredMDD._write
    _admit = StoredMDD._admit
    _admit_domain = StoredMDD._admit_domain

    def __repr__(self) -> str:
        return (
            f"ShardedMDD({self.name!r}, shards={self.tiles_per_shard()}, "
            f"domain={self._current_domain})"
        )

