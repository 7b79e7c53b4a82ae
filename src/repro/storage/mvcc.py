"""MVCC-lite: published object versions, epoch pins, deferred reclamation.

The concurrency model (DESIGN §11) in one paragraph: every
:class:`~repro.storage.tilestore.StoredMDD` keeps *working* state that
only the single writer (the thread inside :meth:`Database.transaction`)
may touch, plus a **published** :class:`ObjectVersion` — an immutable
``(tiles, index, domain)`` triple that readers use without any locking.
A transaction clones the working containers copy-on-write on first
mutation, and at commit publishes new versions for every dirtied object
atomically under the epoch latch.  Readers therefore always see either
the entire transaction or none of it — never a partially committed
batch.

Superseded BLOBs cannot be deleted at commit: a reader that pinned an
older version may still fetch them.  :class:`EpochManager` implements
epoch-based reclamation: each commit advances a global epoch; a retired
blob enters a *limbo* list tagged with the pre-advance epoch; a reader
pins the current epoch for the duration of its read (or snapshot).  A
limbo entry whose tag is **strictly below every active pin** can no
longer be reached by any reader and is physically deleted.  With no
readers active, reclamation is immediate — single-threaded behaviour
degenerates to "delete at commit".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.errors import StorageError
from repro.core.geometry import MInterval
from repro.index.zonemap import ZoneColumns
from repro.storage.latch import OrderedLatch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.mddtype import MDDType
    from repro.index.rplustree import RPlusTreeIndex
    from repro.index.zonemap import TileSynopsis
    from repro.query.timing import QueryTiming
    from repro.storage.tilestore import Database, StoredMDD, TileEntry

_EPOCH = obs.gauge("mvcc.epoch", "Current global epoch (advances per commit)")
_SNAPSHOTS_OPENED = obs.counter(
    "mvcc.snapshots_opened", "Epoch pins taken (snapshots and plain reads)"
)
_SNAPSHOTS_ACTIVE = obs.gauge(
    "mvcc.snapshots_active", "Epoch pins currently held"
)
_SNAPSHOT_AGE = obs.gauge(
    "mvcc.snapshot_age",
    "Commits elapsed since the oldest active pin (0 when none)",
)
_LIMBO_BLOBS = obs.gauge(
    "mvcc.limbo_blobs", "Retired blobs awaiting epoch reclamation"
)
_RECLAIMED_BLOBS = obs.counter(
    "mvcc.reclaimed_blobs", "Superseded blobs physically deleted"
)
_RECLAIMED_BYTES = obs.counter(
    "mvcc.reclaimed_bytes", "Stored bytes freed by epoch reclamation"
)
_LIVE_VERSIONS = obs.gauge(
    "mvcc.live_versions",
    "Published object versions currently live (one per stored object)",
)
_PIN_FLOOR = obs.gauge(
    "mvcc.pin_floor",
    "Oldest pinned epoch — the reclamation watermark "
    "(equals the current epoch when nothing is pinned)",
)


def note_live_versions(count: int) -> None:
    """Record how many published versions are live (called by the
    Database whenever publication or object creation/drop changes it)."""
    _LIVE_VERSIONS.set(count)


@dataclass(frozen=True)
class ObjectVersion:
    """An immutable point-in-time view of one stored object.

    The rows (frozen :class:`TileEntry`), synopses and index entries are
    immutable, and shared with the versions before and after; the maps
    and index nodes are this version's own — a writer copies them before
    its first change (DESIGN §11) — so readers share them without locks.
    """

    tiles: Mapping[int, "TileEntry"]
    index: "RPlusTreeIndex"
    domain: Optional[MInterval]
    epoch: int
    #: Per-tile value synopses, published atomically with ``tiles`` — a
    #: reader can never pair a tile with a synopsis from another epoch.
    zones: Mapping[int, "TileSynopsis"]
    #: The object's type: the tile table's dimensionality and cell type.
    mdd_type: "MDDType"

    @cached_property
    def table(self) -> "TileTable":
        """``tiles`` and ``zones`` as columns, derived on first use (a
        race derives it twice, identically)."""
        return TileTable(self.tiles, self.zones, self.mdd_type)


class TileTable:
    """One object version's tile table as arrays (DESIGN §17).

    Row ``i`` is the tile ``entries[i]`` (in ``tiles`` order): ``lo`` /
    ``hi`` are its bounds (``int64[n, d]``),
    ``cells`` its cell count, ``ids`` its tile id, ``blob_ids`` its BLOB,
    ``virtual`` whether its cells are synthesised and ``zones`` its
    synopsis columns.  Derived from a version, whose containers never
    change once published, it needs no upkeep of its own.
    """

    def __init__(self, tiles: Mapping, zones: Mapping, mdd_type: "MDDType") -> None:
        self.entries = list(tiles.values())
        count = len(self.entries)
        self.ids = np.fromiter(tiles, dtype=np.int64, count=count)
        self.blob_ids = np.fromiter((e.blob_id for e in self.entries), dtype=np.int64, count=count)
        self.virtual = np.fromiter((e.virtual for e in self.entries), dtype=bool, count=count)
        bounds = np.array(
            [entry.domain.lower + entry.domain.upper for entry in self.entries], dtype=np.int64
        ).reshape(count, 2, mdd_type.dim)
        self.lo, self.hi = bounds[:, 0], bounds[:, 1]
        self.cells = np.prod(self.hi - self.lo + 1, axis=1)
        self.zones = ZoneColumns([zones.get(tile_id) for tile_id in tiles], mdd_type.base.dtype)

    @classmethod
    def stack(cls, tables: Sequence["TileTable"]) -> "TileTable":
        """Several parts' tables as one, rows part by part — a sharded
        query's pinned cut, masked, clipped and classified in one pass —
        with every column joined; one table is itself."""
        if len(tables) == 1:
            return tables[0]
        stacked = cls.__new__(cls)
        stacked.entries = list(chain.from_iterable(table.entries for table in tables))
        for name in ("ids", "blob_ids", "virtual", "lo", "hi", "cells"):
            setattr(stacked, name, np.concatenate([getattr(table, name) for table in tables]))
        stacked.zones = ZoneColumns.stack([table.zones for table in tables])
        return stacked

    def meeting(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """The rows of the tiles meeting the box ``low`` .. ``high``, in
        row order: one overlap mask over the bound columns."""
        met = (self.lo <= high) & (self.hi >= low)
        return np.flatnonzero(reduce(np.logical_and, met.T))  # per axis: short rows


class EpochManager:
    """Global epoch counter, active pins, and the limbo list.

    All state is guarded by the ``mvcc.epoch`` latch, which is also the
    publication latch: committing writers publish their new
    :class:`ObjectVersion`\\ s while holding it, and readers pin under
    it, so a pin observes either all of a commit's versions or none.
    """

    def __init__(self, reclaimer: Callable[[int], int]) -> None:
        #: ``reclaimer(blob_id) -> bytes freed`` physically deletes one
        #: superseded blob (cache invalidation + store delete); ``None``
        #: once detached (:meth:`detach`).
        self._reclaimer: Optional[Callable[[int], int]] = reclaimer
        self.latch = OrderedLatch("mvcc.epoch", 30)
        self._current = 0
        self._pins: Dict[int, int] = {}  # epoch -> active pin count
        self._limbo: list[Tuple[int, int]] = []  # (tagged epoch, blob id)

    # -- introspection ----------------------------------------------------

    @property
    def current(self) -> int:
        with self.latch:
            return self._current

    @property
    def limbo_size(self) -> int:
        with self.latch:
            return len(self._limbo)

    @property
    def active_pins(self) -> int:
        with self.latch:
            return sum(self._pins.values())

    # -- pins (reader side) ----------------------------------------------

    def pin(self) -> int:
        """Pin the current epoch; versions captured after this call stay
        fetchable until :meth:`unpin`."""
        with self.latch:
            return self.pin_locked()

    def pin_locked(self) -> int:
        """Like :meth:`pin`, for callers already holding :attr:`latch`
        (pin-and-capture must be one critical section)."""
        epoch = self._current
        self._pins[epoch] = self._pins.get(epoch, 0) + 1
        _SNAPSHOTS_OPENED.inc()
        _SNAPSHOTS_ACTIVE.inc()
        self._update_age()
        return epoch

    def unpin(self, epoch: int) -> None:
        """Release a pin; reclaims whatever the pin was protecting."""
        with self.latch:
            count = self._pins.get(epoch)
            if not count:
                raise StorageError(f"unpin of epoch {epoch} with no pin")
            if count == 1:
                del self._pins[epoch]
            else:
                self._pins[epoch] = count - 1
            _SNAPSHOTS_ACTIVE.dec()
            self._reclaim_locked()
            self._update_age()

    # -- commit side (caller holds the latch via ``publication``) ---------

    def retire_and_advance(self, blob_ids) -> None:
        """Tag retired blobs with the committing epoch, advance, reclaim.

        Must be called while holding :attr:`latch` (the commit's
        publication critical section).
        """
        tag = self._current
        for blob_id in blob_ids:
            self._limbo.append((tag, blob_id))
        self._current = tag + 1
        _EPOCH.set(self._current)
        _LIMBO_BLOBS.set(len(self._limbo))
        self._reclaim_locked()
        self._update_age()

    # -- reclamation ------------------------------------------------------

    def detach(self) -> None:
        """Drop the reclaimer (its database closed, and the reference back
        to it with it): retired blobs then stay where they lie."""
        with self.latch:
            self._reclaimer = None

    def _reclaim_locked(self) -> None:
        if not self._limbo or self._reclaimer is None:
            return
        floor = min(self._pins) if self._pins else self._current
        # An entry tagged g was reachable by readers pinned at or before
        # g; pins strictly above g (or no pins at all) cannot reach it.
        survivors: list[Tuple[int, int]] = []
        freed_blobs = 0
        freed_bytes = 0
        for tag, blob_id in self._limbo:
            if tag < floor or not self._pins:
                freed_bytes += self._reclaimer(blob_id)
                freed_blobs += 1
            else:
                survivors.append((tag, blob_id))
        self._limbo = survivors
        if freed_blobs:
            _RECLAIMED_BLOBS.inc(freed_blobs)
            _RECLAIMED_BYTES.inc(freed_bytes)
        _LIMBO_BLOBS.set(len(self._limbo))

    def _update_age(self) -> None:
        floor = min(self._pins) if self._pins else self._current
        _SNAPSHOT_AGE.set(self._current - floor)
        _PIN_FLOOR.set(floor)


class Snapshot:
    """A consistent, repeatable point-in-time view of a whole database.

    Captures the published version of every object under one epoch pin,
    so reads through the snapshot are mutually consistent *across
    objects* and stable for the snapshot's lifetime, no matter how many
    transactions commit meanwhile.  Use as a context manager::

        with database.snapshot() as snap:
            array, timing = snap.read("coll", "obj", region)
    """

    def __init__(self, database: "Database") -> None:
        self._database = database
        epoch = database.epoch
        with epoch.latch:
            # Pin and capture under one latch hold: no commit can publish
            # between the pin and the capture, so the snapshot is atomic.
            self._epoch = epoch.pin_locked()
            self._versions: Dict[Tuple[str, str], ObjectVersion] = {
                (coll_name, obj_name): obj._published
                for coll_name, objects in database.collections.items()
                for obj_name, obj in objects.items()
            }
        self._closed = False

    @property
    def epoch(self) -> int:
        return self._epoch

    def version(self, collection: str, name: str) -> ObjectVersion:
        """The captured version of one object (raises when unknown)."""
        try:
            return self._versions[(collection, name)]
        except KeyError:
            raise StorageError(
                f"snapshot holds no object {name!r} in collection "
                f"{collection!r}"
            ) from None

    def objects(self, collection: str) -> tuple[str, ...]:
        """Names captured for one collection."""
        return tuple(
            obj for coll, obj in sorted(self._versions) if coll == collection
        )

    def domain(self, collection: str, name: str) -> Optional[MInterval]:
        return self.version(collection, name).domain

    def read(
        self, collection: str, name: str, region: MInterval
    ) -> tuple["np.ndarray", "QueryTiming"]:
        """Range-read one object as of the snapshot."""
        if self._closed:
            raise StorageError("snapshot is closed")
        obj = self._database.collection(collection)[name]
        return obj.read(region, version=self.version(collection, name))

    def close(self) -> None:
        """Release the pin (idempotent); triggers reclamation."""
        if not self._closed:
            self._closed = True
            self._database.epoch.unpin(self._epoch)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot(epoch={self._epoch}, objects={len(self._versions)}, "
            f"closed={self._closed})"
        )
