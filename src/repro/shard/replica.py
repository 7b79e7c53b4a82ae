"""WAL-shipped replication: follower stores replaying a primary's redo log.

The redo-only WAL (PR 3) is already a physical replication stream: every
committed transaction is a self-delimiting CRC-framed batch of
``blob_put`` / catalog-meta records, and recovery replays exactly the
committed prefix.  A :class:`ShardFollower` reuses that machinery
verbatim — :func:`~repro.storage.wal.scan_wal` on the **primary's** log
yields only committed batches (torn tails and uncommitted transactions
are invisible by construction), and each record lands on the follower
through the same :func:`~repro.storage.catalog._apply_record` the
crash-recovery path uses, so a shipped follower is byte-equivalent to a
recovered primary.

Shipping is pull-based and incremental: each :meth:`ShardFollower.ship`
scans the primary log and applies only batches past the follower's
applied-transaction watermark, then checkpoints the follower directory
(so the follower is always fsck-clean without its own WAL).  Replication
lag — transactions and bytes the follower has not yet applied — is
reported through :mod:`repro.obs` gauges.

Failover is :meth:`promote`: a final ship of whatever the primary's log
still holds (a crashed primary's torn tail is skipped, exactly as
recovery would), after which the follower store *is* the new primary.
:class:`ShardedFollower` lifts all of this to a whole
:class:`~repro.shard.sharded.ShardedDatabase` deployment — one follower
per shard, one ``promote()`` returning a ready sharded database.

Known limitation (documented, asserted): a primary **checkpoint**
truncates its WAL and restarts transaction numbering, which would make
the follower watermark ambiguous.  Ship cycles detect the truncation
(the log holds fewer committed transactions than already applied) and
raise; re-bootstrap the follower from the checkpointed primary instead.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro import obs
from repro.core.errors import StorageError
from repro.shard.sharded import ShardedDatabase
from repro.storage.catalog import (
    CATALOG_NAME,
    PAGES_NAME,
    WAL_NAME,
    _apply_record,
    open_database,
    save_database,
)
from repro.storage.tilestore import Database
from repro.storage.wal import scan_wal

_SHIPS = obs.counter("shard.replication.ships", "WAL ship cycles completed")
_TXNS_APPLIED = obs.counter(
    "shard.replication.txns_applied", "Committed transactions replayed"
)
_BYTES_SHIPPED = obs.counter(
    "shard.replication.bytes_shipped", "Committed WAL bytes replayed"
)
_LAG_TXNS = obs.gauge(
    "shard.replication.lag_txns",
    "Committed primary transactions not yet applied to followers",
)
_LAG_BYTES = obs.gauge(
    "shard.replication.lag_bytes",
    "Committed primary WAL bytes not yet applied to followers",
)
_PROMOTIONS = obs.counter(
    "shard.replication.promotions", "Follower promotions to primary"
)


@dataclass(frozen=True)
class ReplicationStatus:
    """Snapshot of one follower after a ship cycle."""

    shard: int
    primary_txns: int  # committed transactions visible in the primary log
    applied_txns: int  # transactions the follower has replayed (ever)
    lag_txns: int  # primary_txns - newly applied high-water (0 after ship)
    shipped_txns: int  # transactions applied by *this* cycle
    shipped_bytes: int  # WAL bytes covered by this cycle's new batches

    @property
    def caught_up(self) -> bool:
        return self.lag_txns == 0


class ShardFollower:
    """A replica of one shard store, fed by shipping the primary's WAL."""

    def __init__(
        self,
        primary_dir: Union[str, Path],
        replica_dir: Union[str, Path],
        shard: int = 0,
    ) -> None:
        self.primary_dir = Path(primary_dir)
        self.replica_dir = Path(replica_dir)
        self.shard = shard
        self._bootstrap()
        self.db: Database = open_database(self.replica_dir)
        self.applied_txns = 0
        self.applied_bytes = 0
        self.promoted = False

    def _bootstrap(self) -> None:
        """Copy the primary's last checkpoint (catalog + pages).

        Bootstrap must run against a quiescent checkpoint — right after
        ``create`` or an explicit ``save_database`` — so the copy is a
        consistent store image; everything after it arrives via the WAL.
        """
        self.replica_dir.mkdir(parents=True, exist_ok=True)
        if not (self.primary_dir / CATALOG_NAME).exists():
            raise StorageError(
                f"primary {self.primary_dir} holds no checkpoint to "
                f"bootstrap from"
            )
        page_sidecar = f"{PAGES_NAME}.catalog.json"
        for name in (CATALOG_NAME, PAGES_NAME, page_sidecar):
            source = self.primary_dir / name
            if source.exists():
                shutil.copyfile(source, self.replica_dir / name)

    # -- shipping -----------------------------------------------------------

    def ship(self) -> ReplicationStatus:
        """Replay committed primary-WAL batches past our watermark.

        Safe against a torn primary tail: ``scan_wal`` yields committed
        batches only.  The follower directory is checkpointed after the
        replay, so it stays fsck-clean with no WAL of its own.
        """
        if self.promoted:
            raise StorageError(
                f"follower for shard {self.shard} was already promoted"
            )
        wal_path = self.primary_dir / WAL_NAME
        scan = scan_wal(wal_path)
        primary_txns = len(scan.batches)
        if primary_txns < self.applied_txns:
            raise StorageError(
                f"primary WAL for shard {self.shard} shrank to "
                f"{primary_txns} committed transactions below the "
                f"follower watermark {self.applied_txns}: the primary "
                f"checkpointed; re-bootstrap this follower"
            )
        shipped_txns = 0
        for batch in scan.batches:
            if batch.txn <= self.applied_txns:
                continue
            for record in batch.records:
                _apply_record(self.db, record)
            shipped_txns += 1
        if shipped_txns:
            self.db.republish()
            save_database(self.db, self.replica_dir)
        shipped_bytes = max(0, scan.valid_bytes - self.applied_bytes)
        self.applied_txns += shipped_txns
        self.applied_bytes = scan.valid_bytes
        lag = primary_txns - self.applied_txns
        _SHIPS.inc()
        _TXNS_APPLIED.inc(shipped_txns)
        _BYTES_SHIPPED.inc(shipped_bytes)
        _LAG_TXNS.set(lag)
        _LAG_BYTES.set(0)
        return ReplicationStatus(
            shard=self.shard,
            primary_txns=primary_txns,
            applied_txns=self.applied_txns,
            lag_txns=lag,
            shipped_txns=shipped_txns,
            shipped_bytes=shipped_bytes,
        )

    def lag(self) -> ReplicationStatus:
        """Measure lag without applying anything."""
        scan = scan_wal(self.primary_dir / WAL_NAME)
        primary_txns = len(scan.batches)
        lag_txns = max(0, primary_txns - self.applied_txns)
        lag_bytes = max(0, scan.valid_bytes - self.applied_bytes)
        _LAG_TXNS.set(lag_txns)
        _LAG_BYTES.set(lag_bytes)
        return ReplicationStatus(
            shard=self.shard,
            primary_txns=primary_txns,
            applied_txns=self.applied_txns,
            lag_txns=lag_txns,
            shipped_txns=0,
            shipped_bytes=lag_bytes,
        )

    # -- failover -----------------------------------------------------------

    def promote(self) -> Database:
        """Fail over: ship the final committed prefix, become primary.

        Works against a crashed primary — the torn tail of its WAL is
        skipped exactly as crash recovery would skip it, so the promoted
        store holds precisely the shipped committed prefix.
        """
        self.ship()
        self.promoted = True
        _PROMOTIONS.inc()
        return self.db


class ShardedFollower:
    """A follower set mirroring a whole on-disk sharded deployment."""

    def __init__(
        self,
        primary: ShardedDatabase,
        replica_dir: Union[str, Path],
    ) -> None:
        if primary.shard_dirs is None:
            raise StorageError(
                "replication needs an on-disk primary "
                "(ShardedDatabase.create)"
            )
        self.primary = primary
        self.replica_dir = Path(replica_dir)
        self.followers: List[ShardFollower] = [
            ShardFollower(
                shard_dir,
                self.replica_dir / f"shard{index:02d}",
                shard=index,
            )
            for index, shard_dir in enumerate(primary.shard_dirs)
        ]
        self.promoted: Optional[ShardedDatabase] = None

    def ship(self) -> List[ReplicationStatus]:
        """One ship cycle across every shard."""
        return [follower.ship() for follower in self.followers]

    def lag(self) -> List[ReplicationStatus]:
        return [follower.lag() for follower in self.followers]

    def promote(self) -> ShardedDatabase:
        """Fail the whole deployment over to the follower set.

        Each shard promotes independently (its committed prefix is
        whatever its own log shipped); the sharded wrappers are rebuilt
        from the follower catalogs, and the primary's range maps are
        carried over so placement stays identical.
        """
        shards = [follower.promote() for follower in self.followers]
        sdb = ShardedDatabase.from_shards(
            shards,
            order=self.primary.order,
            directory=self.replica_dir,
            shard_dirs=[f.replica_dir for f in self.followers],
        )
        for key, rmap in self.primary._maps.items():
            sdb._maps[key] = rmap
        self.promoted = sdb
        return sdb


def replication_lag(statuses: Sequence[ReplicationStatus]) -> dict:
    """Roll a follower set's statuses into one lag summary for dashboards."""
    return {
        "shards": len(statuses),
        "caught_up": all(s.caught_up for s in statuses),
        "lag_txns": sum(s.lag_txns for s in statuses),
        "applied_txns": sum(s.applied_txns for s in statuses),
        "shipped_bytes": sum(s.shipped_bytes for s in statuses),
    }
