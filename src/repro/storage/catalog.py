"""Whole-database persistence: save, reopen, and crash-recover a directory.

The paper's system keeps its tile catalog inside the O2 base DBMS; here a
database directory plays that role:

    <dir>/blobs.pages               page file with every BLOB
    <dir>/blobs.pages.catalog.json  BLOB placement (FileBlobStore sidecar)
    <dir>/catalog.json              collections, objects, types, tile tables
    <dir>/wal.log                   write-ahead log (durable databases)

``save_database`` works from any store: with a :class:`FileBlobStore` the
payloads are already on disk and only catalogs are written; with a
:class:`MemoryBlobStore` every payload is copied into a fresh page file
(BLOB ids are preserved so tile tables stay valid).  Saving into a
durable database's home directory is a **checkpoint**: the log is
truncated once the catalogs are down.

``open_database`` rebuilds objects by re-attaching BLOBs — no cell data
is copied — and repopulates each object's spatial index.  Before that it
runs **recovery**: the write-ahead log is scanned, committed batches are
replayed idempotently onto the checkpoint, the torn tail is discarded,
and a fresh checkpoint is cut — so a database crashed at any write offset
reopens to exactly its last committed state.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro import obs
from repro.core.cells import base_type
from repro.core.errors import RecoveryError, StorageError
from repro.core.geometry import MInterval
from repro.core.mddtype import MDDType
from repro.index.zonemap import TileSynopsis
from repro.storage.backends import FileBlobStore, MemoryBlobStore
from repro.storage.disk import CpuParameters, DiskParameters
from repro.storage.faults import FaultInjector
from repro.storage.tilestore import Database, StoredMDD, TileEntry
from repro.storage.wal import scan_wal

CATALOG_NAME = "catalog.json"
PAGES_NAME = "blobs.pages"
WAL_NAME = "wal.log"
ZONES_NAME = "zones.json"
CATALOG_VERSION = 1

_RECOVERIES = obs.counter("recovery.runs", "Recovery passes executed on open")
_TXNS_REPLAYED = obs.counter(
    "recovery.transactions_replayed", "Committed WAL transactions re-applied"
)
_RECORDS_REPLAYED = obs.counter(
    "recovery.records_replayed", "Redo records re-applied during recovery"
)
_RECORDS_DISCARDED = obs.counter(
    "recovery.records_discarded", "Uncommitted records dropped at recovery"
)
_TORN_BYTES = obs.counter(
    "recovery.torn_bytes", "Torn-tail bytes discarded from the log"
)


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    transactions_replayed: int = 0
    records_replayed: int = 0
    blobs_restored: int = 0
    records_discarded: int = 0
    torn_bytes: int = 0

    @property
    def clean(self) -> bool:
        """True when the log held nothing to replay or discard."""
        return (
            self.transactions_replayed == 0
            and self.records_discarded == 0
            and self.torn_bytes == 0
        )


def _serialise_type(mdd_type: MDDType) -> dict:
    return {
        "name": mdd_type.name,
        "base": mdd_type.base.name,
        "definition_domain": str(mdd_type.definition_domain),
    }


def _deserialise_type(payload: dict) -> MDDType:
    return MDDType(
        payload["name"],
        base_type(payload["base"]),
        MInterval.parse(payload["definition_domain"]),
    )


def _serialise_object(obj: StoredMDD) -> dict:
    return {
        "name": obj.name,
        "type": _serialise_type(obj.mdd_type),
        # Tile ids and the id counter are persisted so WAL records written
        # after this checkpoint keep resolving against the reloaded tables;
        # the domain survives partial covers whose hull exceeds the tiles.
        "next_tile_id": obj._next_tile_id,
        "domain": (
            str(obj.current_domain) if obj.current_domain is not None else None
        ),
        "tiles": [
            {
                "id": entry.tile_id,
                "domain": str(entry.domain),
                "blob": entry.blob_id,
                "codec": entry.codec,
                "virtual": entry.virtual,
            }
            for entry in obj.tile_entries()
        ],
    }


def save_database(database: Database, directory: Union[str, Path]) -> Path:
    """Persist a database (BLOBs + catalogs) into ``directory``.

    Returns the directory path.  Existing catalogs in the directory are
    overwritten; an existing page file is only reused when the database
    is already backed by it.

    For a durable database saving into its own directory this is the
    checkpoint operation: once payloads, sidecar, and catalog are on
    disk the write-ahead log is truncated — everything it redid is now
    in the checkpoint.  Checkpointing inside an open transaction is an
    error (the log would lose uncommitted buffered records).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pages_path = directory / PAGES_NAME
    if database._txn_depth > 0:
        raise StorageError("cannot checkpoint inside an open transaction")

    store = database.store
    if isinstance(store, FileBlobStore):
        store.sync()
        if store.path.resolve() != pages_path.resolve():
            shutil.copy2(store.path, pages_path)
            shutil.copy2(
                store.catalog_path,
                pages_path.with_name(pages_path.name + FileBlobStore.CATALOG_SUFFIX),
            )
    elif isinstance(store, MemoryBlobStore):
        _copy_memory_store(store, pages_path)
    else:
        raise StorageError(
            f"cannot persist store of type {type(store).__name__}"
        )

    catalog = {
        "version": CATALOG_VERSION,
        "collections": {
            coll_name: [
                _serialise_object(obj) for obj in objects.values()
            ]
            for coll_name, objects in database.collections.items()
        },
    }
    tmp = directory / (CATALOG_NAME + ".tmp")
    tmp.write_text(json.dumps(catalog, indent=1))
    tmp.replace(directory / CATALOG_NAME)
    # Zone-map sidecar, next to the catalog it describes.  Written before
    # the WAL truncates: between checkpoints the synopses live in the
    # tile_register/tile_rebind redo records, so a crash at any point
    # rebuilds them along with the tiles they describe.
    zones = {
        "version": 1,
        "collections": {
            coll_name: {
                obj.name: {
                    str(tile_id): synopsis.to_dict()
                    for tile_id, synopsis in obj._zones.items()
                }
                for obj in objects.values()
            }
            for coll_name, objects in database.collections.items()
        },
    }
    tmp = directory / (ZONES_NAME + ".tmp")
    tmp.write_text(json.dumps(zones, indent=1))
    tmp.replace(directory / ZONES_NAME)
    if (
        database.wal is not None
        and isinstance(store, FileBlobStore)
        and store.path.resolve() == pages_path.resolve()
    ):
        # Home-directory checkpoint: the log's work is in the catalogs
        # now.  A copy elsewhere must NOT truncate — the home directory's
        # checkpoint would go stale while its log loses the redo records.
        database.wal.truncate()
    return directory


def _copy_memory_store(store: MemoryBlobStore, pages_path: Path) -> None:
    """Materialise an in-memory store as a page file, keeping BLOB ids
    and page placement identical."""
    if pages_path.exists():
        pages_path.unlink()
    with FileBlobStore(pages_path, page_size=store.page_size) as file_store:
        for blob_id in sorted(store.blob_ids()):
            record = store.record(blob_id)
            if record.virtual:
                copied = file_store.put_virtual(record.byte_size)
            else:
                copied = file_store.put(store.get(blob_id), codec=record.codec)
            if copied != blob_id:
                raise StorageError(
                    f"blob id drift while persisting ({blob_id} -> {copied}); "
                    f"stores with deleted blobs need a FileBlobStore backend"
                )


def open_database(
    directory: Union[str, Path],
    disk_parameters: Optional[DiskParameters] = None,
    cpu_parameters: Optional[CpuParameters] = None,
    buffer_bytes: int = 0,
    durability: str = "none",
    injector: Optional[FaultInjector] = None,
    **database_kwargs,
) -> Database:
    """Reopen a database previously written by :func:`save_database`.

    Objects are rebuilt by re-attaching their BLOBs; tile payloads are
    not read until queried.

    When the directory holds a write-ahead log, recovery runs first: the
    log is scanned (committed batches kept, the torn tail measured and
    dropped), the checkpoint is loaded, the batches are replayed onto it,
    and a fresh checkpoint is cut before the log restarts empty.  The
    outcome is attached as ``database.last_recovery``
    (a :class:`RecoveryReport`).  ``durability`` arms the reopened
    database; recovery itself runs regardless of the requested mode, so
    a crashed ``wal`` database reopened with ``durability='none'`` still
    comes back consistent.
    """
    directory = Path(directory)
    catalog_path = directory / CATALOG_NAME
    if not catalog_path.exists():
        raise StorageError(f"no database catalog at {catalog_path}")
    catalog = json.loads(catalog_path.read_text())
    if catalog.get("version") != CATALOG_VERSION:
        raise StorageError(
            f"unsupported catalog version {catalog.get('version')!r}"
        )

    wal_path = directory / WAL_NAME
    scan = scan_wal(wal_path)  # read the log before any writer touches it

    store = FileBlobStore.open(directory / PAGES_NAME, injector=injector)
    database = Database(
        store=store,
        disk_parameters=disk_parameters,
        cpu_parameters=cpu_parameters,
        buffer_bytes=buffer_bytes,
        **database_kwargs,
    )
    zones_path = directory / ZONES_NAME
    zone_payload: dict = {}
    if zones_path.exists():
        # Absent for pre-zone-map checkpoints: the objects reopen with no
        # synopses (reads fall back to full decode) and fsck warns.
        zone_payload = json.loads(zones_path.read_text()).get(
            "collections", {}
        )
    for coll_name, objects in catalog["collections"].items():
        database.create_collection(coll_name)
        for payload in objects:
            mdd_type = _deserialise_type(payload["type"])
            obj = database.create_object(coll_name, mdd_type, payload["name"])
            obj_zones = zone_payload.get(coll_name, {}).get(
                payload["name"], {}
            )
            # The checkpoint is a set of tile_register records and one
            # object_domain record: the same appliers replay them.
            for tile in payload["tiles"]:
                obj._apply_register(
                    TileEntry(
                        tile["id"],
                        MInterval.parse(tile["domain"]),
                        tile["blob"],
                        tile["codec"],
                        tile["virtual"],
                    ),
                    _synopsis(obj_zones.get(str(tile["id"]))),
                )
            obj._apply_domain(_domain(payload["domain"]))
            # The id counter outlives deleted tiles: ids are never reused.
            obj._next_tile_id = max(obj._next_tile_id, payload["next_tile_id"])

    report = RecoveryReport(
        records_discarded=scan.uncommitted_records,
        torn_bytes=scan.torn_bytes,
    )
    if not scan.empty:
        _RECOVERIES.inc()
        for batch in scan.batches:
            for record in batch.records:
                if _apply_record(database, record) == "blob_put":
                    report.blobs_restored += 1
                report.records_replayed += 1
            report.transactions_replayed += 1
        _TXNS_REPLAYED.inc(report.transactions_replayed)
        _RECORDS_REPLAYED.inc(report.records_replayed)
        _RECORDS_DISCARDED.inc(report.records_discarded)
        _TORN_BYTES.inc(report.torn_bytes)
        # Cut a fresh checkpoint with the replayed state, then retire the
        # log: replaying it again would be idempotent but pointless.
        save_database(database, directory)
        wal_path.unlink(missing_ok=True)
    # Reload and replay mutated working state outside any transaction;
    # freeze the final state as what concurrent readers will see.
    database.republish()
    database.last_recovery = report
    if durability != "none":
        database.arm_durability(
            durability, wal_path=wal_path, injector=injector
        )
    return database


def create_database(
    directory: Union[str, Path],
    durability: str = "none",
    page_size: Optional[int] = None,
    injector: Optional[FaultInjector] = None,
    **database_kwargs,
) -> Database:
    """Create a fresh file-backed database directory.

    Writes an empty checkpoint immediately, so a crash before the first
    commit still leaves an openable (empty) database, then arms the
    requested durability mode.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pages_path = directory / PAGES_NAME
    if (directory / CATALOG_NAME).exists():
        raise StorageError(f"database already exists at {directory}")
    store_kwargs = {} if page_size is None else {"page_size": page_size}
    store = FileBlobStore(pages_path, injector=injector, **store_kwargs)
    database = Database(store=store, **database_kwargs)
    save_database(database, directory)
    if durability != "none":
        database.arm_durability(
            durability, wal_path=directory / WAL_NAME, injector=injector
        )
    return database


def _apply_record(database: Database, record: tuple) -> str:
    """Replay one decoded WAL record onto a freshly opened database.

    Every application is idempotent, because a crash between the
    recovery checkpoint and the log retirement replays the same records
    onto a checkpoint that already contains them.
    """
    kind = record[0]
    store = database.store
    if kind == "blob_put":
        _, blob_record, raw = record
        store.restore(blob_record, None if blob_record.virtual else raw)
        return kind
    operation = record[1]
    op = operation.get("op")
    if op == "create_collection":
        database.collections.setdefault(operation["coll"], {})
        return kind
    if op == "blob_delete":
        if operation["blob"] in store:
            store.delete(operation["blob"])
        return kind
    coll = database.collections.setdefault(operation.get("coll", ""), {})
    if op == "create_object":
        if operation["obj"] not in coll:
            spec = operation["type"]
            mdd_type = MDDType(
                spec["name"],
                base_type(spec["base"]),
                MInterval.parse(spec["dd"]),
            )
            coll[operation["obj"]] = StoredMDD(
                database, mdd_type, operation["obj"],
                collection=operation["coll"],
            )
        return kind
    obj = coll.get(operation.get("obj", ""))
    if obj is None:
        raise RecoveryError(
            f"log names unknown object {operation.get('obj')!r} in "
            f"collection {operation.get('coll')!r} (op {op!r})"
        )
    # The object ops: parse, guard for idempotence, call the applier the
    # live write called (StoredMDD._apply_*).
    tile_id = operation.get("tile_id")
    entry = obj._tiles.get(tile_id)
    if op == "tile_register":
        synopsis = _synopsis(operation.get("zone"))
        if entry is None:
            obj._apply_register(
                TileEntry(
                    tile_id,
                    MInterval.parse(operation["domain"]),
                    operation["blob"],
                    operation["codec"],
                    operation["virtual"],
                ),
                synopsis,
            )
        elif synopsis is not None:
            # Tile already in the checkpoint: re-apply the synopsis too,
            # so tile and zone entry stay paired under double replay.
            obj._apply_rebind(tile_id, entry.blob_id, entry.codec, synopsis)
    elif op == "tile_remove":
        if entry is not None:
            obj._apply_remove(tile_id)
    elif op == "tile_rebind":
        if entry is None:
            raise RecoveryError(
                f"log rebinds unknown tile {tile_id} of {obj.name!r}"
            )
        obj._apply_rebind(
            tile_id,
            operation["blob"],
            operation["codec"],
            # A record without a zone key leaves the synopsis as it is.
            _synopsis(operation["zone"])
            if "zone" in operation
            else obj._zones.get(tile_id),
        )
    elif op == "object_domain":
        obj._apply_domain(_domain(operation["domain"]))
    elif op == "object_clear":
        obj._apply_clear()
    else:
        raise RecoveryError(f"unknown redo operation {op!r}")
    return kind


def _synopsis(zone: Optional[dict]) -> Optional[TileSynopsis]:
    return None if zone is None else TileSynopsis.from_dict(zone)


def _domain(text: Optional[str]) -> Optional[MInterval]:
    return None if text is None else MInterval.parse(text)
