"""Whole-database persistence: save, reopen, and crash-recover a directory.

The paper's system keeps its tile catalog inside the O2 base DBMS; here a
database directory plays that role:

    <dir>/blobs.pages               page file with every BLOB
    <dir>/blobs.pages.catalog.json  BLOB placement (FileBlobStore sidecar)
    <dir>/catalog.json              the checkpoint: per object, its redo
                                    records (create_object, tile_register
                                    with the zone inline, object_domain)
    <dir>/wal.log                   write-ahead log (durable databases)

``save_database`` works from any store: with a :class:`FileBlobStore` the
payloads are already on disk and only catalogs are written; with a
:class:`MemoryBlobStore` every payload is copied into a fresh page file
(BLOB ids are preserved so tile tables stay valid).  Saving into a
durable database's home directory is a **checkpoint**: the log is
truncated once the catalogs are down.

``open_database`` rebuilds objects by re-attaching BLOBs — no cell data
is copied — feeding the checkpoint's records through the appliers WAL
replay calls, so each record kind has one writer and one parser.  It
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
from repro.core.errors import RecoveryError, ReproError, StorageError
from repro.core.geometry import MInterval
from repro.core.mddtype import MDDType
from repro.index.zonemap import TileSynopsis
from repro.storage.backends import FileBlobStore, MemoryBlobStore
from repro.storage.disk import DiskParameters
from repro.storage.faults import FaultInjector
from repro.storage.tilestore import (
    Database,
    StoredMDD,
    TileEntry,
    register_record,
    type_spec,
)
from repro.storage.wal import WalScan, scan_wal

CATALOG_NAME = "catalog.json"
PAGES_NAME = "blobs.pages"
WAL_NAME = "wal.log"
# Version 1 stores carry CRC32C page checksums; version 2 kept the zones
# in a sidecar and tile rows in a format of their own.
CATALOG_VERSION = 3

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


def _object_record(obj: StoredMDD) -> dict:
    """One object of a checkpoint: its ``create_object`` record (the
    collection it sits under names ``coll``), the ``object_domain``
    record's domain, the tile-id counter, and one ``tile_register``
    record per tile (less ``op``/``coll``/``obj``), zone inline."""
    zones = obj._zones
    return {
        "obj": obj.name,
        "type": type_spec(obj.mdd_type),
        # The id counter is persisted so WAL records written after this
        # checkpoint keep resolving against the reloaded tables; the
        # domain survives partial covers whose hull exceeds the tiles.
        "next_tile_id": obj._next_tile_id,
        "domain": (
            str(obj.current_domain) if obj.current_domain is not None else None
        ),
        "tiles": [
            register_record(entry, zones.get(entry.tile_id))
            for entry in obj.tile_entries()
        ],
    }


def save_database(database: Database, directory: Union[str, Path]) -> Path:
    """Persist a database (BLOBs + catalogs) into ``directory``.

    Returns the directory path.  Existing catalogs in the directory are
    overwritten; an existing page file is only reused when the database
    is already backed by it.

    For a durable database saving into its own directory this is the
    checkpoint operation: once payloads and catalog are on disk the
    write-ahead log is truncated — everything it redid is now in the
    checkpoint.  Checkpointing inside an open transaction is an
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
            coll_name: [_object_record(obj) for obj in objects.values()]
            for coll_name, objects in database.collections.items()
        },
    }
    # One file, one replace: no crash can pair a tile row with another
    # checkpoint's synopsis.  Compact JSON: ``indent`` would force json's
    # pure-Python encoder; an indented file holds the same values.
    tmp = directory / (CATALOG_NAME + ".tmp")
    tmp.write_text(json.dumps(catalog, separators=(",", ":")))
    tmp.replace(directory / CATALOG_NAME)
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
    try:
        catalog = json.loads(catalog_path.read_text())
    except ValueError as exc:
        raise StorageError(f"corrupt catalog {catalog_path}: {exc}") from exc
    if catalog.get("version") != CATALOG_VERSION:
        raise StorageError(
            f"unsupported catalog version {catalog.get('version')!r} in "
            f"{catalog_path} (this build reads version {CATALOG_VERSION} only)"
        )

    wal_path = directory / WAL_NAME
    scan = scan_wal(wal_path)  # read the log before any writer touches it

    store = FileBlobStore.open(directory / PAGES_NAME, injector=injector)
    try:
        database = Database(
            store=store,
            disk_parameters=disk_parameters,
            buffer_bytes=buffer_bytes,
            **database_kwargs,
        )
        report = _recover(database, catalog, scan, directory)
    except BaseException:
        store._file.close()  # release only: close() would sync, a write
        raise
    # Reload and replay mutated working state outside any transaction;
    # freeze the final state as what concurrent readers will see.
    database.republish()
    database.last_recovery = report
    if durability != "none":
        database.arm_durability(
            durability, wal_path=wal_path, injector=injector
        )
    return database


def _recover(database: Database, catalog: dict, scan: WalScan, directory: Path) -> RecoveryReport:
    """Load the checkpoint, replay the log's committed batches onto it
    and, when there were any, cut a fresh checkpoint and retire the log."""
    # The checkpoint is the log's records, compacted: replay them.
    for coll_name, records in catalog["collections"].items():
        database.collections.setdefault(coll_name, {})
        for record in records:
            check_object_entry(coll_name, record)
            obj = _create_object(database, coll_name, record)
            for row in record["tiles"]:
                _apply_object_op(obj, "tile_register", row)
            _apply_object_op(obj, "object_domain", record)
            # The id counter outlives deleted tiles: ids are never reused.
            obj._next_tile_id = max(obj._next_tile_id, record["next_tile_id"])

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
        (directory / WAL_NAME).unlink(missing_ok=True)
    return report


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
    elif op == "blob_delete":
        if operation["blob"] in store:
            store.delete(operation["blob"])
    elif op == "create_object":
        _create_object(database, operation["coll"], operation)
    else:
        obj = database.collections.get(operation.get("coll"), {}).get(operation.get("obj"))
        if obj is None:
            raise RecoveryError(
                f"log names unknown object {operation.get('obj')!r} in "
                f"collection {operation.get('coll')!r} (op {op!r})"
            )
        _apply_object_op(obj, op, operation)
    return kind


def object_type(spec: dict) -> MDDType:
    """The type a ``create_object`` record's ``type`` spec names."""
    return MDDType(spec["name"], base_type(spec["base"]), MInterval.parse(spec["dd"]))


def _create_object(database: Database, coll_name: str, record: dict) -> StoredMDD:
    """``create_object`` (a WAL record, or a checkpoint's object entry):
    the named object, made from the record's type spec when absent."""
    check_object_entry(coll_name, record, OBJECT_FIELDS[:2])
    coll = database.collections.setdefault(coll_name, {})
    obj = coll.get(record["obj"])
    if obj is None:
        obj = coll[record["obj"]] = StoredMDD(
            database, object_type(record["type"]), record["obj"], collection=coll_name
        )
    return obj


def _apply_object_op(obj: StoredMDD, op: str, operation: dict) -> None:
    """Replay one object redo record: parse, guard for idempotence, call
    the applier the live write called (``StoredMDD._apply_*``)."""
    if op == "tile_register":
        row = tile_entry(operation)
        if row.tile_id not in obj._tiles:
            obj._apply_register(row, _synopsis(operation.get("zone")))
        return
    tile_id = operation.get("tile_id")
    entry = obj._tiles.get(tile_id)
    if op == "tile_remove":
        if entry is not None:
            obj._apply_remove(tile_id)
    elif op == "tile_rebind":
        if entry is None:
            raise RecoveryError(
                f"log rebinds unknown tile {tile_id} of {obj.name!r}"
            )
        obj._apply_rebind(
            tile_id, operation["blob"], operation["codec"], _synopsis(operation["zone"])
        )
    elif op == "object_domain":
        obj._apply_domain(_domain(operation["domain"]))
    elif op == "object_clear":
        obj._apply_clear()
    else:
        raise RecoveryError(f"unknown redo operation {op!r}")


#: A checkpoint object entry's fields and their types (JSON's; a bool
#: is no int here): a ``create_object`` record's two, then the rest.
OBJECT_FIELDS = (
    ("obj", str), ("type", dict), ("next_tile_id", int), ("tiles", list),
    ("domain", (str, type(None))),
)


def check_object_entry(coll_name: str, record: object, fields=OBJECT_FIELDS) -> None:
    """A checkpoint object entry — or, with its first two ``fields``, a
    ``create_object`` record — lacking a field or holding one ill-typed
    is a :class:`RecoveryError` naming the object."""
    name = f"{coll_name}/{record.get('obj') if isinstance(record, dict) else None}"
    if not isinstance(record, dict):
        raise RecoveryError(f"malformed object entry {name}: {record!r} is not an object")
    for key, kind in fields:
        if key not in record:
            raise RecoveryError(f"malformed object entry {name}: no {key!r}")
        value = record[key]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise RecoveryError(f"malformed object entry {name}: {key} {value!r} is ill-typed")


#: A tile row's fields and their types (JSON's; a bool is no int here).
ROW_FIELDS = (("tile_id", int), ("domain", str), ("blob", int), ("codec", str), ("virtual", bool))


def tile_entry(row: dict, fields=ROW_FIELDS) -> TileEntry:
    """A ``tile_register`` row's :class:`TileEntry`; a missing or
    ill-typed field of ``fields`` is a :class:`RecoveryError`."""
    try:
        for key, kind in fields:
            if not isinstance(row[key], kind) or (kind is int and isinstance(row[key], bool)):
                raise TypeError(f"{key} {row[key]!r} is not a {kind.__name__}")
        domain = MInterval.parse(row["domain"])
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise RecoveryError(f"malformed tile row {row!r}: {exc!r}") from exc
    return TileEntry(row["tile_id"], domain, row["blob"], row["codec"], row.get("virtual", False))


def _synopsis(zone: Optional[dict]) -> Optional[TileSynopsis]:
    return None if zone is None else TileSynopsis.from_dict(zone)


def _domain(text: Optional[str]) -> Optional[MInterval]:
    return None if text is None else MInterval.parse(text)
