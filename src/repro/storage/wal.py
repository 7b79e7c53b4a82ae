"""Write-ahead log: redo records, group commit, torn-tail detection.

The paper's storage manager trusts O2 to land tiles safely; this module
is the reproduction's own durability substrate.  Every mutation of a
durable :class:`~repro.storage.tilestore.Database` — BLOB writes, tile
table updates, catalog changes — first becomes a redo record here, and
the backend page file is touched only after the records are on the log
(the WAL rule).  Recovery is therefore redo-only: replay committed
batches onto the last checkpoint, discard the torn tail, done.

Log layout (all integers little-endian)::

    file   := header record*
    header := magic "REPROWAL" | u32 version | u32 page_size
    record := u32 payload_len | u32 crc32 | u8 type | u64 lsn | payload

The framing CRC-32 covers ``type || lsn || payload`` (for ``BLOB_PUT2``:
``type || lsn || meta``), so any torn or bit-flipped record fails
verification and scanning stops there — everything after an invalid
record is discarded (records are only meaningful in log order).  The
CRC is chained over the header bytes and then the covered bytes, so no
record is copied to be checksummed.  Logs of an older version (v1 and
v2 framed with CRC32C) are refused with a :class:`WalError`.

Record types:

===============  ======================================================
``META (1)``     JSON logical operation (``{"op": ...}``): catalog and
                 tile-table mutations, object domain updates.
``COMMIT (3)``   JSON ``{"txn": n, "records": k}`` sealing the ``k``
                 preceding records as transaction ``n``.
``BLOB_PUT2(4)`` ``u32 meta_len | meta JSON | raw payload``.  The JSON
                 carries id, sizes, page placement, codec, virtual
                 flag and ``"crcs"``: one CRC-32 per storage page of
                 the raw payload, the exact stored bytes.  The framing
                 CRC covers only ``type || lsn || meta``; the raw tail
                 is verified against the page CRCs instead, so every
                 raw byte is still CRC-guarded (a torn tail fails the
                 length framing) while the page CRCs are computed
                 **once**, shared with the store's page sidecar.
===============  ======================================================

Group commit: records buffer in memory while a transaction runs and hit
the file as **one** ``write`` call at commit, commit record included, so
a multi-tile ``load_array`` costs one write (and, in ``wal+fsync`` mode,
one fsync) instead of one per tile.  A crash mid-commit leaves a torn
uncommitted tail that recovery drops — exactly the atomicity the tile
stores above rely on.

The log keeps no tallies of its own: records, commits, aborts, bytes and
fsyncs are counted once, in the registry's ``wal.*`` instruments, and a
caller that wants one phase's activity takes their deltas around it.
"""

from __future__ import annotations

import json
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from repro import obs
from repro.core.errors import WalError
from repro.storage.blob import BlobRecord
from repro.storage.checksum import page_checksums, verify_page_checksums
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultInjector, fsync_file
from repro.storage.latch import OrderedLatch, schedule_point
from repro.storage.pages import DEFAULT_PAGE_SIZE, PageRange

MAGIC = b"REPROWAL"
VERSION = 3  # v3: CRC-32 frames and page CRCs (v1 and v2 used CRC32C)
_HEADER = struct.Struct("<8sII")
_RECORD = struct.Struct("<IIBQ")
_TYPE_LSN = struct.Struct("<BQ")
_U32 = struct.Struct("<I")

META = 1
COMMIT = 3
BLOB_PUT2 = 4  # type 2 was the v1 BLOB_PUT, which carried no page CRCs

_RECORDS = obs.counter("wal.records", "Redo records appended (buffered)")
_COMMITS = obs.counter("wal.commits", "Transactions committed to the log")
_ABORTS = obs.counter("wal.aborts", "Transactions aborted (records dropped)")
_BYTES = obs.counter("wal.bytes_written", "Bytes appended to the log file")
_FSYNCS = obs.counter("wal.fsyncs", "fsync calls issued by the log")
_TRUNCATES = obs.counter("wal.truncates", "Log truncations after checkpoints")
_COMMIT_BYTES = obs.histogram(
    "wal.commit_bytes", "Bytes per group-commit write", buckets=obs.BYTE_BUCKETS
)
_GROUP_SIZE = obs.histogram(
    "wal.group_size", "Records per committed transaction",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
)
_FSYNC_SHARED = obs.counter(
    "wal.fsyncs_shared",
    "Commits made durable by a concurrent leader's fsync (group commit)",
)
_FSYNC_LEADERS = obs.counter(
    "wal.fsync_leaders",
    "Group-commit leader elections (threads that issued the fsync)",
)
_FSYNC_MS = obs.histogram(
    "wal.fsync_ms", "Wall time per fsync issued by the log (ms)"
)


@dataclass
class WalBatch:
    """One committed transaction, decoded: ``(kind, ...)`` tuples.

    ``("meta", dict)`` for logical operations, ``("blob_put", BlobRecord,
    payload_bytes)`` for payload redo records.
    """

    txn: int
    records: list = field(default_factory=list)


@dataclass
class WalScan:
    """Outcome of reading a log file front to back."""

    batches: list[WalBatch] = field(default_factory=list)
    committed_records: int = 0
    uncommitted_records: int = 0
    torn_bytes: int = 0
    valid_bytes: int = 0

    @property
    def empty(self) -> bool:
        return (
            not self.batches
            and self.uncommitted_records == 0
            and self.torn_bytes == 0
        )


def _frame_crc(rtype: int, lsn: int, covered: bytes) -> int:
    """CRC-32 of ``type || lsn || covered``, chained rather than joined."""
    return zlib.crc32(covered, zlib.crc32(_TYPE_LSN.pack(rtype, lsn)))


def encode_record(rtype: int, lsn: int, payload: bytes) -> bytes:
    """Frame one record: length, CRC-32, type, LSN, payload."""
    crc = _frame_crc(rtype, lsn, payload)
    return _RECORD.pack(len(payload), crc, rtype, lsn) + payload


def _blob_meta(record: BlobRecord) -> dict:
    return {
        "id": record.blob_id,
        "size": record.byte_size,
        "stored": record.stored_size,
        "start": record.pages.start,
        "count": record.pages.count,
        "virtual": record.virtual,
        "codec": record.codec,
    }


def _blob_record(meta: dict) -> BlobRecord:
    return BlobRecord(
        blob_id=meta["id"],
        byte_size=meta["size"],
        pages=PageRange(meta["start"], meta["count"]),
        virtual=meta["virtual"],
        codec=meta["codec"],
        stored_size=meta["stored"],
    )


def encode_blob_put2(
    lsn: int, record: BlobRecord, payload: bytes, page_crcs: list[int]
) -> bytes:
    """Frame a complete BLOB_PUT2 record.

    Unlike :func:`encode_record`, the framing CRC covers only
    ``type || lsn || meta`` — the raw tail is guarded by the per-page
    CRCs carried inside the meta, so the (expensive) payload checksum is
    computed once and shared with the store's page sidecar.
    """
    blob_meta = _blob_meta(record)
    blob_meta["crcs"] = list(page_crcs)
    meta = json.dumps(blob_meta, separators=(",", ":")).encode("utf-8")
    prefix = _U32.pack(len(meta)) + meta
    crc = _frame_crc(BLOB_PUT2, lsn, prefix)
    return _RECORD.pack(len(prefix) + len(payload), crc, BLOB_PUT2, lsn) + prefix + payload


def decode_blob_put2(
    payload: Union[bytes, memoryview], page_size: int
) -> tuple[BlobRecord, bytes]:
    """Inverse of :func:`encode_blob_put2`; verifies the raw tail.

    The framing CRC only vouched for the meta, so the page CRCs are
    checked here — a corrupt tail raises :class:`WalError` and the scan
    stops at this record, exactly as a framing-CRC failure would.
    """
    if len(payload) < _U32.size:
        raise WalError("BLOB_PUT2 record too short for its meta length")
    (meta_len,) = _U32.unpack_from(payload)
    meta_end = _U32.size + meta_len
    if len(payload) < meta_end:
        raise WalError("BLOB_PUT2 record too short for its meta JSON")
    meta = json.loads(str(payload[_U32.size : meta_end], "utf-8"))
    raw = bytes(payload[meta_end:])
    record = _blob_record(meta)
    if not record.virtual:
        if len(raw) != record.stored_size:
            raise WalError(
                f"BLOB_PUT2 for blob {record.blob_id} carries {len(raw)} "
                f"bytes, meta says {record.stored_size}"
            )
        bad = verify_page_checksums(raw, page_size, meta.get("crcs") or [])
        if bad:
            raise WalError(
                f"BLOB_PUT2 for blob {record.blob_id}: page CRC mismatch "
                f"on page(s) {bad}"
            )
    return record, raw


class WriteAheadLog:
    """Append-only redo log with buffered transactions and group commit."""

    def __init__(
        self,
        path: Union[str, Path],
        fsync: bool = False,
        page_size: int = DEFAULT_PAGE_SIZE,
        injector: Optional[FaultInjector] = None,
        disk: Optional[SimulatedDisk] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.page_size = page_size
        self.disk = disk
        self._next_lsn = 1
        self._next_txn = 1
        # Buffers are per-thread: each in-flight transaction accumulates
        # its own records, so one commit frame can never interleave two
        # transactions' records (asserted by the concurrency suite).
        self._local = threading.local()
        # Guards LSN/txn counters, file appends, and the frame sequence.
        self._append_latch = OrderedLatch("wal.append", 20, reentrant=True)
        # Guards the group-commit door (leader flag, synced sequence).
        self._sync_latch = OrderedLatch("wal.sync", 25)
        self._written_seq = 0  # frames written+flushed (under append latch)
        self._synced_seq = 0  # frames covered by an fsync (under sync latch)
        self._sync_leader = False
        self._total_buffered = 0  # records buffered across all threads
        raw = open(self.path, "w+b")
        self._file = injector.wrap(raw, "wal") if injector else raw
        self._file.write(_HEADER.pack(MAGIC, VERSION, page_size))
        self._file.flush()

    # -- appends (buffered until commit) ---------------------------------

    def _buf(self) -> list:
        buf = getattr(self._local, "buffer", None)
        if buf is None:
            buf = self._local.buffer = []
        return buf

    def _append(self, rtype: int, payload: bytes) -> int:
        with self._append_latch:
            lsn = self._next_lsn
            self._next_lsn += 1
            self._total_buffered += 1
        self._buf().append(encode_record(rtype, lsn, payload))
        _RECORDS.inc()
        return lsn

    def log_meta(self, operation: dict) -> int:
        """Buffer one logical redo operation (``{"op": ...}``)."""
        payload = json.dumps(operation, separators=(",", ":")).encode("utf-8")
        return self._append(META, payload)

    def log_blob_put(
        self,
        record: BlobRecord,
        payload: bytes,
        page_crcs: Optional[list[int]] = None,
    ) -> int:
        """Buffer a payload redo record (empty payload for virtual BLOBs).

        ``page_crcs`` lets the caller pass CRCs it already computed for
        the store's page sidecar (the batched ingest path computes them
        vectorised for the whole batch); omitted, they are computed here.
        """
        if record.virtual:
            page_crcs = []
        elif page_crcs is None:
            page_crcs = page_checksums(payload, self.page_size)
        with self._append_latch:
            lsn = self._next_lsn
            self._next_lsn += 1
            self._total_buffered += 1
        self._buf().append(encode_blob_put2(lsn, record, payload, page_crcs))
        _RECORDS.inc()
        return lsn

    # -- transaction boundaries ------------------------------------------

    def commit_frame(self) -> Optional[tuple[int, int]]:
        """Seal this thread's buffered records into one commit frame.

        The records plus the COMMIT record go out as a single ``write``
        call under the append latch, so frames from concurrent
        transactions never interleave.  Returns ``(txn, seq)`` where
        ``seq`` is the frame's position in the file — the handle
        :meth:`sync_to` uses to make it durable — or ``None`` when this
        thread buffered nothing.  The frame is flushed to the OS but
        **not** fsynced here.
        """
        buf = self._buf()
        if not buf:
            return None
        group = len(buf)
        with self._append_latch:
            txn = self._next_txn
            self._next_txn += 1
            commit_payload = json.dumps(
                {"txn": txn, "records": group},
                separators=(",", ":"),
            ).encode("utf-8")
            batch = b"".join(buf) + encode_record(
                COMMIT, self._next_lsn, commit_payload
            )
            self._next_lsn += 1
            buf.clear()
            self._total_buffered -= group
            self._file.write(batch)
            self._file.flush()
            self._written_seq += 1
            seq = self._written_seq
        _COMMITS.inc()
        _BYTES.inc(len(batch))
        _COMMIT_BYTES.observe(len(batch))
        _GROUP_SIZE.observe(group)
        if self.disk is not None:
            self.disk.charge_log_append(len(batch), fsync=self.fsync)
        return txn, seq

    def sync_to(self, seq: int) -> None:
        """Make the log durable through frame ``seq`` (group-commit door).

        In ``fsync`` mode, concurrent committers elect one **leader**
        that issues a single fsync covering every frame written so far;
        the others spin until the synced sequence passes their frame and
        return without an fsync of their own.  A leader that crashes
        mid-fsync releases leadership in ``finally`` so waiting
        followers retry (and hit the same dead file) instead of hanging.
        """
        if not self.fsync:
            return
        shared = False
        while True:
            with self._sync_latch:
                if self._synced_seq >= seq:
                    if shared:
                        _FSYNC_SHARED.inc()
                    return
                if not self._sync_leader:
                    self._sync_leader = True
                    # Cover everything written so far, not just our own
                    # frame — that is what lets followers share the sync.
                    target = max(self._written_seq, seq)
                    break
            shared = True
            if not schedule_point("wal.sync.wait"):
                time.sleep(0.0002)
        synced = False
        started = time.perf_counter()
        try:
            fsync_file(self._file)
            synced = True
        finally:
            with self._sync_latch:
                self._sync_leader = False
                if synced:
                    self._synced_seq = max(self._synced_seq, target)
        _FSYNCS.inc()
        _FSYNC_LEADERS.inc()
        _FSYNC_MS.observe((time.perf_counter() - started) * 1000.0)

    def commit(self) -> Optional[int]:
        """Group-commit the buffered records; returns the txn id.

        Equivalent to :meth:`commit_frame` followed by :meth:`sync_to`;
        an empty buffer commits nothing and returns ``None``.
        """
        sealed = self.commit_frame()
        if sealed is None:
            return None
        txn, seq = sealed
        self.sync_to(seq)
        return txn

    def abort(self) -> int:
        """Drop this thread's buffered records; returns how many."""
        buf = self._buf()
        dropped = len(buf)
        buf.clear()
        if dropped:
            with self._append_latch:
                self._total_buffered -= dropped
            _ABORTS.inc()
        return dropped

    # -- lifecycle --------------------------------------------------------

    def truncate(self) -> None:
        """Reset the log to an empty header (after a checkpoint)."""
        with self._append_latch:
            if self._total_buffered:
                raise WalError(
                    "cannot truncate with uncommitted buffered records"
                )
            self._file.seek(0)
            self._file.truncate(0)
            self._file.write(_HEADER.pack(MAGIC, VERSION, self.page_size))
            fsync_file(self._file)
        _TRUNCATES.inc()

    def close(self) -> None:
        if self._buf():
            self.abort()
        with self._append_latch:
            if not self._file.closed:
                self._file.flush()
                self._file.close()


# ----------------------------------------------------------------------
# Scanning (recovery read path)
# ----------------------------------------------------------------------

def _iter_records(data: memoryview) -> Iterator[tuple[int, int, int, memoryview]]:
    """Yield ``(offset, type, lsn, payload)`` until the first invalid or
    torn record; the caller computes the discarded tail from the last
    good offset.  Payloads are views into ``data``, not copies."""
    offset = 0
    end = len(data)
    while offset + _RECORD.size <= end:
        length, crc, rtype, lsn = _RECORD.unpack_from(data, offset)
        payload_start = offset + _RECORD.size
        payload_end = payload_start + length
        if payload_end > end:
            return  # torn: payload runs past EOF
        if rtype not in (META, COMMIT, BLOB_PUT2):
            return  # unknown type: stop, everything after is untrusted
        covered_end = payload_end
        if rtype == BLOB_PUT2:
            # the framing CRC covers only the meta prefix; the raw tail
            # is checked against the page CRCs by decode_blob_put2
            if length < _U32.size:
                return
            (meta_len,) = _U32.unpack_from(data, payload_start)
            covered_end = payload_start + _U32.size + meta_len
            if covered_end > payload_end:
                return  # meta length itself is implausible: torn/corrupt
        if crc != _frame_crc(rtype, lsn, data[payload_start:covered_end]):
            return  # corrupt record: stop, everything after is untrusted
        yield offset, rtype, lsn, data[payload_start:payload_end]
        offset = payload_end


def scan_wal(path: Union[str, Path]) -> WalScan:
    """Read a log file and split it into committed batches plus tail info.

    Records up to and including each valid ``COMMIT`` form a batch;
    records after the last commit (or after the first corrupt record) are
    the discarded tail.  A missing file scans as empty.
    """
    path = Path(path)
    scan = WalScan()
    if not path.exists():
        return scan
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        scan.torn_bytes = len(data)
        return scan
    magic, version, page_size = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WalError(f"{path} is not a write-ahead log (bad magic)")
    if version != VERSION:
        raise WalError(
            f"unsupported WAL version {version} in {path} "
            f"(this build reads version {VERSION} only)"
        )
    body = memoryview(data)[_HEADER.size :]
    open_records: list = []
    consumed = 0
    for offset, rtype, _lsn, payload in _iter_records(body):
        if rtype == COMMIT:
            seal = json.loads(str(payload, "utf-8"))
            if seal.get("records") != len(open_records):
                break  # commit does not seal what precedes it: stop
            scan.batches.append(WalBatch(seal["txn"], open_records))
            scan.committed_records += len(open_records)
            open_records = []
            consumed = offset + _RECORD.size + len(payload)
        elif rtype == META:
            open_records.append(("meta", json.loads(str(payload, "utf-8"))))
        else:
            try:
                record, raw = decode_blob_put2(payload, page_size)
            except WalError:
                break  # framing valid but content malformed: stop here
            open_records.append(("blob_put", record, raw))
    scan.uncommitted_records = len(open_records)
    scan.valid_bytes = _HEADER.size + consumed
    scan.torn_bytes = len(data) - scan.valid_bytes
    return scan
