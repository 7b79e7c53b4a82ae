"""Storage substrate: pages, BLOBs, disk model, buffer pool, tile store,
write-ahead log, fault injection, and crash recovery."""

from repro.storage.backends import FileBlobStore, MemoryBlobStore
from repro.storage.blob import BlobRecord, BlobStore
from repro.storage.catalog import (
    RecoveryReport,
    create_database,
    open_database,
    save_database,
)
from repro.storage.checksum import page_checksums, verify_page_checksums
from repro.storage.bufferpool import BufferPool
from repro.storage.compression import (
    compress,
    decompress,
    known_codecs,
    select_codec,
)
from repro.storage.decodedcache import DecodedTileCache
from repro.storage.disk import (
    CpuParameters,
    DiskCounters,
    DiskParameters,
    SimulatedDisk,
)
from repro.storage.pages import (
    DEFAULT_PAGE_SIZE,
    PageAllocator,
    PageRange,
    pages_needed,
)
from repro.storage.faults import (
    FaultInjector,
    FaultPlan,
    FaultyFile,
    SimulatedCrash,
    fsync_file,
)
from repro.storage.fsck import FsckIssue, FsckReport, fsck_database
from repro.storage.pipeline import FetchedTile, fetch_tile, fetch_tiles
from repro.storage.tilestore import (
    DURABILITY_MODES,
    Database,
    StoredMDD,
    TileEntry,
)
from repro.storage.wal import WalScan, WriteAheadLog, scan_wal

__all__ = [
    "BlobRecord",
    "BlobStore",
    "BufferPool",
    "Database",
    "DEFAULT_PAGE_SIZE",
    "DURABILITY_MODES",
    "CpuParameters",
    "DecodedTileCache",
    "DiskCounters",
    "DiskParameters",
    "FaultInjector",
    "FaultPlan",
    "FaultyFile",
    "FetchedTile",
    "FileBlobStore",
    "FsckIssue",
    "FsckReport",
    "MemoryBlobStore",
    "PageAllocator",
    "PageRange",
    "RecoveryReport",
    "SimulatedCrash",
    "SimulatedDisk",
    "StoredMDD",
    "TileEntry",
    "WalScan",
    "WriteAheadLog",
    "compress",
    "create_database",
    "decompress",
    "fetch_tile",
    "fetch_tiles",
    "fsck_database",
    "fsync_file",
    "known_codecs",
    "page_checksums",
    "pages_needed",
    "open_database",
    "save_database",
    "scan_wal",
    "select_codec",
    "verify_page_checksums",
]
