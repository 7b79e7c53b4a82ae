"""Offline consistency checker for a database directory.

``fsck_database`` cross-checks the three durable artefacts of a database
directory — the page file, the BLOB sidecar, and the tile catalog — plus
the write-ahead log, without mutating any of them:

* every catalog parses and carries a supported version;
* BLOB page ranges stay below the high-water mark, never overlap each
  other, and never overlap the allocator's free list;
* every real payload is readable at its recorded size and passes its
  per-page CRC-32 verification;
* every object entry and every tile row carries its fields, typed (a
  malformed one is reported and skipped);
* every tile references an existing BLOB whose size matches the tile's
  domain (uncompressed tiles), tiles of one object never overlap, and
  the object's current domain contains all of them;
* every tile row's inline zone parses, counts the tile's cells and has
  an ordered range (a row without one is legal: that tile is not
  pruned); under ``deep=True`` every synopsis is recomputed from the
  decoded payload and compared field by field;
* under ``deep=True`` every real compressed or zoned tile is decoded,
  once, and a payload that does not decode to its tile's cells is
  reported, whatever its object's cell type;
* a leftover write-ahead log is reported: committed-but-unreplayed
  transactions mean recovery has not run, a torn tail is informational.

The checker is deliberately read-only so it can run as the final judge
of the crash gauntlet: after a crash and a recovery pass, a database
must fsck clean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.cells import BaseType
from repro.core.errors import ChecksumError, RecoveryError, ReproError, StorageError
from repro.core.geometry import MInterval, overlapping_pairs, pack_bounds
from repro.index.zonemap import (
    TileSynopsis,
    compute_synopsis,
    constant_synopsis,
)
from repro.storage.backends import FileBlobStore
from repro.storage.catalog import (
    CATALOG_NAME,
    CATALOG_VERSION,
    PAGES_NAME,
    ROW_FIELDS,
    WAL_NAME,
    check_object_entry,
    object_type,
    tile_entry,
)
from repro.storage.compression import decompress
from repro.storage.wal import scan_wal


@dataclass(frozen=True)
class FsckIssue:
    """One inconsistency: ``error`` breaks reads, ``warning`` does not."""

    severity: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


@dataclass
class FsckReport:
    """Outcome of one check pass."""

    directory: Path = field(default_factory=Path)
    issues: list[FsckIssue] = field(default_factory=list)
    blobs_checked: int = 0
    payloads_verified: int = 0
    tiles_checked: int = 0
    objects_checked: int = 0
    zones_checked: int = 0

    @property
    def ok(self) -> bool:
        return not any(i.severity == "error" for i in self.issues)

    def error(self, code: str, message: str) -> None:
        self.issues.append(FsckIssue("error", code, message))

    def warning(self, code: str, message: str) -> None:
        self.issues.append(FsckIssue("warning", code, message))

    def summary(self) -> str:
        status = "clean" if self.ok else "INCONSISTENT"
        return (
            f"{self.directory}: {status} — {self.blobs_checked} blobs "
            f"({self.payloads_verified} payloads verified), "
            f"{self.objects_checked} objects, {self.tiles_checked} tiles, "
            f"{self.zones_checked} zone entries, {len(self.issues)} issue(s)"
        )


def _check_placement(report: FsckReport, store: FileBlobStore) -> None:
    """Page ranges: inside the file, disjoint, and disjoint from the
    free list."""
    high_water = store.total_pages
    claims: list[tuple[int, int, str]] = []  # (start, end, owner)
    for blob_id in store.blob_ids():
        record = store.record(blob_id)
        claims.append(
            (record.pages.start, record.pages.end, f"blob {blob_id}")
        )
        if record.pages.end > high_water:
            report.error(
                "page-beyond-high-water",
                f"blob {blob_id} occupies {record.pages}, high water is "
                f"{high_water}",
            )
    for hole in store._allocator.free_ranges():
        claims.append((hole.start, hole.end, f"free range {hole}"))
    claims.sort()
    for (s1, e1, o1), (s2, _e2, o2) in zip(claims, claims[1:]):
        if s2 < e1:
            report.error(
                "page-overlap", f"{o1} overlaps {o2} (pages {s2}..{e1 - 1})"
            )


def _check_payloads(report: FsckReport, store: FileBlobStore) -> None:
    page_file_size = store.path.stat().st_size
    for blob_id in store.blob_ids():
        record = store.record(blob_id)
        report.blobs_checked += 1
        if record.virtual:
            continue
        stored = record.stored_size or 0
        if stored > record.pages.count * store.page_size:
            report.error(
                "payload-overflow",
                f"blob {blob_id} stores {stored} bytes in {record.pages}",
            )
            continue
        end_byte = record.pages.start * store.page_size + stored
        if end_byte > page_file_size:
            report.error(
                "payload-truncated",
                f"blob {blob_id} ends at byte {end_byte}, page file has "
                f"{page_file_size}",
            )
            continue
        try:
            payload = store.get(blob_id)
        except ChecksumError as exc:
            report.error("payload-checksum", str(exc))
            continue
        except ReproError as exc:
            report.error("payload-unreadable", f"blob {blob_id}: {exc}")
            continue
        if len(payload) != stored:
            report.error(
                "payload-short",
                f"blob {blob_id} read {len(payload)} bytes, expected "
                f"{stored}",
            )
        else:
            report.payloads_verified += 1


def _check_objects(
    report: FsckReport, catalog: dict, store: FileBlobStore, deep: bool
) -> None:
    for coll_name, objects in catalog.get("collections", {}).items():
        for record in objects:
            report.objects_checked += 1
            try:
                check_object_entry(coll_name, record)
            except RecoveryError as exc:
                report.error("object-malformed", str(exc))
                continue
            name = f"{coll_name}/{record['obj']}"
            try:
                mdd_type = object_type(record["type"])
            except (ReproError, KeyError, TypeError) as exc:
                report.error("object-type", f"{name}: bad type: {exc}")
                continue
            domains: list[tuple[MInterval, int]] = []
            for row in record["tiles"]:
                report.tiles_checked += 1
                try:  # fsck reads ``virtual`` from the blob record
                    entry = tile_entry(row, ROW_FIELDS[:4])
                except RecoveryError as exc:
                    report.error("tile-malformed", f"{name}: {exc}")
                    continue
                tile_id, domain, blob_id = entry.tile_id, entry.domain, entry.blob_id
                if blob_id not in store:
                    report.error(
                        "tile-dangling-blob",
                        f"{name} tile {tile_id} references missing blob "
                        f"{blob_id}",
                    )
                    continue
                blob = store.record(blob_id)
                expected = domain.cell_count * mdd_type.cell_size
                if row["codec"] == "none" and blob.byte_size != expected:
                    report.error(
                        "tile-size-mismatch",
                        f"{name} tile {tile_id} domain {domain} needs "
                        f"{expected} bytes, blob {blob_id} holds "
                        f"{blob.byte_size}",
                    )
                domains.append((domain, tile_id))
                raw = None
                if deep and not blob.virtual and (row["codec"] != "none" or "zone" in row):
                    raw = _decode_tile(report, name, row, store, expected)
                if "zone" in row:
                    _check_zone(report, name, row, domain, mdd_type.base, blob.virtual, raw, deep)
            # Each overlapping pair once, by later tile then earlier tile.
            pairs = overlapping_pairs(pack_bounds([d for d, _ in domains], mdd_type.dim))
            for first, later in pairs[np.lexsort(pairs.T)]:
                (other, other_id), (domain, tile_id) = domains[first], domains[later]
                report.error(
                    "tile-overlap",
                    f"{name} tiles {other_id} and {tile_id} overlap "
                    f"({other} vs {domain})",
                )
            declared = record.get("domain")
            if declared is not None and domains:
                hull = MInterval.hull_of(d for d, _ in domains)
                if not MInterval.parse(declared).contains(hull):
                    report.error(
                        "domain-too-small",
                        f"{name} declares domain {declared}, tiles hull to "
                        f"{hull}",
                    )


def _decode_tile(
    report: FsckReport, name: str, row: dict, store: FileBlobStore, size: int
) -> "Optional[bytes | memoryview]":
    """One real tile's decoded cells, or ``None`` when its payload is
    unreadable (reported by ``_check_payloads``) or does not decode to
    the tile's ``size`` bytes (reported here as ``tile-undecodable``)."""
    try:
        stored = store.get(row["blob"])
    except ReproError:
        return None
    try:
        raw = decompress(stored, row["codec"])
        if len(raw) != size:
            raise StorageError(f"decodes to {len(raw)} bytes")
    except ReproError as exc:
        report.error("tile-undecodable", f"{name} tile {row.get('tile_id', '?')}: {exc}")
        return None
    return raw


def _check_zone(
    report: FsckReport,
    name: str,
    row: dict,
    domain: MInterval,
    base: BaseType,
    virtual: bool,
    raw: "Optional[bytes | memoryview]",
    deep: bool,
) -> None:
    """Audit one tile row's inline zone (DESIGN §13): it parses, counts
    the domain's cells and has an ordered range; ``deep`` recomputes it
    from the decoded payload ``raw`` (virtual tiles: from the default)."""
    tile_id = row.get("tile_id", "?")
    try:
        syn = TileSynopsis.from_dict(row["zone"])
    except StorageError as exc:
        report.error("zone-malformed", f"{name} tile {tile_id}: {exc}")
        return
    report.zones_checked += 1
    if syn.cell_count != domain.cell_count:
        report.error(
            "zone-count-mismatch",
            f"{name} tile {tile_id} synopsis counts {syn.cell_count} cells, "
            f"domain {domain} holds {domain.cell_count}",
        )
        return
    if syn.vmin is not None and syn.vmax is not None and syn.vmin > syn.vmax:
        report.error(
            "zone-range-invalid",
            f"{name} tile {tile_id} synopsis range [{syn.vmin}, {syn.vmax}] "
            f"is inverted",
        )
        return
    if not deep:
        return
    if virtual:
        expected = constant_synopsis(domain.cell_count, base.default)
    elif raw is not None:
        expected = compute_synopsis(np.frombuffer(raw, dtype=base.dtype), syn.nbins)
    else:
        return  # unreadable or undecodable: reported already
    if expected is not None and not syn.same_as(expected):
        report.error(
            "zone-stale",
            f"{name} tile {tile_id} synopsis {row['zone']} does not match "
            f"the decoded payload {expected.to_dict()}",
        )


def _check_wal(report: FsckReport, wal_path: Path) -> None:
    if not wal_path.exists():
        return
    try:
        scan = scan_wal(wal_path)
    except ReproError as exc:
        report.error("wal-unreadable", f"{wal_path}: {exc}")
        return
    if scan.batches:
        report.error(
            "wal-unreplayed",
            f"{wal_path} holds {len(scan.batches)} committed transaction(s) "
            f"not reflected in the checkpoint; run `repro recover`",
        )
    if scan.torn_bytes or scan.uncommitted_records:
        report.warning(
            "wal-torn-tail",
            f"{wal_path} ends with {scan.uncommitted_records} uncommitted "
            f"record(s) and {scan.torn_bytes} torn byte(s); recovery will "
            f"discard them",
        )


def fsck_database(
    directory: Union[str, Path], deep: bool = False
) -> FsckReport:
    """Check a database directory; never mutates it.

    ``deep`` additionally decodes every compressed or zoned tile once
    and recomputes every zone-map synopsis from its decoded payload
    (reads every blob twice — use on small databases or when staleness
    is suspected).
    """
    directory = Path(directory)
    report = FsckReport(directory=directory)
    catalog_path = directory / CATALOG_NAME
    if not catalog_path.exists():
        report.error("missing-catalog", f"no {CATALOG_NAME} in {directory}")
        return report
    try:
        catalog = json.loads(catalog_path.read_text())
    except json.JSONDecodeError as exc:
        report.error("catalog-corrupt", f"{catalog_path}: {exc}")
        return report
    if catalog.get("version") != CATALOG_VERSION:
        report.error(
            "catalog-version",
            f"unsupported catalog version {catalog.get('version')!r} "
            f"(this build reads version {CATALOG_VERSION} only)",
        )
        return report
    pages_path = directory / PAGES_NAME
    try:
        store = FileBlobStore.open(pages_path)
    except ReproError as exc:
        report.error("sidecar-corrupt", f"{pages_path}: {exc}")
        return report
    try:
        _check_placement(report, store)
        _check_payloads(report, store)
        _check_objects(report, catalog, store, deep)
    finally:
        # close() would sync (a write); release the handle only.
        store._file.close()
    _check_wal(report, directory / WAL_NAME)
    return report
