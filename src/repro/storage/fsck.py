"""Offline consistency checker for a database directory.

``fsck_database`` cross-checks the three durable artefacts of a database
directory — the page file, the BLOB sidecar, and the tile catalog — plus
the write-ahead log, without mutating any of them:

* every catalog parses and carries a supported version;
* BLOB page ranges stay below the high-water mark, never overlap each
  other, and never overlap the allocator's free list;
* every real payload is readable at its recorded size and passes its
  per-page CRC-32 verification;
* every tile references an existing BLOB whose size matches the tile's
  domain (uncompressed tiles), tiles of one object never overlap, and
  the object's current domain contains all of them;
* the zone-map sidecar stays consistent with the catalog: every entry
  names a live tile, every audited tile of a zone-mapped object carries
  an entry, cell counts match the tile domain, and ranges are ordered;
  under ``deep=True`` every synopsis is recomputed from the decoded
  payload and compared field by field;
* under ``deep=True`` every real compressed tile is decoded, once, and a
  payload that does not decode to its tile's cells is reported, whatever
  its object's cell type or zone maps;
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

from repro.core.errors import ChecksumError, ReproError, StorageError
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
    WAL_NAME,
    ZONES_NAME,
    _deserialise_type,
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
    report: FsckReport, catalog: dict, store: FileBlobStore
) -> None:
    for coll_name, objects in catalog.get("collections", {}).items():
        for payload in objects:
            report.objects_checked += 1
            name = f"{coll_name}/{payload.get('name')}"
            try:
                mdd_type = _deserialise_type(payload["type"])
            except ReproError as exc:
                report.error("object-type", f"{name}: bad type: {exc}")
                continue
            domains: list[tuple[MInterval, int]] = []
            for tile in payload.get("tiles", []):
                report.tiles_checked += 1
                tile_id = tile.get("id", "?")
                domain = MInterval.parse(tile["domain"])
                blob_id = tile["blob"]
                if blob_id not in store:
                    report.error(
                        "tile-dangling-blob",
                        f"{name} tile {tile_id} references missing blob "
                        f"{blob_id}",
                    )
                    continue
                record = store.record(blob_id)
                expected = domain.cell_count * mdd_type.cell_size
                if tile["codec"] == "none" and record.byte_size != expected:
                    report.error(
                        "tile-size-mismatch",
                        f"{name} tile {tile_id} domain {domain} needs "
                        f"{expected} bytes, blob {blob_id} holds "
                        f"{record.byte_size}",
                    )
                domains.append((domain, tile_id))
            # Each overlapping pair once, by later tile then earlier tile.
            pairs = overlapping_pairs(pack_bounds([d for d, _ in domains], mdd_type.dim))
            for first, later in pairs[np.lexsort(pairs.T)]:
                (other, other_id), (domain, tile_id) = domains[first], domains[later]
                report.error(
                    "tile-overlap",
                    f"{name} tiles {other_id} and {tile_id} overlap "
                    f"({other} vs {domain})",
                )
            declared = payload.get("domain")
            if declared is not None and domains:
                hull = MInterval.hull_of(d for d, _ in domains)
                if not MInterval.parse(declared).contains(hull):
                    report.error(
                        "domain-too-small",
                        f"{name} declares domain {declared}, tiles hull to "
                        f"{hull}",
                    )


def _decode_tile(
    report: FsckReport, name: str, tile: dict, store: FileBlobStore, cell_size: int
) -> "Optional[bytes | memoryview]":
    """One real tile's decoded cells, or ``None`` when its payload is
    unreadable (reported by ``_check_payloads``) or does not decode to
    the tile's cells (reported here as ``tile-undecodable``)."""
    try:
        stored = store.get(tile["blob"])
    except ReproError:
        return None
    try:
        raw = decompress(stored, tile["codec"])
        if len(raw) != MInterval.parse(tile["domain"]).cell_count * cell_size:
            raise StorageError(f"decodes to {len(raw)} bytes")
    except ReproError as exc:
        report.error("tile-undecodable", f"{name} tile {tile.get('id', '?')}: {exc}")
        return None
    return raw


def _check_decodes(
    report: FsckReport, catalog: dict, store: FileBlobStore, decoded: set[int]
) -> None:
    """Decode every real compressed tile whose blob is not in ``decoded``
    (the zone audit's), so each is decoded once per run."""
    for coll_name, objects in catalog.get("collections", {}).items():
        for payload in objects:
            try:
                cell_size = _deserialise_type(payload["type"]).cell_size
            except ReproError:
                continue  # already reported by _check_objects
            name = f"{coll_name}/{payload.get('name')}"
            for tile in payload.get("tiles", []):
                blob_id = tile["blob"]
                if (
                    tile["codec"] == "none" or blob_id in decoded
                    or blob_id not in store or store.record(blob_id).virtual
                ):
                    continue
                decoded.add(blob_id)
                _decode_tile(report, name, tile, store, cell_size)


def _check_zones(
    report: FsckReport,
    catalog: dict,
    store: FileBlobStore,
    zones_path: Path,
    deep: bool,
    decoded: set[int],
) -> None:
    """Audit the zone-map sidecar against the catalog (DESIGN §13).

    A checkpoint that predates zone maps (no ``zones.json``) is only a
    warning; with the sidecar present, every audited tile of an object
    that carries *any* synopses must have one (an object with none is a
    zone-maps-disabled load, not an inconsistency), and every entry must
    name a live tile with a matching cell count and an ordered range.
    ``deep`` decodes each payload, adding its blob to ``decoded``, and
    recomputes the synopsis.
    """
    has_tiles = any(
        payload.get("tiles")
        for objects in catalog.get("collections", {}).values()
        for payload in objects
    )
    if not zones_path.exists():
        if has_tiles:
            report.warning(
                "zone-sidecar-absent",
                f"no {ZONES_NAME} beside the catalog; zone-map pruning "
                f"starts cold until the next checkpoint",
            )
        return
    try:
        sidecar = json.loads(zones_path.read_text())
    except json.JSONDecodeError as exc:
        report.error("zone-sidecar-corrupt", f"{zones_path}: {exc}")
        return
    zone_colls = sidecar.get("collections", {})
    for coll_name, objects in catalog.get("collections", {}).items():
        for payload in objects:
            name = f"{coll_name}/{payload.get('name')}"
            try:
                mdd_type = _deserialise_type(payload["type"])
            except ReproError:
                continue  # already reported by _check_objects
            base = mdd_type.base
            if base.dtype.fields is not None or base.dtype.kind not in "biuf":
                continue  # struct/non-numeric cells carry no synopses
            entries = dict(
                zone_colls.get(coll_name, {}).get(payload.get("name"), {})
            )
            tiles = payload.get("tiles", [])
            if not entries:
                continue  # zone maps disabled for this object
            for tile in tiles:
                tile_id = tile.get("id")
                raw_entry = entries.pop(str(tile_id), None)
                if raw_entry is None:
                    report.error(
                        "zone-missing",
                        f"{name} tile {tile_id} has no zone-map entry",
                    )
                    continue
                report.zones_checked += 1
                syn = TileSynopsis.from_dict(raw_entry)
                domain = MInterval.parse(tile["domain"])
                if syn.cell_count != domain.cell_count:
                    report.error(
                        "zone-count-mismatch",
                        f"{name} tile {tile_id} synopsis counts "
                        f"{syn.cell_count} cells, domain {domain} holds "
                        f"{domain.cell_count}",
                    )
                    continue
                if (
                    syn.vmin is not None
                    and syn.vmax is not None
                    and syn.vmin > syn.vmax
                ):
                    report.error(
                        "zone-range-invalid",
                        f"{name} tile {tile_id} synopsis range "
                        f"[{syn.vmin}, {syn.vmax}] is inverted",
                    )
                    continue
                if not deep:
                    continue
                blob_id = tile["blob"]
                if blob_id not in store:
                    continue  # already reported by _check_objects
                record = store.record(blob_id)
                if record.virtual:
                    expected = constant_synopsis(
                        domain.cell_count, base.default
                    )
                else:
                    decoded.add(blob_id)
                    raw = _decode_tile(report, name, tile, store, base.dtype.itemsize)
                    if raw is None:
                        continue
                    cells = np.frombuffer(raw, dtype=base.dtype)
                    expected = compute_synopsis(
                        cells, syn.nbins if syn.nbins >= 2 else 0
                    )
                if expected is not None and not syn.same_as(expected):
                    report.error(
                        "zone-stale",
                        f"{name} tile {tile_id} synopsis "
                        f"{raw_entry} does not match the decoded payload "
                        f"{expected.to_dict()}",
                    )
            for orphan_id in entries:
                report.error(
                    "zone-orphan",
                    f"{name} zone-map entry for tile {orphan_id} names no "
                    f"live tile",
                )
    for coll_name, objects in zone_colls.items():
        known = {
            payload.get("name")
            for payload in catalog.get("collections", {}).get(coll_name, [])
        }
        for obj_name in objects:
            if obj_name not in known:
                report.error(
                    "zone-orphan",
                    f"zone-map sidecar names unknown object "
                    f"{coll_name}/{obj_name}",
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

    ``deep`` additionally decodes every compressed tile once and
    recomputes every zone-map synopsis from its decoded payload (reads
    every blob twice — use on small databases or when staleness is
    suspected).
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
        _check_objects(report, catalog, store)
        decoded: set[int] = set()
        _check_zones(report, catalog, store, directory / ZONES_NAME, deep, decoded)
        if deep:
            _check_decodes(report, catalog, store, decoded)
    finally:
        # close() would sync (a write); release the handle only.
        store._file.close()
    _check_wal(report, directory / WAL_NAME)
    return report
