"""Unit and property tests for tile compression codecs."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cli import main
from repro.core.cells import base_type
from repro.core.errors import StorageError
from repro.core.geometry import MInterval
from repro.core.mddtype import MDDType
from repro.serve.wire import TileFrame, assemble
from repro.storage.catalog import (
    CATALOG_NAME,
    create_database,
    open_database,
    save_database,
)
from repro.storage.compression import (
    compress,
    decompress,
    known_codecs,
    planes_decode,
    select_codec,
)
from repro.storage.fsck import fsck_database
from repro.storage.pipeline import fetch_tile
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling


class TestZlib:
    def test_roundtrip(self):
        raw = b"multidimensional " * 100
        encoded = compress(raw, "zlib")
        assert len(encoded) < len(raw)
        assert decompress(encoded, "zlib") == raw

    @given(st.binary(max_size=2000))
    def test_roundtrip_property(self, raw):
        assert decompress(compress(raw, "zlib"), "zlib") == raw

    def test_garbled_payload_raises_storage_error(self):
        with pytest.raises(StorageError, match="corrupt zlib payload"):
            decompress(b"not deflate", "zlib")
        truncated = compress(b"multidimensional " * 100, "zlib")[:-4]
        with pytest.raises(StorageError, match="corrupt zlib payload"):
            decompress(truncated, "zlib")

    def test_client_assembly_of_a_garbled_frame_is_typed(self):
        box = MInterval.parse("[0:3,0:3]")
        frame = TileFrame(box, "zlib", b"not deflate")
        with pytest.raises(StorageError, match="corrupt zlib payload"):
            assemble(box, np.dtype("<u4"), 0, [frame])


class TestRegistry:
    def test_known_codecs(self):
        assert known_codecs() == ("none", "planes", "zlib")

    def test_none_is_identity(self):
        assert compress(b"abc", "none") == b"abc"
        assert decompress(b"abc", "none") == b"abc"

    def test_unknown_rejected(self):
        with pytest.raises(StorageError):
            compress(b"x", "lzma")
        with pytest.raises(StorageError):
            decompress(b"x", "lzma")

    def test_database_rejects_unknown_candidates_at_construction(self):
        with pytest.raises(StorageError, match="rle"):
            Database(compression=True, codecs=("rle", "zlib"))


class TestSelective:
    def test_compressible_payload_selected(self):
        raw = b"\x00" * 8192
        codec, encoded = select_codec(raw, candidates=("zlib", "planes"), dtype=np.dtype("u1"))
        assert codec in ("zlib", "planes")
        assert len(encoded) < len(raw)
        assert decompress(encoded, codec) == raw

    def test_incompressible_stays_raw(self):
        import os

        raw = os.urandom(4096)
        codec, encoded = select_codec(raw, candidates=("zlib",))
        assert codec == "none"
        assert encoded == raw

    def test_empty_payload(self):
        assert select_codec(b"") == ("none", b"")

    def test_min_ratio_respected(self):
        # zlib shrinks this payload, but not below 1% of its size.
        raw = bytes(range(256)) * 16
        codec, _ = select_codec(raw, candidates=("zlib",), min_ratio=0.01)
        assert codec == "none"


PLANES_DTYPES = ["u1", "u2", "u4", "u8", "i1", "i2", "i4", "i8", "?"]
HEADER = struct.calcsize("<cBBQQ")


def planes_roundtrip(cells: np.ndarray) -> bytes:
    """Encode ``cells`` with ``planes``, decode, and check the decode is
    bit-exact and read-only; returns the payload."""
    payload = compress(cells.tobytes(), "planes", cells.dtype)
    decoded = decompress(payload, "planes")
    back = np.frombuffer(decoded, dtype=cells.dtype)
    assert back.tobytes() == cells.tobytes()
    assert not back.flags.writeable
    return payload


def header_fields(payload: bytes) -> tuple:
    return struct.unpack_from("<cBBQQ", payload)


class TestPlanes:
    @given(
        st.sampled_from(PLANES_DTYPES).flatmap(
            lambda dt: hnp.arrays(np.dtype(dt), st.integers(0, 300))
        )
    )
    def test_roundtrip_property(self, cells):
        planes_roundtrip(cells)

    @pytest.mark.parametrize("dtype", PLANES_DTYPES)
    @pytest.mark.parametrize("count", [1, 7, 9, 1001])
    def test_counts_not_multiple_of_eight(self, dtype, count):
        rng = np.random.default_rng(count)
        cells = rng.integers(0, 2 if dtype == "?" else 100, count).astype(dtype)
        planes_roundtrip(cells)

    @pytest.mark.parametrize("dtype", PLANES_DTYPES)
    def test_constant_tiles_have_width_zero(self, dtype):
        for value in (0, 1):
            payload = planes_roundtrip(np.full(1000, value, dtype=dtype))
            assert len(payload) == HEADER
            assert header_fields(payload)[2] == 0

    def test_nonzero_constant_keeps_its_minimum(self):
        cells = np.full(17, 70_000, dtype="u4")
        payload = planes_roundtrip(cells)
        assert header_fields(payload)[2:] == (0, 70_000, 17)

    @pytest.mark.parametrize("dtype", ["i1", "i2", "i4", "i8"])
    def test_negative_minimum(self, dtype):
        cells = np.arange(-300, 200).astype(dtype)  # wraps in i1: still exact
        payload = planes_roundtrip(cells)
        if dtype != "i1":
            assert header_fields(payload)[2] == 9  # range 499 needs 9 bits

    @pytest.mark.parametrize("dtype", ["u1", "u2", "u4", "u8", "i1", "i2", "i4", "i8"])
    def test_full_width_extremes(self, dtype):
        info = np.iinfo(dtype)
        cells = np.array([info.min, 0, info.max, info.max, info.min], dtype=dtype)
        payload = planes_roundtrip(np.tile(cells, 5))
        assert header_fields(payload)[2] == 8 * np.dtype(dtype).itemsize

    def test_wins_on_small_counts(self):
        cells = np.random.default_rng(7).poisson(400, 8192).astype("<u4")
        codec, payload = select_codec(
            cells.tobytes(), ("zlib", "planes"), dtype=cells.dtype
        )
        assert codec == "planes"
        assert len(payload) < len(compress(cells.tobytes(), "zlib"))

    @pytest.mark.parametrize(
        "dtype",
        ["<f4", "<f8", ">u4", ">i2", np.dtype([("r", "u1"), ("g", "u1")])],
    )
    def test_never_selected_for_float_struct_or_swapped_cells(self, dtype):
        dtype = np.dtype(dtype)
        raw = np.zeros(4096, dtype="u1")
        raw[::7] = 3  # a payload planes would shrink, read as bytes
        codec, _ = select_codec(raw.tobytes(), ("zlib", "planes"), dtype=dtype)
        assert codec != "planes"
        codec, _ = select_codec(raw.tobytes(), ("planes",), dtype=dtype)
        assert codec == "none"
        with pytest.raises(StorageError):
            compress(raw.tobytes(), "planes", dtype)

    def test_needs_a_cell_type(self):
        assert select_codec(bytes(4096), ("planes",)) == ("none", bytes(4096))
        with pytest.raises(StorageError):
            compress(bytes(16), "planes")
        with pytest.raises(StorageError, match="whole"):
            compress(bytes(6), "planes", np.dtype("u4"))


def _valid_payload() -> bytes:
    cells = np.arange(1000, 1700, dtype="u4")  # width 10: two planes
    return compress(cells.tobytes(), "planes", cells.dtype)


def _with_header(payload: bytes, **fields) -> bytes:
    kind, size, width, minimum, count = header_fields(payload)
    values = dict(kind=kind, size=size, width=width, minimum=minimum, count=count)
    values.update(fields)
    return struct.pack("<cBBQQ", *values.values()) + payload[HEADER:]


class TestPlanesCorrupt:
    """A damaged ``planes`` payload fails typed, never as a numpy error."""

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(b"", id="empty"),
            pytest.param(_valid_payload()[: HEADER - 1], id="short-header"),
            pytest.param(_valid_payload()[:-1], id="body-truncated"),
            pytest.param(_valid_payload() + b"\0", id="body-overlong"),
            pytest.param(_valid_payload()[:HEADER], id="body-missing"),
            pytest.param(_with_header(_valid_payload(), count=701), id="count-mismatch"),
            pytest.param(_with_header(_valid_payload(), width=11), id="width-mismatch"),
            pytest.param(_with_header(_valid_payload(), width=33), id="width-too-wide"),
            pytest.param(_with_header(_valid_payload(), kind=b"f"), id="float-kind"),
            pytest.param(_with_header(_valid_payload(), size=3), id="odd-size"),
            pytest.param(_with_header(_valid_payload(), minimum=1 << 32), id="minimum-too-big"),
            pytest.param(
                _with_header(_valid_payload(), width=0, count=(1 << 64) - 1)[:HEADER],
                id="constant-of-impossible-size",
            ),
            pytest.param(
                _with_header(compress(b"\1\0" * 8, "planes", np.dtype("?")), minimum=1),
                id="bool-out-of-range",
            ),
        ],
    )
    def test_raises_storage_error(self, payload):
        with pytest.raises(StorageError, match="corrupt planes payload"):
            decompress(payload, "planes")

    def test_valid_payload_decodes(self):
        assert bytes(planes_decode(_valid_payload())) == np.arange(
            1000, 1700, dtype="u4"
        ).tobytes()


class TestPlanesStore:
    """Tiles stored through ``planes`` read back read-only, hit or miss."""

    def _loaded(self, **kwargs):
        db = Database(compression=True, **kwargs)
        domain = MInterval.parse("[0:63,0:63]")
        obj = db.create_object("c", MDDType("t", base_type("ulong"), domain), "o")
        data = np.random.default_rng(3).integers(0, 900, (64, 64)).astype("<u4")
        obj.load_array(data, RegularTiling(4096))
        assert {entry.codec for entry in obj.tile_entries()} == {"planes"}
        return db, obj, data

    def test_default_candidates_include_planes(self):
        assert Database().codecs == ("zlib", "planes")

    def test_miss_is_read_only(self):
        db, obj, data = self._loaded()
        entry = obj.tile_entries()[0]
        fetched = fetch_tile(db, entry, obj.mdd_type.base.dtype)  # no cache: a miss
        assert not fetched.array.flags.writeable
        assert np.array_equal(fetched.array, data[entry.domain.to_slices((0, 0))])

    def test_decoded_cache_hit_is_read_only(self):
        db, obj, data = self._loaded(decoded_cache_bytes=1 << 20)
        db.reset_clock()  # drop the write-through admissions
        entry = obj.tile_entries()[0]
        dtype = obj.mdd_type.base.dtype
        miss = fetch_tile(db, entry, dtype)
        hit = fetch_tile(db, entry, dtype)
        assert miss.decoded_miss and hit.decoded_hit
        for fetched in (miss, hit):
            assert not fetched.array.flags.writeable
            assert np.array_equal(fetched.array, data[entry.domain.to_slices((0, 0))])
        out, _timing = obj.read(MInterval.parse("[0:63,0:63]"))
        assert np.array_equal(out, data)


class TestPlanesDecodeSites:
    """Every decoder of stored payloads reads a ``planes`` store: fsck,
    WAL replay and ``repro info`` here; RTF1 frames in test_serve."""

    DOMAIN = MInterval.parse("[0:63,0:63]")

    def _data(self):
        return np.random.default_rng(5).integers(-400, 400, (64, 64)).astype("<i4")

    def _build(self, directory, durability="none"):
        db = create_database(directory, durability=durability, compression=True)
        obj = db.create_object("c", MDDType("t", base_type("long"), self.DOMAIN), "o")
        obj.load_array(self._data(), RegularTiling(4096))
        assert {entry.codec for entry in obj.tile_entries()} == {"planes"}
        return db, obj

    def test_fsck_deep_is_clean(self, tmp_path):
        db, _obj = self._build(tmp_path)
        save_database(db, tmp_path)
        db.close()
        report = fsck_database(tmp_path, deep=True)
        assert report.ok, report.issues
        assert report.zones_checked == report.tiles_checked > 0

    def test_fsck_deep_reports_an_undecodable_tile(self, tmp_path):
        db, obj = self._build(tmp_path)
        entry = obj.tile_entries()[0]
        good = db.store.get(entry.blob_id)
        bad = _with_header(good, count=header_fields(good)[4] + 8)  # CRCs still match
        bad_blob = db.store.put(bad, codec="planes")
        save_database(db, tmp_path)
        db.close()
        catalog_path = tmp_path / CATALOG_NAME
        catalog = json.loads(catalog_path.read_text())
        (tile,) = [
            t for t in catalog["collections"]["c"][0]["tiles"] if t["blob"] == entry.blob_id
        ]
        tile["blob"] = bad_blob
        catalog_path.write_text(json.dumps(catalog))
        assert fsck_database(tmp_path).ok  # shallow checks never decode
        report = fsck_database(tmp_path, deep=True)
        assert not report.ok
        (issue,) = [i for i in report.issues if i.code == "tile-undecodable"]
        assert "corrupt planes payload" in issue.message

    def test_wal_replay_after_an_abandoned_handle(self, tmp_path):
        db, _obj = self._build(tmp_path, durability="wal+fsync")
        db.close()  # no checkpoint: the tiles live only in the WAL
        reopened = open_database(tmp_path)
        try:
            assert reopened.last_recovery.transactions_replayed > 0
            obj = reopened.collections["c"]["o"]
            assert {entry.codec for entry in obj.tile_entries()} == {"planes"}
            out, _timing = obj.read(self.DOMAIN)
            assert out.tobytes() == self._data().tobytes()
        finally:
            reopened.close()

    def test_repro_info_lists_planes(self, capsys):
        assert main(["info"]) == 0
        codecs = [line for line in capsys.readouterr().out.splitlines() if "codecs" in line]
        assert codecs and "planes" in codecs[0]


class TestDeepDecode:
    """``fsck --deep`` decodes every real compressed tile, once: objects
    without synopses included (struct cells, zone maps off)."""

    DOMAIN = MInterval.parse("[0:31,0:31]")

    @pytest.mark.parametrize("cells, zone_maps", [("rgb", True), ("long", False)])
    def test_reports_a_garbled_zlib_tile(self, tmp_path, cells, zone_maps):
        db = create_database(tmp_path, compression=True, codecs=("zlib",), zone_maps=zone_maps)
        mdd_type = MDDType("t", base_type(cells), self.DOMAIN)
        obj = db.create_object("c", mdd_type, "o")
        ramp = (np.arange(32 * 32 * mdd_type.cell_size) % 7).astype(np.uint8)
        obj.load_array(ramp.view(mdd_type.base.dtype).reshape(32, 32), RegularTiling(1024))
        entries = obj.tile_entries()
        assert len(entries) > 1 and {entry.codec for entry in entries} == {"zlib"}
        bad_blob = db.store.put(b"not deflate" * 8, codec="zlib")  # CRCs match
        save_database(db, tmp_path)
        db.close()
        catalog_path = tmp_path / CATALOG_NAME
        catalog = json.loads(catalog_path.read_text())
        tile = catalog["collections"]["c"][0]["tiles"][0]
        tile["blob"] = bad_blob
        catalog_path.write_text(json.dumps(catalog))
        assert fsck_database(tmp_path).ok  # shallow checks never decode
        report = fsck_database(tmp_path, deep=True)
        (issue,) = report.issues
        assert issue.code == "tile-undecodable"
        assert f"tile {tile['id']}:" in issue.message
        assert "corrupt zlib payload" in issue.message
