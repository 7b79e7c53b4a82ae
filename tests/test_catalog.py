"""Unit tests for whole-database persistence (save_database/open_database)."""

import json

import numpy as np
import pytest

from repro.core.errors import StorageError
from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.storage.backends import FileBlobStore
from repro.storage.catalog import (
    CATALOG_NAME,
    open_database,
    save_database,
)
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from repro.tiling.interest import AreasOfInterestTiling

IMG = mdd_type("Img", "char", "[0:49,0:49]")
CUBE = mdd_type("Cube", "ulong", "[1:20,1:20,1:20]")


def populate(db: Database) -> dict[str, np.ndarray]:
    data = {}
    img = np.arange(2500, dtype=np.uint8).reshape(50, 50)
    obj = db.create_object("imgs", IMG, "scene")
    obj.load_array(img, RegularTiling(512))
    data["scene"] = img

    cube = np.arange(8000, dtype=np.uint32).reshape(20, 20, 20)
    obj2 = db.create_object("cubes", CUBE, "sales")
    obj2.load_array(
        cube,
        AreasOfInterestTiling([MInterval.parse("[1:10,1:10,1:20]")], 8192),
        origin=(1, 1, 1),
    )
    data["sales"] = cube
    return data


class TestRoundtrip:
    def test_memory_store_roundtrip(self, tmp_path):
        db = Database()
        data = populate(db)
        save_database(db, tmp_path / "db")
        reopened = open_database(tmp_path / "db")

        scene = reopened.collection("imgs")["scene"]
        out, _ = scene.read(MInterval.parse("[10:30,5:45]"))
        assert (out == data["scene"][10:31, 5:46]).all()

        sales = reopened.collection("cubes")["sales"]
        out2, timing = sales.read(MInterval.parse("[1:10,1:10,*:*]"))
        assert (out2 == data["sales"][0:10, 0:10, :]).all()
        assert timing.read_amplification == 1.0  # AI tiling survived

    def test_file_store_roundtrip(self, tmp_path):
        directory = tmp_path / "db"
        directory.mkdir()
        store = FileBlobStore(directory / "blobs.pages")
        db = Database(store=store)
        data = populate(db)
        save_database(db, directory)
        store.close()

        reopened = open_database(directory)
        scene = reopened.collection("imgs")["scene"]
        out, _ = scene.read(MInterval.parse("[0:49,0:49]"))
        assert (out == data["scene"]).all()

    def test_compressed_tiles_survive(self, tmp_path):
        db = Database(compression=True, codecs=("zlib",))
        obj = db.create_object("imgs", IMG, "flat")
        flat = np.zeros((50, 50), dtype=np.uint8)
        obj.load_array(flat, RegularTiling(1024))
        save_database(db, tmp_path / "db")
        reopened = open_database(tmp_path / "db")
        out, _ = reopened.collection("imgs")["flat"].read(
            MInterval.parse("[0:49,0:49]")
        )
        assert (out == 0).all()

    def test_virtual_tiles_survive(self, tmp_path):
        db = Database()
        obj = db.create_object("imgs", IMG, "virt")
        obj.load_virtual(MInterval.parse("[0:49,0:49]"), RegularTiling(512))
        save_database(db, tmp_path / "db")
        reopened = open_database(tmp_path / "db")
        virt = reopened.collection("imgs")["virt"]
        out, timing = virt.read(MInterval.parse("[0:9,0:9]"))
        assert (out == 0).all()
        assert timing.t_o > 0

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(StorageError):
            open_database(tmp_path / "nope")

    def test_open_wrong_version(self, tmp_path):
        directory = tmp_path / "db"
        db = Database()
        populate(db)
        save_database(db, directory)
        catalog = json.loads((directory / CATALOG_NAME).read_text())
        # version 1 catalogs carry CRC32C page checksums; version 2 kept
        # the zones in a sidecar, beside tile rows of its own format
        for version in (1, 2, 99):
            catalog["version"] = version
            (directory / CATALOG_NAME).write_text(json.dumps(catalog))
            with pytest.raises(StorageError, match=f"catalog version {version} "):
                open_database(directory)

    def test_open_a_catalog_that_is_not_json(self, tmp_path):
        directory = tmp_path / "db"
        save_database(Database(), directory)
        (directory / CATALOG_NAME).write_text('{"version": 3, "collections": ')
        with pytest.raises(StorageError, match="corrupt catalog"):
            open_database(directory)

    def test_types_restored(self, tmp_path):
        db = Database()
        populate(db)
        save_database(db, tmp_path / "db")
        reopened = open_database(tmp_path / "db")
        sales = reopened.collection("cubes")["sales"]
        assert sales.mdd_type.base.name == "ulong"
        assert sales.mdd_type.definition_domain == CUBE.definition_domain
        assert sales.current_domain == MInterval.parse("[1:20,1:20,1:20]")

    def test_save_twice_is_idempotent(self, tmp_path):
        db = Database()
        data = populate(db)
        save_database(db, tmp_path / "db")
        save_database(db, tmp_path / "db")
        reopened = open_database(tmp_path / "db")
        out, _ = reopened.collection("imgs")["scene"].read(
            MInterval.parse("[0:9,0:9]")
        )
        assert (out == data["scene"][0:10, 0:10]).all()

    def test_reopened_database_accepts_new_objects(self, tmp_path):
        db = Database()
        populate(db)
        save_database(db, tmp_path / "db")
        reopened = open_database(tmp_path / "db")
        extra = reopened.create_object("imgs", IMG, "extra")
        extra.load_array(
            np.full((50, 50), 9, dtype=np.uint8), RegularTiling(512)
        )
        out, _ = extra.read(MInterval.parse("[0:4,0:4]"))
        assert (out == 9).all()
