"""``select_codec``'s zlib sample against encoding every candidate.

The selective-compression rule encodes ``planes`` first and skips the
full zlib encode when a deflated sample says zlib cannot win.  Stored
bytes must not move: on every cube the repo stores, tile by tile, the
rule returns the ``(codec, payload)`` the exhaustive loop below returns.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.bench import pipeline, salescube
from repro.bench.workloads import sparse_cube
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.storage.compression import (
    ZLIB_SAMPLE_MIN,
    compress,
    planes_eligible,
    select_codec,
)
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling
from tests.counted import counted

KB = 1024
CANDIDATES = Database(compression=True).codecs


def exhaustive(payload, candidates, min_ratio=0.9, dtype=None):
    """The selection rule before the sample: encode every candidate."""
    if not payload:
        return "none", payload
    best_name, best = "none", payload
    bound = int(len(payload) * min_ratio)
    for name in candidates:
        if name == "planes" and not planes_eligible(dtype):
            continue
        encoded = compress(payload, name, dtype)
        if len(encoded) <= bound and len(encoded) < len(best):
            best_name, best = name, encoded
    return best_name, best


def tile_payloads(cube: np.ndarray, strategy, origin=None):
    """The cell bytes ``load_array`` hands the encoder, one per tile."""
    region = MInterval.from_shape(cube.shape, origin or (0,) * cube.ndim)
    spec = strategy.tile(region, cube.dtype.itemsize)
    return [
        Tile(box, cube[box.to_slices(region.lowest)]).to_bytes() for box in spec.tiles
    ]


def assert_identical(cube: np.ndarray, strategy, origin=None) -> Counter:
    """Per tile, the rule's choice is the exhaustive one; returns the wins."""
    wins: Counter = Counter()
    for index, raw in enumerate(tile_payloads(cube, strategy, origin)):
        expected = exhaustive(raw, CANDIDATES, dtype=cube.dtype)
        assert select_codec(raw, CANDIDATES, dtype=cube.dtype) == expected, index
        wins[expected[0]] += 1
    return wins


@pytest.fixture(scope="module")
def sales() -> np.ndarray:
    return salescube.generate_sales_data()


@pytest.mark.parametrize("scheme", sorted(salescube.build_schemes()))
def test_sales_cube_every_table2_scheme(sales, scheme):
    strategy = salescube.build_schemes()[scheme]
    wins = assert_identical(sales, strategy, salescube.SALES_DOMAIN.lowest)
    assert wins["planes"] > 0.9 * sum(wins.values())


def test_bench_pipeline_smooth_cube_keeps_its_zlib_wins():
    cube = pipeline._cube_data()
    wins = assert_identical(cube, RegularTiling(pipeline.TILE_BYTES))
    assert wins == {"zlib": 16}


@pytest.mark.parametrize(
    "shape, density, seed, tile_bytes",
    [
        ((100, 100, 100), 0.03, 5, 64 * KB),  # DESIGN ablation A5
        ((100, 100, 50), 0.04, 11, 32 * KB),  # examples/sparse_olap.py
    ],
)
def test_sparse_cubes(shape, density, seed, tile_bytes):
    cube = sparse_cube(shape, density=density, seed=seed)
    wins = assert_identical(cube, RegularTiling(tile_bytes))
    assert wins["zlib"] > 0


CELLS = st.sampled_from(["u1", "u2", "u4", "u8", "i1", "i2", "i4", "i8", "?"])
ORDERS = st.sampled_from(
    [("zlib",), ("planes",), ("zlib", "planes"), ("planes", "zlib"), ("none", "zlib")]
)


@settings(max_examples=150, deadline=None)
@given(
    CELLS.flatmap(
        lambda dtype: hnp.arrays(
            np.dtype(dtype), st.integers(0, ZLIB_SAMPLE_MIN // np.dtype(dtype).itemsize)
        )
    ),
    ORDERS,
    st.sampled_from([0.5, 0.9, 1.0]),
)
def test_payloads_within_the_sample_are_exhaustive(cells, candidates, min_ratio):
    raw = cells.tobytes()
    assert select_codec(raw, candidates, min_ratio, cells.dtype) == exhaustive(
        raw, candidates, min_ratio, cells.dtype
    )


@settings(max_examples=60, deadline=None)
@given(
    CELLS,
    st.integers(ZLIB_SAMPLE_MIN // 8, 4 * ZLIB_SAMPLE_MIN),
    st.integers(1, 2**12),
    st.integers(0, 2**32 - 1),
    ORDERS,
)
def test_the_sample_only_ever_drops_zlib(dtype, count, high, seed, candidates):
    """On any payload the rule picks as if zlib were, or were not, a
    candidate: it never changes anything but whether zlib ran."""
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 2 if dtype.kind == "b" else high, count)
    cells = (cells - (high // 2 if dtype.kind == "i" else 0)).astype(dtype)
    raw = cells.tobytes()
    without_zlib = tuple(name for name in candidates if name != "zlib")
    assert select_codec(raw, candidates, dtype=dtype) in (
        exhaustive(raw, candidates, dtype=dtype),
        exhaustive(raw, without_zlib, dtype=dtype),
    )


def test_a_reg32k_load_encodes_each_tile_about_once(sales):
    """Before the sample every one of the 648 tiles ran zlib and planes
    (1296 encodes).  Now every tile runs planes and 7 run zlib too: the
    one tile no longer than the sample, and the 6 whose deflated sample,
    scaled up, comes within 1.2x of their planes size.  Zlib wins none."""
    database = Database(compression=True)
    obj = database.create_object("c", salescube.sales_mdd_type(), "sales")
    with counted() as delta:
        obj.load_array(
            sales, salescube.build_schemes()["Reg32K"], origin=salescube.SALES_DOMAIN.lowest
        )
    assert obj.tile_count == 648
    assert delta["codec.encodes"] == 648 + 7
