"""The ``planes`` decode kernel against the decoder it replaced.

:func:`repro.storage.compression.planes_decode` must return, byte for
byte, what ``tests/planes_oracle.py`` returns, for whole tiles and for
any run of cells: every integer and bool cell type, every bit width the
encoder can write, cell counts that are not a multiple of 8 and runs
that start or end inside a plane byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StorageError
from repro.storage.compression import compress, decompress, planes_decode
from tests import planes_oracle

DTYPES = ["u1", "u2", "u4", "u8", "i1", "i2", "i4", "i8", "?"]


@st.composite
def tiles(draw):
    """Cells of one type whose spread above their minimum takes ``width``
    bits, for a width drawn from 0 to the type's."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    count = draw(st.integers(0, 200))
    bits = 8 * dtype.itemsize
    unsigned = np.dtype(f"u{dtype.itemsize}")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype.kind == "b":
        return rng.integers(0, 2, count).astype(dtype)
    width = draw(st.integers(0, bits))
    spread = rng.integers(0, 1 << 62, count, dtype=np.uint64) & np.uint64((1 << width) - 1)
    if count and width:
        spread[rng.integers(count)] = (1 << width) - 1  # the full width is met
    base = np.uint64(draw(st.integers(0, (1 << bits) - 1)))
    return (spread.astype(unsigned) + unsigned.type(base)).view(dtype)


@given(tiles(), st.data())
@settings(max_examples=300, deadline=None)
def test_the_kernel_is_the_reference_on_whole_tiles_and_runs(cells, data):
    payload = compress(cells.tobytes(), "planes", cells.dtype)
    whole = bytes(planes_oracle.planes_decode(payload))
    assert bytes(planes_decode(payload)) == whole == cells.tobytes()
    first = data.draw(st.integers(0, cells.size))
    last = data.draw(st.integers(first, cells.size))
    size = cells.itemsize
    run = planes_decode(payload, first * size, last * size)
    assert bytes(run) == whole[first * size : last * size]
    assert not np.frombuffer(run, cells.dtype).flags.writeable


@pytest.mark.parametrize("dtype", ["u2", "u4", "i8"])
def test_a_run_starting_mid_byte_of_every_plane(dtype):
    cells = np.arange(1000, 1000 + 8 * 37 + 5).astype(dtype) * 3  # several planes
    payload = compress(cells.tobytes(), "planes", cells.dtype)
    size = cells.itemsize
    for first, last in ((1, 2), (3, 250), (7, 301), (9, 9), (0, 301)):
        assert bytes(decompress(payload, "planes", first * size, last * size)) == (
            cells[first:last].tobytes()
        )


@pytest.mark.parametrize("span", [(-4, 8), (4, 2), (1, 8), (0, 4 * 701), (2, 6)])
def test_a_run_that_is_no_whole_cells_inside_the_tile_fails_typed(span):
    cells = np.arange(700, dtype="u4")
    payload = compress(cells.tobytes(), "planes", cells.dtype)
    with pytest.raises(StorageError, match="no whole cells"):
        planes_decode(payload, *span)


@pytest.mark.parametrize("codec", ["none", "zlib"])
def test_the_byte_codecs_cut_runs_from_the_whole_payload(codec):
    raw = np.arange(300, dtype="<u4").tobytes()
    payload = compress(raw, codec)
    assert bytes(decompress(payload, codec, 40, 400)) == raw[40:400]
    assert bytes(decompress(payload, codec)) == raw
