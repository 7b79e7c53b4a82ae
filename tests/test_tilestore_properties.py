"""Property-based tests: a stored MDD always reads like numpy slicing,
whatever the tiling strategy, and its timing counters stay consistent."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import MInterval
from repro.core.mddtype import mdd_type
from repro.storage.tilestore import Database
from repro.tiling.aligned import AlignedTiling, SingleTileTiling, TileConfig
from repro.tiling.cuts import CutsTiling
from repro.tiling.interest import AreasOfInterestTiling


@st.composite
def stored_cases(draw):
    """A random 2-D array, a random strategy, and a random query box."""
    height = draw(st.integers(min_value=4, max_value=40))
    width = draw(st.integers(min_value=4, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    domain = MInterval.from_shape((height, width))
    max_tile = draw(st.sampled_from([64, 128, 512]))

    kind = draw(st.sampled_from(["aligned", "square", "cuts", "interest", "single"]))
    if kind == "aligned":
        elements = [draw(st.sampled_from([1, 2, "*"])) for _ in range(2)]
        if all(e == "*" for e in elements):
            elements[0] = 1
        strategy = AlignedTiling(TileConfig(elements), max_tile)
    elif kind == "square":
        strategy = AlignedTiling("[1,1]", max_tile)
    elif kind == "cuts":
        strategy = CutsTiling(draw(st.integers(0, 1)), max_tile)
    elif kind == "interest":
        y0 = draw(st.integers(0, height - 1))
        x0 = draw(st.integers(0, width - 1))
        y1 = draw(st.integers(y0, height - 1))
        x1 = draw(st.integers(x0, width - 1))
        strategy = AreasOfInterestTiling(
            [MInterval([y0, x0], [y1, x1])], max_tile
        )
    else:
        strategy = SingleTileTiling(max_tile)

    qy0 = draw(st.integers(0, height - 1))
    qx0 = draw(st.integers(0, width - 1))
    qy1 = draw(st.integers(qy0, height - 1))
    qx1 = draw(st.integers(qx0, width - 1))
    query = MInterval([qy0, qx0], [qy1, qx1])
    return domain, seed, strategy, query


@given(stored_cases())
@settings(max_examples=80, deadline=None)
def test_read_equals_numpy(case):
    domain, seed, strategy, query = case
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 255, size=domain.shape, dtype=np.uint16)
    mdd = mdd_type("P", "ushort", str(domain))
    db = Database()
    obj = db.create_object("objs", mdd, "p")
    obj.load_array(data, strategy)
    out, timing = obj.read(query)
    assert (out == data[query.to_slices(domain.lowest)]).all()
    # Counter invariants.
    assert timing.cells_result == query.cell_count
    assert timing.cells_fetched >= timing.cells_result
    assert timing.bytes_read == timing.cells_fetched * 2
    assert timing.tiles_read >= 1
    assert timing.t_o > 0 and timing.t_ix > 0


@given(stored_cases())
@settings(max_examples=40, deadline=None)
def test_retile_preserves_reads(case):
    domain, seed, strategy, query = case
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 255, size=domain.shape, dtype=np.uint16)
    mdd = mdd_type("P", "ushort", str(domain))
    db = Database()
    obj = db.create_object("objs", mdd, "p")
    obj.load_array(data, AlignedTiling("[1,1]", 128))
    obj.retile(strategy)
    out, _ = obj.read(query)
    assert (out == data[query.to_slices(domain.lowest)]).all()


@given(stored_cases())
@settings(max_examples=40, deadline=None)
def test_compressed_reads_equal(case):
    domain, seed, strategy, query = case
    rng = np.random.default_rng(seed)
    # Compressible content: large constant runs with a few random cells.
    data = np.zeros(domain.shape, dtype=np.uint16)
    mask = rng.random(domain.shape) < 0.1
    data[mask] = rng.integers(1, 255, size=int(mask.sum()), dtype=np.uint16)
    mdd = mdd_type("P", "ushort", str(domain))
    db = Database(compression=True)
    obj = db.create_object("objs", mdd, "p")
    obj.load_array(data, strategy)
    out, _ = obj.read(query)
    assert (out == data[query.to_slices(domain.lowest)]).all()
