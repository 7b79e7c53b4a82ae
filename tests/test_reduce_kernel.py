"""The per-tile kernel and the per-cell column passes against their oracles.

``pipeline._Reducer`` reduces each part of a tile as a view, with the
predicate's constant fixed once in the cell dtype and a multiply mask
for a zero default on an integer cube; ``zonemap.combine_cells`` and
``zonemap.cells_eligible`` decide and combine every query cell at once.
Over dtypes, every relop, constants at and past the dtype's range,
defaults 0 and 7, and whole, clipped and split parts, each must leave
every field the op's combine reads equal to what the stacked reduce and
the per-cell combine (``tests/reduce_oracle.py``) leave.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench import salescube
from repro.core.geometry import MInterval
from repro.index.zonemap import (
    AGG_FUNCS,
    CellPredicate,
    TileSynopsis,
    ZoneColumns,
    cells_eligible,
    combine_cells,
    partial_synopsis,
)
from repro.storage import pipeline
from repro.storage.tilestore import Database, TileEntry
from repro.tiling.directional import category_intervals
from tests import reduce_oracle

OPS = (None, *sorted(AGG_FUNCS))
RELOPS = ("<", "<=", ">", ">=", "=", "!=")
#: per dtype: cells to draw from, and constants at and past its range
CELLS = {
    "int32": [-(2**31), -1, 0, 1, 3, 5, 6, 2**31 - 1],
    "uint32": [0, 1, 3, 5, 6, 2**31, 2**32 - 1],
    "int64": [-(2**63), -(2**53) - 1, -1, 0, 3, 5, 2**53 + 1, 2**63 - 1],
    "bool": [0, 1],
    "float64": [-2.5, -0.0, 0.0, 1.0, 3.0, 5.5, np.nan],
}
CONSTANTS = {
    "int32": [-(2**31) - 1, -(2**31), -1, 0, 3, 5.5, 5.0, 2**31 - 1, 2**31],
    "uint32": [-1, 0, 3, 5.5, 2**31, 2**32 - 1, 2**32],
    "int64": [-(2**63), -1, 0, 3, 5.5, 2**53, 2.0**53, 2**53 + 1, 2**63 - 1, 2**63],
    "bool": [-1, 0, 1, 2, 0.5],
    "float64": [-1, 0, 3, 5.5, 2**53 + 1],
}


def _read_fields(op, syn):
    """What the combine reads of a partial for ``op`` (all of it for none)."""
    if op is None:
        return repr(syn)
    if op == "count_cells":
        return repr(syn.nonzero)
    if op in ("add_cells", "avg_cells"):
        return repr(syn.vsum)
    extreme = syn.vmin if op == "min_cells" else syn.vmax
    return repr((syn.vmin is None, extreme, syn.nan_count))


@st.composite
def kernel_cases(draw):
    dtype = np.dtype(draw(st.sampled_from(sorted(CELLS))))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    cells = draw(st.lists(st.sampled_from(CELLS[dtype.name]), min_size=shape[0] * shape[1],
                          max_size=shape[0] * shape[1]))
    array = np.array(cells, dtype=dtype).reshape(shape)
    domain = MInterval.from_shape(shape).translate((2, -3))
    kind = draw(st.sampled_from(("whole", "clipped", "split")))
    if kind == "whole":  # equal to the domain, not the domain object
        parts = [MInterval(domain.lower, domain.upper)]
    elif kind == "clipped":
        bounds = [sorted(draw(st.integers(lo, hi)) for _ in range(2))
                  for lo, hi in zip(domain.lowest, domain.highest)]
        parts = [MInterval([lo for lo, _ in bounds], [hi for _, hi in bounds])]
    else:  # cut along one axis: one part per side
        axis = draw(st.integers(0, 1))
        lo, hi = domain.lowest[axis], domain.highest[axis]
        cut = draw(st.integers(lo, hi))
        parts = []
        for start, end in ((lo, cut), (cut + 1, hi)):
            if start <= end:
                low, high = list(domain.lowest), list(domain.highest)
                low[axis], high[axis] = start, end
                parts.append(MInterval(low, high))
    predicate = None
    if draw(st.integers(0, 5)):
        predicate = CellPredicate(
            draw(st.sampled_from(RELOPS)), draw(st.sampled_from(CONSTANTS[dtype.name]))
        )
    return dict(
        array=array,
        entry=TileEntry(0, domain, 0),
        parts=parts,
        predicate=predicate,
        default_cell=np.asarray(draw(st.sampled_from((0, 7))), dtype=dtype),
        op=draw(st.sampled_from(OPS)),
    )


@given(kernel_cases())
@settings(max_examples=400, deadline=None)
def test_the_kernel_equals_the_stacked_oracle(case):
    array, entry, parts = case["array"], case["entry"], case["parts"]
    predicate, default_cell, op = case["predicate"], case["default_cell"], case["op"]
    if predicate is not None:  # the dtype-exact mask is numpy's promoted comparison
        assert np.array_equal(predicate.mask(array), reduce_oracle.mask(predicate, array))
    kernel = pipeline._Reducer(predicate, default_cell, op)
    got = kernel(array, *pipeline.TileParts.of([(entry, parts)]).bounds(0))
    # the per-part stacks of one, and whole tiles stacked two at a time
    per_part = reduce_oracle.parts(predicate, default_cell, op, array, entry.domain, parts)
    stacked = reduce_oracle.hits(
        predicate, default_cell, op, [(array, entry.domain, parts), (array, entry.domain, parts)], 2
    )
    for want in (per_part, *stacked):
        assert [_read_fields(op, p) for p in got] == [_read_fields(op, p) for p in want]
    assert kernel.peak == array.nbytes


# ----------------------------------------------------------------------
# The column passes against the per-cell combine and decision
# ----------------------------------------------------------------------


def _syn(op, values):
    """A partial of ``values`` as the kernel leaves it for ``op``."""
    return pipeline._Reducer(None, np.zeros((), dtype=values.dtype), op).reduce(values)


@st.composite
def combine_cases(draw):
    dtype = np.dtype(draw(st.sampled_from(sorted(CELLS))))
    ops = ("count_cells", "min_cells", "max_cells")
    op = draw(st.sampled_from(ops if dtype.kind == "f" else (*ops, "add_cells", "avg_cells")))
    pool = [v for v in CELLS[dtype.name] if dtype.kind in "bf" or abs(v) < 2**40]
    n_cells = draw(st.integers(1, 4))
    partials, cells = [], []
    for _ in range(draw(st.integers(0, 8))):
        size = draw(st.integers(1, 4))
        cells_of = st.lists(st.sampled_from(pool), min_size=size, max_size=size)
        values = np.array(draw(cells_of), dtype=dtype)
        partials.append(_syn(op, values) if draw(st.booleans()) else partial_synopsis(values))
        cells.append(draw(st.integers(0, n_cells - 1)))
    keys = draw(st.permutations(range(len(partials))))
    fill = draw(st.lists(st.integers(0, 3), min_size=n_cells, max_size=n_cells))
    # every cell holds something: a partial or a default cell
    fill = [f or int(c not in cells) for c, f in enumerate(fill)]
    default = draw(st.sampled_from((0, 7) if dtype.kind != "f" else (0, 7, -0.0, float("nan"))))
    cells, keys = np.array(cells, dtype=np.intp), np.array(keys, dtype=np.int64)
    return dtype, op, cells, partials, keys, fill, default


@given(combine_cases())
@settings(max_examples=300, deadline=None)
def test_the_column_combine_equals_the_per_cell_combine(case):
    dtype, op, cells, partials, keys, fill, default = case
    counts = [
        sum(p.cell_count for p, c in zip(partials, cells) if c == cell) + fill[cell]
        for cell in range(len(fill))
    ]
    got = combine_cells(op, dtype, cells, partials, keys[:, None], fill, default, counts)
    want = [
        reduce_oracle.combine_aggregate(
            op, dtype, [p for _, c, p in sorted(zip(keys, cells, partials), key=lambda t: t[0])
                        if c == cell], fill[cell], default, counts[cell]
        )
        for cell in range(len(fill))
    ]
    assert [repr(v) for v in got] == [repr(v) for v in want]


EXTREMES = {
    "int64": [-(2**63), -(2**62), -1, 0, 1, 2**31, 2**62, 2**63 - 1],
    "uint64": [0, 1, 2**32, 2**63, 2**64 - 1],
    "int32": [-(2**31), -1, 0, 2**31 - 1],
    "bool": [False, True],
}


@st.composite
def eligible_cases(draw):
    dtype = np.dtype(draw(st.sampled_from(sorted(EXTREMES))))
    values = st.sampled_from(EXTREMES[dtype.name])

    def synopsis():
        kind = draw(st.sampled_from(("tile", "tile", "tile", "none", "empty")))
        if kind == "none":
            return None
        if kind == "empty":
            return TileSynopsis(0, 0, None, None, 0)
        low, high = sorted((draw(values), draw(values)))
        return TileSynopsis(draw(st.integers(1, 9)), 0, low, high, 0)

    n_cells = draw(st.integers(1, 4))
    routed = []
    for _ in range(draw(st.integers(1, 2))):  # selections
        syns = [synopsis() for _ in range(draw(st.integers(0, 5)))]
        pairs = draw(st.lists(st.tuples(st.integers(0, max(len(syns) - 1, 0)),
                                        st.integers(0, n_cells - 1)), max_size=8)) if syns else []
        routed.append((syns, pairs))
    counts = draw(st.lists(st.sampled_from((1, 2, 3, 2**10, 2**31, 2**33)),
                           min_size=n_cells, max_size=n_cells))
    uncovered = [draw(st.integers(0, 1)) for _ in range(n_cells)]
    default = draw(st.sampled_from((0, 7, -(2**62), 2**62)))
    op = draw(st.sampled_from(sorted(AGG_FUNCS)))
    return dtype, op, routed, uncovered, default, counts, draw(st.booleans())


@given(eligible_cases())
@settings(max_examples=500, deadline=None)
# a masked query's default bounds covered cells; |-2**63| is exact in uint64
@example((np.dtype("int64"), "add_cells", [([], [])], [0, 0], 2**62, [4, 1], True))
@example((np.dtype("int64"), "add_cells", [([TileSynopsis(3, 0, -(2**63), 5, 0)], [(0, 1)])],
          [0, 0], 0, [1, 1], False))
def test_the_column_decision_equals_the_per_cell_decision(case):
    dtype, op, routed, uncovered, default, counts, masked = case
    columns = [
        (ZoneColumns(syns, dtype), np.array([r for r, _ in pairs], dtype=np.intp),
         np.array([c for _, c in pairs], dtype=np.intp))
        for syns, pairs in routed
    ]
    got = cells_eligible(op, dtype, columns, uncovered, default, counts, masked)
    want = all(
        reduce_oracle.partial_aggregate_eligible(
            op, dtype, [syns[r] for syns, pairs in routed for r, c in pairs if c == cell],
            uncovered[cell], default, counts[cell], masked,
        )
        for cell in range(len(counts))
    )
    assert got == want


# ----------------------------------------------------------------------
# The memory contract: one tile's temporaries per reducing thread
# ----------------------------------------------------------------------


@pytest.mark.parametrize("op", ["count_cells", "add_cells", "max_cells"])
def test_an_all_hits_rollup_holds_one_tile(op):
    domain = salescube.SALES_DOMAIN
    db = Database(
        compression=True, buffer_bytes=64 << 20, decoded_cache_bytes=64 << 20, io_workers=2
    )
    obj = db.create_object("cubes", salescube.sales_mdd_type(), "sales")
    obj.load_array(
        salescube.generate_sales_data(),
        salescube.build_schemes()["Dir64K3P"],
        origin=domain.lowest,
    )
    obj.read(domain)  # everything cached
    partitions = salescube.partitions_3p()
    groups = [
        category_intervals(partitions[axis], domain.lowest[axis], domain.highest[axis])
        for axis in range(domain.dim)
    ]
    largest = max(entry.domain.cell_count for entry in obj.tile_entries()) * 4
    _values, timing, pushed = obj.aggregate_push(
        domain, op, predicate=CellPredicate(">", 207), groups=groups
    )
    assert pushed and timing.decoded_hits == timing.tiles_read > 500
    assert 0 < timing.peak_partial_bytes <= largest
    db.close()
