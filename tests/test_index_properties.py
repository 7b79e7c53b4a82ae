"""Property-based tests: the R+-tree always agrees with brute force."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import MInterval
from repro.index.base import IndexEntry
from repro.index.rplustree import RPlusTreeIndex


@st.composite
def disjoint_boxes_1d(draw):
    """Disjoint 1-D intervals built from a sorted list of breakpoints."""
    points = draw(
        st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=2,
            max_size=60,
            unique=True,
        )
    )
    points.sort()
    boxes = []
    for i in range(0, len(points) - 1, 2):
        boxes.append(MInterval([points[i]], [points[i + 1] - 1 if points[i + 1] - 1 >= points[i] else points[i]]))
    return boxes


@st.composite
def grid_boxes_2d(draw):
    """Disjoint 2-D boxes on a coarse grid (possibly with gaps)."""
    cells = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=1,
            max_size=40,
        )
    )
    boxes = []
    for gx, gy in sorted(cells):
        boxes.append(MInterval([gx * 10, gy * 10], [gx * 10 + 9, gy * 10 + 9]))
    return boxes


@st.composite
def queries_2d(draw):
    x0 = draw(st.integers(min_value=0, max_value=79))
    y0 = draw(st.integers(min_value=0, max_value=79))
    x1 = draw(st.integers(min_value=x0, max_value=79))
    y1 = draw(st.integers(min_value=y0, max_value=79))
    return MInterval([x0, y0], [x1, y1])


@given(grid_boxes_2d(), queries_2d(), st.integers(min_value=2, max_value=10))
@settings(max_examples=80, deadline=None)
def test_incremental_search_matches_brute_force(boxes, query, capacity):
    entries = [IndexEntry(box, i) for i, box in enumerate(boxes)]
    index = RPlusTreeIndex(dim=2, max_entries=capacity)
    for entry in entries:
        index.insert(entry)
    got = {e.tile_id for e in index.search(query).entries}
    want = {e.tile_id for e in entries if e.domain.intersects(query)}
    assert got == want


@given(disjoint_boxes_1d(), st.integers(min_value=0, max_value=500))
@settings(max_examples=80, deadline=None)
def test_point_queries_1d(boxes, coordinate):
    entries = [IndexEntry(box, i) for i, box in enumerate(boxes)]
    index = RPlusTreeIndex(dim=1, max_entries=4)
    for entry in entries:
        index.insert(entry)
    point = MInterval([coordinate], [coordinate])
    got = {e.tile_id for e in index.search(point).entries}
    want = {e.tile_id for e in entries if e.domain.contains_point((coordinate,))}
    assert got == want


@given(grid_boxes_2d())
@settings(max_examples=40, deadline=None)
def test_entry_count_preserved(boxes):
    entries = [IndexEntry(box, i) for i, box in enumerate(boxes)]
    index = RPlusTreeIndex(dim=2, max_entries=4)
    for entry in entries:
        index.insert(entry)
    assert len(index) == len(entries)
    assert len(list(index.entries())) == len(entries)
