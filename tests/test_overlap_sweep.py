"""The overlap sweep against the all-pairs loops it replaced.

:func:`repro.core.geometry.overlapping_pairs` must return exactly the
pairs :mod:`tests.overlap_oracle` finds, so ``pairwise_disjoint`` and
``covers_exactly`` keep their verdicts and ``fsck`` its ``tile-overlap``
findings, in their order — over 1-4-d boxes with open bounds, faces that
touch without overlapping, duplicates, nesting, one axis shared by every
box, and empty and single-box lists.  A Dir64K3P load no longer pays an
``intersects`` call per pair of tiles.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import salescube
from repro.core.errors import DimensionMismatchError
from repro.core.geometry import (
    MInterval,
    covers_exactly,
    overlapping_pairs,
    pack_bounds,
    pairwise_disjoint,
)
from repro.storage.fsck import FsckReport, _check_objects
from repro.storage.tilestore import Database
from tests import overlap_oracle


@st.composite
def box_lists(draw, open_bounds: bool = True) -> list:
    """Boxes on a 0-9 lattice: small enough that touching faces,
    duplicates and nesting come up often; each is also drawn on purpose."""
    dim = draw(st.integers(1, 4))
    shared = draw(st.booleans())  # every box spans the same axis-0 range
    axis0 = sorted(draw(st.lists(st.integers(0, 9), min_size=2, max_size=2)))

    def bound(value):
        return None if open_bounds and draw(st.integers(0, 7)) == 0 else value

    boxes = []
    for _ in range(draw(st.integers(0, 9))):
        lo, hi = [], []
        for axis in range(dim):
            a, b = (
                axis0 if shared and axis == 0
                else sorted(draw(st.lists(st.integers(0, 9), min_size=2, max_size=2)))
            )
            lo.append(bound(a))
            hi.append(bound(b))
        boxes.append(MInterval(lo, hi))
    for _ in range(draw(st.integers(0, 3))):
        if not boxes:
            break
        base = draw(st.sampled_from(boxes))
        kind = draw(st.sampled_from(["duplicate", "nested", "touching"]))
        if kind == "duplicate":
            boxes.append(base)
        elif base.is_bounded:
            axis = draw(st.integers(0, dim - 1))
            lo, hi = list(base.lower), list(base.upper)
            if kind == "nested":
                lo[axis] = hi[axis]
            else:  # the next box starts one past this one's face
                lo[axis] = hi[axis] = hi[axis] + 1
            boxes.append(MInterval(lo, hi))
    draw(st.randoms()).shuffle(boxes)
    return boxes


def outcome(fn, *args):
    """A verdict or the type of the exception raised instead."""
    try:
        return fn(*args)
    except Exception as exc:  # the oracle and the sweep must raise alike
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(box_lists(), st.integers(1, 6))
def test_the_sweep_finds_exactly_the_oracle_pairs(boxes, chunk):
    dim = boxes[0].dim if boxes else 1
    pairs = overlapping_pairs(pack_bounds(boxes, dim), chunk=chunk)
    assert [tuple(p) for p in pairs.tolist()] == overlap_oracle.pairs(boxes)
    assert pairwise_disjoint(boxes) == overlap_oracle.pairwise_disjoint(boxes)


@settings(max_examples=300, deadline=None)
@given(box_lists(), st.data())
def test_covers_exactly_keeps_its_verdicts(boxes, data):
    dim = boxes[0].dim if boxes else data.draw(st.integers(1, 4))
    lo = data.draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim))
    hi = data.draw(st.lists(st.integers(6, 10), min_size=dim, max_size=dim))
    candidates = [MInterval(lo, hi)] + ([MInterval.hull_of(boxes)] if boxes else [])
    for whole in candidates:
        assert outcome(covers_exactly, boxes, whole) == outcome(
            overlap_oracle.covers_exactly, boxes, whole
        )


def test_a_partition_and_its_touching_faces_are_disjoint():
    whole = MInterval.parse("[0:9,0:9,0:3]")
    parts = [
        MInterval.parse(text)
        for text in ("[0:4,0:9,0:3]", "[5:9,0:4,0:3]", "[5:9,5:9,0:1]", "[5:9,5:9,2:3]")
    ]
    assert covers_exactly(parts, whole) and overlap_oracle.covers_exactly(parts, whole)
    assert not covers_exactly(parts + [MInterval.parse("[4:5,4:5,1:2]")], whole)
    assert overlapping_pairs(pack_bounds([], 2)).shape == (0, 2)
    assert pairwise_disjoint([]) and pairwise_disjoint([whole])


@settings(max_examples=150, deadline=None)
@given(box_lists(open_bounds=False))
def test_fsck_reports_the_oracle_overlaps_in_order(boxes):
    if not boxes:
        return
    dim = boxes[0].dim
    definition = MInterval([0] * dim, [20] * dim)
    catalog = {
        "collections": {
            "c": [
                {
                    "obj": "o",
                    "type": {"name": "T", "base": "char", "dd": str(definition)},
                    "next_tile_id": len(boxes),
                    "domain": None,
                    "tiles": [
                        {"tile_id": tile_id, "domain": str(domain), "blob": 0, "codec": "zlib"}
                        for tile_id, domain in enumerate(boxes)
                    ],
                }
            ]
        }
    }
    report = FsckReport()
    _check_objects(report, catalog, _EveryBlob(), deep=False)
    found = [i.message for i in report.issues if i.code == "tile-overlap"]
    assert found == [
        f"c/o tiles {i} and {j} overlap ({boxes[i]} vs {boxes[j]})"
        for i, j in overlap_oracle.fsck_pairs(boxes)
    ]


class _EveryBlob:
    """A blob store holding every blob a tile names (``zlib`` tiles are
    not size-checked, so the records' sizes do not matter)."""

    def __contains__(self, blob_id) -> bool:
        return True

    def record(self, blob_id) -> SimpleNamespace:
        return SimpleNamespace(byte_size=0)


def test_a_dir64k3p_load_calls_intersects_at_most_four_times_per_tile(monkeypatch):
    calls = []
    intersects = MInterval.intersects

    def counted(self, other):
        calls.append(1)
        return intersects(self, other)

    db = Database(compression=True)
    obj = db.create_object("cubes", salescube.sales_mdd_type(), "sales")
    monkeypatch.setattr(MInterval, "intersects", counted)
    obj.load_array(
        salescube.generate_sales_data(),
        salescube.build_schemes()["Dir64K3P"],
        origin=salescube.SALES_DOMAIN.lowest,
    )
    assert obj.tile_count == 744
    assert len(calls) <= 4 * obj.tile_count, len(calls)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_mixed_dimensions_are_refused(dim):
    with pytest.raises(DimensionMismatchError):
        pack_bounds([MInterval([0] * dim, [1] * dim), MInterval([0] * 4, [1] * 4)], dim)
