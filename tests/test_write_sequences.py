"""The write half of the model-based oracle.

Random sequences of writes run side by side on a :class:`Database`, on a
:class:`ShardedDatabase` at 1, 2 and 4 shards, and on a numpy mirror (a
dense array, the stored tile boxes and the current domain).  The steps
are ``write_tiles``, ``load_array`` with and without
``skip_default_tiles``, ``update``, ``delete_region`` and a batch that
must be rejected (an overlap, or a tile of the wrong dtype).  After
every step:

* a read of the current domain equals the mirror bitwise everywhere;
* every current domain equals the mirror's;
* the same bad input raised the same exception type everywhere (the
  type the mirror predicts), and left the state as it was;
* every ``CHARGE_FIELDS`` entry of that read is equal between the store
  and 1 shard.
"""

import sys
from pathlib import Path
from typing import Optional

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.errors import DomainError, StorageError
from repro.core.geometry import MInterval
from repro.core.mdd import Tile
from repro.core.mddtype import mdd_type
from repro.shard import ShardedDatabase
from repro.storage.tilestore import Database
from repro.tiling.aligned import RegularTiling

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from check_regression import CHARGE_FIELDS  # noqa: E402

DOMAIN = MInterval.parse("[0:47,0:47]")
CUBE = mdd_type("OracleCube", "long", str(DOMAIN))
ORIGIN = DOMAIN.lowest
BLOCK = 8
BLOCKS = DOMAIN.shape[0] // BLOCK
#: One 8 x 8 or one 16 x 16 int32 tile per cut.
TILINGS = (RegularTiling(4 * 8 * 8), RegularTiling(4 * 16 * 16))


def blocks(lo: int, span: int) -> st.SearchStrategy:
    """A box of whole blocks: its lowest block and its extent in blocks."""
    return st.tuples(
        st.integers(0, BLOCKS - 1), st.integers(0, BLOCKS - 1),
        st.integers(lo, span), st.integers(lo, span),
    ).map(
        lambda b: MInterval.from_shape(
            (BLOCK * min(b[2], BLOCKS - b[0]), BLOCK * min(b[3], BLOCKS - b[1])),
            (BLOCK * b[0], BLOCK * b[1]),
        )
    )


@st.composite
def regions(draw) -> MInterval:
    """Any box inside the definition domain, block-aligned or not."""
    lo = [draw(st.integers(0, 47)), draw(st.integers(0, 47))]
    return MInterval(lo, [draw(st.integers(x, min(x + 24, 47))) for x in lo])


def cells(region: MInterval, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(1, 100, size=region.shape).astype(np.int32)


class Mirror:
    """What every system must hold: cells, stored tile boxes, domain."""

    def __init__(self) -> None:
        self.array = np.zeros(DOMAIN.shape, dtype=np.int32)
        self.tiles: list[MInterval] = []
        self.domain: Optional[MInterval] = None

    def admits(self, boxes: list) -> bool:
        for at, box in enumerate(boxes):
            if any(box.intersects(other) for other in self.tiles + boxes[:at]):
                return False
        return True

    def store(self, boxes: list, data: list, region: Optional[MInterval] = None) -> None:
        for box, values in zip(boxes, data):
            self.array[box.to_slices(ORIGIN)] = values
        self.tiles += boxes
        for box in boxes + ([region] if region is not None else []):
            self.domain = box if self.domain is None else self.domain.hull(box)

    def update(self, region: MInterval, values: np.ndarray) -> int:
        covered = 0
        for box in self.tiles:
            part = box.intersection(region)
            if part is not None:
                self.array[part.to_slices(ORIGIN)] = values[part.to_slices(region.lowest)]
                covered += part.cell_count
        return covered

    def delete(self, region: MInterval) -> int:
        victims = [box for box in self.tiles if region.contains(box)]
        if victims:
            for box in victims:
                self.array[box.to_slices(ORIGIN)] = 0
            self.tiles = [box for box in self.tiles if box not in victims]
            self.domain = MInterval.hull_of(self.tiles) if self.tiles else None
        return len(victims)


class WriteSequences(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.mirror = Mirror()
        self.systems = {"store": Database()} | {
            f"{n} shards": ShardedDatabase(n) for n in (1, 2, 4)
        }
        self.objects = {
            name: system.create_object("c", CUBE, "o") for name, system in self.systems.items()
        }

    def run(self, write, expected):
        """Apply ``write(obj)`` everywhere: each system returns what the
        mirror predicts or raises the exception type it predicts."""
        for name, obj in self.objects.items():
            try:
                outcome = write(obj)
            except (DomainError, StorageError) as error:
                outcome = type(error)
            assert outcome == expected, (name, outcome, expected)

    @rule(boxes=st.lists(blocks(1, 2), min_size=1, max_size=4), seed=st.integers(0, 999))
    def write_tiles(self, boxes, seed):
        data = [cells(box, seed + at) for at, box in enumerate(boxes)]
        expected = DomainError
        if self.mirror.admits(boxes):
            self.mirror.store(boxes, data)
            expected = len(boxes)
        self.run(lambda obj: len(obj.write_tiles([Tile(b, d) for b, d in zip(boxes, data)])), expected)

    @rule(region=blocks(1, 3), tiling=st.sampled_from(TILINGS), skip=st.booleans(),
          blank=st.tuples(st.integers(0, 16), st.integers(0, 16)), seed=st.integers(0, 999))
    def load_array(self, region, tiling, skip, blank, seed):
        """``blank`` leading rows and trailing columns hold only the
        default: skipping them leaves a load whose tiles' hull falls
        short of the loaded region."""
        array = cells(region, seed)
        array[: blank[0]] = 0
        array[:, array.shape[1] - blank[1] :] = 0
        boxes = [
            box for box in tiling.tile(region, CUBE.cell_size).tiles
            if not (skip and not array[box.to_slices(region.lowest)].any())
        ]
        if not boxes:
            expected = StorageError
        elif not self.mirror.admits(boxes):
            expected = DomainError
        else:
            data = [array[box.to_slices(region.lowest)] for box in boxes]
            self.mirror.store(boxes, data, region)
            expected = len(boxes)
        self.run(
            lambda obj: obj.load_array(array, tiling, region.lowest, skip_default_tiles=skip).tile_count,
            expected,
        )

    @rule(region=regions(), seed=st.integers(0, 999))
    def update(self, region, seed):
        values = cells(region, seed)
        self.run(lambda obj: obj.update(region, values), self.mirror.update(region, values))

    @rule(region=st.one_of(regions(), blocks(2, 4)))
    def delete_region(self, region):
        self.run(lambda obj: obj.delete_region(region), self.mirror.delete(region))

    @rule(box=blocks(1, 1), wrong_dtype=st.booleans(), seed=st.integers(0, 999))
    def rejected_batch(self, box, wrong_dtype, seed):
        """A wrong-dtype tile, or a tile overlapping a stored tile (or,
        with none stored, the batch's other tile)."""
        data = cells(box, seed)
        batch = [Tile(box, data.astype(np.float64) if wrong_dtype else data)]
        if not wrong_dtype:
            stored = self.mirror.tiles[0] if self.mirror.tiles else box
            batch.append(Tile(stored, cells(stored, seed + 1)))
        self.run(lambda obj: obj.write_tiles(batch), DomainError)

    @invariant()
    def every_system_holds_the_mirror(self):
        domain = self.mirror.domain
        timings = {}
        for name, obj in self.objects.items():
            assert obj.current_domain == domain, name
            if domain is None:
                continue
            self.systems[name].reset_clock()
            got, timings[name] = obj.read(domain)
            assert got.tobytes() == self.mirror.array[domain.to_slices(ORIGIN)].tobytes(), name
        if domain is not None:
            for field in CHARGE_FIELDS:
                assert getattr(timings["store"], field) == getattr(timings["1 shards"], field), field

    def teardown(self) -> None:
        for system in self.systems.values():
            system.close()


WriteSequences.TestCase.settings = settings(max_examples=25, stateful_step_count=8, deadline=None)
TestWriteSequences = WriteSequences.TestCase
