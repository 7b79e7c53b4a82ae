"""Seeded op generator: the only place the benchmark seed is consumed.

Every workload draws its boxes from one generator — the Table 3 query
shapes ``a``-``i`` of the paper's sales cube, placed at random
month / product-class / district positions — and turns them into a
fixed, stratified list of :class:`Op` records.  The program under test
only ever sees these ops, never the seed or the workload name.

Stratification is what keeps a metric comparable across seeds: how many
ops of each kind and boxes of each shape a list holds follows from its
length alone, and category positions are dealt from shuffled decks, so two
seeds run the same *mix* in a different order and at different places.
Only the order and the exact boxes depend on the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.bench import salescube
from repro.core.geometry import MInterval
from repro.tiling.directional import category_intervals

DOMAIN = salescube.SALES_DOMAIN
_PARTITIONS = salescube.partitions_3p()
MONTHS, CLASSES, DISTRICTS = (
    category_intervals(
        _PARTITIONS[axis], DOMAIN.lowest[axis], DOMAIN.highest[axis]
    )
    for axis in range(DOMAIN.dim)
)

#: Table 3 shapes: (consecutive months or None = all days,
#: one product class?, one district?).
SHAPES = {
    "a": (1, True, True),
    "b": (1, False, True),
    "c": (1, True, False),
    "d": (None, True, True),
    "e": (1, False, False),
    "f": (None, False, True),
    "g": (None, True, False),
    "h": (6, False, False),
    "i": (12, False, False),
}

#: How often each shape is dealt per 52 boxes.  Small results are asked
#: for more often than large ones (roughly result volume ** -1/3): with
#: equal weights the 8.8 MB shape ``i`` alone is half of all read time,
#: and the 200 reads a p95 needs would not fit the run-time cap.
SHAPE_WEIGHTS = {
    "a": 10, "b": 9, "c": 8, "d": 7, "e": 6, "f": 5, "g": 3, "h": 3, "i": 1,
}

#: Reg32K tile edge lengths on the sales cube (90 x 7 x 13 cells = 32 KB),
#: used to aim parallel reads and updates at a known number of tiles.
REG32K_TILE = (90, 7, 13)

#: Tile-grid blocks a parallel read covers: 4 to 16 tiles.
PREAD_BLOCKS = (
    (2, 2, 1), (2, 1, 2), (1, 2, 2), (3, 2, 1), (2, 2, 2),
    (1, 3, 3), (3, 2, 2), (2, 2, 4), (4, 2, 2),
)
#: Tile-grid blocks an update touches: 1, 2 or 4 tiles.
UPDATE_BLOCKS = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (1, 2, 2))

CONDENSERS = ("add_cells", "max_cells", "count_cells")

#: The served workload's small write object and the boxes written to it.
W0_BOX = MInterval.parse("[0:127,0:127]")
W0_QUADRANTS = tuple(
    MInterval.parse(text)
    for text in ("[0:63,0:63]", "[0:63,64:127]", "[64:127,0:63]", "[64:127,64:127]")
)


@dataclass(frozen=True)
class Op:
    """One generated request.  ``kind`` selects the entry point:

    ``read`` (range read), ``pread`` (parallel tile-plan read),
    ``revalidate`` (repeat of an earlier box, must answer 304),
    ``agg`` (predicated condenser), ``fullagg`` (unpredicated full-cube
    condenser, must decode zero tiles), ``groupby`` (roll-up),
    ``write`` / ``readback`` (served write and its verification read),
    ``update`` (sharded read-modify-write).
    """

    kind: str
    obj: str = "sales"
    box: Optional[MInterval] = None
    agg: str = ""
    threshold: Optional[int] = None
    partition: str = ""
    values: Optional[np.ndarray] = None

    def key(self) -> str:
        """Stable text form (values by digest), for op-list hashing."""
        digest = (
            hashlib.sha256(self.values.tobytes()).hexdigest()[:12]
            if self.values is not None
            else "-"
        )
        return (
            f"{self.kind}|{self.obj}|{self.box}|{self.agg}|"
            f"{self.threshold}|{self.partition}|{digest}"
        )


def op_list_hash(ops: Sequence[Op]) -> str:
    """Digest of an op list: equal for one seed, different across seeds."""
    sha = hashlib.sha256()
    for op in ops:
        sha.update(op.key().encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


class Deck:
    """Deals options from a shuffled cycle, reshuffling when exhausted,
    so every option comes up equally often whatever the seed."""

    def __init__(self, rng: np.random.Generator, options: Sequence) -> None:
        self._rng = rng
        self._options = list(options)
        self._hand: list = []

    def draw(self):
        if not self._hand:
            order = self._rng.permutation(len(self._options))
            self._hand = [self._options[i] for i in order]
        return self._hand.pop()


def _apportion(total: int, weights: dict) -> dict:
    """Split ``total`` in proportion to ``weights`` (largest remainder):
    the counts sum to ``total`` and do not depend on any seed."""
    scale = total / sum(weights.values())
    exact = {option: weight * scale for option, weight in weights.items()}
    counts = {option: int(value) for option, value in exact.items()}
    by_remainder = sorted(weights, key=lambda option: counts[option] - exact[option])
    for option in by_remainder[: total - sum(counts.values())]:
        counts[option] += 1
    return counts


class BoxGenerator:
    """Table 3 shapes at seeded category positions."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._position: dict[tuple[str, int], Deck] = {}
        self._seen: set[str] = set()

    def _deck(self, shape: str, axis: int, count: int) -> Deck:
        key = (shape, axis)
        if key not in self._position:
            self._position[key] = Deck(self.rng, range(count))
        return self._position[key]

    def category_box(self, shape: str) -> MInterval:
        """One shape at a category-aligned position."""
        months, one_class, one_district = SHAPES[shape]
        low = list(DOMAIN.lowest)
        high = list(DOMAIN.highest)
        if months is not None:
            first = self._deck(shape, 0, len(MONTHS) - months + 1).draw()
            low[0], high[0] = MONTHS[first][0], MONTHS[first + months - 1][1]
        if one_class:
            low[1], high[1] = CLASSES[self._deck(shape, 1, len(CLASSES)).draw()]
        if one_district:
            low[2], high[2] = DISTRICTS[
                self._deck(shape, 2, len(DISTRICTS)).draw()
            ]
        return MInterval(low, high)

    def fresh_box(self, shape: str) -> MInterval:
        """A category box with every bound nudged by up to 2 cells —
        aligned with neither categories nor tiles — that this generator
        has not produced before."""
        while True:
            box = self.category_box(shape)
            low = []
            high = []
            for axis in range(box.dim):
                lo = box.lowest[axis] + int(self.rng.integers(-2, 3))
                hi = box.highest[axis] + int(self.rng.integers(-2, 3))
                lo = max(DOMAIN.lowest[axis], lo)
                hi = min(DOMAIN.highest[axis], max(hi, lo))
                low.append(lo)
                high.append(hi)
            nudged = MInterval(low, high)
            if str(nudged) not in self._seen:
                self._seen.add(str(nudged))
                return nudged

    def tile_block(self, block: tuple[int, int, int]) -> MInterval:
        """A box reaching 2-4 cells into each tile of a ``block``-shaped
        group of neighbouring Reg32K tiles, not produced before."""
        while True:
            low = []
            high = []
            for axis, tiles in enumerate(block):
                edge = REG32K_TILE[axis]
                origin = DOMAIN.lowest[axis]
                grid = -(-DOMAIN.shape[axis] // edge)
                first = int(self.rng.integers(0, grid - tiles + 1))
                margin = int(self.rng.integers(2, 5))
                if tiles == 1:
                    lo = origin + first * edge
                    hi = lo + margin
                else:
                    lo = origin + (first + 1) * edge - margin
                    hi = origin + (first + tiles - 1) * edge + margin - 1
                low.append(lo)
                high.append(min(hi, DOMAIN.highest[axis]))
            box = MInterval(low, high)
            if str(box) not in self._seen:
                self._seen.add(str(box))
                return box


def _thresholds(cube: np.ndarray) -> tuple[int, int, int]:
    """Cell values above which ~25 %, ~1 % and ~0.1 % of cells lie."""
    q25, q1, q01 = np.percentile(cube, [75.0, 99.0, 99.9])
    return int(q25), int(q1), int(q01)


class OpGenerator:
    """Builds one workload's op lists from a seed.

    Every list is dealt exactly: how many ops of each kind, boxes of each
    shape, condensers, selectivities and partitions it holds follows from
    its length alone (:func:`_apportion`); the seed decides their order
    and the positions of the boxes.  ``cube`` is only read for its value
    quantiles (predicate thresholds at fixed selectivities) and its value
    range (update payloads).
    """

    def __init__(self, seed: int, cube: np.ndarray) -> None:
        self.rng = np.random.default_rng(seed)
        self.boxes = BoxGenerator(self.rng)
        self._thresholds = _thresholds(cube)
        self._value_cap = int(np.percentile(cube, 99.0)) + 1
        self._served_boxes: list[MInterval] = []

    def _deal(self, count: int, weights) -> Iterator:
        """``count`` options in seeded order, each as often as its weight
        says (a sequence of options means equal weights)."""
        if not isinstance(weights, dict):
            weights = {option: 1 for option in weights}
        counts = _apportion(count, weights)
        dealt = [option for option, n in counts.items() for _ in range(n)]
        return iter([dealt[i] for i in self.rng.permutation(len(dealt))])

    def _condensers(self, count: int, predicated: bool = True) -> Iterator[dict]:
        """``agg`` / ``threshold`` fields of ``count`` condenser ops: the
        threshold lies within 10 % of one of the three selectivity points,
        so statements rarely repeat verbatim."""
        condensers = self._deal(count, CONDENSERS)
        bases = self._deal(count, self._thresholds)
        for condenser, base in zip(condensers, bases):
            threshold = int(base * (0.9 + 0.2 * self.rng.random()))
            yield {
                "agg": condenser,
                "threshold": threshold if predicated else None,
            }

    def _values(self, box: MInterval) -> np.ndarray:
        return self.rng.integers(
            0, self._value_cap, size=box.shape, dtype=np.uint32
        )

    # -- the four workloads ---------------------------------------------

    def range_cold(self, count: int) -> list[Op]:
        return [
            Op("read", box=self.boxes.category_box(shape))
            for shape in self._deal(count, SHAPE_WEIGHTS)
        ]

    def olap_hot(self, count: int) -> list[Op]:
        kinds = list(self._deal(
            count, {"read": 40, "agg": 36, "fullagg": 4, "groupby": 20}
        ))
        read_shapes = self._deal(kinds.count("read"), SHAPE_WEIGHTS)
        agg_shapes = self._deal(kinds.count("agg"), SHAPE_WEIGHTS)
        aggs = self._condensers(kinds.count("agg"))
        full = self._condensers(kinds.count("fullagg"), predicated=False)
        rollups = self._condensers(kinds.count("groupby"))
        rollup_forms = self._deal(
            kinds.count("groupby"),
            [("2P", True), ("2P", False), ("3P", True), ("3P", False)],
        )
        ops = []
        for kind in kinds:
            if kind == "read":
                box = self.boxes.category_box(next(read_shapes))
                ops.append(Op("read", box=box))
            elif kind == "agg":
                box = self.boxes.fresh_box(next(agg_shapes))
                ops.append(Op("agg", box=box, **next(aggs)))
            elif kind == "fullagg":
                ops.append(Op("fullagg", **next(full)))
            else:
                partition, predicated = next(rollup_forms)
                fields = next(rollups)
                if not predicated:
                    fields["threshold"] = None
                ops.append(Op("groupby", partition=partition, **fields))
        return ops

    def _served_read(self, shape: str) -> Op:
        box = self.boxes.fresh_box(shape)
        self._served_boxes.append(box)
        return Op("read", box=box)

    def served_warmup(self, count: int) -> list[Op]:
        return [
            self._served_read(shape)
            for shape in self._deal(count, SHAPE_WEIGHTS)
        ]

    def served_mixed(self, count: int) -> list[Op]:
        """Needs :meth:`served_warmup` first: a revalidation repeats a
        box some earlier serial read of this generator fetched."""
        kinds = list(self._deal(
            count,
            {"read": 43, "pread": 15, "revalidate": 24, "agg": 10, "write": 8},
        ))
        read_shapes = self._deal(kinds.count("read"), SHAPE_WEIGHTS)
        agg_shapes = self._deal(kinds.count("agg"), SHAPE_WEIGHTS)
        aggs = self._condensers(kinds.count("agg"))
        blocks = self._deal(kinds.count("pread"), PREAD_BLOCKS)
        quadrants = self._deal(kinds.count("write"), W0_QUADRANTS)
        ops = []
        for kind in kinds:
            if kind == "read":
                ops.append(self._served_read(next(read_shapes)))
            elif kind == "pread":
                ops.append(Op("pread", box=self.boxes.tile_block(next(blocks))))
            elif kind == "revalidate":
                earlier = self._served_boxes[
                    int(self.rng.integers(0, len(self._served_boxes)))
                ]
                ops.append(Op("revalidate", box=earlier))
            elif kind == "agg":
                box = self.boxes.fresh_box(next(agg_shapes))
                ops.append(Op("agg", box=box, **next(aggs)))
            else:
                box = next(quadrants)
                ops.append(
                    Op("write", obj="w0", box=box, values=self._values(box))
                )
                ops.append(Op("readback", obj="w0", box=box))
        return ops

    def shard_mixed(self, count: int) -> list[Op]:
        kinds = list(self._deal(count, {"read": 60, "agg": 20, "update": 20}))
        read_shapes = self._deal(kinds.count("read"), SHAPE_WEIGHTS)
        agg_shapes = self._deal(kinds.count("agg"), SHAPE_WEIGHTS)
        aggs = self._condensers(kinds.count("agg"))
        blocks = self._deal(kinds.count("update"), UPDATE_BLOCKS)
        targets = {
            kind: self._deal(kinds.count(kind), ("c0", "c1"))
            for kind in ("read", "agg", "update")
        }
        ops = []
        for kind in kinds:
            obj = next(targets[kind])
            if kind == "read":
                box = self.boxes.category_box(next(read_shapes))
                ops.append(Op("read", obj=obj, box=box))
            elif kind == "agg":
                box = self.boxes.fresh_box(next(agg_shapes))
                ops.append(Op("agg", obj=obj, box=box, **next(aggs)))
            else:
                box = self.boxes.tile_block(next(blocks))
                ops.append(
                    Op("update", obj=obj, box=box, values=self._values(box))
                )
        return ops
