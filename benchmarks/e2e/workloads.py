"""The four workloads: set-up, one entry point per op kind, numpy mirror.

Each workload drives the system only through public entry points, with
the library defaults a user gets (``repro.obs`` enabled; ``wal+fsync`` —
one fsync per commit — wherever the workload writes), and checks every
result against a numpy mirror of the data.  ``execute`` is the only
method the harness times; ``verify`` runs outside the stopwatch.

Why each workload exists is recorded in ``BENCHMARK.json`` and, at
length, in the README next to this file.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional

import numpy as np
from ops import (
    CLASSES,
    DISTRICTS,
    DOMAIN,
    MONTHS,
    W0_BOX,
    W0_QUADRANTS,
    Op,
    OpGenerator,
)

from repro.bench import salescube
from repro.client import Client
from repro.core.geometry import MInterval
from repro.index.zonemap import CellPredicate
from repro.query import rasql
from repro.query.engine import QueryEngine
from repro.serve.server import TileServer
from repro.shard import ShardedDatabase
# Called through the module so the traced run's use-site patches apply.
from repro.storage import catalog
from repro.storage.tilestore import Database

#: Run length the op counts below are calibrated for (seed code, 2 cores):
#: ``--seconds S`` scales every count by ``S / BASE_SECONDS``.
BASE_SECONDS = 15
WARMUP_OPS = 12

MIB = 1 << 20
ORIGIN = DOMAIN.lowest


def _trim(box: MInterval) -> str:
    return "c[" + ",".join(
        f"{lo}:{hi}" for lo, hi in zip(box.lowest, box.highest)
    ) + "]"


def _where(threshold: Optional[int]) -> str:
    return "" if threshold is None else f" where c > {threshold}"


def condenser_statement(op: Op) -> str:
    operand = "c" if op.box is None else _trim(op.box)
    return (
        f"select {op.agg}({operand}) from cubes as c{_where(op.threshold)}"
    )


def _group_spans(partition: str) -> dict[int, list[tuple[int, int]]]:
    spans = {0: MONTHS, 2: DISTRICTS}
    if partition == "3P":
        spans[1] = CLASSES
    return spans


def groupby_statement(op: Op) -> str:
    groups = ", ".join(
        f"dim{axis}(" + ", ".join(f"{lo}:{hi}" for lo, hi in spans) + ")"
        for axis, spans in sorted(_group_spans(op.partition).items())
    )
    return (
        f"select {op.agg}(c) from cubes as c{_where(op.threshold)} "
        f"group by {groups}"
    )


# -- numpy mirror -------------------------------------------------------------


def _masked(block: np.ndarray, threshold: Optional[int]) -> np.ndarray:
    if threshold is None:
        return block
    return np.where(block > threshold, block, 0)


def _condense(agg: str, block: np.ndarray) -> int:
    if agg == "add_cells":
        return int(block.sum(dtype=np.uint64))
    if agg == "max_cells":
        return int(block.max())
    return int(np.count_nonzero(block))


def mirror_aggregate(array: np.ndarray, op: Op) -> int:
    block = array if op.box is None else array[op.box.to_slices(ORIGIN)]
    return _condense(op.agg, _masked(block, op.threshold))


def mirror_groupby(array: np.ndarray, op: Op) -> np.ndarray:
    spans = _group_spans(op.partition)
    per_axis = [
        spans.get(axis, [(DOMAIN.lowest[axis], DOMAIN.highest[axis])])
        for axis in range(DOMAIN.dim)
    ]
    masked = _masked(array, op.threshold)
    out = np.zeros([len(axis_spans) for axis_spans in per_axis])
    for index in np.ndindex(out.shape):
        box = MInterval(
            [per_axis[axis][i][0] for axis, i in enumerate(index)],
            [per_axis[axis][i][1] for axis, i in enumerate(index)],
        )
        out[index] = _condense(op.agg, masked[box.to_slices(ORIGIN)])
    return out


def directory_bytes(directory: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(directory)
        for name in names
    )


# -- workloads ----------------------------------------------------------------


class Workload:
    """Shared shape of a workload; subclasses fill in the entry points."""

    name = ""
    base_ops = 0
    #: Cubes one set-up ingests, and the user bytes it sends through a WAL.
    ingest_cubes = 1
    setup_wal_bytes = 0

    def __init__(self, cube: np.ndarray) -> None:
        self.cube = cube
        #: Expected contents of every object the workload writes to.
        self.mirror: dict[str, np.ndarray] = {}
        #: Invariant violations found outside single-op verification
        #: (304 count, zero-decode condensers, post-recovery equality).
        self.violations: list[str] = []

    def op_count(self, seconds: float) -> int:
        return max(4, round(self.base_ops * seconds / BASE_SECONDS))

    def warmup(self, gen: OpGenerator, count: int) -> list[Op]:
        return self.generate(gen, count)

    def generate(self, gen: OpGenerator, count: int) -> list[Op]:
        raise NotImplementedError

    def setup(self, directory: Path) -> tuple[float, float]:
        """Build, ingest and reopen; returns the (wall, process CPU)
        seconds the cube ingest itself (``load_array``) took."""
        raise NotImplementedError

    def prewarm(self) -> None:
        """Fill the caches the workload is meant to run against (part of
        set-up time, but cache priming, so the traced run skips it)."""

    def counters(self) -> dict[str, float]:
        """Monotonic workload-side counts (``ClientStats``,
        ``ScatterStats``) the traced run takes deltas of."""
        return {}

    def execute(self, op: Op):
        raise NotImplementedError

    def verify(self, op: Op, result) -> bool:
        raise NotImplementedError

    def result_bytes(self, op: Op, result) -> int:
        return result.nbytes if isinstance(result, np.ndarray) else 0

    def finish(self, directory: Path) -> dict[str, float]:
        """After the op stream: workload-level facts (sizes, reopen)."""
        return {}

    def close(self) -> None:
        raise NotImplementedError

    def _load_cube(self, obj, scheme: str) -> tuple[float, float]:
        cpu = time.process_time()
        started = time.perf_counter()
        obj.load_array(
            self.cube, salescube.build_schemes()[scheme], origin=ORIGIN
        )
        return time.perf_counter() - started, time.process_time() - cpu

    def _build_on_disk(self, directory: Path) -> tuple[float, float]:
        """create_database -> load_array (Reg32K) -> save -> close."""
        db = catalog.create_database(directory, compression=True, io_workers=2)
        obj = db.create_object("cubes", salescube.sales_mdd_type(), "sales")
        ingest_s = self._load_cube(obj, "Reg32K")
        catalog.save_database(db, directory)
        db.close()
        db.store.close()
        return ingest_s


class RangeCold(Workload):
    name = "range_cold"
    base_ops = 208

    def generate(self, gen, count):
        return gen.range_cold(count)

    def setup(self, directory):
        ingest_s = self._build_on_disk(directory)
        self.db = catalog.open_database(
            directory, buffer_bytes=MIB, decoded_cache_bytes=0, io_workers=2
        )
        self.obj = self.db.collection("cubes")["sales"]
        return ingest_s

    def execute(self, op):
        return self.obj.read(op.box)[0]

    def verify(self, op, result):
        return np.array_equal(result, self.cube[op.box.to_slices(ORIGIN)])

    def finish(self, directory):
        return {
            "stored_bytes_per_user_byte": (
                directory_bytes(directory) / self.cube.nbytes
            )
        }

    def close(self):
        self.db.close()
        self.db.store.close()


class OlapHot(Workload):
    name = "olap_hot"
    base_ops = 510

    def generate(self, gen, count):
        return gen.olap_hot(count)

    def setup(self, directory):
        self.db = Database(
            compression=True,
            buffer_bytes=64 * MIB,
            decoded_cache_bytes=64 * MIB,
            io_workers=2,
        )
        obj = self.db.create_object(
            "cubes", salescube.sales_mdd_type(), "sales"
        )
        ingest_s = self._load_cube(obj, "Dir64K3P")
        self.engine = QueryEngine(self.db)
        return ingest_s

    def prewarm(self):
        obj = self.db.collection("cubes")["sales"]
        obj.read(obj.current_domain)  # everything fits in both caches

    def execute(self, op):
        if op.kind == "read":
            statement = f"select {_trim(op.box)} from cubes as c"
        elif op.kind == "groupby":
            statement = groupby_statement(op)
        else:
            statement = condenser_statement(op)
        return rasql.execute(self.engine, statement)[0]

    def verify(self, op, result):
        if op.kind == "read":
            return np.array_equal(
                result.value, self.cube[op.box.to_slices(ORIGIN)]
            )
        if op.kind == "groupby":
            return np.array_equal(result.value, mirror_groupby(self.cube, op))
        if op.kind == "fullagg" and result.timing.tiles_read != 0:
            self.violations.append(
                f"full-cube {op.agg} decoded {result.timing.tiles_read} tiles"
            )
        return result.value == mirror_aggregate(self.cube, op)

    def result_bytes(self, op, result):
        return super().result_bytes(op, result.value)

    def close(self):
        self.db.close()


class ServedMixed(Workload):
    name = "served_mixed"
    base_ops = 260
    setup_wal_bytes = W0_BOX.cell_count * 4

    def warmup(self, gen, count):
        return gen.served_warmup(count)

    def generate(self, gen, count):
        return gen.served_mixed(count)

    def setup(self, directory):
        ingest_s = self._build_on_disk(directory)
        self.db = catalog.open_database(
            directory,
            buffer_bytes=64 * MIB,
            decoded_cache_bytes=64 * MIB,
            io_workers=2,
            durability="wal+fsync",
        )
        self.server = TileServer(self.db, port=0).start()
        # <= 2 requests in flight = nproc of the reference box.
        self.client = Client(self.server.url, workers=2)
        w0 = np.zeros(W0_BOX.shape, dtype=np.uint32)
        self.client.write("w", "w0", W0_BOX, w0, tile_kb=16)
        for quadrant in W0_QUADRANTS:
            # Cache an ETag per quadrant, so each later read-back sends
            # If-None-Match and must still be answered 200.
            self.client.read("w", "w0", quadrant, parallel=False)
        self.mirror = {"sales": self.cube, "w0": w0}
        self._not_modified = self.client.stats.not_modified
        self._requests = self.client.stats.requests
        self.read_requests = 0
        return ingest_s

    def prewarm(self):
        obj = self.db.collection("cubes")["sales"]
        obj.read(obj.current_domain)  # storage stays out of the way

    def counters(self):
        if not hasattr(self, "client"):
            return {}  # the set-up window opens before the client exists
        stats = self.client.stats
        return {
            "read_requests": self.read_requests,
            "bytes_received": stats.bytes_received,
            "retries": stats.retries,
        }

    def _collection(self, op):
        return "w" if op.obj == "w0" else "cubes"

    def _origin(self, op):
        return W0_BOX.lowest if op.obj == "w0" else ORIGIN

    def execute(self, op):
        if op.kind == "agg":
            return self.client.query(condenser_statement(op))[0]["value"]
        if op.kind == "write":
            return self.client.write("w", "w0", op.box, op.values)
        return self.client.read(
            self._collection(op), op.obj, op.box, parallel=op.kind == "pread"
        )

    def verify(self, op, result):
        stats = self.client.stats
        answered_304 = stats.not_modified - self._not_modified
        if op.kind in ("read", "pread"):
            self.read_requests += stats.requests - self._requests
        self._not_modified = stats.not_modified
        self._requests = stats.requests
        expect_304 = 1 if op.kind == "revalidate" else 0
        if answered_304 != expect_304:
            self.violations.append(
                f"{op.kind} {op.box}: {answered_304} responses were 304, "
                f"expected {expect_304}"
            )
        if op.kind == "agg":
            return result == mirror_aggregate(self.cube, op)
        if op.kind == "write":
            self.mirror["w0"][op.box.to_slices(W0_BOX.lowest)] = op.values
            return result["written_cells"] == op.box.cell_count
        return np.array_equal(
            result, self.mirror[op.obj][op.box.to_slices(self._origin(op))]
        )

    def close(self):
        self.client.close()
        self.server.stop()
        self.db.close()
        self.db.store.close()


class ShardMixed(Workload):
    name = "shard_mixed"
    base_ops = 340
    ingest_cubes = 2
    setup_wal_bytes = 2 * DOMAIN.cell_count * 4
    _options = dict(
        durability="wal+fsync",
        compression=True,
        io_workers=2,
        buffer_bytes=32 * MIB,
    )

    def generate(self, gen, count):
        return gen.shard_mixed(count)

    def setup(self, directory):
        self.sdb = ShardedDatabase.create(directory, 4, **self._options)
        ingest_s = (0.0, 0.0)
        self.mirror = {}
        for name in ("c0", "c1"):
            obj = self.sdb.create_object(
                "cubes", salescube.sales_mdd_type(), name
            )
            wall, cpu = self._load_cube(obj, "Reg32K")
            ingest_s = (ingest_s[0] + wall, ingest_s[1] + cpu)
            self.mirror[name] = self.cube.copy()
        self.objects = self.sdb.collection("cubes")
        self.shards_hit = 0
        self.scatter_ops = 0
        return ingest_s

    def counters(self):
        return {
            "shards_hit": getattr(self, "shards_hit", 0),
            "scatter_ops": getattr(self, "scatter_ops", 0),
        }

    def execute(self, op):
        obj = self.objects[op.obj]
        if op.kind == "read":
            return obj.read(op.box)[0]
        if op.kind == "agg":
            return obj.aggregate_push(
                op.box, op.agg, predicate=CellPredicate(">", op.threshold)
            )[0]
        return obj.update(op.box, op.values)

    def verify(self, op, result):
        mirror = self.mirror[op.obj]
        if op.kind == "update":
            mirror[op.box.to_slices(ORIGIN)] = op.values
            return result == op.box.cell_count
        self.shards_hit += self.objects[op.obj].last_scatter.shards_hit
        self.scatter_ops += 1
        if op.kind == "agg":
            return result == mirror_aggregate(mirror, op)
        return np.array_equal(result, mirror[op.box.to_slices(ORIGIN)])

    def finish(self, directory):
        """Abandon the handle without a checkpoint, reopen (recovery
        replays the log), and demand every acknowledged write back."""
        stored = directory_bytes(directory)
        abandoned = self.sdb
        started = time.perf_counter()
        self.sdb = ShardedDatabase.open(directory, **self._options)
        self.objects = self.sdb.collection("cubes")
        first = self.objects["c0"].read(DOMAIN)[0]
        reopen_s = time.perf_counter() - started
        second = self.objects["c1"].read(DOMAIN)[0]
        for name, array in (("c0", first), ("c1", second)):
            if not np.array_equal(array, self.mirror[name]):
                self.violations.append(
                    f"{name} differs from the mirror after recovery"
                )
        abandoned.close()
        return {
            "reopen_s": reopen_s,
            "stored_bytes_per_user_byte": (
                stored / (len(self.mirror) * self.cube.nbytes)
            ),
        }

    def close(self):
        self.sdb.close()
        for shard in self.sdb.shards:
            shard.store.close()


WORKLOADS = {
    cls.name: cls for cls in (RangeCold, OlapHot, ServedMixed, ShardMixed)
}
