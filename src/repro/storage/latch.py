"""Ordered latches: deadlock-free locking for the concurrent storage stack.

Every shared mutable structure in the storage layer (writer state, WAL
buffer, epoch table, buffer pool, simulated disk, BLOB store, decoded
cache) is protected by an :class:`OrderedLatch` carrying a **rank**.  A
thread may only acquire a latch whose rank is strictly greater than the
highest rank it already holds, which makes the latch graph acyclic and
deadlock impossible by construction.  The order is *asserted at runtime*
— a violating acquisition raises :class:`~repro.core.errors.StorageError`
immediately instead of deadlocking some unlucky future schedule.

The documented total order (DESIGN §11):

=====  ==================  ================================================
rank   latch               protects
=====  ==================  ================================================
10     ``txn.writer``      the single-writer mutation phase of a Database
20     ``wal.append``      the WAL record buffer and log-file appends
25     ``wal.sync``        the group-commit door (leader election state)
30     ``mvcc.epoch``      version publication, epoch pins, limbo list
45     ``pool``            buffer-pool LRU table and byte accounting
50     ``disk``            simulated-disk head position and counters
60     ``store``           BLOB catalog, allocator, pending queue, backend
70     ``cache.decoded``   decoded-tile LRU table and byte accounting
=====  ==================  ================================================

The one *call-graph* subtlety the ranks encode: ``BufferPool.read_blobs``
(rank 45) charges a chunk's misses with ``SimulatedDisk.charge_reads``
(rank 50) and reads an evicted blob with ``BlobStore.get`` (rank 60)
inside its hold — so pool < disk < store; the disk never takes the store.

Deterministic scheduling hook
-----------------------------

The concurrency test harness (``tests/concurrency``) needs to *drive*
interleavings rather than sample them.  :func:`set_schedule_hook`
installs a callback invoked at every latch acquisition (and at a few
hand-placed :func:`schedule_point` sites); the harness parks the calling
thread there until a seeded scheduler grants it the next step.  With the
hook installed, latch acquisition spins through ``acquire(blocking=False)``
and yields to the scheduler between attempts, so a thread blocked on a
latch never stalls the virtual schedule.  Without a hook (production),
the fast path is one ``None`` check.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro import obs
from repro.core.errors import StorageError

__all__ = [
    "LATCH_RANKS",
    "OrderedLatch",
    "clear_schedule_hook",
    "held_ranks",
    "schedule_point",
    "set_schedule_hook",
]

#: The documented total latch order (name -> rank), for reference and
#: for DESIGN §11.  Constructing an OrderedLatch with a name in this
#: table and a *different* rank is an error — the doc must never drift
#: from the code.
LATCH_RANKS: dict[str, int] = {
    "txn.writer": 10,
    "wal.append": 20,
    "wal.sync": 25,
    "mvcc.epoch": 30,
    "pool": 45,
    "disk": 50,
    "store": 60,
    "cache.decoded": 70,
}

_ACQUIRES = obs.counter("latch.acquires", "Ordered-latch acquisitions")
_WAITS = obs.counter("latch.waits", "Latch acquisitions that had to wait")
_WAIT_MS = obs.histogram(
    "latch.wait_ms", "Milliseconds spent waiting for contended latches"
)

_schedule_hook: Optional[Callable[[str], None]] = None


def set_schedule_hook(hook: Callable[[str], None]) -> None:
    """Install the deterministic-scheduler callback (test harness only)."""
    global _schedule_hook
    _schedule_hook = hook


def clear_schedule_hook() -> None:
    """Remove the scheduler callback (restores production behaviour)."""
    global _schedule_hook
    _schedule_hook = None


def schedule_point(label: str) -> bool:
    """Yield to the virtual scheduler, if one is installed.

    Returns True when a hook ran (harness mode), False otherwise, so
    spin-wait loops can fall back to a real ``time.sleep`` in
    production::

        if not schedule_point("wal.sync.wait"):
            time.sleep(0.0002)
    """
    hook = _schedule_hook
    if hook is not None:
        hook(label)
        return True
    return False


class _HeldStack(threading.local):
    """Per-thread stack of currently held latches (innermost last)."""

    def __init__(self) -> None:
        self.stack: list["OrderedLatch"] = []


_held = _HeldStack()


def held_ranks() -> tuple[int, ...]:
    """Ranks currently held by the calling thread (diagnostics/tests)."""
    return tuple(latch.rank for latch in _held.stack)


class OrderedLatch:
    """A named lock with a rank, asserting the global acquisition order.

    ``reentrant=True`` backs the latch with an RLock and permits
    re-acquisition by the holder (used where internal helpers are also
    public entry points, e.g. ``BlobStore.get`` -> ``record``).  Rank
    checking is skipped only for such re-acquisitions.
    """

    __slots__ = (
        "name",
        "rank",
        "reentrant",
        "_lock",
        "_waits",
        "_wait_ms",
    )

    def __init__(self, name: str, rank: int, reentrant: bool = False) -> None:
        expected = LATCH_RANKS.get(name)
        if expected is not None and expected != rank:
            raise StorageError(
                f"latch {name!r} must have rank {expected}, got {rank}"
            )
        self.name = name
        self.rank = rank
        self.reentrant = reentrant
        self._lock: threading.RLock | threading.Lock = (
            threading.RLock() if reentrant else threading.Lock()
        )
        self._waits = obs.counter(
            f"latch.{name}.waits", f"Contended acquisitions of latch {name!r}"
        )
        self._wait_ms = obs.histogram(
            f"latch.{name}.wait_ms",
            f"Wait time for contended acquisitions of latch {name!r} (ms)",
            buckets=obs.FINE_BUCKETS,
        )

    def acquire(self) -> None:
        stack = _held.stack
        if self.reentrant and any(latch is self for latch in stack):
            self._lock.acquire()  # re-entry: order already established
            stack.append(self)
            return
        if stack and stack[-1].rank >= self.rank:
            raise StorageError(
                f"latch order violation: acquiring {self.name!r} "
                f"(rank {self.rank}) while holding {stack[-1].name!r} "
                f"(rank {stack[-1].rank}); the total order is {LATCH_RANKS}"
            )
        hook = _schedule_hook
        if hook is not None:
            # Harness mode: never block the OS thread while the virtual
            # scheduler thinks it is runnable — spin through non-blocking
            # attempts, yielding the schedule between them.  Wall time is
            # meaningless under the virtual schedule, so only the wait
            # *counters* move here, not the wait histograms.
            hook(f"latch:{self.name}")
            if not self._lock.acquire(blocking=False):
                _WAITS.inc()
                self._waits.inc()
                while not self._lock.acquire(blocking=False):
                    hook(f"latch:{self.name}:blocked")
        elif not self._lock.acquire(blocking=False):
            _WAITS.inc()
            self._waits.inc()
            started = time.perf_counter()
            self._lock.acquire()
            waited_ms = (time.perf_counter() - started) * 1000.0
            _WAIT_MS.observe(waited_ms)
            self._wait_ms.observe(waited_ms)
        _ACQUIRES.inc()
        stack.append(self)

    def release(self) -> None:
        stack = _held.stack
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] is self:
                del stack[position]
                break
        else:  # pragma: no cover - defensive
            raise StorageError(
                f"latch {self.name!r} released by a thread not holding it"
            )
        self._lock.release()

    def held(self) -> bool:
        """Whether the *calling thread* currently holds this latch."""
        return any(latch is self for latch in _held.stack)

    def __enter__(self) -> "OrderedLatch":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OrderedLatch({self.name!r}, rank={self.rank})"
