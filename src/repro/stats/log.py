"""The access log: the raw material of statistic tiling.

RasDaMan derives automatic tiling "from an application or database log
file of access operations" (Section 5.2).  Every
:class:`~repro.storage.tilestore.Database` owns one bounded
:class:`AccessLog`: each read query appends one ``read`` event per store
it ran on (:meth:`~repro.storage.tilestore.ReadExecutor.finish`), with
its Section 5.1 access kind, and each committed write or delete appends
one event at its commit, stamped with the epoch that commit published.
Recording does not depend on the observability switch — the log is an
input of the tiling advisor, the MaxTileSize tuner and the shard
rebalancer, not telemetry.

The log is bounded (oldest events evicted first, with a running
``dropped`` count so truncation is visible), thread-safe, and flushes to
/ loads from JSON lines so tiling decisions survive sessions.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.core.errors import ReproError
from repro.core.geometry import MInterval
from repro.query.access import Access, AccessKind


@dataclass(frozen=True)
class AccessEvent:
    """One recorded access: region plus where/when/how much it cost."""

    seq: int
    op: str            # "read" | "write" | "delete"
    collection: str
    object: str
    region: MInterval
    epoch: int         # commit epoch a read was served at / a write published
    cost_ms: float     # modelled time charged to this access
    cells: int         # result/ingest cells the access moved
    #: Reads: the access type of the region as asked (Section 5.1).
    kind: Optional[AccessKind] = None

    def as_dict(self) -> dict:
        return {
            "seq": self.seq, "op": self.op, "collection": self.collection,
            "object": self.object, "region": str(self.region), "epoch": self.epoch,
            "cost_ms": self.cost_ms, "cells": self.cells,
            "kind": None if self.kind is None else self.kind.value,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "AccessEvent":
        kind = record["kind"]
        return cls(
            int(record["seq"]), str(record["op"]), str(record["collection"]),
            str(record["object"]), MInterval.parse(record["region"]),
            int(record["epoch"]), float(record["cost_ms"]), int(record["cells"]),
            None if kind is None else AccessKind(kind),
        )


class AccessLog:
    """Bounded, thread-safe log of :class:`AccessEvent` records."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"access log capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: "deque[AccessEvent]" = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0

    def record(
        self,
        op: str,
        collection: str,
        object_name: str,
        region: MInterval,
        epoch: int,
        *,
        cost_ms: float = 0.0,
        cells: int = 0,
        kind: Optional[AccessKind] = None,
    ) -> None:
        """Append one access, evicting the oldest when full."""
        with self._lock:
            self._seq += 1
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(AccessEvent(
                self._seq, op, collection, object_name, region, epoch, cost_ms, cells, kind
            ))

    # -- inspection --------------------------------------------------------

    def events(self) -> tuple[AccessEvent, ...]:
        """Recorded events, oldest first."""
        with self._lock:
            return tuple(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted because the log was full."""
        with self._lock:
            return self._dropped

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (including since-evicted ones)."""
        with self._lock:
            return self._seq

    def accesses(self, object_name: str) -> list[Access]:
        """An object's reads, oldest first — what the advisor takes."""
        return [
            Access(event.region, event.kind)  # type: ignore[arg-type]  # reads carry a kind
            for event in self.events()
            if event.op == "read" and event.object == object_name
        ]

    def regions(self, object_name: str) -> list[MInterval]:
        """Just the read regions — the input statistic tiling and the
        MaxTileSize tuner expect."""
        return [access.region for access in self.accesses(object_name)]

    def clear(self) -> None:
        """Drop all events and zero the counters (measurement boundary)."""
        with self._lock:
            self._events.clear()
            self._seq = 0
            self._dropped = 0

    # -- persistence -------------------------------------------------------

    def flush_jsonl(self, path: Union[str, Path], clear: bool = False) -> int:
        """Append the events to ``path`` as JSON lines; returns lines
        written.  ``clear`` drains the log in the same locked step that
        takes the events, so nothing recorded meanwhile is lost, and
        sequence numbers keep counting across drains."""
        with self._lock:
            events = tuple(self._events)
            if clear:
                self._events.clear()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")
        return len(events)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "AccessLog":
        """Read a log previously written by :meth:`flush_jsonl`."""
        path = Path(path)
        if not path.exists():
            raise ReproError(f"no access log at {path}")
        events: list[AccessEvent] = []
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(AccessEvent.from_dict(json.loads(line)))
                except (KeyError, TypeError, ValueError, ReproError) as exc:
                    raise ReproError(
                        f"{path}:{line_number}: corrupt log entry ({exc})"
                    ) from exc
        log = cls(max(1, len(events)))
        log._events.extend(events)
        log._seq = max((event.seq for event in events), default=0)
        return log
