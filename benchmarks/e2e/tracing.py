"""Span recording for the traced run — the only file that patches the program.

The program is not edited: :func:`installed` wraps its layer entry
points *at their use sites* (``repro.storage.tilestore.fetch_tiles`` and
friends are imported by name, so the binding the caller looks up is the
one replaced) and puts every original back on exit.  Each wrapped call
appends one span record to a :class:`Recorder` held in memory; nothing is
written until the workload has ended.

A span is ``[name, start, end, parent, thread, amount]`` — ``parent`` is
the span open on the same thread when this one started (``None`` for the
outermost call of a thread, which includes everything pool workers and
server threads run), ``amount`` an optional size the wrapper measured on
the result (bytes decoded, tiles produced).  Self time is a span's
duration minus the part of it covered by its child spans.  With one op in
flight, a span belongs to the op whose interval contains its start.
"""

from __future__ import annotations

import functools
import threading
import time
from bisect import bisect_right
from contextlib import contextmanager
from http.client import HTTPConnection
from typing import Callable, Iterator, Optional, Sequence, Union

import repro.client
from repro.index import rplustree, zonemap
from repro.query import engine, rasql
from repro.serve import server, wire
from repro.shard import sharded
from repro.storage import (
    backends,
    blob,
    bufferpool,
    catalog,
    compression,
    decodedcache,
    ingest,
    pipeline,
    tilestore,
    wal,
)
from repro.tiling import base as tiling_base

NAME, START, END, PARENT, THREAD, AMOUNT = range(6)

SpanName = Union[str, Callable[[tuple, dict], str]]


def _client_read_name(args: tuple, kwargs: dict) -> str:
    parallel = kwargs.get("parallel", args[4] if len(args) > 4 else True)
    return "client.read_parallel" if parallel else "client.read_serial"


def _tiles_out(spec) -> int:
    return len(spec.tiles)


#: (owner, attribute, span name, amount measured on the result).  The
#: owner is the module or class whose attribute the *caller* looks up.
TARGETS: tuple[tuple[object, str, SpanName, Optional[Callable]], ...] = (
    (tiling_base.TilingStrategy, "tile", "tiling.tile", _tiles_out),
    (rplustree.RPlusTreeIndex, "search", "index.search", None),
    (zonemap.TilePruner, "can_match", "zone.prune", None),
    (sharded, "synopsis_can_match", "zone.prune", None),
    (blob.BlobStore, "get", "store.get", None),
    (backends.FileBlobStore, "get_run", "store.get_run", None),
    (blob.BlobStore, "flush_ids", "store.flush", None),
    (blob.BlobStore, "flush_pending", "store.flush", None),
    (backends, "verify_page_checksums", "checksum.verify", None),
    (backends, "page_checksums_many", "checksum.verify", None),
    (wal, "verify_page_checksums", "checksum.verify", None),
    (backends, "page_checksums", "checksum.compute", None),
    (ingest, "page_checksums_many", "checksum.compute", None),
    (ingest, "page_checksums", "checksum.compute", None),
    (wal, "page_checksums", "checksum.compute", None),
    (bufferpool.BufferPool, "read_blob", "pool.read_blob", None),
    (decodedcache.DecodedTileCache, "get", "decoded.get", None),
    (pipeline, "decompress", "codec.decode", len),
    (wire, "decompress", "codec.decode", len),
    (compression, "compress", "codec.encode", None),
    (tilestore, "fetch_tiles", "pipeline.fetch", None),
    (tilestore, "fetch_tile", "pipeline.fetch", None),
    (sharded, "fetch_tiles", "pipeline.fetch", None),
    (tilestore, "fetch_tile_partials", "pipeline.partial", None),
    (sharded, "fetch_tile_partials", "pipeline.partial", None),
    (tilestore, "encode_tiles", "ingest.encode", None),
    (tilestore, "encode_payload", "ingest.encode", None),
    (wal.WriteAheadLog, "commit_frame", "wal.commit", None),
    (wal.WriteAheadLog, "commit", "wal.commit", None),
    (wal.WriteAheadLog, "sync_to", "wal.sync", None),
    (wal, "fsync_file", "wal.fsync", None),
    (tilestore.StoredMDD, "read", "tilestore.read", None),
    (tilestore.StoredMDD, "aggregate_push", "tilestore.aggregate_push", None),
    (tilestore.StoredMDD, "update", "tilestore.update", None),
    (tilestore.StoredMDD, "load_array", "tilestore.load_array", None),
    (catalog, "create_database", "catalog.create", None),
    (catalog, "open_database", "catalog.open", None),
    (catalog, "save_database", "catalog.save", None),
    (rasql, "parse", "rasql.parse", None),
    (rasql, "execute", "rasql.execute", None),
    (server, "rasql_execute", "rasql.execute", None),
    (engine.QueryEngine, "range_query", "engine.range", None),
    (engine.QueryEngine, "filtered_range_query", "engine.range", None),
    (engine.QueryEngine, "aggregate_query", "engine.aggregate", None),
    (engine.QueryEngine, "group_by_query", "engine.groupby", None),
    (wire, "encode_frames", "wire.encode", len),
    (wire, "decode_frames", "wire.decode", None),
    (wire, "assemble", "wire.assemble", None),
    (repro.client.Client, "read", _client_read_name, None),
    (repro.client.Client, "query", "client.query", None),
    (repro.client.Client, "write", "client.write", None),
    (HTTPConnection, "getresponse", "client.socket_wait", None),
    (sharded.ShardedMDD, "read", "shard.read", None),
    (sharded.ShardedMDD, "aggregate_push", "shard.aggregate_push", None),
    (sharded.ShardedMDD, "update", "shard.update", None),
    (sharded.ShardedMDD, "load_array", "shard.load_array", None),
)


class Recorder:
    """In-memory span store shared by every thread of one workload."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def _wrap(
    recorder: Recorder,
    func: Callable,
    name: SpanName,
    measure: Optional[Callable],
) -> Callable:
    clock = time.perf_counter
    thread_id = threading.get_ident

    @functools.wraps(func)
    def traced(*args, **kwargs):
        stack = recorder.stack()
        span = [
            name if isinstance(name, str) else name(args, kwargs),
            clock(),
            0.0,
            stack[-1] if stack else None,
            thread_id(),
            0,
        ]
        stack.append(span)
        try:
            result = func(*args, **kwargs)
            if measure is not None:
                span[AMOUNT] = measure(result)
            return result
        finally:
            span[END] = clock()
            stack.pop()
            recorder.spans.append(span)

    return traced


def current_bindings() -> list[object]:
    """What every target attribute is bound to right now (the self-test
    compares this before and after a run)."""
    return [vars(owner).get(attr) for owner, attr, _name, _measure in TARGETS]


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every target for the duration of the block, then restore."""
    originals = current_bindings()
    for (owner, attr, _name, _measure), original in zip(TARGETS, originals):
        if original is None:
            raise RuntimeError(f"trace target {owner!r}.{attr} does not exist")
    try:
        for (owner, attr, name, measure), original in zip(TARGETS, originals):
            setattr(owner, attr, _wrap(recorder, original, name, measure))
        yield recorder
    finally:
        for (owner, attr, _name, _measure), original in zip(TARGETS, originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic (pure functions over recorded spans)
# ---------------------------------------------------------------------------


def covered(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[list]) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``: its duration minus
    the part of that interval its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children.setdefault(id(parent), []).append(
                (max(span[START], parent[START]), min(span[END], parent[END]))
            )
    return {
        id(span): (span[END] - span[START]) - covered(children.get(id(span), ()))
        for span in spans
    }


def sum_by_name(
    spans: Sequence[list], values: Optional[dict[int, float]] = None
) -> dict[str, float]:
    """Seconds per span name: total duration, or ``values`` (self times)."""
    totals: dict[str, float] = {}
    for span in spans:
        amount = (
            span[END] - span[START] if values is None else values[id(span)]
        )
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + amount
    return totals


def assign_ops(
    spans: Sequence[list], op_intervals: Sequence[tuple[float, float]]
) -> list[Optional[int]]:
    """Index of the op whose interval contains each span's start
    (``None`` outside every op: set-up, warm-up, verification)."""
    starts = [start for start, _end in op_intervals]
    owners: list[Optional[int]] = []
    for span in spans:
        index = bisect_right(starts, span[START]) - 1
        inside = index >= 0 and span[START] < op_intervals[index][1]
        owners.append(index if inside else None)
    return owners


def unattributed_share(
    spans: Sequence[list], op_intervals: Sequence[tuple[float, float]]
) -> float:
    """Share of summed op latency that no span (of any thread) covers.

    ``op_intervals`` are sequential (one op in flight), so each outermost
    span is clipped against the ops it overlaps, found by bisection.
    """
    op_ends = [end for _start, end in op_intervals]
    clipped: list[list[tuple[float, float]]] = [[] for _ in op_intervals]
    for span in spans:
        if span[PARENT] is not None:
            continue
        index = bisect_right(op_ends, span[START])
        while index < len(op_intervals) and op_intervals[index][0] < span[END]:
            op_start, op_end = op_intervals[index]
            clipped[index].append(
                (max(span[START], op_start), min(span[END], op_end))
            )
            index += 1
    latency = sum(end - start for start, end in op_intervals)
    attributed = sum(covered(parts) for parts in clipped)
    return (latency - attributed) / latency if latency else 0.0


def children_of(spans: Sequence[list], parent_names: set[str]) -> dict[int, list]:
    """Direct child spans of every span named in ``parent_names``."""
    grouped: dict[int, list] = {
        id(span): [] for span in spans if span[NAME] in parent_names
    }
    for span in spans:
        parent = span[PARENT]
        if parent is not None and id(parent) in grouped:
            grouped[id(parent)].append(span)
    return grouped


def jsonl_records(
    spans: Sequence[list], owners: Sequence[Optional[int]]
) -> Iterator[dict]:
    """Spans as JSON-able dicts (parent by position in this sequence)."""
    position = {id(span): index for index, span in enumerate(spans)}
    for span, owner in zip(spans, owners):
        parent = span[PARENT]
        yield {
            "name": span[NAME],
            "start": span[START],
            "end": span[END],
            "parent": position.get(id(parent)) if parent is not None else None,
            "op": owner,
            "thread": span[THREAD],
            "amount": span[AMOUNT],
        }
