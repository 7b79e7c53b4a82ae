"""WAL group commit under concurrency: frame isolation and crash prefix.

Two invariants of the group-commit door (DESIGN §11):

* records of two in-flight transactions never interleave inside one
  commit frame — buffers are thread-local, frames are written whole
  under the append latch;
* a crash at *any* point between two concurrent commits recovers to a
  committed prefix: whole frames or nothing, never a blend.

The crash sweep kills the write stream at every operation index the
clean scheduled run performs, so the "between the two commits" window
is covered exhaustively, not sampled.
"""

from __future__ import annotations

import json

from repro.storage.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.storage.wal import WriteAheadLog, scan_wal
from tests.concurrency.vsched import VirtualScheduler
from tests.counted import counted

RECORDS_PER_TXN = 4
SEED = 71


def _committer(wal: WriteAheadLog, who: str):
    def run():
        for i in range(RECORDS_PER_TXN):
            wal.log_meta({"op": "noop", "who": who, "i": i})
        wal.commit()

    return run


def _frames(path):
    """Decoded commit frames: list of (who-set, record count, payloads)."""
    out = []
    for batch in scan_wal(path).batches:
        metas = [rec[1] for rec in batch.records if rec[0] == "meta"]
        out.append((
            {m["who"] for m in metas},
            len(batch.records),
            [(m["who"], m["i"]) for m in metas],
        ))
    return out


def _run_schedule(path, injector=None, seed=SEED):
    """Two transactions appending concurrently, then committing."""
    wal = WriteAheadLog(path, fsync=True, injector=injector)
    sched = VirtualScheduler(seed)
    sched.add("alice", _committer(wal, "alice"), expect=(SimulatedCrash,))
    sched.add("bob", _committer(wal, "bob"), expect=(SimulatedCrash,))
    sched.run()
    try:
        wal.close()
    except SimulatedCrash:
        pass
    return sched


class TestFrameIsolation:
    def test_concurrent_appends_never_share_a_frame(self, tmp_path):
        path = tmp_path / "wal.log"
        sched = _run_schedule(path)
        frames = _frames(path)
        assert len(frames) == 2
        for who, count, payloads in frames:
            assert len(who) == 1, (
                f"commit frame mixes transactions: {payloads}"
            )
            assert count == RECORDS_PER_TXN
            owner = next(iter(who))
            assert payloads == [(owner, i) for i in range(RECORDS_PER_TXN)]
        assert {next(iter(who)) for who, _, _ in frames} == {"alice", "bob"}

    def test_appends_really_interleaved(self, tmp_path):
        """The schedule must interleave the two writers' append latch
        acquisitions — otherwise the isolation test proves nothing."""
        sched = _run_schedule(tmp_path / "wal.log")
        appends = [
            worker for _, worker, label in sched.trace
            if label.startswith("latch:wal.append")
        ]
        switches = sum(
            1 for a, b in zip(appends, appends[1:]) if a != b
        )
        assert switches >= 2, f"schedule never interleaved: {appends}"

    def test_lsns_are_unique_and_frames_ordered(self, tmp_path):
        path = tmp_path / "wal.log"
        _run_schedule(path)
        scan = scan_wal(path)
        txns = [batch.txn for batch in scan.batches]
        assert txns == sorted(txns)
        assert len(set(txns)) == len(txns)


class TestCrashBetweenConcurrentCommits:
    def _measure(self, tmp_path):
        injector = FaultInjector()
        _run_schedule(tmp_path / "clean.log", injector=injector)
        return injector.ops

    def test_crash_at_every_op_recovers_committed_prefix(self, tmp_path):
        total = self._measure(tmp_path)
        assert total >= 4, "clean run too small to cover the commit window"
        for k in range(total + 1):
            path = tmp_path / f"crash{k}.log"
            injector = FaultInjector(FaultPlan(crash_after_ops=k))
            try:
                self._crashing_run(path, injector)
            except SimulatedCrash:
                pass  # died in the header write: nothing durable, fine
            frames = _frames(path)
            # committed prefix: whole single-thread frames or nothing
            for who, count, payloads in frames:
                assert len(who) == 1, (
                    f"op {k}: recovered frame mixes transactions: {payloads}"
                )
                assert count == RECORDS_PER_TXN, (
                    f"op {k}: recovered a partial transaction: {payloads}"
                )
            assert len(frames) <= 2
            if k >= total:
                assert len(frames) == 2, f"op {k}: lost a durable commit"

    def _crashing_run(self, path, injector):
        _run_schedule(path, injector=injector)


class TestGroupCommitDoor:
    def test_followers_share_the_leader_fsync(self, tmp_path):
        """Some seed must exercise the follower path (shared fsync) —
        the door is not just a straight line around one thread."""
        shared = []
        for seed in range(SEED, SEED + 12):
            wal = WriteAheadLog(tmp_path / f"wal{seed}.log", fsync=True)
            sched = VirtualScheduler(seed)
            sched.add("alice", _committer(wal, "alice"))
            sched.add("bob", _committer(wal, "bob"))
            with counted() as delta:
                sched.run()
            fsyncs = delta["wal.fsyncs"]
            assert 1 <= fsyncs <= 2
            shared.append(fsyncs == 1)
            assert len(_frames(tmp_path / f"wal{seed}.log")) == 2
            wal.close()
        assert any(shared), (
            "no seed produced a shared fsync: the group-commit door "
            "never elected a follower"
        )

    def test_abort_drops_only_own_buffer(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync=False)

        def aborter():
            for i in range(3):
                wal.log_meta({"op": "noop", "who": "aborter", "i": i})
            assert wal.abort() == 3

        sched = VirtualScheduler(SEED)
        sched.add("alice", _committer(wal, "alice"))
        sched.add("aborter", aborter)
        sched.run()
        wal.close()
        frames = _frames(tmp_path / "wal.log")
        assert len(frames) == 1
        assert frames[0][0] == {"alice"}
        assert frames[0][1] == RECORDS_PER_TXN


def test_frame_bytes_are_contiguous(tmp_path):
    """Byte-level check: each frame's records occupy one contiguous span
    ending in its COMMIT record (no foreign record inside the span)."""
    path = tmp_path / "wal.log"
    _run_schedule(path)
    data = path.read_bytes()
    # reuse the scanner's framing: records in file order, tag by owner
    from repro.storage.wal import _HEADER, _RECORD  # noqa: PLC0415

    offset = _HEADER.size
    owners = []
    while offset + _RECORD.size <= len(data):
        length, _crc, rtype, _lsn = _RECORD.unpack_from(data, offset)
        payload = data[offset + _RECORD.size : offset + _RECORD.size + length]
        if rtype == 1:  # META
            owners.append(json.loads(payload.decode())["who"])
        else:  # COMMIT seals the span
            owners.append("COMMIT")
        offset += _RECORD.size + length
    spans = []
    current: list = []
    for owner in owners:
        if owner == "COMMIT":
            spans.append(current)
            current = []
        else:
            current.append(owner)
    assert not current, "records after the last commit"
    for span in spans:
        assert len(set(span)) == 1, f"interleaved frame on disk: {owners}"
