"""Unit tests for the write-ahead log: framing, group commit, scanning."""

import json

import pytest

from repro.core.errors import WalError
from repro.storage.blob import BlobRecord
from repro.storage.disk import SimulatedDisk
from repro.storage.pages import PageRange
from repro.storage.wal import (
    MAGIC,
    WriteAheadLog,
    decode_blob_put,
    encode_blob_put,
    scan_wal,
)


def _record(blob_id=1, start=0, count=1, payload=b"abcd", virtual=False):
    return BlobRecord(
        blob_id=blob_id,
        byte_size=len(payload),
        pages=PageRange(start, count),
        virtual=virtual,
        codec="none",
    )


class TestBlobPutCodec:
    def test_roundtrip(self):
        record = _record(blob_id=7, start=3, count=2, payload=b"x" * 9)
        decoded, raw = decode_blob_put(encode_blob_put(record, b"x" * 9))
        assert decoded.blob_id == 7
        assert decoded.pages == PageRange(3, 2)
        assert raw == b"x" * 9

    def test_virtual_carries_no_bytes(self):
        record = _record(blob_id=2, virtual=True, payload=b"")
        record.byte_size = 4096
        record.stored_size = 4096
        decoded, raw = decode_blob_put(encode_blob_put(record, b""))
        assert decoded.virtual
        assert raw == b""

    def test_size_mismatch_rejected(self):
        record = _record(payload=b"abcd")
        encoded = encode_blob_put(record, b"abcd")
        with pytest.raises(WalError):
            decode_blob_put(encoded[:-1])


class TestWriteAheadLog:
    def test_commit_writes_one_batch(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.log_meta({"op": "create_collection", "coll": "c"})
        wal.log_blob_put(_record(), b"abcd")
        txn = wal.commit()
        wal.close()
        assert txn == 1
        scan = scan_wal(path)
        assert len(scan.batches) == 1
        assert scan.committed_records == 2
        kinds = [record[0] for record in scan.batches[0].records]
        assert kinds == ["meta", "blob_put"]
        assert scan.torn_bytes == 0

    def test_empty_commit_is_noop(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        assert wal.commit() is None
        wal.close()
        assert scan_wal(tmp_path / "wal.log").empty

    def test_abort_drops_buffer(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.log_meta({"op": "x"})
        assert wal.abort() == 1
        assert wal.commit() is None
        wal.close()
        assert scan_wal(tmp_path / "wal.log").empty

    def test_group_commit_is_single_write(self, tmp_path):
        writes = []

        class CountingInjector:
            def wrap(self, fileobj, tag):
                outer = self

                class Proxy:
                    def write(self, data):
                        writes.append(len(data))
                        return fileobj.write(data)

                    def __getattr__(self, name):
                        return getattr(fileobj, name)

                return Proxy()

        wal = WriteAheadLog(tmp_path / "wal.log", injector=CountingInjector())
        for i in range(10):
            wal.log_meta({"op": "m", "i": i})
        wal.commit()
        wal.close()
        # one header write + exactly one batch write for 10 records
        assert len(writes) == 2

    def test_truncate_resets_to_header(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.log_meta({"op": "x"})
        wal.commit()
        wal.truncate()
        wal.close()
        assert scan_wal(path).empty
        assert path.read_bytes().startswith(MAGIC)

    def test_truncate_with_buffered_records_refused(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.log_meta({"op": "x"})
        with pytest.raises(WalError):
            wal.truncate()
        wal.close()

    def test_commit_charges_modelled_disk(self, tmp_path):
        disk = SimulatedDisk()
        wal = WriteAheadLog(tmp_path / "wal.log", fsync=False, disk=disk)
        wal.log_meta({"op": "x"})
        wal.commit()
        wal.close()
        assert disk.counters.wal_appends == 1
        assert disk.counters.wal_pages >= 1
        assert disk.counters.wal_ms > 0.0
        # durability cost must never leak into the paper's t_o clock
        assert disk.counters.time_ms == 0.0


class TestScan:
    def test_missing_file_is_empty(self, tmp_path):
        assert scan_wal(tmp_path / "absent.log").empty

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL!" + bytes(8))
        with pytest.raises(WalError):
            scan_wal(path)

    def test_torn_tail_discarded(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.log_meta({"op": "first"})
        wal.commit()
        wal.log_meta({"op": "second", "pad": "x" * 100})
        wal.commit()
        wal.close()
        whole = path.read_bytes()
        clean = scan_wal(path)
        assert len(clean.batches) == 2
        # cut mid-way through the second batch: first commit must survive
        path.write_bytes(whole[: clean.valid_bytes - 40])
        scan = scan_wal(path)
        assert len(scan.batches) == 1
        assert scan.batches[0].records[0][1]["op"] == "first"
        assert scan.torn_bytes > 0

    def test_flipped_bit_invalidates_record_and_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.log_meta({"op": "good"})
        wal.commit()
        wal.close()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x10
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert scan.batches == []
        assert scan.torn_bytes > 0

    def test_uncommitted_records_counted(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.log_meta({"op": "committed"})
        wal.commit()
        wal.close()
        # append a valid record with no commit behind it
        from repro.storage.wal import META, encode_record

        with open(path, "ab") as fh:
            fh.write(
                encode_record(
                    META, 99, json.dumps({"op": "dangling"}).encode()
                )
            )
        scan = scan_wal(path)
        assert len(scan.batches) == 1
        assert scan.uncommitted_records == 1

    def test_commit_record_count_must_match(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.log_meta({"op": "x"})
        wal.commit()
        wal.close()
        from repro.storage.wal import COMMIT, encode_record

        with open(path, "ab") as fh:
            # commit claiming 5 records while none are open
            fh.write(
                encode_record(
                    COMMIT, 100,
                    json.dumps({"txn": 9, "records": 5}).encode(),
                )
            )
        scan = scan_wal(path)
        assert len(scan.batches) == 1  # the forged commit seals nothing
