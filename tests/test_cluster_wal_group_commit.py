"""Group-commit WAL/journal: buffering, sync barriers, crash honesty.

The durability promise of a group-committed record attaches to the
``sync()`` that covers it, never to the ``append()``.  These tests pin
down both sides of that contract:

- records buffered between sync points coalesce into **one** write+flush
  (the amortization the live hot path depends on), and the size cap
  forces a sync when no explicit barrier arrives — nothing else does,
  there is no timer;
- a crash — simulated by ``abandon()`` or by truncating the file at
  *every* byte offset — loses only never-promised records, and reload
  repairs the file to the last complete record boundary;
- ``"fsync"`` durability really calls :func:`os.fsync`; a malformed
  *terminated* line (impossible from a torn append) is corruption, not
  crash damage.
"""

import errno
import json
import os
import re
import shutil
import zlib

import pytest

from repro.cluster.codec import encode_message
from repro.cluster.wal import (
    CorruptLogError,
    FileWal,
    LogFailedError,
    MessageJournal,
)
from repro.network.message import Message, MessageType
from repro.storage.log import LogRecordKind
from repro.types import GlobalTransactionId, SubtransactionKind


def gid(seq):
    return GlobalTransactionId(0, seq)


def append_n(wal, count, start=0):
    for index in range(start, start + count):
        wal.append(LogRecordKind.CREATE, item=index, value=index,
                   time=float(index))


# ----------------------------------------------------------------------
# Buffering and sync points
# ----------------------------------------------------------------------

def test_appends_buffer_until_sync_then_one_write(tmp_path):
    path = tmp_path / "site0.wal"
    wal = FileWal(path)
    append_n(wal, 5)
    assert wal.pending_sync == 5
    assert wal.syncs == 0
    # Nothing promised yet: a reload (the crash view) sees no records.
    assert not path.exists() or FileWal(path).recovered_records == 0

    assert wal.sync() == 5          # one barrier covers all five
    assert wal.pending_sync == 0
    assert wal.syncs == 1
    assert FileWal(path).recovered_records == 5
    wal.close()


def test_max_pending_cap_forces_a_sync(tmp_path):
    wal = FileWal(tmp_path / "site0.wal", max_pending=4)
    append_n(wal, 11)
    # Two forced syncs at 4 and 8; three records still pending.
    assert wal.syncs == 2
    assert wal.pending_sync == 3
    wal.close()
    assert wal.syncs == 3           # close drains the tail


def test_appended_records_are_not_retained(tmp_path):
    """Nothing re-reads an appended record in-process, so the log holds
    in memory only what it loaded at start-up."""
    path = tmp_path / "site0.wal"
    wal = FileWal(path)
    append_n(wal, 5)
    wal.close()
    assert len(wal) == 5 and list(wal) == []

    reopened = FileWal(path)
    append_n(reopened, 300, start=5)    # crosses the max_pending cap
    assert len(reopened) == 305 and reopened.last_lsn == 304
    assert reopened.recovered_records == len(list(reopened)) == 5
    reopened.close()


def test_sync_with_nothing_pending_is_free(tmp_path):
    wal = FileWal(tmp_path / "site0.wal")
    assert wal.sync() == 0
    assert wal.syncs == 0           # no empty write+flush cycles
    wal.close()


def test_unknown_durability_level_rejected(tmp_path):
    with pytest.raises(ValueError):
        FileWal(tmp_path / "site0.wal", durability="scout's-honour")
    # Group commit is not optional: the keyword survives for callers
    # that pass it, and only as True.
    FileWal(tmp_path / "site0.wal", group_commit=True).close()
    with pytest.raises(ValueError, match="always group-commits"):
        FileWal(tmp_path / "site0.wal", group_commit=False)


# ----------------------------------------------------------------------
# Crash semantics
# ----------------------------------------------------------------------

def test_abandon_loses_only_unpromised_records(tmp_path):
    path = tmp_path / "site0.wal"
    wal = FileWal(path)
    append_n(wal, 4)
    wal.sync()                      # these four are promised
    append_n(wal, 3, start=4)       # these three are not
    wal.abandon()                   # the crash

    survivor = FileWal(path)
    assert survivor.recovered_records == 4
    assert [record.item for record in survivor] == [0, 1, 2, 3]


def test_crash_truncation_at_every_byte_offset(tmp_path):
    """Cut the file at every byte: reload must keep exactly the
    complete newline-terminated prefix, repair the file to that
    boundary, and accept appends afterwards."""
    path = tmp_path / "site0.wal"
    wal = FileWal(path)
    append_n(wal, 6)
    wal.close()
    data = path.read_bytes()

    for cut in range(len(data) + 1):
        torn = tmp_path / "torn.wal"
        torn.write_bytes(data[:cut])
        survivors = data[:cut].count(b"\n")
        reloaded = FileWal(torn)
        assert reloaded.recovered_records == survivors
        assert reloaded.torn_tail == (cut > 0 and data[cut - 1:cut]
                                      != b"\n" )
        # The torn bytes are gone from disk, not just skipped in RAM.
        boundary = data[:cut].rfind(b"\n") + 1
        reloaded.close()
        assert torn.read_bytes() == data[:boundary]
        # Appending lands on a clean record boundary.
        reloaded = FileWal(torn)
        reloaded.append(LogRecordKind.CREATE, item=99, value=99,
                        time=9.0)
        reloaded.close()
        assert FileWal(torn).recovered_records == survivors + 1
        torn.unlink()


def test_malformed_terminated_line_is_corruption_not_crash(tmp_path):
    path = tmp_path / "site0.wal"
    wal = FileWal(path)
    append_n(wal, 2)
    wal.close()
    with open(path, "ab") as handle:
        handle.write(b"{not json}\n")          # terminated => promised
    with pytest.raises(CorruptLogError):
        FileWal(path)
    # Same verdict for lines whose checksum holds but whose body is not
    # JSON, or is JSON but not an object.
    shutil.copy(path, tmp_path / "x.wal")
    for body, complaint in ((b"{not json}", "malformed"),
                            (b"[1,2]", "not an object")):
        os.truncate(path, path.read_bytes().rfind(b"\n", 0, -1) + 1)
        with open(path, "ab") as handle:
            handle.write(b"%08x %s\n" % (zlib.crc32(body), body))
        with pytest.raises(CorruptLogError, match=complaint):
            FileWal(path)


# ----------------------------------------------------------------------
# fsync honesty
# ----------------------------------------------------------------------

def test_fsync_durability_actually_calls_os_fsync(tmp_path,
                                                  monkeypatch):
    fsynced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (fsynced.append(fd),
                                    real_fsync(fd))[1])

    wal = FileWal(tmp_path / "site0.wal", durability="fsync")
    append_n(wal, 5)
    assert fsynced == []            # buffered: no promise, no fsync
    wal.sync()
    assert len(fsynced) == 1        # one barrier, one disk round trip
    wal.close()

    journal = MessageJournal(tmp_path / "site0.wal.inbox",
                             durability="fsync")
    journal.append(1, "inc-a", 1, encode_message(
        Message(MessageType.SECONDARY, 1, 0,
                {"gid": gid(1), "writes": {0: 1}})))
    before = len(fsynced)
    journal.sync()
    assert len(fsynced) == before + 1
    journal.close()


def test_flush_and_none_levels_never_fsync(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fsync",
                        lambda fd: pytest.fail("fsync at level<fsync"))
    for durability in ("none", "flush"):
        wal = FileWal(tmp_path / (durability + ".wal"),
                      durability=durability)
        append_n(wal, 3)
        wal.sync()
        wal.close()


# ----------------------------------------------------------------------
# MessageJournal group commit (journal-then-ack)
# ----------------------------------------------------------------------

def _secondary(seq):
    return Message(MessageType.SECONDARY, src=1, dst=0,
                   payload={"gid": GlobalTransactionId(1, seq),
                            "writes": {3: seq}})


def test_journal_batch_is_atomic_at_the_sync_barrier(tmp_path):
    path = tmp_path / "site0.wal.inbox"
    journal = MessageJournal(path)
    for seq in range(1, 5):
        journal.append(1, "inc-a", seq,
                       encode_message(_secondary(seq)))
    assert journal.pending_sync == 4
    # Crash before the sync barrier: the ack never went out, so the
    # sender still holds all four and will resend — losing them is
    # correct, acking them would not have been.
    journal.abandon()
    assert len(MessageJournal(path)) == 0

    journal = MessageJournal(path)
    for seq in range(1, 5):
        journal.append(1, "inc-a", seq,
                       encode_message(_secondary(seq)))
    assert journal.sync() == 4      # journal-then-ack: one barrier
    assert journal.syncs == 1
    journal.abandon()               # crash *after* the barrier
    reloaded = MessageJournal(path)
    assert [entry["seq"] for entry in reloaded.entries] == [1, 2, 3, 4]


def test_journal_torn_tail_repaired_on_reload(tmp_path):
    path = tmp_path / "site0.wal.inbox"
    journal = MessageJournal(path)
    for seq in range(1, 4):
        journal.append(1, "inc-a", seq,
                       encode_message(_secondary(seq)))
    journal.sync()
    journal.close()
    with open(path, "ab") as handle:
        handle.write(b'{"src": 1, "inc": "inc-a", "seq": 4')  # torn

    reloaded = MessageJournal(path)
    assert reloaded.torn_tail
    assert [entry["seq"] for entry in reloaded.entries] == [1, 2, 3]
    # Repaired in place: a fresh reload sees a clean file.
    assert not MessageJournal(path).torn_tail


def test_wal_sync_coalesces_interleaved_transactions(tmp_path):
    """The group-commit story end to end: several transactions' commit
    records sit in the buffer, one sync makes them all durable, and the
    reloaded WAL replays them in append order."""
    path = tmp_path / "site0.wal"
    wal = FileWal(path)
    for seq in (1, 2, 3):
        wal.append(LogRecordKind.COMMIT, gid=gid(seq),
                   txn_kind=SubtransactionKind.PRIMARY,
                   value={seq: seq * 10, seq + 10: "v"}, time=0.2)
    assert wal.syncs == 0
    assert wal.sync() == 3
    assert wal.syncs == 1
    wal.close()

    reloaded = FileWal(path)
    assert [(record.kind, record.gid, record.value)
            for record in reloaded] == [
        (LogRecordKind.COMMIT, gid(seq), {seq: seq * 10, seq + 10: "v"})
        for seq in (1, 2, 3)]
    first = path.read_bytes().splitlines()[0]
    assert json.loads(first[9:])["k"] == "commit"  # real JSON lines


# ----------------------------------------------------------------------
# Corruption matrix: flipped bits must never be silently accepted
# ----------------------------------------------------------------------

def _reload_verdict(path):
    """Reload a damaged WAL; returns ``("error", exc)`` or
    ``("loaded", wal)``."""
    try:
        return "loaded", FileWal(path)
    except CorruptLogError as exc:
        return "error", exc


def test_bit_flip_at_every_byte_of_final_record_is_never_silent(
        tmp_path):
    """Flip single bits at every byte of the final record: reload must
    either raise :class:`CorruptLogError` (the checksum catches it) or
    repair a torn tail (the flip destroyed the line framing) — it must
    never hand back the full record count with a silently altered
    record."""
    path = tmp_path / "site0.wal"
    wal = FileWal(path)
    append_n(wal, 6)
    wal.close()
    data = path.read_bytes()
    last_start = data.rfind(b"\n", 0, len(data) - 1) + 1

    for offset in range(last_start, len(data)):
        for bit in (0, 3, 7):
            damaged = bytearray(data)
            damaged[offset] ^= 1 << bit
            victim = tmp_path / "flip.wal"
            victim.write_bytes(bytes(damaged))
            verdict, result = _reload_verdict(victim)
            if verdict == "loaded":
                # Only acceptable if the reader treated the flipped
                # tail as torn: final record dropped and repaired,
                # never parsed as valid.
                assert result.torn_tail, \
                    "flip at byte {} bit {} was silently " \
                    "accepted".format(offset, bit)
                assert result.recovered_records == 5
                result.close()
            victim.unlink()


def test_bit_flip_in_interior_record_raises(tmp_path):
    """A flip in a fully-terminated interior record can never look like
    a torn tail — it must raise."""
    path = tmp_path / "site0.wal"
    wal = FileWal(path)
    append_n(wal, 6)
    wal.close()
    data = path.read_bytes()
    second_record_at = data.index(b"\n") + 1

    for bit in (0, 4):
        damaged = bytearray(data)
        # Flip inside the stored checksum of record 2 (the first eight
        # bytes of the line).
        damaged[second_record_at + 6] ^= 1 << bit
        victim = tmp_path / "flip.wal"
        victim.write_bytes(bytes(damaged))
        with pytest.raises(CorruptLogError):
            FileWal(victim)
        victim.unlink()


def test_journal_bit_flip_at_every_byte_of_final_entry(tmp_path):
    """Same contract for the inbox journal."""
    path = tmp_path / "site0.inbox"
    journal = MessageJournal(path)
    for seq in range(1, 5):
        journal.append(1, "inc-a", seq, encode_message(
            Message(MessageType.SECONDARY, src=1, dst=0,
                    payload={"gid": "T1.%d" % seq})))
    journal.sync()
    journal.close()
    data = path.read_bytes()
    last_start = data.rfind(b"\n", 0, len(data) - 1) + 1

    for offset in range(last_start, len(data)):
        damaged = bytearray(data)
        damaged[offset] ^= 1 << 2
        victim = tmp_path / "flip.inbox"
        victim.write_bytes(bytes(damaged))
        try:
            reloaded = MessageJournal(victim)
        except CorruptLogError:
            pass
        else:
            assert reloaded.torn_tail, \
                "journal flip at byte {} silently accepted".format(
                    offset)
            assert len(reloaded.entries) == 3
        victim.unlink()


def _small_log(path):
    """Every kind a site writes: creates, commits, an epoch pair."""
    wal = FileWal(path)
    wal.append(LogRecordKind.CREATE, item=1, value=0, time=0.0)
    wal.append(LogRecordKind.CREATE, item=2, value="zero", time=0.0)
    wal.append(LogRecordKind.COMMIT, gid=gid(1),
               txn_kind=SubtransactionKind.PRIMARY,
               value={1: "T0.1#1", 2: 7}, time=0.25)
    wal.append(LogRecordKind.EPOCH_PREPARE, item=1,
               value={"kind": "add-replica", "item": 1, "site": 2},
               time=0.5)
    wal.append(LogRecordKind.EPOCH_COMMIT, item=1,
               value={"kind": "add-replica", "item": 1, "site": 2},
               time=0.5)
    wal.append(LogRecordKind.COMMIT, gid=GlobalTransactionId(1, 4),
               txn_kind=SubtransactionKind.SECONDARY,
               value={2: "T1.4#2"}, time=0.75)
    wal.close()
    return list(FileWal(path))


def test_checksummed_lines_round_trip_and_detect_missing_field(
        tmp_path):
    """Every line is ``<crc32 of the body bytes, 8 hex> <compact
    JSON>``; a line without the prefix (hand-edited, or JSON on its
    own) is corruption, not a quiet default."""
    path = tmp_path / "site0.wal"
    _small_log(path)
    lines = path.read_bytes().splitlines()
    assert len(lines) == 6
    for line in lines:
        assert re.match(rb"^[0-9a-f]{8} \{", line)
        body = line[9:]
        assert int(line[:8], 16) == zlib.crc32(body)
        assert json.loads(body)["k"] in (
            "create", "commit", "epoch-prepare", "epoch-commit")
        assert b", " not in body and b'": ' not in body  # compact

    path.write_bytes(lines[0][9:] + b"\n")
    with pytest.raises(CorruptLogError, match="checksum"):
        FileWal(path)


def test_every_bit_flip_and_every_truncation_of_a_small_log(tmp_path):
    """Sweep the whole file, not just its last record: each of the
    8 x len single-bit flips and each truncation point is either
    refused or repaired as a torn tail — what loads is always a prefix
    of the records that were written, never a different record.  Each
    variant is a new file: rewriting one file in place truncates it to
    zero first, which ext4 answers with a flush on close."""
    path = tmp_path / "site0.wal"
    written = _small_log(path)
    data = path.read_bytes()

    for cut in range(len(data) + 1):
        victim = tmp_path / "cut{}.wal".format(cut)
        victim.write_bytes(data[:cut])
        loaded = FileWal(victim)
        complete = data[:cut].count(b"\n")
        assert list(loaded) == written[:complete]
        assert loaded.torn_tail == (not data[:cut].endswith(b"\n")
                                    and cut > 0)

    refused = repaired = 0
    for offset in range(len(data)):
        for bit in range(8):
            damaged = bytearray(data)
            damaged[offset] ^= 1 << bit
            victim = tmp_path / "flip{}-{}.wal".format(offset, bit)
            victim.write_bytes(bytes(damaged))
            verdict, result = _reload_verdict(victim)
            if verdict == "error":
                refused += 1
                continue
            # Only a flip that unterminates the final line may load.
            repaired += 1
            assert offset == len(data) - 1
            assert result.torn_tail
            assert list(result) == written[:-1]
    assert repaired == 8 and refused == 8 * (len(data) - 1)


def _parent_format_line(obj):
    """A line as the previous format wrote it: the CRC32 of the sorted
    dump, spliced in front as field ``"c"``."""
    material = json.dumps(obj, sort_keys=True)
    return ('{"c": %d, %s\n' % (
        zlib.crc32(material.encode("utf-8")) & 0xFFFFFFFF,
        material[1:])).encode("utf-8")


def test_parent_format_file_is_refused_by_name(tmp_path):
    """A log of the retired format is never half-read into an empty
    database: both loaders name the format and stop."""
    wal_path = tmp_path / "site0.wal"
    wal_path.write_bytes(b"".join(_parent_format_line(obj) for obj in (
        {"k": "create", "item": 1, "value": 0},
        {"k": "begin", "gid": {"~gid": [0, 1]}, "tk": "primary"},
        {"k": "write", "gid": {"~gid": [0, 1]}, "item": 1, "value": 5},
        {"k": "commit", "gid": {"~gid": [0, 1]}, "t": 0.5})))
    with pytest.raises(CorruptLogError, match="retired"):
        FileWal(wal_path)
    assert wal_path.stat().st_size > 0          # and left as found

    inbox = tmp_path / "site0.wal.inbox"
    inbox.write_bytes(_parent_format_line(
        {"src": 1, "inc": "inc-a", "seq": 1,
         "msg": encode_message(_secondary(1))}))
    with pytest.raises(CorruptLogError, match="retired"):
        MessageJournal(inbox)

    # Begin/write records in the *current* framing are no better.
    wal_path.write_bytes(b"")
    body = b'{"k":"begin","gid":[0,1],"tk":"primary"}'
    wal_path.write_bytes(b"%08x %s\n" % (zlib.crc32(body), body))
    with pytest.raises(CorruptLogError, match="begin"):
        FileWal(wal_path)


# ----------------------------------------------------------------------
# A failed sync is a crash
# ----------------------------------------------------------------------

class _FailingWrites:
    """A file handle whose writes fail while ``full`` is set."""

    def __init__(self, handle):
        self.handle = handle
        self.full = False

    def write(self, block):
        if self.full:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.handle.write(block)

    def __getattr__(self, name):
        return getattr(self.handle, name)


def test_failed_sync_poisons_the_log_so_no_later_record_lands(tmp_path):
    """Seqs 1-3, the write of 2 fails with ENOSPC.  The disk then has
    room again, but the journal must not go on to hold 1 and 3 with
    ``synced_records`` at 3 — which would ack 2, a record that never
    reached the file.  The first failure poisons it: no later sync
    writes a byte, the watermark stays at 1, and every later sync
    (with or without pending records) raises."""
    path = tmp_path / "site0.wal.inbox"
    journal = MessageJournal(path, durability="fsync")
    journal.append(1, "inc-a", 1, encode_message(_secondary(1)))
    assert journal.sync() == 1
    disk = journal._handle = _FailingWrites(journal._handle)
    disk.full = True
    journal.append(1, "inc-a", 2, encode_message(_secondary(2)))
    with pytest.raises(OSError) as failure:
        journal.sync()
    assert failure.value.errno == errno.ENOSPC
    disk.full = False
    size = os.path.getsize(path)
    journal.append(1, "inc-a", 3, encode_message(_secondary(3)))
    for _attempt in range(2):
        with pytest.raises(LogFailedError):
            journal.sync()
    assert journal.synced_records == 1
    journal.close()
    journal.abandon()
    assert journal.synced_records == 1
    assert os.path.getsize(path) == size
    assert [entry["seq"] for entry in MessageJournal(path).entries] == [1]
