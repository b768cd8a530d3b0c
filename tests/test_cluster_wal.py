"""Durable WAL and inbound-message journal: files survive a "crash"
(dropping every in-memory object) and rebuild identical state."""

from repro.cluster.codec import encode_message
from repro.cluster.wal import FileWal, MessageJournal
from repro.network.message import Message, MessageType
from repro.sim import Environment
from repro.storage import StorageEngine
from repro.storage.log import LogRecordKind, recover
from repro.types import GlobalTransactionId, SubtransactionKind


def gid(seq):
    return GlobalTransactionId(0, seq)


def build_engine(wal):
    env = Environment()
    engine = StorageEngine(env, site_id=0, lock_timeout=None, wal=wal)
    engine.create_item(1, value=10)
    engine.create_item(2, value=20)
    return env, engine


def run_workload(env, engine):
    def workload():
        txn1 = engine.begin(gid(1))
        yield from engine.write(txn1, 1, 111)
        engine.commit(txn1)
        txn2 = engine.begin(gid(2), SubtransactionKind.SECONDARY)
        yield from engine.write(txn2, 2, 222)
        engine.commit(txn2)
        txn3 = engine.begin(gid(3))
        yield from engine.write(txn3, 1, 333)
        engine.abort(txn3)

    env.process(workload())
    env.run()


def test_file_wal_round_trips_records(tmp_path):
    path = tmp_path / "site0.wal"
    wal = FileWal(path)
    env, engine = build_engine(wal)
    run_workload(env, engine)
    wal.close()
    # Two creates, two commits; the aborted transaction left nothing.
    assert len(wal) == 4
    # Nothing appended is kept in memory: this log loaded no records.
    assert list(wal) == [] and wal.recovered_records == 0

    reloaded = FileWal(path)
    assert reloaded.recovered_records == len(reloaded) == 4
    assert [(record.kind, record.gid, record.txn_kind, record.item,
             record.value) for record in reloaded] == [
        (LogRecordKind.CREATE, None, None, 1, 10),
        (LogRecordKind.CREATE, None, None, 2, 20),
        (LogRecordKind.COMMIT, gid(1), SubtransactionKind.PRIMARY,
         None, {1: 111}),
        (LogRecordKind.COMMIT, gid(2), SubtransactionKind.SECONDARY,
         None, {2: 222}),
    ]
    assert [record.lsn for record in reloaded] == [0, 1, 2, 3]


def test_recover_from_file_wal_restores_committed_state(tmp_path):
    path = tmp_path / "site0.wal"
    wal = FileWal(path)
    env, engine = build_engine(wal)
    run_workload(env, engine)
    wal.close()
    del env, engine  # the crash: all volatile state gone

    env2 = Environment()
    recovered = recover(env2, 0, FileWal(path), lock_timeout=None)
    assert recovered.item(1).value == 111   # committed
    assert recovered.item(2).value == 222   # committed secondary
    assert recovered.item(1).committed_version == 1  # abort undone
    assert recovered.item(1).writers == [gid(1)]
    assert recovered.item(2).writers == [gid(2)]
    assert [(entry.gid, entry.kind) for entry in recovered.history] == \
        [(gid(1), SubtransactionKind.PRIMARY),
         (gid(2), SubtransactionKind.SECONDARY)]
    # Recovery is idempotent across restarts: the recovered engine can
    # keep appending to the same file.
    assert FileWal(path).recovered_records == len(wal) == 4


def test_file_wal_append_after_reload(tmp_path):
    path = tmp_path / "site0.wal"
    wal = FileWal(path)
    wal.append(LogRecordKind.CREATE, item=7, value=0, time=0.0)
    wal.close()

    wal2 = FileWal(path)
    record = wal2.append(LogRecordKind.COMMIT, gid=gid(9),
                         txn_kind=SubtransactionKind.PRIMARY,
                         value={7: "x"}, time=1.0)
    assert record.lsn == 1 and len(wal2) == 2
    # Held in memory: what was on disk at start-up, not the append.
    assert [held.kind for held in wal2] == [LogRecordKind.CREATE]
    wal2.close()
    reloaded = FileWal(path)
    assert [record.kind for record in reloaded] == \
        [LogRecordKind.CREATE, LogRecordKind.COMMIT]
    assert list(reloaded)[1].gid == gid(9)
    assert list(reloaded)[1].value == {7: "x"}


def _secondary(seq):
    return Message(MessageType.SECONDARY, src=1, dst=0,
                   payload={"gid": GlobalTransactionId(1, seq),
                            "writes": {3: seq}})


def test_message_journal_survives_reload(tmp_path):
    path = tmp_path / "site0.wal.inbox"
    journal = MessageJournal(path)
    for seq in range(1, 4):
        journal.append(1, "inc-a", seq,
                       encode_message(_secondary(seq)))
    journal.close()

    reloaded = MessageJournal(path)
    assert len(reloaded) == 3
    assert [entry["seq"] for entry in reloaded.entries] == [1, 2, 3]
    assert all(entry["src"] == 1 and entry["inc"] == "inc-a"
               for entry in reloaded.entries)
    # Appending after reload extends, not truncates.
    reloaded.append(1, "inc-a", 4, encode_message(_secondary(4)))
    reloaded.close()
    assert len(MessageJournal(path)) == 4
