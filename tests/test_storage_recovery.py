"""Tests for write-ahead logging and crash recovery, including a
property test: recovered state always equals the pre-crash committed
state."""

import os
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cluster.wal import FileWal
from repro.errors import TransactionAborted
from repro.sim import Environment
from repro.storage import StorageEngine
from repro.storage.locks import LockMode
from repro.storage.log import (
    LogRecordKind,
    WriteAheadLog,
    recover,
)
from repro.types import GlobalTransactionId, SubtransactionKind


def gid(seq):
    return GlobalTransactionId(0, seq)


def run_txn(env, generator):
    process = env.process(generator)
    env.run()
    return process.value


def build_engine():
    env = Environment()
    wal = WriteAheadLog()
    engine = StorageEngine(env, site_id=0, lock_timeout=None, wal=wal)
    engine.create_item("a", value=10)
    engine.create_item("b", value=20)
    return env, wal, engine


def test_wal_records_lifecycle():
    """One COMMIT record per committing subtransaction that wrote —
    gid, kind, write set — and nothing at begin, write or abort, nor
    for a subtransaction that only read."""
    env, wal, engine = build_engine()

    def txn_proc():
        txn = engine.begin(gid(1))
        yield from engine.write(txn, "a", 1)
        yield from engine.write(txn, "b", 2)
        yield from engine.write(txn, "a", 3)
        engine.commit(txn)
        reader = engine.begin(gid(2))
        assert (yield from engine.read(reader, "a")) == 3
        engine.commit(reader)
        loser = engine.begin(gid(3), SubtransactionKind.SECONDARY)
        yield from engine.write(loser, "b", 9)
        engine.abort(loser)

    run_txn(env, txn_proc())
    kinds = [record.kind for record in wal]
    assert kinds == [LogRecordKind.CREATE, LogRecordKind.CREATE,
                     LogRecordKind.COMMIT]
    (commit,) = wal.records_of(gid(1))
    assert commit.txn_kind is SubtransactionKind.PRIMARY
    assert commit.value == {"a": 3, "b": 2}
    assert wal.records_of(gid(2)) == wal.records_of(gid(3)) == []
    # The read-only commit is in the live history all the same.
    assert [entry.gid for entry in engine.history] == [gid(1), gid(2)]


def test_recover_refuses_a_kind_it_does_not_replay():
    """``LogRecordKind.WRITE`` survives for the ledger's microbench
    only; a log holding one was not written by this engine, and
    skipping it would rebuild a database that silently lacks it."""
    env, wal, engine = build_engine()
    wal.append(LogRecordKind.WRITE, gid=gid(1), item="a", value=5)
    engine.crash()
    with pytest.raises(ValueError, match="'write'"):
        recover(env, 0, wal, lock_timeout=None)


def test_recovery_restores_committed_state():
    env, wal, engine = build_engine()

    def workload():
        txn1 = engine.begin(gid(1))
        yield from engine.write(txn1, "a", 111)
        engine.commit(txn1)
        txn2 = engine.begin(gid(2))
        yield from engine.write(txn2, "b", 222)
        engine.abort(txn2)
        txn3 = engine.begin(gid(3))
        yield from engine.write(txn3, "a", 333)
        engine.commit(txn3)

    run_txn(env, workload())
    engine.crash()
    recovered = recover(env, 0, wal, lock_timeout=None)
    assert recovered.item("a").value == 333
    assert recovered.item("a").committed_version == 2
    assert recovered.item("a").writer_of(1) == gid(1)
    assert recovered.item("a").writer_of(2) == gid(3)
    assert recovered.item("b").value == 20  # The abort never happened.
    assert recovered.item("b").committed_version == 0
    assert [entry.gid for entry in recovered.history] == [gid(1), gid(3)]


def test_uncommitted_transaction_lost_on_crash():
    """A transaction with writes but no commit record is discarded —
    redo-only logging needs no undo at recovery."""
    env, wal, engine = build_engine()

    def workload():
        txn = engine.begin(gid(1))
        yield from engine.write(txn, "a", 999)
        # Crash strikes before commit.

    run_txn(env, workload())
    engine.crash()
    recovered = recover(env, 0, wal, lock_timeout=None)
    assert recovered.item("a").value == 10
    assert recovered.item("a").committed_version == 0


def test_crashed_engine_refuses_new_transactions():
    env, wal, engine = build_engine()
    engine.crash()
    with pytest.raises(TransactionAborted):
        engine.begin(gid(1))


def test_recovered_engine_keeps_logging():
    env, wal, engine = build_engine()

    def first():
        txn = engine.begin(gid(1))
        yield from engine.write(txn, "a", 1)
        engine.commit(txn)

    run_txn(env, first())
    engine.crash()
    recovered = recover(env, 0, wal, lock_timeout=None)

    def second():
        txn = recovered.begin(gid(2))
        yield from recovered.write(txn, "a", 2)
        recovered.commit(txn)

    run_txn(env, second())
    # A second crash/recovery round sees both commits.
    recovered.crash()
    twice = recover(env, 0, wal, lock_timeout=None)
    assert twice.item("a").value == 2
    assert twice.item("a").committed_version == 2


def test_engine_without_wal_logs_nothing():
    env = Environment()
    engine = StorageEngine(env, site_id=0, lock_timeout=None)
    engine.create_item("a")
    assert engine.wal is None  # And no exception anywhere.


# ----------------------------------------------------------------------
# Property: recovery == pre-crash committed state
# ----------------------------------------------------------------------

action_strategy = st.lists(
    st.tuples(st.sampled_from(["w_a", "w_b"]), st.integers(0, 99),
              st.booleans()),
    max_size=25)


@settings(max_examples=80, deadline=None)
@given(actions=action_strategy, crash_point=st.integers(0, 25))
def test_property_recovery_equals_committed_state(actions, crash_point):
    env = Environment()
    wal = WriteAheadLog()
    engine = StorageEngine(env, site_id=0, lock_timeout=None, wal=wal)
    engine.create_item("a", value=0)
    engine.create_item("b", value=0)
    committed = {"a": 0, "b": 0}
    versions = {"a": 0, "b": 0}

    def workload():
        for index, (action, value, do_commit) in enumerate(actions):
            if index >= crash_point:
                return
            item = "a" if action == "w_a" else "b"
            txn = engine.begin(gid(index + 1))
            yield from engine.write(txn, item, value)
            if do_commit:
                engine.commit(txn)
                committed[item] = value
                versions[item] += 1
            else:
                engine.abort(txn)

    env.process(workload())
    env.run()
    engine.crash()
    recovered = recover(env, 0, wal, lock_timeout=None)
    for item in ("a", "b"):
        assert recovered.item(item).value == committed[item]
        assert recovered.item(item).committed_version == versions[item]


# ----------------------------------------------------------------------
# Property: recovery == the live engine, over interleaved subtransactions
# and over both logs
# ----------------------------------------------------------------------

interleaving_strategy = st.lists(
    st.tuples(st.sampled_from(["write", "write", "read", "commit",
                               "abort"]),
              st.integers(0, 2),                      # which open slot
              st.sampled_from([1, 2, 3]),             # item
              st.one_of(st.integers(0, 99), st.text(max_size=4))),
    max_size=40)


def _committed_state(engine):
    return {item: (engine.item(item).value,
                   engine.item(item).committed_version,
                   list(engine.item(item).writers))
            for item in sorted(engine.item_ids())}


def _write_history(engine):
    return [(entry.gid, entry.kind, dict(entry.writes))
            for entry in engine.history if entry.writes]


@pytest.mark.parametrize("durable", [False, True],
                         ids=["memory-log", "file-log-reopened"])
@settings(max_examples=60, deadline=None)
@given(steps=interleaving_strategy)
def test_property_recovery_equals_live_engine_over_interleavings(
        durable, steps):
    """Up to three subtransactions are open at once; each step lets one
    of them write, read, commit or abort (a step that would wait for a
    lock is skipped).  Some commit with writes, some commit having only
    read, some abort, some are still in flight at the crash.  The log
    holds one record per committing writer, and replaying it — from
    memory, or from a ``FileWal`` closed and reopened from disk — gives
    the live engine's values, versions, writer lineage and write
    history exactly."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "site0.wal")
        env = Environment()
        wal = FileWal(path) if durable else WriteAheadLog()
        engine = StorageEngine(env, site_id=0, lock_timeout=None,
                               wal=wal)
        for item in (1, 2, 3):
            engine.create_item(item, value=0)
        slots = [None, None, None]
        begun = [0]
        committed_writers = [0]

        def free_for(txn, item, exclusive):
            others = {holder: mode for holder, mode
                      in engine.locks.holders(item).items()
                      if holder is not txn}
            return not others if exclusive else all(
                mode is LockMode.SHARED for mode in others.values())

        def step(action, slot, item, value):
            txn = slots[slot]
            if txn is None:
                begun[0] += 1
                kind = (SubtransactionKind.PRIMARY if begun[0] % 2
                        else SubtransactionKind.SECONDARY)
                txn = slots[slot] = engine.begin(gid(begun[0]), kind)
            if action == "write" and free_for(txn, item, True):
                yield from engine.write(txn, item, value)
            elif action == "read" and free_for(txn, item, False):
                yield from engine.read(txn, item)
            elif action == "commit":
                committed_writers[0] += bool(txn.writes)
                engine.commit(txn)
                slots[slot] = None
            elif action == "abort":
                engine.abort(txn)
                slots[slot] = None

        for action in steps:
            run_txn(env, step(*action))
        assert len(wal) == 3 + committed_writers[0]
        # What the crash leaves is what aborting the in-flight
        # subtransactions leaves: neither says anything to the log.
        for txn in slots:
            if txn is not None:
                engine.abort(txn)
        assert len(wal) == 3 + committed_writers[0]
        live_state = _committed_state(engine)
        live_history = _write_history(engine)
        engine.crash()
        if durable:
            wal.close()
            wal = FileWal(path)
            assert wal.recovered_records == 3 + committed_writers[0]
        recovered = recover(env, 0, wal, lock_timeout=None)
        assert _committed_state(recovered) == live_state
        assert _write_history(recovered) == live_history
        if durable:
            wal.close()


# ----------------------------------------------------------------------
# Property: the per-item writer membership index == the writer lineage
# ----------------------------------------------------------------------

lineage_step_strategy = st.one_of(
    st.tuples(st.just("commit"),
              st.sets(st.sampled_from(["a", "b"]), min_size=1)),
    st.tuples(st.just("abort"),
              st.sets(st.sampled_from(["a", "b"]), min_size=1)),
    st.tuples(st.just("install"), st.sampled_from(["a", "b"]),
              st.integers(1, 3), st.integers(0, 2)),
    st.tuples(st.just("crash")),
)


@settings(max_examples=120, deadline=None)
@given(steps=st.lists(lineage_step_strategy, max_size=30))
def test_property_writer_index_equals_lineage(steps):
    """After any mix of commits, aborts, installed tails and
    crash/recover rounds, ``has_applied`` answers exactly "is this gid
    in the item's ``writers`` lineage" — the index behind it is
    maintained at all three places a lineage grows."""
    env = Environment()
    wal = WriteAheadLog()
    engine = StorageEngine(env, site_id=0, lock_timeout=None, wal=wal)
    engine.create_item("a")
    engine.create_item("b")
    used = []

    def fresh_gid():
        used.append(gid(len(used) + 1))
        return used[-1]

    def write_txn(items, commit):
        txn = engine.begin(fresh_gid())
        for item in sorted(items):
            yield from engine.write(txn, item, len(used))
        if commit:
            engine.commit(txn)
        else:
            engine.abort(txn)

    for step in steps:
        if step[0] in ("commit", "abort"):
            run_txn(env, write_txn(step[1], step[0] == "commit"))
        elif step[0] == "install":
            _, item, missed, overlap = step
            # A tail from the primary: ``overlap`` versions this copy
            # already has (their recorded writers), then ``missed`` new.
            record = engine.item(item)
            overlap = min(overlap, record.committed_version)
            tail = record.writers[record.committed_version - overlap:] \
                + [fresh_gid() for _ in range(missed)]
            assert engine.install(
                item, 7, record.committed_version + missed,
                tail) == missed
        else:
            engine.crash()
            engine = recover(env, 0, wal, lock_timeout=None)
        for item in ("a", "b"):
            record = engine.item(item)
            assert len(record.writers) == record.committed_version
            assert record._writer_set == set(record.writers)
            for candidate in used:
                assert engine.has_applied(item, candidate) == \
                    (candidate in record.writers)


def test_has_applied_does_not_scan_the_lineage(monkeypatch):
    """The duplicate filter runs per item per replicated update: on an
    item with 10 000 committed versions a miss must cost zero gid
    comparisons (and a hit at most one), not one per version."""
    env = Environment()
    engine = StorageEngine(env, site_id=0, lock_timeout=None)
    engine.create_item("a")
    engine.install("a", 1, 10_000,
                         [gid(seq) for seq in range(10_000)])
    assert engine.item("a").committed_version == 10_000

    calls = [0]
    dataclass_eq = GlobalTransactionId.__eq__

    def counting_eq(self, other):
        calls[0] += 1
        return dataclass_eq(self, other)

    monkeypatch.setattr(GlobalTransactionId, "__eq__", counting_eq)
    assert not engine.has_applied("a", gid(10_000))
    assert not engine.has_applied("a", GlobalTransactionId(1, 5))
    assert calls[0] == 0
    assert engine.has_applied("a", gid(9_999))
    assert calls[0] <= 1
