"""Tests for write-ahead logging and crash recovery, including a
property test: recovered state always equals the pre-crash committed
state."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import TransactionAborted
from repro.sim import Environment
from repro.storage import StorageEngine
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
    env, wal, engine = build_engine()

    def txn_proc():
        txn = engine.begin(gid(1))
        yield from engine.write(txn, "a", 1)
        engine.commit(txn)

    run_txn(env, txn_proc())
    kinds = [record.kind for record in wal]
    assert kinds == [LogRecordKind.CREATE, LogRecordKind.CREATE,
                     LogRecordKind.BEGIN, LogRecordKind.WRITE,
                     LogRecordKind.COMMIT]
    assert wal.records_of(gid(1))[0].txn_kind is \
        SubtransactionKind.PRIMARY


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
# Property: the per-item writer membership index == the writer lineage
# ----------------------------------------------------------------------

lineage_step_strategy = st.one_of(
    st.tuples(st.just("commit"),
              st.sets(st.sampled_from(["a", "b"]), min_size=1)),
    st.tuples(st.just("abort"),
              st.sets(st.sampled_from(["a", "b"]), min_size=1)),
    st.tuples(st.just("catchup"), st.sampled_from(["a", "b"]),
              st.integers(1, 3), st.integers(0, 2)),
    st.tuples(st.just("crash")),
)


@settings(max_examples=120, deadline=None)
@given(steps=st.lists(lineage_step_strategy, max_size=30))
def test_property_writer_index_equals_lineage(steps):
    """After any mix of commits, aborts, catch-up tails and
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
        elif step[0] == "catchup":
            _, item, missed, overlap = step
            # A tail from the primary: ``overlap`` versions this copy
            # already has (their recorded writers), then ``missed`` new.
            record = engine.item(item)
            overlap = min(overlap, record.committed_version)
            tail = record.writers[record.committed_version - overlap:] \
                + [fresh_gid() for _ in range(missed)]
            assert engine.apply_catchup(
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
    engine.apply_catchup("a", 1, 10_000,
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
