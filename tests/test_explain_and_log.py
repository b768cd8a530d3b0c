"""Tests for DSG edge explanations and WAL internals."""

from repro.harness.serializability import (
    build_serialization_graph,
    explain_cycle,
    explain_edges,
    find_dsg_cycle,
)
from repro.sim import Environment
from repro.storage.history import SiteHistory
from repro.storage.log import LogRecordKind, WriteAheadLog
from repro.types import GlobalTransactionId, SubtransactionKind


def gid(site, seq):
    return GlobalTransactionId(site, seq)


def example_41_histories():
    t1, t2 = gid(0, 1), gid(1, 1)
    s0 = SiteHistory(0)
    s0.record(t1, SubtransactionKind.PRIMARY, 1.0, {"b": 0}, {"a": 1})
    s0.record(t2, SubtransactionKind.SECONDARY, 2.0, {}, {"b": 1})
    s1 = SiteHistory(1)
    s1.record(t2, SubtransactionKind.PRIMARY, 1.0, {"a": 0}, {"b": 1})
    s1.record(t1, SubtransactionKind.SECONDARY, 2.0, {}, {"a": 1})
    return [s0, s1], t1, t2


def test_explain_edges_names_each_conflict():
    histories, t1, t2 = example_41_histories()
    forward = explain_edges(histories, t1, t2)
    backward = explain_edges(histories, t2, t1)
    assert any("rw at s0" in reason for reason in forward)
    assert any("rw at s1" in reason for reason in backward)


def test_explain_edges_empty_when_no_conflict():
    histories, t1, _t2 = example_41_histories()
    assert explain_edges(histories, t1, gid(5, 5)) == []


def test_explain_cycle_renders_full_story():
    histories, t1, t2 = example_41_histories()
    graph = build_serialization_graph(histories)
    cycle = find_dsg_cycle(graph)
    assert cycle is not None
    text = explain_cycle(histories, cycle)
    assert "non-serializable cycle" in text
    assert "rw at s0" in text and "rw at s1" in text
    assert str(t1) in text and str(t2) in text


def test_wr_and_ww_explanations():
    t1, t2 = gid(0, 1), gid(0, 2)
    history = SiteHistory(0)
    history.record(t1, SubtransactionKind.PRIMARY, 1.0, {}, {"x": 1})
    history.record(t2, SubtransactionKind.PRIMARY, 2.0, {"x": 1},
                   {"x": 2})
    reasons = explain_edges([history], t1, t2)
    kinds = {reason.split(" ")[0] for reason in reasons}
    assert kinds == {"ww", "wr"}


# ----------------------------------------------------------------------
# WAL internals
# ----------------------------------------------------------------------


def test_wal_lsns_are_dense_and_ordered():
    wal = WriteAheadLog()
    for index in range(5):
        record = wal.append(LogRecordKind.COMMIT, gid=gid(0, index),
                            value={"x": index}, time=float(index))
        assert record.lsn == index
    assert wal.last_lsn == 4
    assert len(wal) == 5
    assert [record.lsn for record in wal] == list(range(5))


def test_wal_records_of_filters_by_gid():
    wal = WriteAheadLog()
    wal.append(LogRecordKind.COMMIT, gid=gid(0, 1), value={"x": 1})
    wal.append(LogRecordKind.COMMIT, gid=gid(0, 1), value={"y": 1})
    wal.append(LogRecordKind.COMMIT, gid=gid(0, 2), value={"x": 2})
    assert len(wal.records_of(gid(0, 1))) == 2
    assert len(wal.records_of(gid(0, 2))) == 1
    assert wal.records_of(gid(9, 9)) == []


def test_empty_wal():
    wal = WriteAheadLog()
    assert len(wal) == 0
    assert wal.last_lsn == -1
    from repro.storage.log import recover
    engine = recover(Environment(), 0, wal)
    assert engine.item_ids() == set()


def test_runner_attaches_violation_explanation():
    from repro.harness.runner import ExperimentConfig, run_experiment
    from repro.workload.params import WorkloadParams

    params = WorkloadParams(
        n_sites=5, n_items=30, threads_per_site=3,
        transactions_per_thread=25, replication_probability=0.6,
        site_probability=0.8, backedge_probability=0.4,
        read_op_probability=0.5, read_txn_probability=0.2,
        deadlock_timeout=0.02)
    for seed in range(6):
        result = run_experiment(ExperimentConfig(
            protocol="indiscriminate", params=params, seed=seed,
            strict_serializability=False, drain_time=2.0))
        if not result.serializable:
            assert result.violation_explanation is not None
            assert "non-serializable cycle" in \
                result.violation_explanation
            assert str(result.violation_cycle[0]) in \
                result.violation_explanation
            return
    raise AssertionError("no violation observed across seeds")
