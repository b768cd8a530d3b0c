"""Randomized cross-protocol stress tests.

The central claims of the paper are serializability guarantees; here we
hammer every protocol with randomized contended workloads and verify,
for each run:

- the global direct-serialization graph is acyclic (Theorems 2.1/3.1 and
  the BackEdge correctness argument),
- replicas converge to the primary values once quiescent (propagating
  protocols),
- no locks or active transactions leak.
"""

import dataclasses

import pytest

from repro.harness.convergence import check_convergence
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.workload.params import WorkloadParams

#: Small but contended: few items, many threads, short timeout.
CONTENDED = WorkloadParams(
    n_sites=4, n_items=24, threads_per_site=3,
    transactions_per_thread=15, replication_probability=0.6,
    site_probability=0.7, read_op_probability=0.5,
    read_txn_probability=0.3, deadlock_timeout=0.02)

#: Cheap cost model so the stress runs fast.
FAST_COSTS = dict(cpu_txn_setup=0.002, cpu_per_op=0.0003,
                  cpu_commit=0.0003, cpu_message=0.0002,
                  cpu_apply_write=0.0003, cpu_remote_read=0.0003)


def run(protocol, seed, **param_changes):
    params = CONTENDED.replaced(**param_changes)
    config = ExperimentConfig(protocol=protocol, params=params, seed=seed,
                              cost_overrides=dict(FAST_COSTS),
                              drain_time=2.0)
    return run_experiment(config)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("protocol", ["backedge", "psl", "eager"])
def test_cyclic_graph_protocols_serializable_under_contention(protocol,
                                                              seed):
    result = run(protocol, seed, backedge_probability=0.5)
    assert result.serializable is True
    assert result.committed > 0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("protocol", ["dag_wt", "dag_t", "backedge"])
def test_dag_protocols_serializable_under_contention(protocol, seed):
    result = run(protocol, seed, backedge_probability=0.0)
    assert result.serializable is True
    assert result.committed > 0


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("protocol,b", [
    ("dag_wt", 0.0), ("dag_t", 0.0), ("backedge", 0.5), ("eager", 0.5)])
def test_replicas_converge_after_quiescence(protocol, b, seed):
    """End state check: every replica equals its primary after drain."""
    from repro.harness.runner import build_system
    from repro.sim.events import AllOf
    from repro.errors import TransactionAborted

    params = CONTENDED.replaced(backedge_probability=b,
                                transactions_per_thread=10)
    config = ExperimentConfig(protocol=protocol, params=params, seed=seed,
                              cost_overrides=dict(FAST_COSTS))
    env, system, protocol_obj, generator = build_system(config)

    def client(site_id, specs, ref):
        for spec in specs:
            try:
                yield from protocol_obj.run_transaction(site_id, spec,
                                                        ref[0])
            except TransactionAborted:
                pass

    clients = []
    for site_id in range(params.n_sites):
        for thread in range(params.threads_per_site):
            ref = []
            process = env.process(
                client(site_id, generator.thread_stream(site_id, thread),
                       ref))
            ref.append(process)
            clients.append(process)
    env.run(until=AllOf(env, clients))
    env.run(until=env.now + 3.0)  # Drain.
    check_convergence(system)
    # Nothing should be left holding locks or running.
    for site in system.sites:
        assert not site.engine.active_transactions
        assert not site.engine.locks.waiting_requests()


@pytest.mark.parametrize("protocol", ["backedge", "psl"])
def test_extreme_write_heavy_workload_survives(protocol):
    result = run(protocol, 11, backedge_probability=1.0,
                 read_txn_probability=0.0, read_op_probability=0.0)
    assert result.serializable is True
    assert result.committed + result.aborted == \
        CONTENDED.n_sites * CONTENDED.threads_per_site \
        * CONTENDED.transactions_per_thread


def test_single_site_degenerate_system():
    params = WorkloadParams(n_sites=1, n_items=10, threads_per_site=2,
                            transactions_per_thread=10,
                            replication_probability=0.5)
    for protocol in ("dag_wt", "dag_t", "backedge", "psl", "eager"):
        config = ExperimentConfig(protocol=protocol, params=params,
                                  seed=1, cost_overrides=dict(FAST_COSTS))
        result = run_experiment(config)
        assert result.serializable is True
        assert result.total_messages == 0  # One site: nothing to send.


def test_no_dead_letters_in_any_protocol():
    for protocol in ("dag_wt", "dag_t", "backedge", "psl", "eager"):
        from repro.harness.runner import build_system
        b = 0.0 if protocol in ("dag_wt", "dag_t") else 0.4
        params = CONTENDED.replaced(backedge_probability=b,
                                    transactions_per_thread=5)
        config = ExperimentConfig(protocol=protocol, params=params,
                                  seed=5, cost_overrides=dict(FAST_COSTS))
        result = run_experiment(config)
        assert result.serializable is True
        del result
