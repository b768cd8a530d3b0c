#!/usr/bin/env python3
"""Site crash and log-based recovery inside a replicated system.

The paper's substrate, DataBlitz, is a recoverable main-memory storage
manager, and replication is motivated by reliability (Sec. 1).  This
example equips every site engine with a write-ahead log, runs a DAG(WT)
workload, *crashes* one replica site (volatile state wiped), recovers it
from its log, and continues the workload — verifying that the recovered
site holds exactly its pre-crash committed state and that post-recovery
propagation brings every replica back in sync.

Usage::

    python examples/site_recovery.py
"""

from repro.core.base import ReplicatedSystem, SystemConfig, make_protocol
from repro.errors import TransactionAborted
from repro.graph.placement import DataPlacement
from repro.harness.convergence import check_convergence
from repro.harness.serializability import check_serializable
from repro.sim.environment import Environment
from repro.storage.log import WriteAheadLog, recover
from repro.types import (
    GlobalTransactionId,
    Operation,
    OpType,
    TransactionSpec,
)


def txn(site, seq, *ops):
    operations = tuple(
        Operation(OpType.READ if kind == "r" else OpType.WRITE, item)
        for kind, item in ops)
    return TransactionSpec(GlobalTransactionId(site, seq), site,
                           operations)


def main() -> None:
    placement = DataPlacement(3)
    placement.add_item("stock", primary=0, replicas=[1, 2])
    placement.add_item("price", primary=1, replicas=[2])
    placement.add_item("note", primary=2)

    env = Environment()
    system = ReplicatedSystem(env, placement, SystemConfig())
    protocol = make_protocol("dag_wt", system)
    system.use_protocol(protocol)

    # Equip every engine with a write-ahead log, replaying the schema
    # CREATEs that already happened into it.
    logs = {}
    for site in system.sites:
        wal = WriteAheadLog()
        site.engine.attach_wal(wal)
        for item_id in sorted(site.engine.item_ids()):
            from repro.storage.log import LogRecordKind
            wal.append(LogRecordKind.CREATE, item=item_id,
                       value=site.engine.item(item_id).value,
                       time=env.now)
        logs[site.site_id] = wal

    def run_txn(spec, delay):
        ref = []

        def body():
            yield env.timeout(delay)
            try:
                yield from protocol.run_transaction(spec.origin, spec,
                                                    ref[0])
            except TransactionAborted as exc:
                print("  {} aborted: {}".format(spec.gid, exc.reason))

        ref.append(env.process(body()))

    print("Phase 1: updates flow to all replicas")
    run_txn(txn(0, 1, ("w", "stock")), 0.00)
    run_txn(txn(1, 1, ("r", "stock"), ("w", "price")), 0.10)
    env.run(until=1.0)
    victim = system.site_of(2)
    print("  site 2 before crash: stock=v{}, price=v{}".format(
        victim.engine.item("stock").committed_version,
        victim.engine.item("price").committed_version))

    print("Phase 2: site 2 crashes; volatile state is gone")
    victim.engine.crash()
    assert not victim.engine.has_item("stock")

    print("Phase 3: recovery replays the redo log")
    victim.engine = recover(env, 2, logs[2],
                            lock_timeout=system.config.lock_timeout)
    protocol.install_lazy_timeout_policy(victim.engine.locks)
    print("  site 2 after recovery: stock=v{} (value preserved), "
          "price=v{}".format(
              victim.engine.item("stock").committed_version,
              victim.engine.item("price").committed_version))
    assert victim.engine.item("stock").committed_version == 1
    assert victim.engine.item("price").committed_version == 1

    print("Phase 4: the workload continues through the recovered site")
    run_txn(txn(0, 2, ("w", "stock")), 0.00)
    run_txn(txn(2, 1, ("r", "stock"), ("r", "price"), ("w", "note")),
            0.40)
    env.run(until=env.now + 2.0)

    check_convergence(system)
    check_serializable(site.engine.history for site in system.sites)
    print("Recovered site caught up; all replicas convergent; the "
          "post-crash execution is serializable.")


if __name__ == "__main__":
    main()
