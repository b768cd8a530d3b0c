#!/usr/bin/env python3
"""A live DAG(WT) cluster surviving a site crash, on real sockets.

The simulator's protocol classes run here unchanged, but over TCP: each
site of the copy graph becomes a :class:`SiteServer` process-in-miniature
(own engine, WAL, discrete-event clock pinned to wall time), and updates
propagate through the acknowledged, journalled transport instead of the
simulated network.  The demo

1. starts a 3-site cluster with durable WALs,
2. commits a first wave of transactions through the cluster client,
3. **kills** one replica site abruptly (volatile state gone, WAL and
   message journal survive),
4. keeps committing at the surviving sites while the victim is down,
5. restarts the victim, which recovers from its WAL and replays its
   inbox journal while its tree parent resends, in order, everything
   the victim never acknowledged, and
6. verifies the paper's two global oracles — replica convergence and an
   acyclic dynamic serialization graph — over the live histories.

Usage::

    python examples/live_cluster.py [base_port]

Sites listen on ``base_port`` .. ``base_port + 2`` (default 7470).
"""

import asyncio
import sys
import tempfile

from repro.cluster.loadgen import judge, start_cluster, start_site
from repro.cluster.spec import ClusterSpec
from repro.types import (
    GlobalTransactionId,
    Operation,
    OpType,
    TransactionSpec,
)
from repro.workload.params import WorkloadParams

VICTIM = 2


def txn(site, seq, *ops):
    operations = tuple(
        Operation(OpType.READ if kind == "r" else OpType.WRITE, item)
        for kind, item in ops)
    return TransactionSpec(GlobalTransactionId(site, seq), site,
                           operations)


async def commit_wave(client, placement, first_seq, n_per_site):
    """Each site updates a few of its own primary items."""
    committed = 0
    for site in range(placement.n_sites):
        primaries = sorted(placement.primary_items_at(site))
        if not primaries:
            continue
        for offset in range(n_per_site):
            item = primaries[offset % len(primaries)]
            spec = txn(site, first_seq + offset, ("r", item),
                       ("w", item))
            outcome = await client.run_transaction(spec)
            if outcome["status"] == "committed":
                committed += 1
    return committed


async def main(wal_dir: str) -> None:
    base_port = int(sys.argv[1]) if len(sys.argv) > 1 else 7470
    params = WorkloadParams(n_sites=3, n_items=12,
                            replication_probability=0.8,
                            deadlock_timeout=0.05)
    spec = ClusterSpec(params=params, protocol="dag_wt", seed=3,
                       base_port=base_port)
    placement = spec.build_placement()

    async with start_cluster(spec, wal_dir) as (servers, client):
        print("3-site DAG(WT) cluster up on ports {}..{}".format(
            spec.base_port, spec.base_port + 2))

        committed = await commit_wave(client, placement, first_seq=0,
                                      n_per_site=4)
        print("wave 1: {} transactions committed cluster-wide".format(
            committed))

        servers[VICTIM].kill()
        print("site s{} killed (volatile state dropped; WAL + inbox "
              "journal survive)".format(VICTIM))

        survivors = [s for s in range(3) if s != VICTIM]
        committed = 0
        for site in survivors:
            primaries = sorted(placement.primary_items_at(site))
            for seq in range(4, 8):
                item = primaries[seq % len(primaries)]
                outcome = await client.run_transaction(
                    txn(site, seq, ("w", item)))
                if outcome["status"] == "committed":
                    committed += 1
        print("wave 2 (victim down): {} transactions committed at the "
              "survivors".format(committed))

        servers[VICTIM] = await start_site(spec, wal_dir, VICTIM)
        assert servers[VICTIM].recovered, "restart should replay the WAL"
        print("site s{} restarted: WAL replayed, inbox journal "
              "re-delivered; peers resend the unacked rest".format(VICTIM))

        verdict = await judge(client, timeout=20.0)
        assert not verdict.violations, verdict.violations
        print("Recovered site caught up: all replicas convergent, "
              "serialization graph acyclic")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="live-cluster-") as scratch:
        asyncio.run(main(scratch))
