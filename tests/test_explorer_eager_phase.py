"""The BackEdge eager phase under perturbed schedules.

The explorer's generator places replicas only downstream of a primary,
so its copy graphs are DAGs and a BackEdge run over them never leaves
the lazy half.  This battery grafts the paper's Example 4.1 onto
generated scenarios — item ``a`` at site ``p`` replicated to an earlier
site ``q``, item ``b`` at ``q`` replicated to ``p``, two crossing
transactions that each read the other's item and write their own, and a
later lone writer of ``a`` that has the eager phase to itself — and runs
them under seeded perturbation plans with the default oracles.
Across the battery every eager message type must be sent and the
victim rules must wound, so the oracles really judged the eager phase.
"""

from __future__ import annotations

import collections
import dataclasses
import random

import pytest

from repro.explorer import (
    PerturbationPlan,
    default_oracles,
    generate_scenario,
    run_schedule,
)
from repro.explorer.oracles import Oracle
from repro.network.message import MessageType

#: protocol -> (seeds, eager message types it must send).
BATTERIES = {
    "backedge": (range(40), {
        MessageType.BACKEDGE, MessageType.SPECIAL, MessageType.PREPARE,
        MessageType.VOTE, MessageType.DECISION,
        MessageType.ABORT_SUBTXN}),
    "backedge_t": (range(8), {
        MessageType.BACKEDGE, MessageType.VOTE, MessageType.DECISION,
        MessageType.ABORT_SUBTXN}),
}


class _SentMessages(Oracle):
    """Not a property: records what the run sent, for the battery."""

    name = "sent"

    def __init__(self, counts):
        self.counts = counts

    def check(self, system, protocol):
        self.counts.update(system.network.sent_by_type)
        return []


def graft_example_41(spec, seed):
    """``spec`` plus an Example 4.1 pair between two random sites and a
    later uncontended write along the backedge."""
    rng = random.Random(seed)
    q, p = sorted(rng.sample(range(spec.n_sites), 2))
    a, b = len(spec.items), len(spec.items) + 1
    seqs = collections.Counter()
    for site, seq, _at, _ops in spec.transactions:
        seqs[site] = max(seqs[site], seq)
    at = round(rng.uniform(0.0, 0.3), 4)
    grafted = ((p, seqs[p] + 1, at, (("r", b), ("w", a))),
               (q, seqs[q] + 1, at, (("r", a), ("w", b))),
               (p, seqs[p] + 2, at + 0.5, (("w", a),)))
    return dataclasses.replace(
        spec, items=spec.items + ((a, p, (q,)), (b, q, (p,))),
        transactions=tuple(sorted(
            spec.transactions + grafted,
            key=lambda txn: (txn[2], txn[0], txn[1]))))


def plans(seed):
    return (PerturbationPlan(seed=seed, latency_scale=0.0,
                             schedule_noise=False),
            PerturbationPlan(seed=seed, latency_scale=50.0),
            PerturbationPlan(seed=seed, latency_scale=300.0))


@pytest.mark.parametrize("protocol", sorted(BATTERIES))
def test_eager_phase_is_serializable_under_perturbed_schedules(protocol):
    seeds, eager_types = BATTERIES[protocol]
    sent = collections.Counter()
    wounds = 0
    for seed in seeds:
        spec = graft_example_41(generate_scenario(seed, protocol), seed)
        for plan in plans(seed):
            outcome = run_schedule(
                spec, plan, oracles=default_oracles() + [
                    _SentMessages(sent)])
            assert not outcome.failures, (seed, plan.to_dict(),
                                          outcome.failures)
            wounds += sum(1 for _gid, status in outcome.outcomes
                          if status.startswith("wounded-by-")
                          or status == "global-deadlock")
    missing = {msg_type for msg_type in eager_types if not sent[msg_type]}
    assert not missing, missing
    assert wounds > 0
