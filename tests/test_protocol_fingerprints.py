"""Simulated schedules, pinned per protocol.

Every registered propagation protocol runs a small paper-style workload
on a DAG placement and, where the protocol allows one, a cyclic
placement, under three seeds.  Each run's outcome counts, message
counts, kernel event count and abort reasons are compared against
``tests/data/protocol_fingerprints.json``.  A refactor of ``core/`` that
claims to leave behaviour alone must leave this file green; a change
that alters schedules on purpose regenerates the fixture with::

    PYTHONPATH=src python -m tests.test_protocol_fingerprints --write

and says why in its description.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.harness.runner import (
    ExperimentConfig,
    _client_thread,
    build_system,
)
from repro.harness.metrics import MetricsCollector
from repro.harness.serializability import check_serializable
from repro.sim.events import AllOf
from repro.workload.params import WorkloadParams

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "protocol_fingerprints.json")

#: (label, registered name, constructor options, allows a cyclic graph).
PROTOCOLS = (
    ("dag_wt", "dag_wt", {}, False),
    ("dag_t", "dag_t", {}, False),
    ("backedge-chain", "backedge", {"variant": "chain"}, True),
    ("backedge-tree", "backedge", {"variant": "tree"}, True),
    ("backedge_t", "backedge_t", {}, True),
    ("indiscriminate", "indiscriminate", {}, True),
    ("psl", "psl", {}, True),
    ("eager", "eager", {}, True),
)

#: Placement label -> the paper generator's backedge probability ``b``.
PLACEMENTS = (("dag", 0.0), ("cyclic", 0.5))

SEEDS = (0, 1, 2)


def _runs():
    for label, name, options, cyclic_ok in PROTOCOLS:
        for placement, b in PLACEMENTS:
            if b and not cyclic_ok:
                continue
            for seed in SEEDS:
                yield "{}|{}|{}".format(label, placement, seed), \
                    name, options, b, seed


def fingerprint(name, options, b, seed):
    """Run one small experiment; return what pins its schedule."""
    params = WorkloadParams(
        n_sites=4, n_items=24, replication_probability=0.7,
        site_probability=0.6, backedge_probability=b,
        ops_per_transaction=6, threads_per_site=2,
        transactions_per_thread=10)
    config = ExperimentConfig(protocol=name, params=params, seed=seed,
                              protocol_options=dict(options))
    env, system, protocol, generator = build_system(config)
    metrics = MetricsCollector(params.n_sites)
    system.observers.append(metrics)
    clients = []
    for site_id in range(params.n_sites):
        for thread in range(params.threads_per_site):
            process_ref: list = []
            process = env.process(_client_thread(
                protocol, site_id, generator.thread_stream(site_id, thread),
                metrics, process_ref))
            process_ref.append(process)
            clients.append(process)
    env.run(until=AllOf(env, clients))
    env.run(until=env.now + 0.5)
    if name != "indiscriminate":
        check_serializable([site.engine.history for site in system.sites])
    return {
        "committed": metrics.total_committed,
        "aborted": metrics.total_aborted,
        "total_messages": system.network.total_sent,
        "events_processed": env.events_processed,
        "abort_reasons": dict(sorted(metrics.abort_reasons.items())),
        "messages_by_type": {
            msg_type.value: count for msg_type, count in sorted(
                system.network.sent_by_type.items(),
                key=lambda entry: entry[0].value)},
    }


def _load():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("key,name,options,b,seed", list(_runs()),
                         ids=[run[0] for run in _runs()])
def test_schedule_matches_pinned_fingerprint(key, name, options, b, seed):
    assert fingerprint(name, options, b, seed) == _load()[key]


def test_fixture_covers_exactly_the_pinned_runs():
    assert sorted(_load()) == sorted(run[0] for run in _runs())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_protocol_fingerprints "
                 "--write")
    pinned = {key: fingerprint(name, options, b, seed)
              for key, name, options, b, seed in _runs()}
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
