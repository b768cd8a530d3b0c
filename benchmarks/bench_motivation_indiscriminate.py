"""M1 — the paper's Sec. 1 motivation, measured.

Commercial-style indiscriminate lazy propagation (optionally with
last-writer-wins reconciliation) "can easily lead to non-serializable
executions".  This bench runs the same contended workload under the
indiscriminate baseline and under the paper's protocols and counts the
runs whose direct-serialization graph contains a cycle: the baseline
produces anomalies routinely, the paper's protocols never do.
"""

from common import PARAMS, banner
from repro.harness.runner import ExperimentConfig, run_experiment

SEEDS = range(5)


def test_indiscriminate_propagation_violates_serializability():
    params = PARAMS.replaced(
        replication_probability=0.5, backedge_probability=0.3,
        transactions_per_thread=30)
    violations = {}
    for protocol in ("indiscriminate", "backedge", "psl"):
        count = 0
        for seed in SEEDS:
            config = ExperimentConfig(
                protocol=protocol, params=params, seed=seed,
                strict_serializability=False, drain_time=2.0)
            result = run_experiment(config)
            count += 0 if result.serializable else 1
        violations[protocol] = count
    banner("Sec. 1 motivation: non-serializable runs out of {} seeds"
           .format(len(SEEDS)))
    for protocol, count in violations.items():
        print("{:<16}{:>3} / {}".format(protocol, count, len(SEEDS)))

    # The commercial-style baseline breaks serializability routinely...
    assert violations["indiscriminate"] >= len(SEEDS) // 2
    # ... while the paper's protocol and PSL never do.
    assert violations["backedge"] == 0
    assert violations["psl"] == 0
