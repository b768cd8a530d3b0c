"""X4 — ablation: BackEdge variants on cyclic copy graphs.

Compares the three hybrid designs at the default workload (b=0.2):

- chain (the paper's implemented variant, Sec. 5.1),
- general tree with a minimal backedge set (Sec. 4.1 as described),
- the DAG(T)-based extension (referenced to the TR): parallel backedge
  subtransactions plus a timestamp catch-up instead of the relayed
  special subtransaction.

All three must be serializable; they trade propagation-path length
against eager-phase latency differently.
"""

from common import banner, point

VARIANTS = [
    ("backedge-chain", "backedge", {}),
    ("backedge-tree", "backedge", {"variant": "tree"}),
    ("backedge_t", "backedge_t", {}),
]


def test_backedge_variant_ablation():
    # The default b=0.2: a cyclic copy graph.
    results = {label: point(protocol, protocol_options=dict(options),
                            drain_time=2.0)
               for label, protocol, options in VARIANTS}
    banner("Ablation: BackEdge variants at the default (cyclic) workload",
           width=72)
    print("{:<16}{:>12}{:>10}{:>10}{:>12}".format(
        "variant", "txn/s/site", "abort %", "resp ms", "messages"))
    for label, result in results.items():
        print("{:<16}{:>12.2f}{:>10.1f}{:>10.1f}{:>12}".format(
            label, result.average_throughput, result.abort_rate,
            result.mean_response_time * 1000.0, result.total_messages))
        assert result.serializable is True

    # Same band: no variant collapses at the default backedge density.
    values = [result.average_throughput for result in results.values()]
    assert min(values) > 0.4 * max(values)
