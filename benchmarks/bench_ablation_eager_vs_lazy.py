"""X2 — ablation: eager write-all/2PC vs the lazy protocols.

The paper's Sec. 1 motivation: eager replication makes the transaction
span every replica site, so lock-hold times and deadlock probability
balloon with the degree of replication ("deadlock probability is
proportional to the fourth power of the transaction size").  The lazy
protocols decouple replica maintenance from the transaction boundary.
"""

from common import PARAMS, banner, point


def test_eager_vs_lazy_at_increasing_replication():
    grid = {}
    for r in (0.2, 0.8):
        params = PARAMS.replaced(replication_probability=r)
        for protocol in ("backedge", "eager"):
            grid[(protocol, r)] = point(protocol, params, drain_time=2.0)
    banner("Ablation: eager (write-all + 2PC) vs lazy BackEdge")
    print("{:<12}{:>6}{:>14}{:>10}".format("protocol", "r",
                                           "txn/s/site", "abort %"))
    for (protocol, r), result in sorted(grid.items()):
        print("{:<12}{:>6}{:>14.2f}{:>10.1f}".format(
            protocol, r, result.average_throughput, result.abort_rate))

    # Lazy beats eager at both replication levels...
    for r in (0.2, 0.8):
        assert grid[("backedge", r)].average_throughput > \
            grid[("eager", r)].average_throughput
    # ... and eager degrades more as replication rises.
    eager_drop = grid[("eager", 0.2)].average_throughput \
        / max(grid[("eager", 0.8)].average_throughput, 1e-9)
    lazy_drop = grid[("backedge", 0.2)].average_throughput \
        / max(grid[("backedge", 0.8)].average_throughput, 1e-9)
    assert eager_drop > lazy_drop
