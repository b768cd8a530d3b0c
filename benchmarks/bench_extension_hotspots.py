"""E1 — extension: hot-spot (skewed) access.

The paper's workload accesses items uniformly.  Real replicated
workloads are skewed, so this extension bench measures both protocols as
a growing share of operations target a hot 10% of each site's items, on
a write-heavy mix (read-txn probability 0, read-op probability 0.5)
where exclusive-lock contention on the hot set actually bites.

Observations encoded below: PSL suffers doubly (hot primary copies serve
both local writers and remote readers), so the BackEdge advantage widens
with skew; under full skew both abort more than under uniform access.
"""

from common import PARAMS, SEED, banner
from repro.harness.reporting import format_sweep_report
from repro.harness.sweep import series, sweep

SKEWS = [0.0, 0.5, 0.9]


def test_hotspot_skew_sweep():
    base = PARAMS.replaced(hotspot_item_fraction=0.1,
                           read_txn_probability=0.0,
                           read_op_probability=0.5,
                           replication_probability=0.5)
    points = sweep("hotspot_access_probability", SKEWS,
                   ["backedge", "psl"], base_params=base, seed=SEED)
    banner("Extension: throughput vs hot-spot access skew "
           "(hot set = 10% of items, write-heavy mix)")
    print(format_sweep_report(points))

    backedge = dict(series(points, "backedge"))
    psl = dict(series(points, "psl"))
    # Skew hurts PSL: its remote reads and writes pile onto a few
    # primary copies.
    assert psl[0.9] < psl[0.0]
    # BackEdge stays ahead across the skew range, and the gap widens.
    for skew in SKEWS:
        assert backedge[skew] > psl[skew], "skew={}".format(skew)
    assert backedge[0.9] / psl[0.9] >= backedge[0.0] / psl[0.0]
    # Contention (abort rate) rises with skew for the lock-heavy mix.
    aborts = {(point.protocol, point.value): point.result.abort_rate
              for point in points}
    assert aborts[("psl", 0.9)] > aborts[("psl", 0.0)]
