"""F2b — Figure 2(b): throughput vs replication probability.

Paper shape: both protocols are identical at r=0 (every transaction is
purely local); throughput drops sharply from r=0 to r=0.1; BackEdge
stays roughly ~2x PSL for every r > 0; both decline as r grows (more
replicas, more propagation / remote reads, more backedges).
"""

from common import PARAMS, SEED, banner
from repro.harness.reporting import format_sweep_report
from repro.harness.sweep import FIGURES, series, sweep

FIGURE = FIGURES["fig2b"]


def test_fig2b_throughput_vs_replication_probability():
    points = sweep(FIGURE.parameter, FIGURE.values, ["backedge", "psl"],
                   base_params=PARAMS.replaced(**FIGURE.overrides),
                   seed=SEED)
    banner("Figure 2(b): throughput vs replication probability r")
    print(format_sweep_report(points))

    backedge = dict(series(points, "backedge"))
    psl = dict(series(points, "psl"))

    # Identical (within noise) at r=0: no replicas, no protocol at work.
    assert abs(backedge[0.0] - psl[0.0]) < 0.15 * backedge[0.0]
    # Visible drop from r=0 to r=0.1 for PSL (remote reads appear);
    # BackEdge degrades more gently.
    assert psl[0.1] < psl[0.0]
    # BackEdge ahead of PSL for every r > 0.
    for r in FIGURE.values[1:]:
        assert backedge[r] > psl[r], "r={}".format(r)
    # Both decline toward full replication.
    assert backedge[1.0] < backedge[0.1]
    assert psl[1.0] < psl[0.0]
