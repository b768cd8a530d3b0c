"""F2a — Figure 2(a): throughput vs backedge probability.

Paper shape: BackEdge delivers a multiple of PSL's throughput at b=0
(the paper reports ~3x), declines as b grows (more backedge
subtransactions, longer lock holds, more global deadlocks), yet stays
above PSL even at b=1; PSL is only mildly affected by b.  BackEdge's
abort rate is near zero at b=0 and rises with b.
"""

from common import PARAMS, SEED, banner
from repro.harness.reporting import format_sweep_report
from repro.harness.sweep import FIGURES, series, sweep

FIGURE = FIGURES["fig2a"]


def test_fig2a_throughput_vs_backedge_probability():
    points = sweep(FIGURE.parameter, FIGURE.values, ["backedge", "psl"],
                   base_params=PARAMS.replaced(**FIGURE.overrides),
                   seed=SEED)
    banner("Figure 2(a): throughput vs backedge probability b")
    print(format_sweep_report(points))

    backedge = dict(series(points, "backedge"))
    psl = dict(series(points, "psl"))

    # BackEdge clearly ahead with no backedges.
    assert backedge[0.0] > 1.3 * psl[0.0]
    # BackEdge degrades as b grows.
    assert backedge[1.0] < backedge[0.0]
    # ... but still beats PSL at b=1 (paper Sec. 5.3.1).
    assert backedge[1.0] > psl[1.0]
    # PSL only mildly affected across the whole range.
    assert psl[1.0] > 0.6 * psl[0.0]

    # Abort-rate shape: near zero at b=0, increasing in b (Sec. 5.3.1).
    aborts = {point.value: point.result.abort_rate
              for point in points if point.protocol == "backedge"}
    assert aborts[0.0] < 5.0
    assert aborts[1.0] > aborts[0.0]
