"""F3a — Figure 3(a): throughput vs read-operation probability at b=0.

Extreme setting (Sec. 5.3.3): replication probability 0.5, read
transaction probability 0 (every transaction updates), backedge
probability 0.  Paper shape: PSL wins at read-op probability 0 (it does
no propagation work at all); BackEdge improves steadily with more reads
and wins by a wide margin (paper: >5x at 0.5); PSL dips until ~0.5 as
remote reads pile up, then recovers as contention fades; at 1.0 both are
abort-free and BackEdge is far ahead.
"""

from common import PARAMS, SEED, banner
from repro.harness.reporting import format_sweep_report
from repro.harness.sweep import FIGURES, series, sweep

FIGURE = FIGURES["fig3a"]


def test_fig3a_read_op_probability_b0():
    points = sweep(FIGURE.parameter, FIGURE.values, ["backedge", "psl"],
                   base_params=PARAMS.replaced(**FIGURE.overrides),
                   seed=SEED)
    banner("Figure 3(a): throughput vs read-op probability (b=0, r=0.5, "
           "update transactions only)")
    print(format_sweep_report(points))

    backedge = dict(series(points, "backedge"))
    psl = dict(series(points, "psl"))

    # All-update workload: PSL does strictly less work and wins.
    assert psl[0.0] > backedge[0.0]
    # BackEdge improves with the read fraction.
    assert backedge[1.0] > backedge[0.0]
    # The big mid-range gap (paper: >5x at 0.5; we assert a wide margin).
    assert backedge[0.5] > 1.5 * psl[0.5]
    # PSL dips into the middle then recovers toward read-only.
    assert psl[0.5] < psl[0.0]
    assert psl[1.0] > psl[0.5]
    # Read-only endpoint: no contention, zero aborts for both.
    for point in points:
        if point.value == 1.0:
            assert point.result.abort_rate == 0.0
