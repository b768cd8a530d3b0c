"""A1 — abort-rate trends reported in the Sec. 5.3.1-5.3.3 text.

The paper reports abort rates qualitatively: near zero for BackEdge at
b=0, increasing with b; PSL's abort rate rises with remote reads and
peaks around the contended middle of the read-op range.
"""

from common import PARAMS, SEED, banner
from repro.harness.reporting import format_sweep_report
from repro.harness.sweep import sweep


def test_abort_rate_vs_backedge_probability():
    points = sweep("backedge_probability", [0.0, 0.5, 1.0],
                   ["backedge", "psl"], base_params=PARAMS, seed=SEED)
    banner("Abort rates vs backedge probability")
    print(format_sweep_report(points))

    backedge_aborts = {point.value: point.result.abort_rate
                       for point in points
                       if point.protocol == "backedge"}
    assert backedge_aborts[0.0] < 5.0          # "almost 0" at b=0
    assert backedge_aborts[1.0] > backedge_aborts[0.0]


def test_abort_rate_vs_read_fraction_for_psl():
    """Sec. 5.3.3 (b=0 case): PSL aborts increase with remote reads up
    to the middle of the range, then fall to zero at read-only."""
    base = PARAMS.replaced(backedge_probability=0.0,
                           replication_probability=0.5,
                           read_txn_probability=0.0)
    points = sweep("read_op_probability", [0.0, 0.5, 1.0], ["psl"],
                   base_params=base, seed=SEED)
    banner("PSL abort rate vs read-op probability (b=0, r=0.5)")
    print(format_sweep_report(points))
    aborts = {point.value: point.result.abort_rate for point in points}
    assert aborts[0.5] > aborts[1.0]
    assert aborts[1.0] == 0.0
