"""F3b — Figure 3(b): throughput vs read-operation probability at b=1.

Same extreme setting as Figure 3(a) but with backedge probability 1:
almost every update transaction spawns backedge subtransactions, so the
BackEdge protocol suffers many global deadlocks and aborts at low read
fractions.  Paper shape: PSL wins while the read fraction is small;
BackEdge overtakes beyond a crossover (the paper reports ~0.3; in this
reproduction the eager-phase lock windows of the simulated chain push it
to ~0.7 — see EXPERIMENTS.md) and ends far ahead at 1.0.
"""

from common import PARAMS, SEED, banner
from repro.harness.reporting import format_sweep_report
from repro.harness.sweep import FIGURES, series, sweep

FIGURE = FIGURES["fig3b"]


def test_fig3b_read_op_probability_b1():
    points = sweep(FIGURE.parameter, FIGURE.values, ["backedge", "psl"],
                   base_params=PARAMS.replaced(**FIGURE.overrides),
                   seed=SEED)
    banner("Figure 3(b): throughput vs read-op probability (b=1, r=0.5, "
           "update transactions only)")
    print(format_sweep_report(points))

    backedge = dict(series(points, "backedge"))
    psl = dict(series(points, "psl"))

    # Update-heavy end: PSL clearly ahead (paper: BackEdge lags).
    assert psl[0.0] > backedge[0.0]
    # BackEdge abort rate is high at the update-heavy end (Sec. 5.3.3:
    # "a large number of global deadlocks and aborts").
    low_end_aborts = [point.result.abort_rate for point in points
                      if point.protocol == "backedge"
                      and point.value == 0.0]
    assert low_end_aborts[0] > 20.0
    # A crossover exists: BackEdge wins at the read-heavy end.
    assert backedge[1.0] > psl[1.0]
    crossover = min((value for value in FIGURE.values
                     if backedge[value] > psl[value]), default=None)
    assert crossover is not None and crossover <= 0.9
    print("\nObserved crossover at read-op probability ~{} "
          "(paper: ~0.3)".format(crossover))
