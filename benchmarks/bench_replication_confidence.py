"""C1 — statistical confidence for the headline comparison.

The paper reports single runs; this bench replicates the default-setting
BackEdge-vs-PSL comparison across independent seeds (placement +
workload both re-drawn) and reports mean ± stddev and the per-seed win
fraction.  The headline claim must hold in *every* seed, not just on
average.
"""

from common import banner
from repro.harness.analysis import compare, replicate
from repro.harness.runner import ExperimentConfig
from repro.workload.params import WorkloadParams

SEEDS = [1, 2, 3, 4, 5]


def test_default_comparison_across_seeds():
    params = WorkloadParams(transactions_per_thread=40)
    backedge = replicate(
        ExperimentConfig(protocol="backedge", params=params), SEEDS)
    psl = replicate(ExperimentConfig(protocol="psl", params=params), SEEDS)
    paired = compare(
        ExperimentConfig(protocol="backedge", params=params),
        ExperimentConfig(protocol="psl", params=params), SEEDS)
    banner("Cross-seed confidence, default settings ({} seeds)".format(
        len(SEEDS)))
    backedge_summary = backedge.summary()
    psl_summary = psl.summary()
    print("backedge  {}".format(backedge_summary))
    print("psl       {}".format(psl_summary))
    print("paired mean ratio: {:.2f}x, win fraction: {:.0%}".format(
        paired["mean_ratio"], paired["win_fraction"]))

    # The headline holds in every seed, by a clear margin on average.
    assert paired["win_fraction"] == 1.0
    assert paired["mean_ratio"] > 1.3
    # Confidence intervals do not overlap.
    assert backedge_summary.ci95()[0] > psl_summary.ci95()[1]
