"""Shared scale and helpers for the paper-shape benches.

Every bench regenerates one artifact of the paper's Sec. 5 evaluation:
it runs the corresponding experiments, prints the rows/series the paper
plots, and asserts the paper's qualitative *shape* (who wins, trend
directions, crossovers).  They are plain pytest tests::

    pytest benchmarks --ignore=benchmarks/ledger

Scale: each client thread runs 120 transactions (the paper uses 1000)
so the whole suite finishes in minutes.  A paper-scale figure is
``repro figure NAME --txns 1000``.
"""

from __future__ import annotations

from repro.harness.runner import ExperimentConfig, run_experiment
from repro.workload.params import WorkloadParams

#: The paper's defaults at bench scale (paper: 1000 transactions/thread).
PARAMS = WorkloadParams(transactions_per_thread=120)

#: Seed shared by all benches (one placement/workload per configuration).
SEED = 42


def point(protocol: str, params: WorkloadParams = PARAMS,
          **config_kwargs):
    """One experiment run at the bench seed."""
    return run_experiment(ExperimentConfig(
        protocol=protocol, params=params, seed=SEED, **config_kwargs))


def banner(title: str, width: int = 64) -> None:
    print("\n{0}\n{1}\n{0}".format("=" * width, title))
