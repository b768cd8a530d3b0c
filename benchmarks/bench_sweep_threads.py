"""S2 — Table 1 range: threads per site 1-5 (multiprogramming level).

More threads raise offered load and contention: committed throughput
grows toward CPU saturation while the abort rate climbs.
"""

from common import PARAMS, SEED, banner
from repro.harness.reporting import format_sweep_report
from repro.harness.sweep import series, sweep

THREADS = [1, 3, 5]


def test_sweep_threads_per_site():
    points = sweep("threads_per_site", THREADS, ["backedge", "psl"],
                   base_params=PARAMS, seed=SEED)
    banner("Throughput vs threads/site (Table 1 range)")
    print(format_sweep_report(points))

    backedge = dict(series(points, "backedge"))
    # Going from 1 to 3 threads raises throughput (more parallelism).
    assert backedge[3] > backedge[1]
    # Contention rises with the multiprogramming level.
    aborts = {point.value: point.result.abort_rate for point in points
              if point.protocol == "backedge"}
    assert aborts[5] >= aborts[1]
    # BackEdge stays ahead of PSL at every multiprogramming level.
    psl = dict(series(points, "psl"))
    for threads in THREADS:
        assert backedge[threads] > psl[threads]
