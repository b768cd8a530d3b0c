"""S1 — Table 1 range: number of sites 3-15, extended to 24 under
partial replication.

The paper varied m in 3-15 with full replication (full results in the
technical report).  The reproduction checks that the per-site throughput
ordering (BackEdge over PSL) holds across system sizes and that both
protocols keep working at the extremes.

The extension pushes past the paper's table to m=24 using the sharded
partial-replication generators (``repro.reconfig``'s placement plane):
replication factor k in {2, 3, full} at 24 sites, reporting what the
paper's full-replication tables cannot show — the per-site storage
footprint (copies held per site) and the commit-to-last-replica
propagation-delay percentiles, both of which scale with k rather than
with m.
"""

import statistics

from common import PARAMS, SEED, banner, point
from repro.harness.metrics import MetricsCollector, percentile
from repro.harness.reporting import format_sweep_report
from repro.harness.sweep import series, sweep
from repro.sim.rng import RngRegistry
from repro.workload.distribution import generate_placement

M_VALUES = [3, 9, 15]

#: The partial-replication extension: 24 sites, 96 items.
M_LARGE = 24
#: Replication factors swept at m=24 (0 = replicate to every
#: downstream site, the closest sharded analogue of full replication).
K_VALUES = [2, 3, 0]


def test_sweep_number_of_sites():
    points = sweep("n_sites", M_VALUES, ["backedge", "psl"],
                   base_params=PARAMS, seed=SEED)
    banner("Throughput vs number of sites m (Table 1 range)")
    print(format_sweep_report(points))

    backedge = dict(series(points, "backedge"))
    psl = dict(series(points, "psl"))
    for m in M_VALUES:
        assert backedge[m] > 0 and psl[m] > 0
        assert backedge[m] > psl[m], "m={}".format(m)


def _partial_params(k):
    return PARAMS.replaced(n_sites=M_LARGE, n_items=4 * M_LARGE,
                           placement_scheme="sharded-hash",
                           replication_factor=k)


def _footprint(params):
    """Copies held per site under ``params``' placement (the sharded
    generators ignore the rng, so this is exactly the placement the
    experiment runs on)."""
    placement = generate_placement(
        params, RngRegistry(SEED).stream("placement"))
    return [len(placement.items_at(site))
            for site in range(params.n_sites)]


def test_partial_replication_at_24_sites():
    """Beyond the paper's table: m=24 with k-sharded placements."""
    rows = {}
    for k in K_VALUES:
        params = _partial_params(k)
        probe = MetricsCollector(params.n_sites)
        result = point("dag_wt", params, extra_observers=[probe])
        rows[k] = (result, probe.propagation_delays, _footprint(params))

    label = {0: "full"}
    banner("Partial replication at m={} sites (dag_wt, sharded-hash)"
           .format(M_LARGE), width=72)
    print("{:>6} {:>10} {:>8} {:>16} {:>12} {:>12}".format(
        "k", "thr/site", "abort%", "copies/site", "prop p50", "prop p95"))
    for k in K_VALUES:
        result, delays, footprint = rows[k]
        name = label.get(k, str(k))
        copies = "{}-{} (avg {:.1f})".format(
            min(footprint), max(footprint),
            statistics.fmean(footprint))
        p50 = percentile(delays, 50.0) if delays else 0.0
        p95 = percentile(delays, 95.0) if delays else 0.0
        print("{:>6} {:>10.2f} {:>8.1f} {:>16} {:>12.4f} {:>12.4f}"
              .format(name, result.average_throughput,
                      result.abort_rate, copies, p50, p95))

    for k in K_VALUES:
        result, delays, footprint = rows[k]
        assert result.committed > 0
        assert result.average_throughput > 0
        assert delays, "k={} produced no propagation samples".format(k)

    # Storage scales with k, not m: the k-sharded placements hold
    # strictly fewer copies than the full chain.
    total = {k: sum(rows[k][2]) for k in K_VALUES}
    assert total[2] < total[3] < total[0]
    # Fewer replicas, shorter propagation chains: the tail delay of
    # k=2 must not exceed the full chain's.
    p95 = {k: percentile(rows[k][1], 95.0) for k in K_VALUES}
    assert p95[2] <= p95[0]
