"""S3 — Table 1 range: network latency 0.15-100 ms.

PSL's remote reads sit *inside* the transaction's lock window, so its
throughput collapses as latency grows (round trips per transaction);
the lazy BackEdge protocol only pays latency off the critical path
(secondary propagation) and for the minority of backedge transactions,
so it degrades far more gracefully.
"""

from common import PARAMS, SEED, banner
from repro.harness.reporting import format_sweep_report
from repro.harness.sweep import series, sweep

LATENCIES = [0.00015, 0.005, 0.020, 0.100]


def test_sweep_network_latency():
    points = sweep("network_latency", LATENCIES, ["backedge", "psl"],
                   base_params=PARAMS, seed=SEED)
    banner("Throughput vs one-way network latency "
           "(Table 1 range 0.15-100 ms)")
    print(format_sweep_report(points))

    backedge = dict(series(points, "backedge"))
    psl = dict(series(points, "psl"))

    # PSL deteriorates sharply with latency; BackEdge holds up.
    assert psl[0.100] < 0.6 * psl[0.00015]
    assert backedge[0.100] > 0.5 * backedge[0.00015]
    # The gap widens with latency.
    gap_low = backedge[0.00015] / psl[0.00015]
    gap_high = backedge[0.100] / psl[0.100]
    assert gap_high > gap_low
