"""R1 — Sec. 5.3.4: response times at the default parameter settings.

Paper: "Transaction response times for our experiments with the default
parameter settings were approximately 180 millisec for the BackEdge and
260 millisec for the PSL protocol" — BackEdge's commit latency is lower,
and the two sit in the low hundreds of milliseconds.
"""

from common import banner, point


def test_response_times_at_defaults():
    results = {protocol: point(protocol)
               for protocol in ("backedge", "psl")}
    banner("Sec. 5.3.4: mean response time at default settings")
    paper = {"backedge": 180.0, "psl": 260.0}
    for protocol, result in results.items():
        measured = result.mean_response_time * 1000.0
        print("{:>9}: measured {:6.1f} ms   (paper ~{:3.0f} ms)".format(
            protocol, measured, paper[protocol]))

    backedge_ms = results["backedge"].mean_response_time * 1000.0
    psl_ms = results["psl"].mean_response_time * 1000.0
    # Shape: BackEdge responds faster than PSL at the defaults.
    assert backedge_ms < psl_ms
    # Same order of magnitude as the paper (low hundreds of ms).
    assert 40.0 < backedge_ms < 500.0
    assert 40.0 < psl_ms < 700.0
