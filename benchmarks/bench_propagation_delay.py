"""R2 — Sec. 5.3.4: update-propagation delay for the BackEdge protocol.

Paper: "update propagation via secondary subtransactions was extremely
fast and in general took a few hundred millisec", so replica recency "can
be expected to be very good in practice".
"""

from common import PARAMS, banner, point


def test_propagation_delay_at_defaults():
    result = point("backedge", drain_time=3.0)

    delay_ms = result.mean_propagation_delay * 1000.0
    banner("Sec. 5.3.4: BackEdge update-propagation delay at defaults")
    print("mean commit-to-last-replica delay: {:.1f} ms "
          "(paper: 'a few hundred millisec')".format(delay_ms))

    # Shape: sub-second recency, i.e. the same order as the paper's.
    assert 0.0 < delay_ms < 1000.0


def test_propagation_delay_grows_with_latency():
    """Sanity: propagation delay tracks network latency (chain relaying
    multiplies the per-hop cost)."""
    fast = point("backedge", PARAMS.replaced(network_latency=0.00015),
                 drain_time=3.0)
    slow = point("backedge", PARAMS.replaced(network_latency=0.020),
                 drain_time=5.0)
    print("\nlatency 0.15 ms -> {:.1f} ms propagation; "
          "latency 20 ms -> {:.1f} ms propagation".format(
              fast.mean_propagation_delay * 1000.0,
              slow.mean_propagation_delay * 1000.0))
    assert slow.mean_propagation_delay > fast.mean_propagation_delay
