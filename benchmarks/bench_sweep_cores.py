"""S4 — hardware scaling: cores per site (beyond the paper's testbed).

The paper's sites are single-core 296 MHz machines.  The simulation's
``cpu_cores`` knob asks the natural what-if: does the BackEdge advantage
survive on faster (SMP) hardware, or was it an artifact of CPU
saturation?  Answer: both protocols speed up, the ordering is unchanged
— PSL's penalty is contention and messaging, not raw CPU.
"""

from common import banner, point

CORES = [1, 2, 4]


def test_sweep_cores_per_site():
    grid = {}
    for cores in CORES:
        for protocol in ("backedge", "psl"):
            grid[(protocol, cores)] = point(
                protocol, cost_overrides={"cpu_cores": cores})
    banner("Hardware scaling: throughput vs cores/site")
    print("{:<10}{:>8}{:>14}{:>10}".format("protocol", "cores",
                                           "txn/s/site", "abort %"))
    for (protocol, cores), result in sorted(grid.items()):
        print("{:<10}{:>8}{:>14.2f}{:>10.1f}".format(
            protocol, cores, result.average_throughput,
            result.abort_rate))

    for protocol in ("backedge", "psl"):
        # More cores -> more committed throughput (CPU was a bottleneck).
        assert grid[(protocol, 4)].average_throughput > \
            grid[(protocol, 1)].average_throughput
    for cores in CORES:
        # The protocol ordering is hardware-independent.
        assert grid[("backedge", cores)].average_throughput > \
            grid[("psl", cores)].average_throughput
