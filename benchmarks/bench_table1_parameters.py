"""T1 — Table 1: parameter settings.

Regenerates the paper's parameter table and validates the default data
distribution against the statistics the paper quotes (approximately
``n/m`` primaries per site; "almost 500 replicas" at r=1).
"""

import random

from repro.workload.distribution import (
    generate_placement,
    placement_statistics,
)
from repro.workload.params import (
    DEFAULT_PARAMS,
    format_parameter_table,
)


def test_table1_parameter_settings():
    table = format_parameter_table(DEFAULT_PARAMS)
    stats = placement_statistics(
        generate_placement(DEFAULT_PARAMS, random.Random(42)))
    print("\n" + table)
    print("\nDefault-placement statistics: {}".format(stats))

    assert "Backedge Probability" in table
    # ~n/m primaries per site is implied by the generator (round-robin).
    assert stats["items"] == 200


def test_table1_full_replication_replica_count():
    """Sec. 5.3.2: 'at r = 1, there are almost 500 replicas'."""
    params = DEFAULT_PARAMS.replaced(replication_probability=1.0)
    totals = [placement_statistics(
        generate_placement(params, random.Random(seed)))["replicas"]
        for seed in range(10)]
    mean_replicas = sum(totals) / len(totals)
    print("\nMean replicas at r=1: {:.1f} (paper: 'almost 500')".format(
        mean_replicas))
    assert 400 <= mean_replicas <= 560
