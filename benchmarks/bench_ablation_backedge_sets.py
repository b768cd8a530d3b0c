"""X3 — ablation: feedback-arc-set heuristics (paper Sec. 4.2).

Sec. 4.2: backedges are undesirable (eager propagation, multi-site
locks), so a *minimum-weight* feedback arc set should be chosen; the
problem is NP-hard and the paper points at approximation algorithms.
This bench compares the backedge sets produced by plain DFS, the
identity site order, and the weighted Eades-Lin-Smyth greedy order on
random weighted copy graphs — and shows the greedy heuristic removes
less update-propagation weight.
"""

import random

from common import banner
from repro.graph.backedges import (
    backedges_of_order,
    dfs_backedges,
    greedy_fas_order,
    is_feedback_arc_set,
)
from repro.graph.copygraph import CopyGraph


def random_weighted_graph(n_sites, n_edges, rng):
    graph = CopyGraph(n_sites)
    added = 0
    while added < n_edges:
        src, dst = rng.randrange(n_sites), rng.randrange(n_sites)
        if src == dst or graph.has_edge(src, dst):
            continue
        # Edge weight = number of items inducing it (1..8).
        for item in range(rng.randint(1, 8)):
            graph.add_edge(src, dst, "i{}-{}-{}".format(src, dst, item))
        added += 1
    return graph


def set_weight(graph, edges):
    return sum(graph.edge_weight(src, dst) for src, dst in edges)


def test_backedge_set_heuristics():
    rng = random.Random(7)
    totals = {"identity": 0, "dfs": 0, "greedy": 0}
    trials = 30
    for _ in range(trials):
        graph = random_weighted_graph(10, 28, rng)
        candidates = {
            "identity": backedges_of_order(graph, range(10)),
            "dfs": dfs_backedges(graph),
            "greedy": backedges_of_order(graph, greedy_fas_order(graph)),
        }
        for name, backedges in candidates.items():
            assert is_feedback_arc_set(graph, backedges)
            totals[name] += set_weight(graph, backedges)
    means = {name: total / trials for name, total in totals.items()}
    banner("Ablation: mean backedge-set weight by heuristic "
           "(lower = less eager propagation)")
    for name, weight in sorted(means.items(), key=lambda kv: kv[1]):
        print("{:<10}{:>10.1f}".format(name, weight))

    # The weighted greedy heuristic beats the naive identity order.
    assert means["greedy"] < means["identity"]
