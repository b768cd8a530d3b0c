"""Order battery for the queue processor (paper Sec. 2, Sec. 4).

DAG(WT) needs one thing from the site runtime: each site commits the
secondaries it receives in FIFO order from one queue processor and
forwards them in commit order.  This file states that as properties —
per-item FIFO at every replica, commit-order forwarding through an
interior tree site, a BackEdge SPECIAL handled in its queue position —
and runs 200 seeded random schedules (every fifth under BackEdge)
against the serializability and convergence oracles.

The module name dates from a second, conflict-aware apply scheduler
that this battery used to compare against the serial one; the
scheduler is gone, the properties it had to preserve are the ones
above.
"""

import random

import pytest

from repro.graph.placement import DataPlacement
from repro.harness.convergence import check_convergence
from repro.harness.serializability import check_serializable
from repro.network.message import MessageType
from tests.helpers import (
    histories,
    make_system,
    no_locks_leaked,
    run_client,
    spec,
)


def fanout_placement(n_sites=4, n_items=6, rng=None):
    """All primaries at s0, random replica subsets of the other sites —
    the copy graph's edges all leave s0, so it is always a DAG."""
    rng = rng or random.Random(0)
    placement = DataPlacement(n_sites)
    others = list(range(1, n_sites))
    for i in range(n_items):
        count = rng.randrange(1, n_sites)
        placement.add_item("i{}".format(i), primary=0,
                           replicas=sorted(rng.sample(others, count)))
    return placement


def layered_placement(n_sites=4, n_items=6, rng=None):
    """Primaries spread over the lower half, replicas strictly at
    higher-numbered sites: every copy-graph edge goes low -> high, so
    the graph is a DAG but the propagation tree has interior sites
    (forwarding through a site exercises commit-then-forward order)."""
    rng = rng or random.Random(0)
    placement = DataPlacement(n_sites)
    for i in range(n_items):
        primary = rng.randrange(0, max(1, n_sites - 2))
        above = list(range(primary + 1, n_sites))
        count = rng.randrange(1, len(above) + 1)
        placement.add_item("i{}".format(i), primary=primary,
                           replicas=sorted(rng.sample(above, count)))
    return placement


def run_schedule(placement, specs, protocol="dag_wt", gap=0.03,
                 until=5.0):
    """Run ``specs`` (one client each, staggered ``gap`` apart, in
    order) and return (system, outcomes) after quiescence."""
    env, system, proto = make_system(placement, protocol)
    outcomes = []
    for n, txn_spec in enumerate(specs):
        run_client(env, proto, txn_spec, n * gap, outcomes)
    env.run(until=until)
    return system, outcomes


def assert_oracles(system, outcomes, n_expected):
    assert len(outcomes) == n_expected
    assert all(status == "committed" for _g, status, _t in outcomes)
    check_serializable(histories(system))
    check_convergence(system)
    assert no_locks_leaked(system)


def writers_of(system, site_id, item):
    """Gids that wrote ``item`` at ``site_id``, in local commit order."""
    return [entry.gid for entry in system.site_of(site_id).engine.history
            if item in entry.writes]


def assert_replicas_follow_primary_order(system):
    """Every replica commits the writes of each item it holds in the
    order the item's primary site committed them."""
    placement = system.placement
    for item in placement.items:
        at_primary = writers_of(system, placement.primary_site(item),
                                item)
        for site_id in placement.replica_sites(item):
            assert writers_of(system, site_id, item) == at_primary, (
                item, site_id)


# ----------------------------------------------------------------------
# Crafted conflict patterns
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_sites", [2, 4, 8])
def test_fully_conflicting_updates_stay_fifo(n_sites):
    """Every update writes the same two items: each replica, at any
    fan-out, commits them in the primary's order."""
    placement = fanout_placement(n_sites, rng=random.Random(1))
    specs = [spec(0, seq, ("w", "i0"), ("w", "i1"))
             for seq in range(1, 9)]
    system, outcomes = run_schedule(placement, specs)
    assert_oracles(system, outcomes, len(specs))
    assert writers_of(system, 0, "i0") == [s.gid for s in specs]
    assert_replicas_follow_primary_order(system)


def test_overlap_chains_preserve_per_item_order():
    """Write sets overlap pairwise in a chain (T1:{a,b} T2:{b,c}
    T3:{c,d} ...): each item has two writers, and every replica sees
    them in the primary's order."""
    placement = fanout_placement(n_items=9, rng=random.Random(3))
    specs = [spec(0, seq, ("w", "i{}".format(seq - 1)),
                  ("w", "i{}".format(seq)))
             for seq in range(1, 9)]
    system, outcomes = run_schedule(placement, specs)
    assert_oracles(system, outcomes, len(specs))
    assert_replicas_follow_primary_order(system)


def test_interior_site_forwards_in_commit_order():
    """Conflicting updates routed through interior tree sites reach the
    leaves in commit order (commit and forward are atomic per
    update)."""
    placement = DataPlacement(4)
    placement.add_item("x", primary=0, replicas=[1, 2, 3])
    placement.add_item("y", primary=1, replicas=[2, 3])
    specs = [spec(0, seq, ("w", "x")) for seq in range(1, 7)]
    system, outcomes = run_schedule(placement, specs, gap=0.001)
    assert_oracles(system, outcomes, len(specs))
    for site_id in range(4):
        assert writers_of(system, site_id, "x") == [s.gid for s in specs]


@pytest.mark.parametrize("ahead", [2, 4])
def test_backedge_control_messages_are_barriers(ahead):
    """A BackEdge SPECIAL rides the same queue as the secondaries and is
    handled in its queue position.  A long reader at s1 holds ``x`` so
    the secondaries back up there; the SPECIAL arrives behind ``ahead``
    of them with more to follow, and each site on its path must handle
    exactly in delivery order — the SPECIAL neither overtakes nor is
    overtaken.  At the backedge site s1 it prepares in that position:
    when its handling ends it holds its locks, every secondary delivered
    before it has committed and none delivered after it has."""
    placement = DataPlacement(3)
    placement.add_item("x", primary=0, replicas=[1, 2])
    placement.add_item("c", primary=2, replicas=[0, 1])  # back edges
    env, system, proto = make_system(placement, "backedge")
    system.network.record_deliveries = True
    handled = {1: [], 2: []}
    process_message = proto._process_message

    def traced(site, message):
        gid = message.payload["gid"]
        log = handled.get(site.site_id, [])
        log.append(("start", gid))
        yield from process_message(site, message)
        participant = proto._participants[site.site_id].get(gid)
        log.append(("end", gid, [
            entry.gid for entry in site.engine.history
            if "x" in entry.writes],
            participant is not None and participant.status.value))

    proto._process_message = traced
    outcomes = []
    gap = 0.002
    n_writers = ahead + 2
    reader = spec(1, 1, *[("r", "x")] * (10 * n_writers))
    run_client(env, proto, reader, 0.0, outcomes)
    for n in range(n_writers):
        run_client(env, proto, spec(0, n + 1, ("w", "x")), n * gap,
                   outcomes)
    backedge_txn = spec(2, 1, ("w", "c"))
    run_client(env, proto, backedge_txn, (ahead - 1) * gap, outcomes)
    env.run(until=5.0)
    assert_oracles(system, outcomes, n_writers + 2)
    for site_id in (1, 2):
        queued = [message.payload["gid"]
                  for message in system.network.delivery_log
                  if message.dst == site_id and message.msg_type in (
                      MessageType.SECONDARY, MessageType.SPECIAL)]
        assert queued.index(backedge_txn.gid) == ahead
        log = handled[site_id]
        assert [entry[1] for entry in log[0::2]] == queued
        assert [entry[1] for entry in log[1::2]] == queued
        assert all(entry[0] == "start" for entry in log[0::2])
        _end, _gid, committed, held = log[2 * ahead + 1]
        assert committed == queued[:ahead]
        if site_id == 1:
            assert held == "prepared"
        assert writers_of(system, site_id, "x") == [
            gid for gid in queued if gid != backedge_txn.gid]


# ----------------------------------------------------------------------
# 200 seeded random schedules: DSG stays acyclic
# ----------------------------------------------------------------------

def _random_schedule(seed):
    """A random (placement, specs, protocol) draw with mixed write-set
    overlap: a small item pool makes conflicts common, and reads at
    replica sites add wr/rw DSG edges worth checking."""
    rng = random.Random(seed)
    protocol = "backedge" if seed % 5 == 4 else "dag_wt"
    placement = (fanout_placement(rng=rng) if seed % 2 == 0
                 else layered_placement(rng=rng))
    by_primary = {}
    for item in placement.items:
        by_primary.setdefault(placement.primary_site(item), []).append(
            item)
    seqs = {}
    specs = []
    for _ in range(rng.randrange(5, 9)):
        primary = rng.choice(sorted(by_primary))
        seqs[primary] = seqs.get(primary, 0) + 1
        ops = [("w", item) for item in rng.sample(
            by_primary[primary],
            rng.randrange(1, min(3, len(by_primary[primary])) + 1))]
        local = sorted(item for item in placement.items
                       if primary == placement.primary_site(item)
                       or primary in placement.replica_sites(item))
        if local and rng.random() < 0.4:
            ops.append(("r", rng.choice(local)))
        rng.shuffle(ops)
        specs.append(spec(primary, seqs[primary], *ops))
    return placement, specs, protocol


@pytest.mark.parametrize("seed", range(200))
def test_random_schedule_serializable_and_convergent(seed):
    placement, specs, protocol = _random_schedule(seed)
    system, outcomes = run_schedule(placement, specs, protocol=protocol,
                                    gap=0.012)
    assert_oracles(system, outcomes, len(specs))
    assert_replicas_follow_primary_order(system)
