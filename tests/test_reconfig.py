"""The reconfiguration plane: placement changes, epoch replay, spec
fingerprints, and live epoch transitions on real clusters.

The live tests boot partial-replication clusters (sharded placement,
replication factor 2) on localhost TCP and drive epoch transitions
through :class:`repro.reconfig.ReconfigCoordinator` while the paper's
closed-loop workload keeps running — the acceptance scenario of the
reconfiguration plane.  Offline tests cover the change vocabulary and
the WAL epoch-replay rule.

Port plan: this file owns 8100-8199 so it never collides with the
other live-cluster suites (7450-7900) or the CI fixtures; newer tests
draw a free range with ``tests.helpers.free_base_port``.
"""

import asyncio
import dataclasses
import random

import pytest

from repro.cluster.client import ClusterClient
from repro.cluster.codec import decode_value
from repro.cluster.loadgen import (
    drive,
    generate_load,
    judge,
    start_cluster,
    start_site,
    wait_quiescent,
)
from repro.cluster.spec import ClusterSpec
from repro.graph import CopyGraph, DataPlacement
from repro.obs.monitor import MonitorConfig, Watchdog
from repro.reconfig import (
    PlacementChange,
    ReconfigCoordinator,
    ReconfigError,
)
from repro.reconfig.change import replay_epochs
from repro.sim.rng import RngRegistry
from repro.workload.distribution import generate_placement
from repro.workload.generator import TransactionGenerator
from repro.workload.params import WorkloadParams
from tests.helpers import free_base_port


# ----------------------------------------------------------------------
# PlacementChange (pure data)
# ----------------------------------------------------------------------

@pytest.fixture
def chain6():
    """6-site sharded-hash placement, k=2 (each item at its primary and
    the next site; items at s5 stay unreplicated)."""
    params = WorkloadParams(n_sites=6, n_items=12,
                            placement_scheme="sharded-hash",
                            replication_factor=2)
    return generate_placement(params, random.Random(0))


def test_change_validation():
    with pytest.raises(ReconfigError):
        PlacementChange(kind="shuffle", site=0).validate()
    with pytest.raises(ReconfigError):
        PlacementChange(kind="add-replica", site=0).validate()
    PlacementChange(kind="remove-site", site=0).validate()


def test_change_apply_each_kind(chain6):
    added = PlacementChange(kind="add-replica", site=4,
                            item=1).apply(chain6)
    assert added.sites_of(1) == {1, 2, 4}
    assert chain6.sites_of(1) == {1, 2}  # input untouched

    dropped = PlacementChange(kind="drop-replica", site=2,
                              item=1).apply(chain6)
    assert dropped.sites_of(1) == {1}

    migrated = PlacementChange(kind="migrate-primary", site=2,
                               item=1).apply(chain6)
    assert migrated.primary_site(1) == 2
    assert migrated.replica_sites(1) == {1}

    with pytest.raises(ReconfigError):
        PlacementChange(kind="add-replica", site=2, item=1).apply(chain6)
    with pytest.raises(ReconfigError):
        # s0 still holds primaries.
        PlacementChange(kind="remove-site", site=0).apply(chain6)


def test_remove_site_drops_every_replica(chain6):
    # s1 holds replicas of items 0 and 6 plus primaries 1, 7: migrating
    # the primaries away first makes the removal legal.
    working = chain6.clone()
    working.migrate_primary(1, 2)
    working.migrate_primary(7, 2)
    removed = PlacementChange(kind="remove-site", site=1).apply(working)
    assert not removed.items_at(1)
    assert not removed.view(1).is_member()


def test_affected_and_gained_items(chain6):
    change = PlacementChange(kind="add-replica", site=4, item=1)
    assert change.affected_items(chain6) == {1}
    assert change.gained_items(chain6, 4) == {1}
    assert change.gained_items(chain6, 2) == frozenset()
    assert change.gaining_sites() == {4}
    removal = PlacementChange(kind="remove-site", site=5)
    assert removal.affected_items(chain6) == \
        chain6.replica_items_at(5)
    migration = PlacementChange(kind="migrate-primary", site=2, item=1)
    assert migration.gained_items(chain6, 2) == frozenset()
    assert removal.gaining_sites() == migration.gaining_sites() == \
        frozenset()


def test_check_against_rejects_cycles_for_tree_protocols(chain6):
    backward = PlacementChange(kind="add-replica", site=1, item=4)
    with pytest.raises(ReconfigError):
        backward.check_against(chain6, protocol="dag_wt")
    # BackEdge tolerates cyclic copy graphs (eager backedge 2PC).
    result = backward.check_against(chain6, protocol="backedge")
    assert not CopyGraph.from_placement(result).is_dag()


def test_check_against_protects_the_last_primary():
    placement = DataPlacement(2)
    placement.add_item(0, primary=0, replicas=[1])
    placement.add_item(1, primary=1)
    placement.add_item(2, primary=0)  # s0 keeps a primary afterwards
    change = PlacementChange(kind="migrate-primary", site=1, item=0)
    ok = change.check_against(placement, protocol="dag_wt")
    assert ok.primary_site(0) == 1
    # Now move s0's only primary away: refused unless explicitly allowed.
    lonely = DataPlacement(2)
    lonely.add_item(0, primary=0, replicas=[1])
    with pytest.raises(ReconfigError):
        change.check_against(lonely, protocol="dag_wt")
    allowed = change.check_against(lonely, protocol="dag_wt",
                                   allow_empty_primaries=True)
    assert not allowed.primary_items_at(0)


def test_change_json_round_trip():
    for change in (PlacementChange(kind="add-replica", site=3, item=7),
                   PlacementChange(kind="remove-site", site=2)):
        assert PlacementChange.from_json(change.to_json()) == change


def test_replay_epochs_applies_in_order_and_skips_duplicates(chain6):
    add = PlacementChange(kind="add-replica", site=4, item=1)
    migrate = PlacementChange(kind="migrate-primary", site=4, item=1)
    commits = [(1, add.to_json()),
               (1, add.to_json()),       # duplicate commit record
               (2, migrate.to_json()),
               (2, migrate.to_json())]
    epoch, placement = replay_epochs(chain6, commits)
    assert epoch == 2
    assert placement.primary_site(1) == 4
    assert placement.sites_of(1) == {1, 2, 4}
    # Starting past the records is a no-op.
    epoch, placement = replay_epochs(chain6, commits, start_epoch=2)
    assert epoch == 2
    assert placement.primary_site(1) == 1


# ----------------------------------------------------------------------
# ClusterSpec epochs
# ----------------------------------------------------------------------

def test_spec_epoch_changes_fingerprint_but_not_genesis():
    params = WorkloadParams(n_sites=4, n_items=8,
                            placement_scheme="sharded-hash",
                            replication_factor=2)
    spec = ClusterSpec(params=params, protocol="dag_wt", seed=3,
                       base_port=8190)
    later = dataclasses.replace(spec, epoch=2)
    assert spec.epoch == 0
    assert later.fingerprint() != spec.fingerprint()
    assert later.genesis_fingerprint() == spec.fingerprint()
    round_tripped = ClusterSpec.from_json(later.to_json())
    assert round_tripped.epoch == 2
    assert round_tripped.fingerprint() == later.fingerprint()


def test_spec_fingerprint_covers_placement_scheme():
    params = WorkloadParams(n_sites=4, n_items=8,
                            placement_scheme="sharded-hash",
                            replication_factor=2)
    spec = ClusterSpec(params=params, protocol="dag_wt", seed=3,
                       base_port=8190)
    other = dataclasses.replace(
        spec, params=params.replaced(replication_factor=3))
    assert other.fingerprint() != spec.fingerprint()


# ----------------------------------------------------------------------
# Live epoch transitions
# ----------------------------------------------------------------------

def _spec(base_port, n_sites=6, n_items=12, txns=8):
    params = WorkloadParams(n_sites=n_sites, n_items=n_items,
                            placement_scheme="sharded-hash",
                            replication_factor=2,
                            threads_per_site=1,
                            transactions_per_thread=txns,
                            read_txn_probability=0.2,
                            deadlock_timeout=0.05)
    return ClusterSpec(params=params, protocol="dag_wt", seed=3,
                       base_port=base_port)


def test_live_transitions_under_load_with_watchdog(tmp_path):
    """The acceptance scenario: a 12-site partial-replication cluster
    completes add-replica, remove-secondary (drop-replica) and
    migrate-primary transitions without stopping traffic — zero
    watchdog criticals across the transitions, and the convergence +
    serializability oracles green against the *final* placement."""
    spec = _spec(8100, n_sites=12, n_items=24)
    placement = spec.build_placement()

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (_, client):
            watchdog = Watchdog(spec, ClusterClient(spec, timeout=2.0,
                                                    retries=1),
                                config=MonitorConfig(interval=0.25,
                                                     convergence_every=5,
                                                     trace_limit=0))
            watchdog_task = asyncio.get_running_loop().create_task(
                watchdog.run())
            generator = TransactionGenerator(
                spec.params, placement,
                RngRegistry(spec.seed).stream("workload"))
            outcomes = {"committed": 0, "aborted": 0, "unknown": 0}

            async def worker(site, thread):
                for txn_spec in generator.thread_stream(site, thread):
                    outcome = await client.run_transaction(txn_spec)
                    outcomes[outcome["status"]] += 1
                    await asyncio.sleep(0.01)

            coordinator = ReconfigCoordinator(client, timeout=20.0)
            reports = []

            async def reconfigure():
                await asyncio.sleep(0.15)
                # Epoch 1: a new downstream replica (forward edge).
                reports.append(await coordinator.execute(PlacementChange(
                    kind="add-replica", site=5, item=1)))
                # Epoch 2: remove-secondary — item 16 shares s4's shard
                # with item 4; dropping its s5 replica leaves item 4 the
                # only witness of the s4 -> s5 copy edge...
                reports.append(await coordinator.execute(PlacementChange(
                    kind="drop-replica", site=5, item=16)))
                # Epoch 3: ...so promoting s5 to item 4's primary keeps
                # the copy graph a DAG (the old edge flips with it).
                reports.append(await coordinator.execute(PlacementChange(
                    kind="migrate-primary", site=5, item=4)))

            await asyncio.gather(
                reconfigure(),
                *(worker(site, thread)
                  for site in range(spec.params.n_sites)
                  for thread in range(spec.params.threads_per_site)))
            verdict = await judge(client)
            watchdog.request_stop()
            await watchdog_task
            watchdog.close()
            await watchdog.client.close()
            return outcomes, reports, verdict, watchdog.summary()

    outcomes, reports, verdict, summary = asyncio.run(scenario())

    assert [r.epoch for r in reports] == [1, 2, 3]
    assert all(r.total_s < 20.0 for r in reports)
    assert outcomes["unknown"] == 0
    assert outcomes["committed"] > 0
    # Traffic never stopped and nothing paged: zero criticals across
    # all three transitions (site-down, lag-SLO, divergence rules all
    # armed and epoch-aware).
    assert summary["critical"] == 0, summary
    assert summary["epoch"] == 3

    # Every member agrees on epoch 3, and the oracles are green against
    # its placement.
    assert verdict.epoch == 3
    assert verdict.placement.sites_of(1) >= {1, 5}
    assert verdict.placement.sites_of(16) == {4}
    assert verdict.placement.primary_site(4) == 5
    assert verdict.violations == []


def test_load_verdict_judges_the_agreed_placement(tmp_path):
    """Loadgen's verify reads the placement of the epoch the members
    agree on, not genesis: after ``drop-replica item 10 -> s5`` and two
    more writes at item 10's primary s4, s5 still holds its old copy two
    versions behind — by design, it is no replica any more — and the
    run is convergent and serializable."""
    spec = _spec(free_base_port(6), txns=2)
    primary, dropped, item = 4, 5, 10

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (_, client):
            for seq in (9000, 9001):
                await client.run_transaction(_write(primary, seq, item))
            await ReconfigCoordinator(client, timeout=20.0).execute(
                PlacementChange(kind="drop-replica", site=dropped,
                                item=item))
            writes = [await client.run_transaction(_write(primary, seq,
                                                          item))
                      for seq in (9002, 9003)]
            report = await generate_load(spec, client, verify=True)
            return writes, report, await judge(client)

    writes, report, verdict = asyncio.run(scenario())
    assert [write["status"] for write in writes] == ["committed"] * 2
    assert verdict.epoch == 1
    assert verdict.placement.sites_of(item) == {primary}
    versions = {site: decode_value(verdict.statuses[site]["items"])[item]
                ["version"] for site in (primary, dropped)}
    assert versions[dropped] <= versions[primary] - 2, versions
    assert report.convergent, report.divergent
    assert report.serializable
    assert verdict.violations == []


def test_load_drives_the_agreed_placement(tmp_path):
    """Loadgen generates its workload over the placement the members
    agree on, not genesis: after ``drop-replica item 10 -> s5`` no
    transaction it offers is refused for the copy s5 dropped."""
    spec = _spec(free_base_port(6), txns=20)
    outcomes = []

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (_, client):
            await ReconfigCoordinator(client, timeout=20.0).execute(
                PlacementChange(kind="drop-replica", site=5, item=10))
            submit = client.run_transaction

            async def recorded(txn_spec, timeout=None):
                outcomes.append(await submit(txn_spec, timeout))
                return outcomes[-1]

            client.run_transaction = recorded
            return await drive(spec, client, monitor=None)

    run = asyncio.run(scenario())
    refused = [outcome["reason"] for outcome in outcomes
               if "no copy of item 10 at s5" in (outcome["reason"] or "")]
    assert refused == []
    assert len(outcomes) == 120
    assert run.metrics.total_committed + run.metrics.total_aborted == 120


def test_stale_epoch_client_adopts_forward(tmp_path):
    """A client whose spec sits at a historical (non-genesis) epoch is
    rejected with an epoch hint and transparently re-fingerprints."""
    spec = _spec(8120)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (_, client):
            coordinator = ReconfigCoordinator(client, timeout=20.0)
            await coordinator.execute(PlacementChange(
                kind="add-replica", site=4, item=1))
            await coordinator.execute(PlacementChange(
                kind="add-replica", site=5, item=2))
            stale = ClusterClient(dataclasses.replace(spec, epoch=1),
                                  timeout=5.0)
            try:
                status = await stale.reconfig_status(0)
                return status, stale.spec.epoch
            finally:
                await stale.close()

    status, adopted = asyncio.run(scenario())
    assert status["epoch"] == 2
    assert adopted == 2


def test_crashed_member_recovers_into_the_committed_epoch(tmp_path):
    """Epoch durability: a member killed after a transition restarts
    from its WAL directly into the committed epoch — including the
    copy it *gained* in that epoch (installed at its commit, and made
    durable by the same sync as the ``EPOCH_COMMIT``)."""
    spec = _spec(8130)
    victim = 4

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            coordinator = ReconfigCoordinator(client, timeout=20.0)
            await coordinator.execute(PlacementChange(
                kind="add-replica", site=victim, item=1))
            # Write through item 1's primary so the new replica has real
            # traffic to hold, then crash the gaining member.
            outcome = await client.run_transaction(_write(1, 9000, 1))
            assert outcome["status"] == "committed"
            await wait_quiescent(client)
            servers[victim].kill()
            await asyncio.sleep(0.2)
            servers[victim] = await start_site(spec, str(tmp_path), victim)
            status = await client.reconfig_status(victim)
            verdict = await judge(client)
            placement_resp = await client.placement(victim)
            return status, verdict, placement_resp

    status, verdict, placement_resp = asyncio.run(scenario())
    assert status["epoch"] == 1
    assert status["pending_epoch"] is None
    recovered = DataPlacement.from_json(placement_resp["placement"])
    assert victim in recovered.sites_of(1)
    assert verdict.violations == []


def test_torn_commit_is_healed(tmp_path):
    """A coordinator that dies between per-site commits leaves epochs
    torn, and the members' commit gossip alone finishes them.  The
    laggard here is the gaining site, committed out of the coordinator's
    order (it commits gainers first) so that only gossip can heal it:
    members that logged the change with its install re-send it after
    their restart to the peer that gains the copy, and the healed copy
    equals the primary's."""
    spec = _spec(8140)
    change = PlacementChange(kind="add-replica", site=5, item=1)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            for seq in (9400, 9401):
                await client.run_transaction(_write(1, seq, 1))
            target = 1
            for site in range(spec.params.n_sites):
                await client.reconfig_prepare(site, target,
                                              change.to_json())
            installed = await _read_install(client, spec, change)
            # The torn schedule: s5 crashes, then the coordinator
            # commits everyone it can reach and dies before s5 returns.
            # The commit-time gossip to s5 dies with the sockets when
            # the committed members are bounced; what heals s5 is the
            # gossip each recovered member re-sends.
            servers[5].kill()
            for site in range(5):
                await client.reconfig_commit(site, target,
                                             installed.to_json())
            for site in range(5):
                servers[site].kill()
            await client.close()
            for site in range(spec.params.n_sites):
                servers[site] = await start_site(spec, str(tmp_path), site)
            await client.wait_ready()
            healed = await _until(lambda: servers[5].epoch == 1)
            epochs = {site: server.epoch
                      for site, server in servers.items()}
            return healed, epochs, _copies(servers, 1)

    healed, epochs, copies = asyncio.run(scenario())
    assert healed
    assert set(epochs.values()) == {1}
    assert copies[5] == copies[1]
    assert copies[5][1] == 2


def test_restarted_primary_keeps_its_fence_until_the_commit(tmp_path):
    """The synced prepare is the fence: a primary restarted between the
    install read and the commit refuses a write on the fenced item, so
    it takes no version the install already left out, and after the
    commit the primary, the old replica and the gained copy agree in
    value, version and lineage."""
    spec = _spec(free_base_port(6))
    item, primary, replica, gainer = 1, 1, 2, 4
    change = PlacementChange(kind="add-replica", site=gainer, item=item)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            for seq in (9700, 9701):
                await client.run_transaction(_write(primary, seq, item))
            for site in range(spec.params.n_sites):
                await client.reconfig_prepare(site, 1, change.to_json())
            installed = await _read_install(client, spec, change)
            servers[primary].kill()
            servers[primary] = await start_site(spec, str(tmp_path),
                                                primary)
            third = await client.run_transaction(
                _write(primary, 9702, item))
            # The coordinator's order: the gainer with its install, then
            # everyone else with the bare change.
            await client.reconfig_commit(gainer, 1, installed.to_json())
            for site in range(spec.params.n_sites):
                await client.reconfig_commit(site, 1, change.to_json())
            await wait_quiescent(client)
            return third, _copies(servers, item)

    third, copies = asyncio.run(scenario())
    assert third["status"] == "aborted"
    assert "fenced" in third.get("reason", "")
    assert copies[primary] == copies[replica] == copies[gainer]
    assert copies[gainer][1] == 2


def test_abort_record_clears_the_fence_and_a_lost_abort_keeps_it(
        tmp_path):
    """The fence follows the log across restarts: a member that took
    the abort restarts unfenced; one whose abort was lost restarts
    still fenced, and the next transition — of a different change —
    releases it before it prepares, and commits."""
    spec = _spec(free_base_port(6))
    abandoned = PlacementChange(kind="add-replica", site=4, item=1)
    took_abort, lost_abort = 2, 1

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            for site in range(spec.params.n_sites):
                await client.reconfig_prepare(site, 1,
                                              abandoned.to_json())
            for site in range(spec.params.n_sites):
                if site != lost_abort:
                    await client.reconfig_abort(site, 1)
            for site in (took_abort, lost_abort):
                servers[site].kill()
                servers[site] = await start_site(spec, str(tmp_path), site)
            restarted = {site: await client.reconfig_status(site)
                         for site in (took_abort, lost_abort)}
            refused = await client.run_transaction(
                _write(lost_abort, 9800, 1))
            report = await ReconfigCoordinator(
                client, timeout=20.0).execute(
                PlacementChange(kind="add-replica", site=5, item=2))
            released = await client.run_transaction(
                _write(lost_abort, 9801, 1))
            epochs = {site: server.epoch
                      for site, server in servers.items()}
            return restarted, refused, report, released, epochs

    restarted, refused, report, released, epochs = asyncio.run(scenario())
    assert restarted[took_abort]["pending_epoch"] is None
    assert restarted[took_abort]["fenced"] == []
    assert restarted[lost_abort]["pending_epoch"] == 1
    assert restarted[lost_abort]["fenced"] == [1]
    assert refused["status"] == "aborted"
    assert "fenced" in refused.get("reason", "")
    assert report.epoch == 1
    assert released["status"] == "committed"
    assert set(epochs.values()) == {1}


def test_install_goes_only_where_it_is_installed(tmp_path):
    """The coordinator commits the gaining member first with the
    install and every other member with the bare change, and commit
    gossip carries the install only to a gaining peer: no non-gaining
    member logs or receives it, and the gaining member logs it."""
    from repro.cluster.wal import FileWal
    from repro.storage.log import LogRecordKind

    spec = _spec(free_base_port(6))
    gainer = 4
    change = PlacementChange(kind="add-replica", site=gainer, item=1)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            for seq in (9900, 9901):
                await client.run_transaction(_write(1, seq, 1))
            received = {site: [] for site in servers}
            for site, server in servers.items():
                def spy(message, site=site, deliver=server._on_reconfig):
                    received[site].append(message.payload["change"])
                    deliver(message)
                server._on_reconfig = spy
            await ReconfigCoordinator(client, timeout=20.0).execute(change)
            # Every member gossips its commit to each of its peers.
            gossiped = await _until(lambda: all(
                len(changes) >= len(servers) - 1
                for changes in received.values()))
            wals = {site: server.wal_path
                    for site, server in servers.items()}
        return gossiped, received, wals

    gossiped, received, wals = asyncio.run(scenario())
    assert gossiped
    for site in range(spec.params.n_sites):
        logged = [record.value for record in FileWal(wals[site])
                  if record.kind is LogRecordKind.EPOCH_COMMIT]
        assert len(logged) == 1
        assert ("install" in logged[0]) == (site == gainer), site
        if site != gainer:
            assert not any("install" in payload
                           for payload in received[site]), site


def test_writes_on_fenced_items_are_refused_not_lost(tmp_path):
    """While an item's transition is pending its writes abort cleanly
    (status aborted with a reason) instead of committing into a
    placement about to be swapped; after the commit they flow again."""
    spec = _spec(8160)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (_, client):
            target = 1
            change = PlacementChange(kind="add-replica", site=4, item=1)
            for site in range(spec.params.n_sites):
                await client.reconfig_prepare(site, target,
                                              change.to_json())
            fenced = await client.run_transaction(_write(1, 9100, 1))
            installed = await _read_install(client, spec, change)
            for site in range(spec.params.n_sites):
                await client.reconfig_commit(site, target,
                                             installed.to_json())
            unfenced = await client.run_transaction(_write(1, 9101, 1))
            return fenced, unfenced

    fenced, unfenced = asyncio.run(scenario())
    assert fenced["status"] == "aborted"
    assert "fenced" in fenced.get("reason", "")
    assert unfenced["status"] == "committed"


def _write(site, seq, item):
    from repro.types import (GlobalTransactionId, Operation, OpType,
                             TransactionSpec)

    return TransactionSpec(GlobalTransactionId(site, seq), site,
                           (Operation(OpType.WRITE, item),))


async def _read_install(client, spec, change):
    """``change`` with the state its gaining sites install, read from
    the fenced primary the way the coordinator reads it."""
    installed = await ReconfigCoordinator(client).read_install(
        change, spec.build_placement())
    assert installed is not None
    return installed


async def _until(predicate):
    """Poll ``predicate`` until it holds (False after ~4 s)."""
    for _ in range(400):
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return False


def _copies(servers, item):
    """Per in-process member holding ``item``: (value, version,
    writer lineage) of its copy."""
    copies = {}
    for site, server in servers.items():
        engine = server.system.site_of(site).engine
        if engine.has_item(item):
            record = engine.item(item)
            copies[site] = (record.value, record.committed_version,
                            list(record.writers))
    return copies


async def _version_reaches(server, item, want):
    """Poll one in-process member until its copy of ``item`` is at
    version ``want`` (False after ~4 s)."""
    engine = server.system.site_of(server.site_id).engine
    return await _until(lambda: engine.has_item(item) and
                        engine.item(item).committed_version == want)


def test_state_transfer_runs_fenced_and_commit_gossip_orders_the_swap(
        tmp_path):
    """The gained copy's state is read once, from the fenced primary,
    and installed inside the epoch commit: the prepare creates nothing
    and sends nothing, the gained copy equals the primary's — value,
    version and writer lineage — the moment it adopts the epoch, and
    once the gaining site commits (first, as the coordinator orders
    it), every other member commits through commit gossip alone."""
    spec = _spec(8170)
    item, primary, gainer = 1, 1, 4
    change = PlacementChange(kind="add-replica", site=gainer, item=item)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            for seq in (9200, 9201, 9202):
                await client.run_transaction(_write(primary, seq, item))
            await wait_quiescent(client)
            sent = {site: server.transport.total_sent
                    for site, server in servers.items()}
            for site in range(spec.params.n_sites):
                await client.reconfig_prepare(site, 1, change.to_json())
            prepared = (servers[gainer].system.site_of(gainer).engine
                        .has_item(item),
                        {site: server.transport.total_sent - sent[site]
                         for site, server in servers.items()})
            installed = await _read_install(client, spec, change)
            # Commit the gainer only: the others commit through gossip.
            await client.reconfig_commit(gainer, 1, installed.to_json())
            await _until(lambda: all(server.epoch == 1
                                     for server in servers.values()))
            copies = _copies(servers, item)
            epochs = {site: server.epoch
                      for site, server in servers.items()}
            return prepared, copies, epochs

    (had_copy, prepare_sent), copies, epochs = asyncio.run(scenario())
    assert not had_copy
    assert set(prepare_sent.values()) == {0}
    assert copies[gainer] == copies[primary]
    assert copies[gainer][1] == 3
    assert set(epochs.values()) == {1}


def test_write_right_after_the_primary_commit_crosses_gossip_only_relays(
        tmp_path):
    """The ordering premise, pinned: a site gossips ``RECONFIG`` at its
    own commit, before it forwards any update of the new epoch, and
    both share each FIFO channel.  The gaining site commits first, then
    the primary; a write committed at the primary straight after its
    epoch commit travels to the gained copy through relays (s2, s3 on
    the DAG(WT) chain) that commit only through gossip, so each adopts
    the placement before it forwards the update: the gained copy ends
    one version past the install, with the primary's lineage."""
    spec = _spec(8150)
    item, primary, gainer = 1, 1, 4
    change = PlacementChange(kind="add-replica", site=gainer, item=item)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            for seq in (9500, 9501, 9502):
                await client.run_transaction(_write(primary, seq, item))
            for site in range(spec.params.n_sites):
                await client.reconfig_prepare(site, 1, change.to_json())
            installed = await _read_install(client, spec, change)
            await client.reconfig_commit(gainer, 1, installed.to_json())
            await client.reconfig_commit(primary, 1, change.to_json())
            await client.adopt_epoch(1)
            after = await client.run_transaction(
                _write(primary, 9503, item))
            fed = await _version_reaches(servers[gainer], item, 4)
            copies = _copies(servers, item)
            epochs = {site: server.epoch
                      for site, server in servers.items()}
            return after, fed, copies, epochs

    after, fed, copies, epochs = asyncio.run(scenario())
    assert after["status"] == "committed"
    assert fed
    assert copies[gainer] == copies[primary]
    assert set(epochs.values()) == {1}


def test_reconfig_state_refuses_an_unfenced_item_and_a_locked_one(
        tmp_path):
    """The one read of a gained item's state is taken only where it is
    final: at the item's primary, fenced, with no lock held or awaited
    on it.  Anything else is refused and the coordinator keeps
    polling."""
    from repro.storage.locks import LockMode
    from repro.types import GlobalTransactionId

    spec = _spec(8156, n_sites=3, n_items=6)
    item, primary = 1, 1
    change = PlacementChange(kind="add-replica", site=0, item=item)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            answers = {
                "unfenced": await client.reconfig_state(primary, item)}
            for site in range(spec.params.n_sites):
                await client.reconfig_prepare(site, 1, change.to_json())
            answers["replica"] = await client.reconfig_state(2, item)
            engine = servers[primary].system.site_of(primary).engine
            reader = engine.begin(GlobalTransactionId(primary, 9600))
            engine.locks.acquire(reader, item, LockMode.SHARED)
            answers["locked"] = await client.reconfig_state(primary, item)
            engine.abort(reader)
            answers["quiet"] = await client.reconfig_state(primary, item)
            return answers

    answers = asyncio.run(scenario())
    for case in ("unfenced", "replica", "locked"):
        assert "refused" in answers[case], case
        assert "state" not in answers[case], case
    assert answers["quiet"]["state"] == {
        "item": item, "value": 0, "version": 0, "writers": []}


def test_gaining_member_refuses_a_commit_without_its_install(tmp_path):
    """No commit without its install: a change that lacks the state of
    a copy the member gains is refused, and the member stays in the old
    epoch without the copy; members that gain nothing commit it."""
    from repro.cluster.client import ClusterError

    spec = _spec(8196, n_sites=3, n_items=6)
    change = PlacementChange(kind="add-replica", site=2, item=0)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            for site in range(spec.params.n_sites):
                await client.reconfig_prepare(site, 1, change.to_json())
            with pytest.raises(ClusterError, match="no install"):
                await client.reconfig_commit(2, 1, change.to_json())
            refused = (servers[2].epoch,
                       servers[2].system.site_of(2).engine.has_item(0))
            installed = await _read_install(client, spec, change)
            await client.reconfig_commit(1, 1, change.to_json())
            await client.reconfig_commit(2, 1, installed.to_json())
            return refused, servers[1].epoch, servers[2].epoch

    refused, bystander, gainer = asyncio.run(scenario())
    assert refused == (0, False)
    assert bystander == 1
    assert gainer == 1


def test_misaligned_install_raises_and_changes_nothing():
    """An install whose lineage does not extend the local one is a
    broken invariant (a copy only ever receives its primary's versions
    in the primary's order), not a retry path: it raises before it
    touches the copy, the log or the history."""
    from repro.sim.environment import Environment
    from repro.storage.engine import StorageEngine
    from repro.storage.log import WriteAheadLog
    from repro.types import GlobalTransactionId

    engine = StorageEngine(Environment(), site_id=4, lock_timeout=None,
                           wal=WriteAheadLog())
    engine.create_item(1)
    ours = [GlobalTransactionId(1, seq) for seq in (1, 2)]
    assert engine.install(1, "b", 2, ours) == 2
    logged = len(engine.wal)
    for version, writers in (
            (3, [GlobalTransactionId(1, 9)] + ours[1:] +
             [GlobalTransactionId(1, 3)]),              # fork
            (1, ours[:1]),                              # behind
            (4, [GlobalTransactionId(1, 4)])):          # gap
        with pytest.raises(ValueError, match="does not extend"):
            engine.install(1, "x", version, writers)
    record = engine.item(1)
    assert (record.value, record.committed_version, record.writers) == \
        ("b", 2, ours)
    assert len(engine.wal) == logged
    assert engine.install(1, "c", 3, ours + [
        GlobalTransactionId(1, 3)]) == 1
def test_power_loss_in_the_commit_window_keeps_the_gained_copy_fed(
        tmp_path):
    """Reconfiguration x crash, with no pull plane to paper over it:
    the gaining site commits first, as the coordinator orders it, and
    goes down; the primary then commits the epoch and takes a
    post-fence write, and the whole cluster loses power, so every
    queued commit gossip and forward is gone.  The gainer recovers
    into the epoch with its install from its own WAL, and recovered
    members re-send their epoch's gossip ahead of everything they
    replay or re-forward, so every relay adopts the placement before
    the re-forwarded update crosses it: the gained copy ends equal to
    the primary."""
    spec = _spec(8180)
    item, primary, gainer = 1, 1, 4
    change = PlacementChange(kind="add-replica", site=gainer, item=item)

    async def scenario():
        async with start_cluster(spec, str(tmp_path)) as (servers, client):
            for seq in (9300, 9301, 9302):
                await client.run_transaction(_write(primary, seq, item))
            for site in range(spec.params.n_sites):
                await client.reconfig_prepare(site, 1, change.to_json())
            installed = await _read_install(client, spec, change)
            await client.reconfig_commit(gainer, 1, installed.to_json())
            servers[gainer].kill()
            await client.reconfig_commit(primary, 1, change.to_json())
            await client.adopt_epoch(1)
            outcome = await client.run_transaction(
                _write(primary, 9303, item))
            for site in range(spec.params.n_sites):
                if site != gainer:
                    servers[site].kill()
            await client.close()
            for site in range(spec.params.n_sites):
                servers[site] = await start_site(spec, str(tmp_path), site)
            await client.wait_ready()
            await _version_reaches(servers[gainer], item, 4)
            statuses = await wait_quiescent(client)
            return outcome, statuses, _copies(servers, item)

    outcome, statuses, copies = asyncio.run(scenario())
    assert outcome["status"] == "committed"
    assert {int(status["epoch"]) for status in statuses.values()} == {1}
    versions = {site: decode_value(status["items"])[item]["version"]
                for site, status in statuses.items()
                if item in decode_value(status["items"])}
    assert versions[primary] == versions[gainer] == 4, versions
    assert copies[gainer] == copies[primary]
