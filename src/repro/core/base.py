"""Replicated-system assembly and the protocol interface.

A :class:`ReplicatedSystem` wires together, for one experiment run: the
simulation environment, one :class:`~repro.storage.engine.StorageEngine`
and one CPU :class:`~repro.sim.resources.Resource` per site, the FIFO
:class:`~repro.network.network.Network`, the copy graph derived from the
data placement, and one :class:`ReplicationProtocol` instance.

The lazy protocols share one primary path (``run_transaction``) and plug
in at two points: an eager phase before commit (BackEdge's backedge
round) and propagation after it.  PSL and eager replication lock remotely
and keep their own primaries.  Shared behaviour — local operation
execution with CPU accounting, deterministic write values, the paper's
timeout victim rules — lives here.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import ConfigurationError, LockTimeout, TransactionAborted
from repro.graph.copygraph import CopyGraph
from repro.graph.placement import DataPlacement
from repro.network.network import Network
from repro.sim.environment import Environment
from repro.sim.events import Interrupt
from repro.sim.resources import Resource
from repro.storage.engine import StorageEngine
from repro.storage.locks import (
    ABORT_WAITER,
    KEEP_WAITING,
    LockManager,
    LockMode,
    LockRequest,
)
from repro.storage.transaction import Transaction
from repro.types import (
    GlobalTransactionId,
    ItemId,
    SiteId,
    SubtransactionKind,
    TransactionSpec,
)


@dataclasses.dataclass
class SystemConfig:
    """Engine/cost knobs of the simulated testbed.

    CPU service times are calibrated so the paper's default workload lands
    in its reported throughput/response-time range (see EXPERIMENTS.md);
    they model a late-90s workstation running an in-memory DBMS.
    """

    #: Lock/deadlock timeout interval (Table 1: 50 ms).
    lock_timeout: float = 0.050
    #: One-way network latency (Table 1 default: ~0.15 ms).
    network_latency: float = 0.00015
    #: Per-transaction client/setup CPU spent *before* any lock is taken
    #: (parsing, scheduling, connection work).  Most of a transaction's
    #: service time sits here, so locks are held only briefly relative to
    #: the 50 ms deadlock timeout — matching the paper's near-zero abort
    #: rate for the lazy protocols at b=0.
    cpu_txn_setup: float = 0.035
    #: CPU time to execute one read/write operation under locks
    #: (main-memory engine: cheap).
    cpu_per_op: float = 0.0005
    #: CPU time for local commit processing.
    cpu_commit: float = 0.001
    #: CPU time to receive/handle one network message.
    cpu_message: float = 0.001
    #: CPU time to apply one replica write in a secondary subtransaction.
    cpu_apply_write: float = 0.0005
    #: CPU time at the primary site to serve one remote read (PSL).
    cpu_remote_read: float = 0.004
    #: Round-robin scheduling quantum of the per-site CPU: long jobs are
    #: consumed in slices so short (lock-holding) work is not stuck
    #: behind them.
    cpu_quantum: float = 0.001
    #: Cores per site CPU (the paper's testbed is single-core; >1 models
    #: an SMP site).
    cpu_cores: int = 1
    #: DAG(T): dummy-subtransaction interval per idle edge (Sec. 3.3).
    heartbeat_interval: float = 0.100
    #: DAG(T): epoch-increment period at source sites (Sec. 3.3).
    epoch_interval: float = 0.250


class Site:
    """Per-site runtime: the storage engine plus a single-core CPU."""

    def __init__(self, env: Environment, site_id: SiteId,
                 config: SystemConfig):
        self.env = env
        self.site_id = site_id
        self.config = config
        self.engine = StorageEngine(env, site_id,
                                    lock_timeout=config.lock_timeout)
        self.cpu = Resource(env, capacity=config.cpu_cores)

    def work(self, duration: float):
        """Consume ``duration`` of this site's CPU under round-robin
        scheduling.  Use as ``yield from site.work(t)``."""
        return self.cpu.use(duration, quantum=self.config.cpu_quantum)

    def __repr__(self):
        return "<Site s{}>".format(self.site_id)


class ReplicatedSystem:
    """One fully-wired replicated database system.

    Parameters
    ----------
    env, placement, config:
        As before.
    transport:
        The site-to-site message fabric.  Defaults to the simulated
        :class:`~repro.network.network.Network`; the live cluster runtime
        (:mod:`repro.cluster`) injects a TCP-backed transport with the
        same ``send``/``set_handler`` interface and per-channel FIFO
        guarantee instead.
    local_sites:
        Site ids hosted by *this* process.  Defaults to all sites (the
        single-process simulation).  A live :class:`SiteServer` restricts
        this to its own site: only local sites get engines/CPUs, and
        protocols install handlers and background processes for local
        sites only.
    """

    def __init__(self, env: Environment, placement: DataPlacement,
                 config: typing.Optional[SystemConfig] = None,
                 transport=None,
                 local_sites: typing.Optional[
                     typing.Iterable[SiteId]] = None):
        self.env = env
        self.placement = placement
        self.config = config or SystemConfig()
        self.copy_graph = CopyGraph.from_placement(placement)
        if transport is None:
            transport = Network(env, placement.n_sites,
                                latency=self.config.network_latency)
        self.network = transport
        if local_sites is None:
            local_sites = range(placement.n_sites)
        self.local_site_ids: typing.List[SiteId] = sorted(local_sites)
        local_set = set(self.local_site_ids)
        self.sites: typing.List[typing.Optional[Site]] = [
            Site(env, site_id, self.config) if site_id in local_set
            else None
            for site_id in range(placement.n_sites)]
        self.protocol: typing.Optional["ReplicationProtocol"] = None
        #: Configuration epoch (:mod:`repro.reconfig`): bumped by
        #: :meth:`swap_placement` at each committed reconfiguration.
        self.epoch: int = 0
        #: Registry of in-flight primary subtransactions by global id —
        #: lets a remote site's victim policy wound the owning primary
        #: (physically this is a tiny control message; the simulation
        #: applies it directly and only the ensuing cleanup traffic is
        #: charged to the network).
        self.primaries: typing.Dict[GlobalTransactionId, Transaction] = {}
        #: Cross-process wound hook: ``(gid, reason) -> None``.  When a
        #: victim policy needs to wound a primary whose registry lives in
        #: another process, it calls this instead (the live runtime wires
        #: it to a WOUND control message; ``None`` in the simulation,
        #: where every primary is in :attr:`primaries`).
        self.remote_wound: typing.Optional[typing.Callable] = None
        #: Observer hooks (set by the harness metrics collector).
        self.observers: typing.List = []
        # Materialise item copies at their (locally hosted) sites.
        for item in placement.items:
            for copy_site in sorted(placement.sites_of(item)):
                if copy_site in local_set:
                    self.site_of(copy_site).engine.create_item(item)

    @property
    def local_sites(self) -> typing.List[Site]:
        """The :class:`Site` runtimes hosted by this process."""
        return [self.sites[site_id] for site_id in self.local_site_ids]

    def site_of(self, site_id: SiteId) -> Site:
        site = self.sites[site_id]
        if site is None:
            raise ConfigurationError(
                "site s{} is not hosted by this process".format(site_id))
        return site

    def use_protocol(self, protocol: "ReplicationProtocol") -> None:
        """Install the protocol and run its setup (handlers, processes)."""
        self.protocol = protocol
        protocol.setup()

    def teardown(self) -> None:
        """Drop a finished run's engine state and pending events; its
        graph is cyclic, so they would wait for a full collection."""
        for site in self.local_sites:
            site.engine.crash()
        self.env.clear()

    def swap_placement(self, placement: DataPlacement,
                       epoch: int) -> None:
        """Atomically adopt a new placement at an epoch boundary
        (:mod:`repro.reconfig`).

        Runs between drive steps of the live runtime (never mid-
        subtransaction): replaces the placement and copy graph and lets
        the protocol re-derive its routing state.  The caller has
        already installed every copy this process *gains*.  Copies this
        process *loses* stay in the engine — frozen, unreferenced by the
        new placement, and refused to clients by the server's placement
        legality check — because deleting history that committed
        transactions read would blind the serializability oracle.
        """
        self.placement = placement
        self.copy_graph = CopyGraph.from_placement(placement)
        self.epoch = epoch
        if self.protocol is not None:
            self.protocol.on_placement_change()

    # ------------------------------------------------------------------
    # Observer plumbing (metrics)
    # ------------------------------------------------------------------

    def notify(self, event: str, **details) -> None:
        for observer in self.observers:
            handler = getattr(observer, "on_" + event, None)
            if handler is not None:
                handler(**details)

    # ------------------------------------------------------------------
    # Global-txn registry
    # ------------------------------------------------------------------

    def register_primary(self, txn: Transaction) -> None:
        self.primaries[txn.gid] = txn

    def unregister_primary(self, txn: Transaction) -> None:
        self.primaries.pop(txn.gid, None)


class ReplicationProtocol:
    """Base class for update-propagation protocols.

    Subclasses must define :attr:`name`.  A lazy protocol implements
    ``_propagate`` and may override ``_eager_phase``; a protocol that
    locks remotely overrides ``run_transaction`` instead.  ``setup``
    installs message handlers and background processes.
    """

    #: Registry key, e.g. ``"backedge"``.
    name: str = "base"
    #: Whether the protocol requires an acyclic copy graph.
    requires_dag: bool = False

    def __init__(self, system: ReplicatedSystem):
        self.system = system
        self.env = system.env
        self.config = system.config
        self.placement = system.placement
        self.network = system.network
        if self.requires_dag and not system.copy_graph.is_dag():
            raise ConfigurationError(
                "{} requires a DAG copy graph; found cycle {}".format(
                    self.name, system.copy_graph.find_cycle()))

    # -- subclass interface -------------------------------------------

    def setup(self) -> None:
        """Install message handlers / background processes."""

    def on_placement_change(self) -> None:
        """The system swapped its placement (epoch transition).

        Subclasses re-derive whatever routing state they cache
        (propagation tree, site order, backedge set).  The base hook
        refreshes the placement snapshot reference."""
        self.placement = self.system.placement

    def run_transaction(self, site_id: SiteId, spec: TransactionSpec,
                        process) -> typing.Generator:
        """Run one primary transaction attempt to commit.

        Must be driven with ``yield from`` inside the client's simulation
        process (``process`` is that process, used to make the
        transaction woundable).  Raises
        :class:`~repro.errors.TransactionAborted` after rolling back on
        any abort (lock timeout, wound, global deadlock).

        This is the lazy primary path: execute locally, run the eager
        phase, commit, then propagate.  Commit and propagation happen in
        one simulation step, so they are atomic with respect to other
        commits at the site (Secs. 2, 3.2.2).
        """
        site = self._site(site_id)
        yield from self._txn_setup(site)
        txn = site.engine.begin(spec.gid, SubtransactionKind.PRIMARY,
                                process=process)
        self.system.register_primary(txn)
        try:
            yield from self._local_operations(site, txn, spec)
            yield from self._eager_phase(site, txn)
            yield from site.work(self.config.cpu_commit)
        except (LockTimeout, Interrupt) as exc:
            self._abort_primary(site, txn, exc)
        site.engine.commit(txn)
        self.system.unregister_primary(txn)
        replicated = self._replicated_writes(txn)
        self.system.notify(
            "primary_commit", gid=txn.gid, site=site_id, time=self.env.now,
            expected_replicas=self._expected_replicas(replicated))
        self._propagate(site_id, txn.gid, replicated)

    def _eager_phase(self, site: Site, txn: Transaction
                     ) -> typing.Iterable:
        """Work done holding the primary's locks before it commits; it
        may raise :class:`~repro.errors.TransactionAborted`.  Purely lazy
        protocols have none."""
        return ()

    def _propagate(self, site_id: SiteId, gid: GlobalTransactionId,
                   writes: typing.Mapping[ItemId, typing.Any]) -> None:
        """Send a committed primary's replicated ``writes`` on their way
        (runs in the commit step)."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------

    def _site(self, site_id: SiteId) -> Site:
        return self.system.site_of(site_id)

    @staticmethod
    def _write_value(gid: GlobalTransactionId, op_index: int) -> str:
        """Deterministic value for a write (content is irrelevant to the
        protocols; versions drive the serializability checker)."""
        return "{}#{}".format(gid, op_index)

    def _txn_setup(self, site: Site):
        """Pre-lock per-transaction CPU work (run first in every
        ``run_transaction``)."""
        return site.work(self.config.cpu_txn_setup)

    def _local_operations(self, site: Site, txn: Transaction,
                          spec: TransactionSpec):
        """Execute all of ``spec``'s operations locally under 2PL.

        Lock waits happen while *not* holding the CPU; each operation then
        costs ``cpu_per_op`` of CPU time.
        """
        for index, op in enumerate(spec.operations):
            if op.is_read:
                yield from site.engine.read(txn, op.item)
            else:
                yield from site.engine.write(
                    txn, op.item, self._write_value(txn.gid, index))
            yield from site.work(self.config.cpu_per_op)

    def _replicated_writes(self, txn: Transaction
                           ) -> typing.Dict[ItemId, typing.Any]:
        return {item: value for item, value in txn.writes.items()
                if self.placement.is_replicated(item)}

    def _expected_replicas(self, writes: typing.Mapping[ItemId, typing.Any]
                           ) -> typing.Set[SiteId]:
        sites: typing.Set[SiteId] = set()
        for item in writes:
            sites |= self.placement.replica_sites(item)
        return sites

    def _abort_primary(self, site: Site, txn: Transaction,
                       exc: Exception) -> typing.NoReturn:
        """Roll back a primary after a lock timeout or a wound's
        :class:`~repro.sim.events.Interrupt` and raise
        :class:`TransactionAborted`."""
        site.engine.abort(txn)
        self.system.unregister_primary(txn)
        raise TransactionAborted(txn.gid, _abort_reason(exc))

    # -- the paper's timeout victim rules ------------------------------

    def install_lazy_timeout_policy(self, manager: LockManager) -> None:
        """Victim selection for the lazy protocols (Secs. 2, 4.1):

        - a *primary* whose wait times out aborts itself;
        - a *secondary/special* subtransaction is never the victim — it
          wounds a conflicting primary (the one that arrived latest, the
          paper's "fair" example policy) or, when blocked by a backedge
          subtransaction, wounds that subtransaction's own global primary
          (the Example 4.1 global-deadlock resolution) and keeps waiting;
        - a *backedge* subtransaction similarly wounds conflicting
          primaries and keeps waiting (its own primary aborts itself if
          the wait cycles back to it).
        """

        def policy(mgr: LockManager, request: LockRequest) -> str:
            if request.txn.kind is SubtransactionKind.PRIMARY:
                return ABORT_WAITER
            blockers = self._conflicting_holders(mgr, request)
            wounded = False
            for holder in sorted(
                    blockers, key=lambda txn: -txn.start_time):
                if holder.kind is SubtransactionKind.PRIMARY:
                    if holder.wound("wounded-by-{}".format(
                            request.txn.kind.value)):
                        wounded = True
                        break
                elif holder.kind in (SubtransactionKind.BACKEDGE,
                                     SubtransactionKind.SPECIAL):
                    primary = self.system.primaries.get(holder.gid)
                    if primary is not None:
                        if primary.wound("global-deadlock"):
                            wounded = True
                            break
                    elif self.system.remote_wound is not None:
                        # The owning primary runs in another process
                        # (live cluster): ship the wound as a control
                        # message and keep waiting.
                        self.system.remote_wound(holder.gid,
                                                 "global-deadlock")
            del wounded  # Either way the subtransaction keeps waiting.
            return KEEP_WAITING

        manager.timeout_policy = policy

    @staticmethod
    def _conflicting_holders(manager: LockManager,
                             request: LockRequest) -> typing.List:
        holders = manager.holders(request.item)
        return [holder for holder, mode in holders.items()
                if holder is not request.txn
                and (request.mode is LockMode.EXCLUSIVE
                     or mode is LockMode.EXCLUSIVE)]


def _abort_reason(exc: Exception) -> str:
    cause = exc.cause if isinstance(exc, Interrupt) else exc
    if isinstance(cause, TransactionAborted):
        return cause.reason
    return str(cause)


#: Protocol registry, populated by the concrete modules at import time via
#: :func:`register_protocol`.
PROTOCOLS: typing.Dict[str, typing.Type[ReplicationProtocol]] = {}


def register_protocol(cls: typing.Type[ReplicationProtocol]
                      ) -> typing.Type[ReplicationProtocol]:
    """Class decorator adding a protocol to :data:`PROTOCOLS`."""
    PROTOCOLS[cls.name] = cls
    return cls


def make_protocol(name: str, system: ReplicatedSystem,
                  **kwargs) -> ReplicationProtocol:
    """Instantiate a registered protocol by name."""
    # Import the concrete modules so their registrations run.
    import repro.core.backedge  # noqa: F401
    import repro.core.dag_t  # noqa: F401
    import repro.core.dag_wt  # noqa: F401
    import repro.core.eager  # noqa: F401
    import repro.core.indiscriminate  # noqa: F401
    import repro.core.psl  # noqa: F401

    try:
        cls = PROTOCOLS[name]
    except KeyError:
        raise ConfigurationError(
            "unknown protocol {!r}; available: {}".format(
                name, ", ".join(sorted(PROTOCOLS)))) from None
    return cls(system, **kwargs)
