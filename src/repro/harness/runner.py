"""Experiment runner: build a system, drive the workload, collect results.

``run_experiment`` is the package's front door::

    from repro import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(protocol="backedge", seed=1))
    print(result.average_throughput, result.abort_rate)
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.base import (
    ReplicatedSystem,
    ReplicationProtocol,
    SystemConfig,
    make_protocol,
)
from repro.errors import TransactionAborted
from repro.harness.metrics import MetricsCollector
from repro.harness.serializability import (
    build_serialization_graph,
    check_serializable,
    explain_cycle,
    find_dsg_cycle,
)
from repro.sim.environment import Environment
from repro.sim.events import AllOf, AnyOf
from repro.sim.rng import RngRegistry
from repro.types import SiteId
from repro.workload.distribution import generate_placement
from repro.workload.generator import TransactionGenerator
from repro.workload.params import WorkloadParams


@dataclasses.dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment run."""

    #: Registered protocol name: ``backedge``, ``psl``, ``dag_wt``,
    #: ``dag_t`` or ``eager``.
    protocol: str = "backedge"
    params: WorkloadParams = dataclasses.field(
        default_factory=WorkloadParams)
    seed: int = 0
    #: Extra keyword arguments for the protocol constructor (e.g.
    #: ``{"variant": "tree"}`` for BackEdge).
    protocol_options: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict)
    #: Engine cost-model overrides (fields of ``SystemConfig``).
    cost_overrides: typing.Dict[str, float] = dataclasses.field(
        default_factory=dict)
    #: Hard cap on simulated time (None: run the workload to completion).
    max_sim_time: typing.Optional[float] = None
    #: Extra simulated time after the last client finishes, letting lazy
    #: propagation drain before the serializability check.
    drain_time: float = 1.0
    #: Verify global serializability of the run's histories.
    check_serializability: bool = True
    #: With strict checking (default) a violation raises; otherwise the
    #: result records ``serializable=False`` and the offending cycle —
    #: used to *measure* the anomalies of non-serializable baselines.
    strict_serializability: bool = True
    #: Additional system observers (e.g. a
    #: :class:`repro.obs.trace.SpanObserver`) registered for the run.
    extra_observers: typing.List = dataclasses.field(
        default_factory=list)


@dataclasses.dataclass
class ExperimentResult:
    """Aggregated outcome of one run."""

    config: ExperimentConfig
    #: Mean per-site committed-primary throughput (txn/s).
    average_throughput: float
    #: Percentage of primary subtransactions aborted.
    abort_rate: float
    #: Mean commit latency of committed primaries (s).
    mean_response_time: float
    #: Mean commit-to-last-replica delay (s).
    mean_propagation_delay: float
    committed: int
    aborted: int
    #: Simulated duration the clients were active (s).
    duration: float
    #: Total network messages sent, by type name.
    messages_by_type: typing.Dict[str, int]
    total_messages: int
    serializable: typing.Optional[bool]
    #: Per-site committed counts (diagnostics).
    committed_per_site: typing.Dict[SiteId, int]
    #: One DSG cycle when ``serializable`` is False (non-strict mode).
    violation_cycle: typing.Optional[list] = None
    #: Per-edge conflict explanation of that cycle (non-strict mode).
    violation_explanation: typing.Optional[str] = None

    def summary(self) -> str:
        return ("{:>9}: throughput={:6.2f} txn/s/site  abort={:5.1f}%  "
                "resp={:6.1f} ms  msgs={}").format(
            self.config.protocol, self.average_throughput,
            self.abort_rate, self.mean_response_time * 1000.0,
            self.total_messages)


def build_system(config: ExperimentConfig
                 ) -> typing.Tuple[Environment, ReplicatedSystem,
                                   ReplicationProtocol,
                                   TransactionGenerator]:
    """Construct (but do not run) the full system for ``config``."""
    params = config.params.validate()
    rngs = RngRegistry(config.seed)
    placement = generate_placement(params, rngs.stream("placement"))
    if params.network_jitter > 0:
        jitter_rng = rngs.stream("latency")
        base_latency = params.network_latency
        jitter = params.network_jitter

        def latency():
            return base_latency * jitter_rng.uniform(1 - jitter,
                                                     1 + jitter)
    else:
        latency = params.network_latency
    system_config = SystemConfig(
        lock_timeout=params.deadlock_timeout,
        network_latency=latency)
    for field, value in config.cost_overrides.items():
        if not hasattr(system_config, field):
            raise AttributeError(
                "unknown SystemConfig field {!r}".format(field))
        setattr(system_config, field, value)
    env = Environment()
    system = ReplicatedSystem(env, placement, system_config)
    protocol = make_protocol(config.protocol, system,
                             **config.protocol_options)
    system.use_protocol(protocol)
    generator = TransactionGenerator(params, placement,
                                     rngs.stream("workload"))
    return env, system, protocol, generator


def _client_thread(protocol: ReplicationProtocol, site_id: SiteId,
                   specs, metrics: MetricsCollector, process_ref):
    """One client thread: run its transactions back-to-back."""
    env = protocol.env
    process = process_ref[0]
    for spec in specs:
        start = env.now
        try:
            yield from protocol.run_transaction(site_id, spec, process)
            metrics.transaction_committed(site_id, env.now - start)
        except TransactionAborted as exc:
            metrics.transaction_aborted(site_id, exc.reason)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment to completion and aggregate the results."""
    env, system, protocol, generator = build_system(config)
    params = config.params
    metrics = MetricsCollector(params.n_sites)
    system.observers.append(metrics)
    system.observers.extend(config.extra_observers)

    clients = []
    for site_id in range(params.n_sites):
        for thread_index in range(params.threads_per_site):
            specs = generator.thread_stream(site_id, thread_index)
            process_ref: list = []
            process = env.process(_client_thread(
                protocol, site_id, specs, metrics, process_ref))
            process_ref.append(process)
            clients.append(process)

    all_done = AllOf(env, clients)
    if config.max_sim_time is not None:
        env.run(until=AnyOf(env, [all_done,
                                  env.timeout(config.max_sim_time)]))
    else:
        env.run(until=all_done)
    duration = env.now

    # Snapshot the measurement-window aggregates before draining.
    average_throughput = metrics.average_throughput(duration)
    abort_rate = metrics.abort_rate()
    mean_response_time = metrics.mean_response_time()
    committed = metrics.total_committed
    aborted = metrics.total_aborted
    committed_per_site = dict(metrics.committed)

    # Let in-flight lazy propagation land (heartbeats keep the schedule
    # non-empty forever, so we cap the drain explicitly).
    if config.drain_time > 0:
        env.run(until=env.now + config.drain_time)

    serializable: typing.Optional[bool] = None
    violation_cycle: typing.Optional[list] = None
    violation_explanation: typing.Optional[str] = None
    if config.check_serializability:
        histories = [site.engine.history for site in system.sites]
        if config.strict_serializability:
            check_serializable(histories)
            serializable = True
        else:
            graph = build_serialization_graph(histories)
            violation_cycle = find_dsg_cycle(graph)
            serializable = violation_cycle is None
            if violation_cycle is not None:
                violation_explanation = explain_cycle(histories,
                                                      violation_cycle)

    result = ExperimentResult(
        config=config,
        average_throughput=average_throughput,
        abort_rate=abort_rate,
        mean_response_time=mean_response_time,
        mean_propagation_delay=metrics.mean_propagation_delay(),
        committed=committed,
        aborted=aborted,
        duration=duration,
        messages_by_type={msg_type.value: count for msg_type, count
                          in system.network.sent_by_type.items()},
        total_messages=system.network.total_sent,
        serializable=serializable,
        committed_per_site=committed_per_site,
        violation_cycle=violation_cycle,
        violation_explanation=violation_explanation,
    )
    system.teardown()
    return result
