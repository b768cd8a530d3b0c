"""Shared test fixtures: hand-built small systems for protocol scenarios."""

from __future__ import annotations

import typing

from repro.core.base import ReplicatedSystem, SystemConfig, make_protocol
from repro.errors import TransactionAborted
from repro.graph.placement import DataPlacement
from repro.sim.environment import Environment
from repro.types import (
    GlobalTransactionId,
    Operation,
    OpType,
    TransactionSpec,
)

#: Fast cost model for scenario tests: tiny CPU costs, visible latency.
FAST = dict(cpu_txn_setup=0.001, cpu_per_op=0.0002, cpu_commit=0.0002,
            cpu_message=0.0001, cpu_apply_write=0.0002,
            cpu_remote_read=0.0002, heartbeat_interval=0.020,
            epoch_interval=0.040)


def make_system(placement: DataPlacement, protocol_name: str,
                lock_timeout: float = 0.050,
                latency: float = 0.001,
                protocol_options: typing.Optional[dict] = None):
    """Build (env, system, protocol) with the FAST cost model."""
    config = SystemConfig(lock_timeout=lock_timeout,
                          network_latency=latency, **FAST)
    env = Environment()
    system = ReplicatedSystem(env, placement, config)
    protocol = make_protocol(protocol_name, system,
                             **(protocol_options or {}))
    system.use_protocol(protocol)
    return env, system, protocol


def spec(site: int, seq: int, *ops) -> TransactionSpec:
    """Build a TransactionSpec from ("r"/"w", item) pairs."""
    operations = tuple(
        Operation(OpType.READ if kind == "r" else OpType.WRITE, item)
        for kind, item in ops)
    return TransactionSpec(GlobalTransactionId(site, seq), site,
                           operations)


def run_client(env, protocol, transaction_spec, start_delay=0.0,
               outcomes=None):
    """Spawn a client process running one transaction; returns the
    process.  Appends (gid, "committed"/reason, time) to ``outcomes``."""
    if outcomes is None:
        outcomes = []
    process_ref = []

    def client():
        process = process_ref[0]
        if start_delay:
            yield env.timeout(start_delay)
        try:
            yield from protocol.run_transaction(
                transaction_spec.origin, transaction_spec, process)
            outcomes.append((transaction_spec.gid, "committed", env.now))
        except TransactionAborted as exc:
            outcomes.append((transaction_spec.gid, exc.reason, env.now))

    process = env.process(client())
    process_ref.append(process)
    return process


def histories(system):
    return [site.engine.history for site in system.sites]


def no_locks_leaked(system) -> bool:
    """After quiescence no transaction should hold or wait for locks."""
    for site in system.sites:
        manager = site.engine.locks
        if manager.waiting_requests():
            return False
        if manager._table:  # noqa: SLF001 - test introspection
            return False
    return True


def free_base_port(n_ports: int) -> int:
    """A base port with ``n_ports`` consecutive free ports above it
    (sites listen on ``base_port + site``), so live tests do not collide
    on a fixed range.

    Drawn below the kernel's ephemeral range on purpose: a ready poll
    connects to a port nobody listens on yet, and on loopback such a
    connect can be handed its own destination as source port."""
    import random
    import socket

    rng = random.Random()  # seeded from the OS
    for _ in range(200):
        base = rng.randrange(12000, 30000)
        sockets = []
        try:
            for offset in range(n_ports):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sockets.append(sock)
                sock.bind(("127.0.0.1", base + offset))
        except OSError:
            continue
        finally:
            for sock in sockets:
                sock.close()
        return base
    raise RuntimeError("no free port range found")
