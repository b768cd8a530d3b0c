"""Cluster specification shared by every server, client and load source.

All members of a cluster must agree on the data placement, the protocol
and the address plan.  Rather than shipping the placement over the wire,
a :class:`ClusterSpec` carries the *generator inputs* (workload params +
seed); every process rebuilds the identical placement deterministically
— the same construction the simulation harness uses, so a live run and
a sim run with the same spec execute a matched workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

from repro.graph.placement import DataPlacement
from repro.sim.rng import RngRegistry
from repro.workload.distribution import generate_placement
from repro.workload.params import WorkloadParams
from repro.types import SiteId


@dataclasses.dataclass
class ClusterSpec:
    """Everything a process needs to join (or drive) one cluster."""

    params: WorkloadParams = dataclasses.field(
        default_factory=WorkloadParams)
    protocol: str = "dag_wt"
    protocol_options: typing.Dict[str, typing.Any] = dataclasses.field(
        default_factory=dict)
    seed: int = 0
    host: str = "127.0.0.1"
    base_port: int = 7450
    #: WAL/journal durability level: ``"none"`` (Python buffer —
    #: a process crash can lose records), ``"flush"`` (OS page cache —
    #: survives a process crash, **not** power loss) or ``"fsync"``
    #: (default; disk — survives power loss).  See
    #: :mod:`repro.cluster.wal` for the honest fine print.
    durability: str = "fsync"
    #: Frame cap: maximum messages per ``batch`` wire frame on every
    #: peer channel.  Both logs group-commit whatever it is.
    batch: int = 64
    # Read by benchmarks/ledger/layers.py only: a constant, not a field.
    wire_format: typing.ClassVar[str] = "json"
    #: Configuration epoch (``repro.reconfig``).  Epoch 0 is *genesis*:
    #: the placement is exactly :meth:`build_placement`.  Each committed
    #: reconfiguration increments it; the epoch enters the fingerprint,
    #: so a client whose spec lags the cluster is refused with an epoch
    #: hint and re-syncs (servers additionally accept the genesis
    #: fingerprint — a fresh client can always join and learn).
    epoch: int = 0

    def validate(self) -> "ClusterSpec":
        self.params.validate()
        if self.epoch < 0:
            raise ValueError("epoch must be >= 0, got {}".format(
                self.epoch))
        if not 1 <= self.base_port <= 65535 - self.params.n_sites:
            raise ValueError(
                "base_port {} leaves no room for {} sites".format(
                    self.base_port, self.params.n_sites))
        if self.durability not in ("none", "flush", "fsync"):
            raise ValueError(
                "unknown durability level {!r}".format(self.durability))
        if self.batch < 1:
            raise ValueError("batch must be >= 1, got {}".format(
                self.batch))
        return self

    # ------------------------------------------------------------------
    # Derived, deterministic views
    # ------------------------------------------------------------------

    def build_placement(self) -> DataPlacement:
        """The cluster's data placement (same for every member)."""
        rngs = RngRegistry(self.seed)
        return generate_placement(self.params.validate(),
                                  rngs.stream("placement"))

    def address(self, site: SiteId) -> typing.Tuple[str, int]:
        """Listen address of ``site``'s server."""
        return self.host, self.base_port + site

    def addresses(self) -> typing.Dict[SiteId, typing.Tuple[str, int]]:
        return {site: self.address(site)
                for site in range(self.params.n_sites)}

    def fingerprint(self) -> str:
        """Digest of everything members must agree on (addresses aside).

        Exchanged in hello frames so a server refuses peers/clients from
        a differently-configured cluster.  Only the *structural*
        agreement set is hashed — the placement-determining parameters,
        the deadlock timeout, protocol and seed.  Workload-volume knobs
        (threads, transactions per thread, read mix) are load-generator
        concerns, and ``durability`` and ``batch`` are per-process
        settings: a receiver takes a ``batch`` frame of any length, so
        members with different frame caps interoperate within one
        cluster.
        """
        params = self.params
        material = json.dumps(
            [{"n_sites": params.n_sites, "n_items": params.n_items,
              "replication_probability": params.replication_probability,
              "backedge_probability": params.backedge_probability,
              "site_probability": params.site_probability,
              "deadlock_timeout": params.deadlock_timeout,
              "placement_scheme": params.placement_scheme,
              "replication_factor": params.replication_factor},
             self.protocol, self.protocol_options, self.seed,
             {"epoch": self.epoch}],
            sort_keys=True, default=str)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

    def genesis_fingerprint(self) -> str:
        """The epoch-0 fingerprint — what a spec-built-from-flags client
        presents before it has learned the cluster's current epoch."""
        if self.epoch == 0:
            return self.fingerprint()
        return dataclasses.replace(self, epoch=0).fingerprint()

    # ------------------------------------------------------------------
    # Serialisation (CLI flags and subprocess handoff)
    # ------------------------------------------------------------------

    def to_json(self) -> typing.Dict[str, typing.Any]:
        return {
            "params": dataclasses.asdict(self.params),
            "protocol": self.protocol,
            "protocol_options": dict(self.protocol_options),
            "seed": self.seed,
            "host": self.host,
            "base_port": self.base_port,
            "durability": self.durability,
            "batch": self.batch,
            "epoch": self.epoch,
        }

    @classmethod
    def from_json(cls, obj: typing.Mapping[str, typing.Any]
                  ) -> "ClusterSpec":
        return cls(
            params=WorkloadParams(**obj.get("params", {})),
            protocol=obj.get("protocol", "dag_wt"),
            protocol_options=dict(obj.get("protocol_options", {})),
            seed=int(obj.get("seed", 0)),
            host=obj.get("host", "127.0.0.1"),
            base_port=int(obj.get("base_port", 7450)),
            durability=obj.get("durability", cls.durability),
            batch=int(obj.get("batch", cls.batch)),
            epoch=int(obj.get("epoch", 0)),
        ).validate()
