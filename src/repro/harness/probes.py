"""Periodic sampling probe: replica staleness.

Sec. 5.3.4 argues BackEdge's replica *recency* "can be expected to be
very good in practice".  :class:`StalenessProbe` measures it directly:
it samples, at a fixed period, how far each replica's committed version
lags its primary's.

It is a simulation process; start it before ``env.run``::

    probe = StalenessProbe(system, period=0.05)
    probe.start()
    ...
    print(probe.mean_version_lag(), probe.max_version_lag())
"""

from __future__ import annotations

import statistics
import typing

from repro.core.base import ReplicatedSystem


class StalenessProbe:
    """Samples per-replica version lag behind the primary copy."""

    def __init__(self, system: ReplicatedSystem, period: float = 0.050):
        self.system = system
        self.period = period
        #: One entry per sample: list of per-replica version lags.
        self.samples: typing.List[typing.List[int]] = []
        self._pairs = []
        placement = system.placement
        for item in placement.items:
            primary = placement.primary_site(item)
            for replica in placement.replica_sites(item):
                self._pairs.append((item, primary, replica))

    def start(self):
        """Spawn the sampling process; returns it."""
        return self.system.env.process(self._sampler())

    def _sampler(self):
        env = self.system.env
        while True:
            yield env.timeout(self.period)
            self.samples.append(self.snapshot())

    def snapshot(self) -> typing.List[int]:
        """Current version lag of every replica (>= 0)."""
        lags = []
        for item, primary, replica in self._pairs:
            primary_version = self.system.site_of(primary) \
                .engine.item(item).committed_version
            replica_version = self.system.site_of(replica) \
                .engine.item(item).committed_version
            lags.append(max(0, primary_version - replica_version))
        return lags

    def mean_version_lag(self) -> float:
        values = [lag for sample in self.samples for lag in sample]
        return statistics.fmean(values) if values else 0.0

    def max_version_lag(self) -> int:
        return max((lag for sample in self.samples for lag in sample),
                   default=0)

    def fraction_current(self) -> float:
        """Fraction of sampled replica observations that were fully
        up to date."""
        values = [lag for sample in self.samples for lag in sample]
        if not values:
            return 1.0
        return sum(1 for lag in values if lag == 0) / len(values)
