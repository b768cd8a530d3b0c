"""Replica convergence checking.

For the propagating protocols (DAG(WT), DAG(T), BackEdge, eager), once
the system quiesces every replica must hold the same value and committed
version as its primary copy.  (PSL is excluded by design: it never pushes
updates; replicas are refreshed on access only.)
"""

from __future__ import annotations

import typing

from repro.core.base import ReplicatedSystem
from repro.errors import ReproError


class ConvergenceViolation(ReproError):
    """A replica diverged from its primary copy after quiescence."""


def divergent_copies(placement,
                     state: typing.Mapping[int, typing.Mapping]
                     ) -> typing.List[typing.Tuple]:
    """Divergence check over an externally collected state: a replica
    whose value or committed version differs from its primary's.

    ``state`` maps ``site -> item -> {"value": ..., "version": int}`` —
    the shape engines produce locally and live sites report in their
    ``status`` responses, so the same oracle verifies a simulation and a
    real cluster run.
    """
    problems = []
    for item in placement.items:
        primary_site = placement.primary_site(item)
        primary = state[primary_site][item]
        for replica_site in sorted(placement.replica_sites(item)):
            replica = state[replica_site][item]
            if replica["value"] != primary["value"] or \
                    replica["version"] != primary["version"]:
                problems.append((item, primary_site, replica_site,
                                 primary["version"],
                                 replica["version"]))
    return problems


def system_state(system: ReplicatedSystem
                 ) -> typing.Dict[int, typing.Dict]:
    """Snapshot every hosted engine into the ``state`` shape above."""
    state: typing.Dict[int, typing.Dict] = {}
    for site in system.local_sites:
        state[site.site_id] = {
            item: {"value": site.engine.item(item).value,
                   "version": site.engine.item(item).committed_version}
            for item in site.engine.item_ids()}
    return state


def divergent_replicas(system: ReplicatedSystem
                       ) -> typing.List[typing.Tuple]:
    """All ``(item, primary_site, replica_site, primary_version,
    replica_version)`` tuples where a replica disagrees with the primary.
    """
    return divergent_copies(system.placement, system_state(system))


def check_convergence(system: ReplicatedSystem) -> None:
    """Raise :class:`ConvergenceViolation` when replicas diverged."""
    problems = divergent_replicas(system)
    if problems:
        raise ConvergenceViolation(
            "{} divergent replicas, first: item {} primary s{} (v{}) vs "
            "replica s{} (v{})".format(
                len(problems), problems[0][0], problems[0][1],
                problems[0][3], problems[0][2], problems[0][4]))
