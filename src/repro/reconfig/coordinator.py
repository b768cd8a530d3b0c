"""The epoch-transition coordinator.

One :class:`ReconfigCoordinator` drives one
:class:`~repro.reconfig.change.PlacementChange` at a time through a live
cluster, entirely over the client plane (it holds no special authority —
any client with the spec can coordinate, and a dead coordinator leaves
nothing that blocks progress).  The plane assumes one transition at a
time: two coordinators racing for the same epoch are not arbitrated.

1. **Agree** — wait until every member reports one epoch.  A previous
   transition that died between per-site commits is finished by its
   committed members' gossip, the one way a lagging member catches up;
   a member still behind at the deadline is named in the error.  A
   pending prepare of a *different* change is left over from an
   abandoned attempt (no member has reached the target epoch) and is
   aborted.
2. **Validate** — :meth:`PlacementChange.check_against` the current
   placement: structure, copy-graph acyclicity (tree protocols), and the
   no-site-loses-its-last-primary rule.
3. **Prepare** — fan ``reconfig_prepare`` to every member: each syncs
   the proposal to its WAL — the synced record is the fence, restored
   by recovery — and fences writes on the affected items.
4. **Quiesce, then read once** — poll ``versions`` until every affected
   item's version agrees across its *old* copy sites and stays stable
   for :data:`SETTLE_POLLS` polls, then read each gained item's state
   once from its primary (``reconfig_state``); a refusal keeps polling.
5. **Commit** — fan ``reconfig_commit``, gaining members first with the
   change and the state read, then the rest with the bare change: by
   the time a member that gains nothing commits (or gossips), every
   gainer's install is synced, so the install goes only where it is
   installed.

If the prepare or the quiesce fails (timeout, unreachable member) the
coordinator fans ``reconfig_abort`` and raises — the cluster stays in
the old epoch, and each member that takes the abort logs it.  A member
the abort missed keeps its fence across restarts until the next
transition's agreement step releases it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
import typing

from repro.cluster.codec import decode_value
from repro.graph.placement import DataPlacement
from repro.reconfig.change import PlacementChange, ReconfigError
from repro.types import ItemId, SiteId

#: Quiesce loop: sample ``versions`` every ``POLL_INTERVAL`` seconds and
#: require ``SETTLE_POLLS`` consecutive stable, agreed samples before
#: reading the install.  The epoch agreement wait polls at the same rate.
POLL_INTERVAL = 0.1
SETTLE_POLLS = 2


@dataclasses.dataclass
class ReconfigReport:
    """What one completed epoch transition did, and how long it took."""

    epoch: int
    change: PlacementChange
    prepare_s: float = 0.0
    quiesce_s: float = 0.0
    commit_s: float = 0.0
    polls: int = 0

    @property
    def total_s(self) -> float:
        return self.prepare_s + self.quiesce_s + self.commit_s

    def format(self) -> str:
        return "\n".join([
            "epoch {}: {}".format(self.epoch, self.change.describe()),
            "  prepare {:.3f}s  quiesce {:.3f}s ({} polls)  "
            "commit {:.3f}s  total {:.3f}s".format(
                self.prepare_s, self.quiesce_s, self.polls,
                self.commit_s, self.total_s),
        ])


class ReconfigCoordinator:
    """Drives epoch transitions over a :class:`ClusterClient`.

    Parameters
    ----------
    client:
        An open :class:`repro.cluster.client.ClusterClient`; its spec's
        epoch is adopted forward as transitions commit.
    timeout:
        Per-transition ceiling; on expiry the transition is aborted
        everywhere and :class:`ReconfigError` raised.
    """

    def __init__(self, client, timeout: float = 30.0):
        self.client = client
        self.timeout = timeout

    @property
    def spec(self):
        return self.client.spec

    def _sites(self) -> typing.List[SiteId]:
        return sorted(self.spec.addresses())

    # ------------------------------------------------------------------
    # Cluster epoch introspection
    # ------------------------------------------------------------------

    async def survey(self) -> typing.Dict[SiteId, typing.Dict]:
        """Every member's ``reconfig_status`` (raises if any member is
        unreachable — reconfiguration needs the full membership)."""
        responses, unreachable = await self.client.try_each(
            "reconfig_status")
        if unreachable:
            raise ReconfigError(
                "cannot reconfigure: unreachable members {}".format(
                    ", ".join("s{}".format(s) for s in unreachable)))
        return responses

    async def current_placement(self) -> typing.Tuple[int,
                                                      DataPlacement]:
        """(epoch, placement) as reported by a maximal-epoch member."""
        responses, unreachable = await self.client.try_each("placement")
        if unreachable:
            raise ReconfigError(
                "cannot read placement: unreachable members {}".format(
                    ", ".join("s{}".format(s) for s in unreachable)))
        site, best = max(responses.items(),
                         key=lambda pair: pair[1]["epoch"])
        return int(best["epoch"]), \
            DataPlacement.from_json(best["placement"])

    # ------------------------------------------------------------------
    # The transition
    # ------------------------------------------------------------------

    async def _agreed_statuses(self, deadline: float
                               ) -> typing.Dict[SiteId, typing.Dict]:
        """Every member's ``reconfig_status`` once all report one epoch
        (a torn commit is finished by gossip meanwhile); raises naming
        the laggards if they are still behind at ``deadline``."""
        while True:
            statuses = await self.survey()
            top = max(status["epoch"] for status in statuses.values())
            laggards = sorted(site for site, status in statuses.items()
                              if status["epoch"] < top)
            if not laggards:
                return statuses
            if time.monotonic() > deadline:
                raise ReconfigError(
                    "members behind epoch {}: {}".format(
                        top, ", ".join("s{}".format(site)
                                       for site in laggards)))
            await asyncio.sleep(POLL_INTERVAL)

    async def execute(self, change: PlacementChange) -> ReconfigReport:
        """Drive one placement change to a committed epoch everywhere."""
        change.validate()
        deadline = time.monotonic() + self.timeout
        statuses = await self._agreed_statuses(deadline)
        epoch, placement = await self.current_placement()
        change.check_against(placement, protocol=self.spec.protocol)
        target = epoch + 1
        report = ReconfigReport(epoch=target, change=change)
        sites = self._sites()

        started = time.monotonic()
        for site, status in sorted(statuses.items()):
            pending = status.get("pending_change")
            if pending is not None and \
                    PlacementChange.from_json(pending) != change:
                await self.client.reconfig_abort(site, target)
        try:
            for site in sites:
                await self.client.reconfig_prepare(site, target,
                                                   change.to_json())
            report.prepare_s = time.monotonic() - started
            started = time.monotonic()
            installed = await self._quiesce(target, change, placement,
                                            report, deadline)
        except Exception:
            await self._abort_everywhere(target)
            raise
        report.quiesce_s = time.monotonic() - started

        started = time.monotonic()
        gainers = change.gaining_sites()
        for group, carried in ((sorted(gainers), installed),
                               ([s for s in sites if s not in gainers],
                                change)):
            await asyncio.gather(*(
                self.client.reconfig_commit(site, target,
                                            carried.to_json())
                for site in group))
        await self.client.adopt_epoch(target)
        report.commit_s = time.monotonic() - started
        return report

    @staticmethod
    def _watch_sets(change: PlacementChange, placement: DataPlacement
                    ) -> typing.Dict[ItemId, typing.Set[SiteId]]:
        """Per affected item, the sites whose committed versions must
        agree before the state is read: the old epoch's copy sites."""
        return {item: set(placement.sites_of(item))
                for item in change.affected_items(placement)}

    async def read_install(self, change: PlacementChange,
                           placement: DataPlacement
                           ) -> typing.Optional[PlacementChange]:
        """``change`` carrying the state its gaining sites install: each
        gained item's value, version and writer lineage, read once from
        its primary in ``placement``.  ``None`` when a primary refuses
        (the item is not fenced there, or a lock on it is held or
        awaited)."""
        after = change.apply(placement)
        install = []
        for item in sorted(change.affected_items(placement)):
            if after.sites_of(item) - placement.sites_of(item):
                response = await self.client.reconfig_state(
                    placement.primary_site(item), item)
                if "refused" in response:
                    return None
                install.append(response["state"])
        return dataclasses.replace(change, install=install)

    async def _quiesce(self, target: int, change: PlacementChange,
                       placement: DataPlacement, report: ReconfigReport,
                       deadline: float) -> PlacementChange:
        """Wait until every affected item's version agrees and is stable
        across its old copy sites, then read the gained state; returns
        the change to commit.  A refused read keeps polling."""
        watch = self._watch_sets(change, placement)
        stable_streak = 0
        previous: typing.Optional[typing.Dict[ItemId, int]] = None
        while True:
            if time.monotonic() > deadline:
                raise ReconfigError(
                    "epoch {} transition timed out during quiesce "
                    "(watched items: {})".format(
                        target, sorted(watch)))
            responses = await self.client.versions_all()
            versions = {site: decode_value(response["versions"])
                        for site, response in responses.items()}
            seen = {item: {versions[site].get(item) for site in sites}
                    for item, sites in watch.items()}
            agreed = {item: values.pop() for item, values in seen.items()
                      if len(values) == 1}
            if len(agreed) < len(watch):
                agreed = None
            stable_streak = stable_streak + 1 \
                if agreed is not None and agreed == previous else 0
            if not watch or stable_streak >= SETTLE_POLLS:
                installed = await self.read_install(change, placement)
                if installed is not None:
                    return installed
                stable_streak = 0
            previous = agreed
            report.polls += 1
            await asyncio.sleep(POLL_INTERVAL)

    async def _abort_everywhere(self, target: int) -> None:
        for site in self._sites():
            try:
                await self.client.reconfig_abort(site, target)
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass
