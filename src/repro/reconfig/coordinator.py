"""The epoch-transition coordinator.

One :class:`ReconfigCoordinator` drives one
:class:`~repro.reconfig.change.PlacementChange` at a time through a live
cluster, entirely over the client plane (it holds no special authority —
any client with the spec can coordinate, and a dead coordinator leaves
nothing that blocks progress):

1. **Heal** — read every member's epoch; if a previous transition died
   between per-site commits, re-drive its commit to the laggards using
   the committed members' recorded last change (peer gossip usually
   closes this gap first; heal makes it certain).
2. **Validate** — :meth:`PlacementChange.check_against` the current
   placement: structure, copy-graph acyclicity (tree protocols), and the
   no-site-loses-its-last-primary rule.
3. **Prepare** — fan ``reconfig_prepare`` to every member: each journals
   the proposal, fences writes on the affected items, creates gained
   copies and starts pulling their state from the current primaries.
4. **Quiesce + transfer** — poll ``versions`` until every affected
   item's committed version agrees across its old *and* new copy sites
   and stays stable for ``settle_polls`` consecutive polls.  A member
   that restarted mid-transition (fence lost — ``reconfig_status`` shows
   no pending epoch) is re-prepared; transfer laggards are re-pulled.
5. **Commit** — fan ``reconfig_commit`` (carrying the change, so even a
   member that lost its prepare can commit) and verify every member
   reports the new epoch.

On timeout the coordinator fans ``reconfig_abort`` and raises — the
cluster stays in the old epoch with no fence left behind.
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


@dataclasses.dataclass
class ReconfigReport:
    """What one completed epoch transition did, and how long it took."""

    epoch: int
    change: PlacementChange
    prepare_s: float = 0.0
    quiesce_s: float = 0.0
    commit_s: float = 0.0
    polls: int = 0
    re_prepares: int = 0
    re_pulls: int = 0
    healed_sites: typing.List[SiteId] = dataclasses.field(
        default_factory=list)

    @property
    def total_s(self) -> float:
        return self.prepare_s + self.quiesce_s + self.commit_s

    def format(self) -> str:
        lines = [
            "epoch {}: {}".format(self.epoch, self.change.describe()),
            "  prepare {:.3f}s  quiesce {:.3f}s ({} polls)  "
            "commit {:.3f}s  total {:.3f}s".format(
                self.prepare_s, self.quiesce_s, self.polls,
                self.commit_s, self.total_s),
        ]
        if self.re_prepares or self.re_pulls:
            lines.append("  re-prepares {}  re-pulls {}".format(
                self.re_prepares, self.re_pulls))
        if self.healed_sites:
            lines.append("  healed laggards: {}".format(
                ", ".join("s{}".format(s) for s in self.healed_sites)))
        return "\n".join(lines)


class ReconfigCoordinator:
    """Drives epoch transitions over a :class:`ClusterClient`.

    Parameters
    ----------
    client:
        An open :class:`repro.cluster.client.ClusterClient`; its spec's
        epoch is adopted forward as transitions commit.
    poll_interval, settle_polls:
        Quiesce loop: sample ``versions`` every ``poll_interval``
        seconds and require ``settle_polls`` consecutive stable, agreed
        samples before committing.
    timeout:
        Per-transition ceiling; on expiry the transition is aborted
        everywhere and :class:`ReconfigError` raised.
    """

    def __init__(self, client, poll_interval: float = 0.1,
                 settle_polls: int = 2, timeout: float = 30.0,
                 allow_empty_primaries: bool = False):
        self.client = client
        self.poll_interval = poll_interval
        self.settle_polls = max(1, int(settle_polls))
        self.timeout = timeout
        self.allow_empty_primaries = allow_empty_primaries

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

    async def heal(self) -> typing.List[SiteId]:
        """Re-drive a torn previous transition: any member behind the
        maximal epoch gets that epoch's recorded change committed.
        Returns the healed site ids (empty when the epochs agree)."""
        healed: typing.List[SiteId] = []
        while True:
            statuses = await self.survey()
            target = max(status["epoch"] for status in statuses.values())
            laggards = sorted(site for site, status in statuses.items()
                              if status["epoch"] < target)
            if not laggards:
                return healed
            donors = [status for status in statuses.values()
                      if status["epoch"] == target and
                      status.get("last_change")]
            if not donors:
                raise ReconfigError(
                    "members disagree on epoch ({} behind {}) but no "
                    "member recorded the committing change".format(
                        laggards, target))
            change_json = donors[0]["last_change"]
            for site in laggards:
                status = statuses[site]
                # A laggard more than one epoch behind needs the full
                # WAL-recovery path, not a single re-commit.
                if status["epoch"] != target - 1:
                    raise ReconfigError(
                        "s{} is at epoch {}, cluster at {} — too far "
                        "behind to heal online".format(
                            site, status["epoch"], target))
                await self.client.reconfig_commit(site, target,
                                                  change_json)
                healed.append(site)

    # ------------------------------------------------------------------
    # The transition
    # ------------------------------------------------------------------

    async def execute(self, change: PlacementChange) -> ReconfigReport:
        """Drive one placement change to a committed epoch everywhere."""
        change.validate()
        healed = await self.heal()
        epoch, placement = await self.current_placement()
        change.check_against(
            placement, protocol=self.spec.protocol,
            allow_empty_primaries=self.allow_empty_primaries)
        target = epoch + 1
        change_json = change.to_json()
        report = ReconfigReport(epoch=target, change=change,
                                healed_sites=healed)
        deadline = time.monotonic() + self.timeout
        sites = self._sites()

        started = time.monotonic()
        for site in sites:
            await self.client.reconfig_prepare(site, target, change_json)
        report.prepare_s = time.monotonic() - started

        watch = self._watch_sets(change, placement)
        started = time.monotonic()
        try:
            await self._quiesce(target, change_json, watch, report,
                                deadline)
        except ReconfigError:
            await self._abort_everywhere(target)
            raise
        report.quiesce_s = time.monotonic() - started

        started = time.monotonic()
        for site in sites:
            await self.client.reconfig_commit(site, target, change_json)
        await self.client.adopt_epoch(target)
        statuses = await self.survey()
        behind = sorted(site for site, status in statuses.items()
                        if status["epoch"] < target)
        if behind:
            raise ReconfigError(
                "commit fan-out left members behind: {}".format(behind))
        report.commit_s = time.monotonic() - started
        return report

    @staticmethod
    def _watch_sets(change: PlacementChange, placement: DataPlacement
                    ) -> typing.Dict[ItemId, typing.Set[SiteId]]:
        """Per affected item, the sites whose committed versions must
        agree before the swap: every copy site of the old epoch plus
        every copy site of the new one (the transfer targets)."""
        after = change.apply(placement)
        watch: typing.Dict[ItemId, typing.Set[SiteId]] = {}
        for item in change.affected_items(placement):
            old_sites = set(placement.sites_of(item))
            new_sites = set(after.sites_of(item)) if item in after.items \
                else set()
            watch[item] = old_sites | new_sites
        return watch

    async def _quiesce(self, target: int, change_json: typing.Dict,
                       watch: typing.Mapping[ItemId,
                                             typing.Set[SiteId]],
                       report: ReconfigReport, deadline: float) -> None:
        """Wait until every watched item's version agrees and is stable
        across its watch set; re-prepare members whose fence vanished
        (restart mid-transition) and re-pull transfer laggards."""
        stable_streak = 0
        previous: typing.Optional[typing.Dict[ItemId, int]] = None
        while True:
            if time.monotonic() > deadline:
                raise ReconfigError(
                    "epoch {} transition timed out during quiesce "
                    "(watched items: {})".format(
                        target, sorted(watch)))
            statuses = await self.survey()
            for site, status in statuses.items():
                if status["epoch"] >= target:
                    # Gossip/another coordinator already moved this
                    # member; our commit fan-out will be a no-op there.
                    continue
                if status.get("pending_epoch") != target:
                    await self.client.reconfig_prepare(
                        site, target, change_json)
                    report.re_prepares += 1
            responses = await self.client.versions_all()
            versions = {site: decode_value(response["versions"])
                        for site, response in responses.items()}
            agreed: typing.Dict[ItemId, int] = {}
            laggards: typing.Dict[SiteId, typing.List[ItemId]] = {}
            for item, watch_sites in watch.items():
                seen = {site: versions[site][item]
                        for site in watch_sites
                        if item in versions[site]}
                values = set(seen.values())
                if len(values) == 1:
                    agreed[item] = values.pop()
                    continue
                top = max(value for value in values)
                for site, value in seen.items():
                    if value != top:
                        laggards.setdefault(site, []).append(item)
            if not laggards and agreed and previous == agreed:
                stable_streak += 1
                if stable_streak >= self.settle_polls:
                    return
            elif not laggards and not watch:
                return  # nothing to quiesce (no affected items)
            else:
                stable_streak = 0
                for site, items in sorted(laggards.items()):
                    await self.client.reconfig_pull(site, sorted(items))
                    report.re_pulls += 1
            previous = agreed if not laggards else None
            report.polls += 1
            await asyncio.sleep(self.poll_interval)

    async def _abort_everywhere(self, target: int) -> None:
        for site in self._sites():
            try:
                await self.client.reconfig_abort(site, target)
            except Exception:  # noqa: BLE001 - best-effort cleanup
                pass
