"""The placement-change vocabulary of the reconfiguration plane.

A :class:`PlacementChange` is one epoch transition's worth of placement
edit.  It is pure data — JSON-serializable, applied deterministically by
every site (and by WAL recovery) via :meth:`PlacementChange.apply`, so
the cluster never ships placements over the wire during a transition,
only the change.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import PlacementError, ReproError
from repro.graph.copygraph import CopyGraph
from repro.graph.placement import DataPlacement
from repro.types import ItemId, SiteId

#: Change kinds understood by every site.
CHANGE_KINDS = ("add-replica", "drop-replica", "migrate-primary",
                "remove-site")


class ReconfigError(ReproError):
    """A reconfiguration was invalid or failed to complete."""


@dataclasses.dataclass(frozen=True)
class PlacementChange:
    """One placement edit, applied at an epoch boundary.

    ``kind`` selects the edit; ``item`` names the item (all kinds but
    ``remove-site``); ``site`` names the target site — the new replica
    holder, the replica being dropped, the new primary, or the site
    being removed from the replication plane.

    ``install`` is the state the coordinator read from each gained
    item's primary — one ``reconfig_state`` answer per item — carried
    by the commit; :meth:`apply` ignores it and equality leaves it out.
    """

    kind: str
    site: SiteId
    item: typing.Optional[ItemId] = None
    install: typing.Optional[typing.List[typing.Dict]] = \
        dataclasses.field(default=None, compare=False)

    def validate(self) -> "PlacementChange":
        if self.kind not in CHANGE_KINDS:
            raise ReconfigError(
                "unknown change kind {!r} (expected one of {})".format(
                    self.kind, ", ".join(CHANGE_KINDS)))
        if self.kind != "remove-site" and self.item is None:
            raise ReconfigError(
                "{} requires an item".format(self.kind))
        return self

    def apply(self, placement: DataPlacement) -> DataPlacement:
        """The post-transition placement (the input is not mutated).

        Raises :class:`ReconfigError` when the change does not fit the
        placement (unknown item, duplicate replica, primaries left at a
        removed site, ...).
        """
        self.validate()
        result = placement.clone()
        try:
            if self.kind == "add-replica":
                result.add_replica(self.item, self.site)
            elif self.kind == "drop-replica":
                result.drop_replica(self.item, self.site)
            elif self.kind == "migrate-primary":
                result.migrate_primary(self.item, self.site)
            else:  # remove-site
                primaries = result.primary_items_at(self.site)
                if primaries:
                    raise PlacementError(
                        "site s{} still holds {} primary item(s) — "
                        "migrate them first".format(
                            self.site, len(primaries)))
                for item in sorted(result.replica_items_at(self.site)):
                    result.drop_replica(item, self.site)
        except PlacementError as exc:
            raise ReconfigError(str(exc)) from None
        return result

    def affected_items(self, placement: DataPlacement
                       ) -> typing.FrozenSet[ItemId]:
        """Items the epoch fence must quiesce before the swap."""
        if self.kind == "remove-site":
            return frozenset(placement.replica_items_at(self.site))
        return frozenset({self.item})

    def gained_items(self, placement: DataPlacement,
                     site: SiteId) -> typing.FrozenSet[ItemId]:
        """Items ``site`` holds after the change but not before (the
        copies it installs at commit)."""
        before = placement.items_at(site)
        after = self.apply(placement).items_at(site)
        return frozenset(after - before)

    def gaining_sites(self) -> typing.FrozenSet[SiteId]:
        """Sites that install a copy at commit, and so the only ones
        the ``install`` is sent to: ``add-replica``'s target is the one
        kind that creates a copy (``migrate-primary`` promotes a
        replica)."""
        return frozenset({self.site}) if self.kind == "add-replica" \
            else frozenset()

    def check_against(self, placement: DataPlacement,
                      protocol: str = "dag_wt",
                      allow_empty_primaries: bool = False) -> DataPlacement:
        """Full coordinator-side validation; returns the new placement.

        Beyond :meth:`apply`'s structural checks: the induced copy graph
        must stay a DAG for tree-based protocols, and (unless
        ``allow_empty_primaries``) no site may lose its *last* primary
        item — a site with no primaries can no longer originate writes,
        which strands any workload generator still targeting it.
        """
        result = self.apply(placement)
        if protocol != "backedge" and \
                not CopyGraph.from_placement(result).is_dag():
            raise ReconfigError(
                "{} would make the copy graph cyclic (protocol {} "
                "requires a DAG)".format(self.describe(), protocol))
        if not allow_empty_primaries:
            for site in range(placement.n_sites):
                if placement.primary_items_at(site) and \
                        not result.primary_items_at(site):
                    raise ReconfigError(
                        "{} would leave s{} with no primary items"
                        .format(self.describe(), site))
        return result

    def describe(self) -> str:
        if self.kind == "remove-site":
            return "remove-site s{}".format(self.site)
        return "{} item {} -> s{}".format(self.kind, self.item, self.site)

    def to_json(self) -> typing.Dict[str, typing.Any]:
        obj: typing.Dict[str, typing.Any] = {"kind": self.kind,
                                             "site": self.site}
        if self.item is not None:
            obj["item"] = self.item
        if self.install is not None:
            obj["install"] = self.install
        return obj

    @classmethod
    def from_json(cls, obj: typing.Mapping[str, typing.Any]
                  ) -> "PlacementChange":
        return cls(kind=str(obj["kind"]), site=int(obj["site"]),
                   item=(int(obj["item"])
                         if obj.get("item") is not None else None),
                   install=obj.get("install")).validate()


def replay_epochs(placement: DataPlacement,
                  commits: typing.Iterable[typing.Tuple[
                      int, typing.Mapping[str, typing.Any]]],
                  start_epoch: int = 0
                  ) -> typing.Tuple[int, DataPlacement]:
    """Rebuild ``(epoch, placement)`` from WAL epoch-commit records.

    ``commits`` yields ``(epoch, change_json)`` in log order.  Starting
    from the genesis ``placement`` at ``start_epoch``, each committed
    change is re-applied; duplicate records for an already-reached epoch
    are skipped (a site may journal the same commit twice across a
    crash/retry).
    """
    epoch = start_epoch
    current = placement
    for committed_epoch, change_json in commits:
        if committed_epoch <= epoch:
            continue
        current = PlacementChange.from_json(change_json).apply(current)
        epoch = committed_epoch
    return epoch, current
