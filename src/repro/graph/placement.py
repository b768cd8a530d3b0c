"""Data placement: which site holds each item's primary copy and which
sites hold secondary copies (replicas).

Beyond the paper's static model, a placement is *mutable* — the online
reconfiguration plane (:mod:`repro.reconfig`) edits it between epochs
via :meth:`DataPlacement.add_replica`, :meth:`DataPlacement.drop_replica`
and :meth:`DataPlacement.migrate_primary` — and exposes *shards*: the
equivalence classes of items sharing one ``(primary, replicas)``
signature.  Each shard has its own propagation chain (primary first,
replicas in site order), which is the unit the partial-replication
placement generators reason about.
"""

from __future__ import annotations

import typing

from repro.errors import PlacementError
from repro.types import ItemId, SiteId

#: A shard signature: ``(primary, sorted replica tuple)``.
ShardKey = typing.Tuple[SiteId, typing.Tuple[SiteId, ...]]


class DataPlacement:
    """Primary/replica assignment of items to sites.

    The paper's model (Sec. 1.1): every item has exactly one primary site;
    the other copies are replicas.  A transaction may update only items
    whose primary copy is at its originating site.
    """

    def __init__(self, n_sites: int):
        if n_sites < 1:
            raise PlacementError("need at least one site")
        self.n_sites = n_sites
        self._primary: typing.Dict[ItemId, SiteId] = {}
        self._replicas: typing.Dict[ItemId, typing.Set[SiteId]] = {}

    def __contains__(self, item: ItemId) -> bool:
        return item in self._primary

    def __len__(self) -> int:
        return len(self._primary)

    @property
    def items(self) -> typing.Iterable[ItemId]:
        return self._primary.keys()

    def add_item(self, item: ItemId, primary: SiteId,
                 replicas: typing.Iterable[SiteId] = ()) -> None:
        """Register ``item`` with its primary site and replica sites."""
        self._check_site(primary)
        if item in self._primary:
            raise PlacementError("item {} already placed".format(item))
        replica_set = set(replicas)
        for site in replica_set:
            self._check_site(site)
        if primary in replica_set:
            raise PlacementError(
                "item {}: primary site s{} listed as replica".format(
                    item, primary))
        self._primary[item] = primary
        self._replicas[item] = replica_set

    def primary_site(self, item: ItemId) -> SiteId:
        """Primary site of ``item``."""
        try:
            return self._primary[item]
        except KeyError:
            raise PlacementError("unknown item {}".format(item)) from None

    def replica_sites(self, item: ItemId) -> typing.FrozenSet[SiteId]:
        """Secondary-copy sites of ``item``."""
        if item not in self._primary:
            raise PlacementError("unknown item {}".format(item))
        return frozenset(self._replicas[item])

    def sites_of(self, item: ItemId) -> typing.FrozenSet[SiteId]:
        """All sites holding a copy (primary + replicas)."""
        return self.replica_sites(item) | {self.primary_site(item)}

    def is_replicated(self, item: ItemId) -> bool:
        return bool(self._replicas.get(item))

    def items_at(self, site: SiteId) -> typing.Set[ItemId]:
        """All items with any copy at ``site``."""
        self._check_site(site)
        return {item for item in self._primary
                if site in self.sites_of(item)}

    def primary_items_at(self, site: SiteId) -> typing.Set[ItemId]:
        self._check_site(site)
        return {item for item, primary in self._primary.items()
                if primary == site}

    def replica_items_at(self, site: SiteId) -> typing.Set[ItemId]:
        self._check_site(site)
        return {item for item, replicas in self._replicas.items()
                if site in replicas}

    def replica_count(self) -> int:
        """Total number of secondary copies in the system."""
        return sum(len(replicas) for replicas in self._replicas.values())

    def _check_site(self, site: SiteId) -> None:
        if not 0 <= site < self.n_sites:
            raise PlacementError("unknown site s{}".format(site))

    # ------------------------------------------------------------------
    # Mutation (the reconfiguration plane edits placements between
    # epochs; sites only ever see the result via an atomic swap)
    # ------------------------------------------------------------------

    def add_replica(self, item: ItemId, site: SiteId) -> None:
        """Grant ``site`` a secondary copy of ``item``."""
        self._check_site(site)
        if item not in self._primary:
            raise PlacementError("unknown item {}".format(item))
        if site == self._primary[item]:
            raise PlacementError(
                "item {}: site s{} already holds the primary copy"
                .format(item, site))
        if site in self._replicas[item]:
            raise PlacementError(
                "item {}: site s{} already holds a replica".format(
                    item, site))
        self._replicas[item].add(site)

    def drop_replica(self, item: ItemId, site: SiteId) -> None:
        """Revoke ``site``'s secondary copy of ``item``."""
        self._check_site(site)
        if item not in self._primary:
            raise PlacementError("unknown item {}".format(item))
        if site not in self._replicas[item]:
            raise PlacementError(
                "item {}: site s{} holds no replica".format(item, site))
        self._replicas[item].discard(site)

    def migrate_primary(self, item: ItemId, site: SiteId) -> None:
        """Move ``item``'s primary copy to ``site``.

        The old primary is demoted to a replica (it keeps its copy), and
        ``site`` — which must already hold a replica, so the data is
        there — is promoted.
        """
        self._check_site(site)
        if item not in self._primary:
            raise PlacementError("unknown item {}".format(item))
        old = self._primary[item]
        if site == old:
            raise PlacementError(
                "item {}: s{} is already the primary".format(item, site))
        if site not in self._replicas[item]:
            raise PlacementError(
                "item {}: s{} holds no replica to promote".format(
                    item, site))
        self._replicas[item].discard(site)
        self._replicas[item].add(old)
        self._primary[item] = site

    def clone(self) -> "DataPlacement":
        """Deep copy (mutating the clone leaves this placement alone)."""
        other = DataPlacement(self.n_sites)
        other._primary = dict(self._primary)
        other._replicas = {item: set(replicas)
                           for item, replicas in self._replicas.items()}
        return other

    # ------------------------------------------------------------------
    # Per-site views and shards
    # ------------------------------------------------------------------

    def view(self, site: SiteId) -> "PlacementView":
        """This site's slice of the placement (see
        :class:`PlacementView`)."""
        self._check_site(site)
        return PlacementView(self, site)

    def shard_key(self, item: ItemId) -> ShardKey:
        """``item``'s shard signature: ``(primary, sorted replicas)``."""
        return (self.primary_site(item),
                tuple(sorted(self._replicas[item])))

    def shards(self) -> typing.Dict[ShardKey, typing.Set[ItemId]]:
        """Items grouped by shard signature."""
        grouped: typing.Dict[ShardKey, typing.Set[ItemId]] = {}
        for item in self._primary:
            grouped.setdefault(self.shard_key(item), set()).add(item)
        return grouped

    def to_json(self) -> typing.Dict[str, typing.Any]:
        """JSON-ready form (used by the ``placement`` wire request).

        Item keys are stringified up front rather than left to
        ``json.dumps``'s silent coercion, so the object is the same
        before and after a round trip."""
        return {
            "n_sites": self.n_sites,
            "items": {str(item): [primary, sorted(self._replicas[item])]
                      for item, primary in self._primary.items()},
        }

    @classmethod
    def from_json(cls, obj: typing.Mapping[str, typing.Any]
                  ) -> "DataPlacement":
        placement = cls(int(obj["n_sites"]))
        for item, (primary, replicas) in obj["items"].items():
            # Plain-JSON round trips stringify int keys; undo that.
            placement.add_item(int(item), int(primary),
                               [int(site) for site in replicas])
        return placement


class PlacementView:
    """One site's read-only slice of a :class:`DataPlacement`.

    A :class:`~repro.cluster.server.SiteServer` journals and applies
    only updates for items in its view — under partial replication that
    is a shard of the item space, not the whole database.
    """

    def __init__(self, placement: DataPlacement, site: SiteId):
        self.site = site
        self.primary_items = frozenset(placement.primary_items_at(site))
        self.replica_items = frozenset(placement.replica_items_at(site))

    @property
    def items(self) -> typing.FrozenSet[ItemId]:
        """Every item with a copy at this site."""
        return self.primary_items | self.replica_items

    def holds(self, item: ItemId) -> bool:
        return item in self.primary_items or item in self.replica_items

    def is_member(self) -> bool:
        """Whether the site holds any copy at all (a site with none has
        been administratively removed from the replication plane)."""
        return bool(self.primary_items or self.replica_items)
