"""Propagation trees for the DAG(WT) protocol.

Section 2 requires a tree ``T`` over the sites such that whenever ``si`` is
a child of ``sj`` in the *copy graph*, ``si`` is a *descendant* of ``sj``
in ``T``.  (The construction is deferred to the technical report; we
implement a greedy minimal-depth construction with the always-valid
topological *chain* as fallback — the chain is also exactly the variant
the paper's performance study uses, Sec. 5.1.)
"""

from __future__ import annotations

import typing

from repro.errors import GraphError
from repro.graph.copygraph import CopyGraph
from repro.types import SiteId


class PropagationTree:
    """A rooted forest over the sites, stored as a parent map."""

    def __init__(self, parent: typing.Mapping[SiteId,
                                              typing.Optional[SiteId]]):
        self.parent: typing.Dict[SiteId, typing.Optional[SiteId]] = \
            dict(parent)
        self._children: typing.Dict[SiteId, typing.List[SiteId]] = {
            site: [] for site in self.parent}
        for site, par in sorted(self.parent.items()):
            if par is not None:
                if par not in self.parent:
                    raise GraphError(
                        "parent s{} of s{} not in tree".format(par, site))
                self._children[par].append(site)
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        for site in self.parent:
            seen = set()
            node: typing.Optional[SiteId] = site
            while node is not None:
                if node in seen:
                    raise GraphError(
                        "cycle in tree parent map at s{}".format(node))
                seen.add(node)
                node = self.parent[node]

    @property
    def sites(self) -> typing.Iterable[SiteId]:
        return self.parent.keys()

    def roots(self) -> typing.List[SiteId]:
        return sorted(site for site, par in self.parent.items()
                      if par is None)

    def children(self, site: SiteId) -> typing.Tuple[SiteId, ...]:
        return tuple(self._children[site])

    def depth(self, site: SiteId) -> int:
        depth = 0
        node = self.parent[site]
        while node is not None:
            depth += 1
            node = self.parent[node]
        return depth

    def root_path(self, site: SiteId) -> typing.List[SiteId]:
        """Path ``[root, ..., site]`` including both endpoints."""
        path = [site]
        node = self.parent[site]
        while node is not None:
            path.append(node)
            node = self.parent[node]
        path.reverse()
        return path

    def is_ancestor(self, ancestor: SiteId, site: SiteId) -> bool:
        """Whether ``ancestor`` is a *strict* ancestor of ``site``."""
        node = self.parent[site]
        while node is not None:
            if node == ancestor:
                return True
            node = self.parent[node]
        return False

    def path_down(self, ancestor: SiteId, site: SiteId
                  ) -> typing.List[SiteId]:
        """Sites on the tree path from ``ancestor`` down to ``site``,
        excluding ``ancestor``, including ``site``."""
        path = []
        node: typing.Optional[SiteId] = site
        while node is not None and node != ancestor:
            path.append(node)
            node = self.parent[node]
        if node != ancestor:
            raise GraphError(
                "s{} is not an ancestor of s{}".format(ancestor, site))
        path.reverse()
        return path

    def subtree(self, site: SiteId) -> typing.Set[SiteId]:
        """``site`` plus all of its descendants."""
        result = {site}
        frontier = list(self._children[site])
        while frontier:
            node = frontier.pop()
            result.add(node)
            frontier.extend(self._children[node])
        return result

    def satisfies_property_for(self, graph: CopyGraph) -> bool:
        """Check Sec. 2's requirement: copy-graph child => tree
        descendant."""
        for src, dst in graph.edges:
            if not self.is_ancestor(src, dst):
                return False
        return True


def chain_tree(order: typing.Sequence[SiteId]) -> PropagationTree:
    """The chain over ``order``: each site's parent is its predecessor.

    Always satisfies the Sec. 2 property when ``order`` is a topological
    order of the copy graph — this is the variant used in the paper's
    performance study (Sec. 5.1).
    """
    parent: typing.Dict[SiteId, typing.Optional[SiteId]] = {}
    previous: typing.Optional[SiteId] = None
    for site in order:
        parent[site] = previous
        previous = site
    return PropagationTree(parent)


def build_propagation_tree(graph: CopyGraph,
                           order: typing.Optional[
                               typing.Sequence[SiteId]] = None,
                           prefer_chain: bool = False) -> PropagationTree:
    """Build a tree satisfying the Sec. 2 property for a DAG copy graph.

    Greedy: process sites in topological order, attaching each site under
    the *shallowest* already-placed node whose root path covers all the
    site's copy-graph parents (this keeps the tree shallow, so secondary
    subtransactions traverse fewer hops).  Falls back to the topological
    chain when no valid attachment point exists (e.g. diamonds).

    ``prefer_chain`` forces the chain construction (the paper's
    implemented variant).
    """
    if order is None:
        order = graph.topological_order()
    else:
        order = list(order)
        position = {site: index for index, site in enumerate(order)}
        for src, dst in graph.edges:
            if position[src] >= position[dst]:
                raise GraphError(
                    "order is not topological for edge s{}->s{}".format(
                        src, dst))

    if prefer_chain:
        return chain_tree(order)

    parent: typing.Dict[SiteId, typing.Optional[SiteId]] = {}
    root_paths: typing.Dict[SiteId, typing.Set[SiteId]] = {}
    depths: typing.Dict[SiteId, int] = {}

    for site in order:
        copy_parents = graph.parents(site)
        if not copy_parents:
            parent[site] = None
            root_paths[site] = {site}
            depths[site] = 0
            continue
        candidates = [node for node in parent
                      if copy_parents <= root_paths[node]]
        if not candidates:
            return chain_tree(order)
        attach = min(candidates, key=lambda node: (depths[node], node))
        parent[site] = attach
        root_paths[site] = root_paths[attach] | {site}
        depths[site] = depths[attach] + 1

    tree = PropagationTree(parent)
    if not tree.satisfies_property_for(graph):  # pragma: no cover - safety
        return chain_tree(order)
    return tree


def build_shard_trees(placement) -> typing.Dict[
        typing.Tuple[SiteId, typing.Tuple[SiteId, ...]],
        PropagationTree]:
    """One propagation chain per shard of a partial-replication placement.

    A *shard* is an equivalence class of items sharing one
    ``(primary, replicas)`` signature
    (:meth:`~repro.graph.placement.DataPlacement.shards`).  Its tree is
    the chain ``primary -> replicas in site order``, spanning **exactly**
    the replicating sites — within a shard every copy-graph edge runs
    primary -> replica, so any chain starting at the primary satisfies
    the Sec. 2 property restricted to the shard.  The placement
    analytics (per-site footprint, forwarding fan-out) consume these;
    live forwarding stays on the epoch's global tree, whose
    subtree-relevance pruning already stops messages at the last
    replicating site of each chain.
    """
    return {key: chain_tree([primary] + list(replicas))
            for key, _items in placement.shards().items()
            for primary, replicas in [key]}
