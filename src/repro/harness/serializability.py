"""Global serializability checking.

Every site engine records, per committed subtransaction, the committed
version of each item it read and the version of each item it created.
From these we build the global *direct serialization graph* (DSG): one
node per global transaction id, with the classical conflict edges derived
independently at every site and merged:

- ``ww``: the writer of version ``v`` of an item precedes the writer of
  version ``v + 1``;
- ``wr``: the writer of version ``v`` precedes every reader of ``v``;
- ``rw``: every reader of version ``v`` precedes the writer of ``v + 1``.

An execution is (conflict-)serializable iff the DSG is acyclic — the
property every protocol in this package must guarantee, checked after
every experiment run.
"""

from __future__ import annotations

import collections
import operator
import typing

from repro.errors import SerializabilityViolation
from repro.storage.history import SiteHistory
from repro.types import GlobalTransactionId

Edge = typing.Tuple[GlobalTransactionId, GlobalTransactionId]


def build_serialization_graph(
        histories: typing.Iterable[SiteHistory]
) -> typing.Dict[GlobalTransactionId,
                 typing.Set[GlobalTransactionId]]:
    """Build the DSG adjacency map from per-site histories."""
    graph: typing.Dict[GlobalTransactionId,
                       typing.Set[GlobalTransactionId]] = \
        collections.defaultdict(set)

    def add_edge(src: GlobalTransactionId,
                 dst: GlobalTransactionId) -> None:
        if src != dst:
            graph[src].add(dst)
            graph.setdefault(dst, set())

    for history in histories:
        # Per (site, item): writer of each version, readers of each
        # version.
        writers: typing.Dict[typing.Any,
                             typing.Dict[int, GlobalTransactionId]] = \
            collections.defaultdict(dict)
        readers: typing.Dict[typing.Any, typing.Dict[
            int, typing.List[GlobalTransactionId]]] = \
            collections.defaultdict(lambda: collections.defaultdict(list))
        for entry in history:
            graph.setdefault(entry.gid, set())
            for item, version in entry.writes.items():
                writers[item][version] = entry.gid
            for item, version in entry.reads.items():
                readers[item][version].append(entry.gid)
        for item, by_version in writers.items():
            for version, writer in by_version.items():
                previous = by_version.get(version - 1)
                if previous is not None:
                    add_edge(previous, writer)  # ww
                for reader in readers[item].get(version - 1, ()):
                    add_edge(reader, writer)  # rw
                for reader in readers[item].get(version, ()):
                    add_edge(writer, reader)  # wr
        # Readers of versions never overwritten still need wr edges when
        # the writer committed at another... (writer is local: covered
        # above).  Version-0 reads have no writer — no edge.
    return dict(graph)


def find_dsg_cycle(
        graph: typing.Mapping[GlobalTransactionId,
                              typing.Set[GlobalTransactionId]]
) -> typing.Optional[typing.List[GlobalTransactionId]]:
    """One cycle in the DSG (as ``[t0, ..., t0]``), or ``None``.

    Iterative DFS: experiment DSGs can hold tens of thousands of nodes.
    Nodes are visited in id order, sorted by a key rather than through
    the dataclass ``__lt__`` (the same order, without a Python call per
    comparison).
    """
    by_id = operator.attrgetter("site", "seq")
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}

    for root in sorted(graph, key=by_id):
        if color[root] != WHITE:
            continue
        stack: typing.List[typing.Tuple[GlobalTransactionId,
                                        typing.Iterator]] = [
            (root, iter(sorted(graph.get(root, ()), key=by_id)))]
        color[root] = GREY
        path = [root]
        while stack:
            node, children = stack[-1]
            advanced = False
            for succ in children:
                state = color.get(succ, WHITE)
                if state == GREY:
                    start = path.index(succ)
                    return path[start:] + [succ]
                if state == WHITE:
                    color[succ] = GREY
                    stack.append(
                        (succ, iter(sorted(graph.get(succ, ()),
                                           key=by_id))))
                    path.append(succ)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def check_serializable(histories: typing.Iterable[SiteHistory]
                       ) -> typing.Dict[GlobalTransactionId,
                                        typing.Set[GlobalTransactionId]]:
    """Raise :class:`SerializabilityViolation` if the merged DSG has a
    cycle; return the graph otherwise."""
    graph = build_serialization_graph(histories)
    cycle = find_dsg_cycle(graph)
    if cycle is not None:
        raise SerializabilityViolation(cycle)
    return graph


def explain_edges(histories: typing.Iterable[SiteHistory],
                  src: GlobalTransactionId,
                  dst: GlobalTransactionId) -> typing.List[str]:
    """Human-readable justifications for the DSG edge ``src -> dst``.

    A debugging aid for violation cycles: lists every per-site conflict
    (ww/wr/rw, with the item and versions) that forces ``src`` before
    ``dst``.  Empty if no such conflict exists.
    """
    reasons: typing.List[str] = []
    for history in histories:
        writes_src: typing.Dict = {}
        writes_dst: typing.Dict = {}
        reads_src: typing.Dict = {}
        reads_dst: typing.Dict = {}
        for entry in history:
            if entry.gid == src:
                writes_src.update(entry.writes)
                reads_src.update(entry.reads)
            elif entry.gid == dst:
                writes_dst.update(entry.writes)
                reads_dst.update(entry.reads)
        for item, version in writes_src.items():
            if writes_dst.get(item) == version + 1:
                reasons.append(
                    "ww at s{}: {} wrote {} v{}, {} wrote v{}".format(
                        history.site_id, src, item, version, dst,
                        version + 1))
            if reads_dst.get(item) == version:
                reasons.append(
                    "wr at s{}: {} wrote {} v{}, read by {}".format(
                        history.site_id, src, item, version, dst))
        for item, version in reads_src.items():
            if writes_dst.get(item) == version + 1:
                reasons.append(
                    "rw at s{}: {} read {} v{}, {} wrote v{}".format(
                        history.site_id, src, item, version, dst,
                        version + 1))
    return reasons


def explain_cycle(histories: typing.Sequence[SiteHistory],
                  cycle: typing.Sequence[GlobalTransactionId]
                  ) -> str:
    """Render a violation cycle with the conflicts behind each edge."""
    lines = ["non-serializable cycle:"]
    for src, dst in zip(cycle, cycle[1:]):
        lines.append("  {} -> {}".format(src, dst))
        for reason in explain_edges(histories, src, dst):
            lines.append("      " + reason)
    return "\n".join(lines)


def serialization_order(
        graph: typing.Mapping[GlobalTransactionId,
                              typing.Set[GlobalTransactionId]]
) -> typing.List[GlobalTransactionId]:
    """An explicit serializability *witness*: one total order of the
    committed transactions consistent with every DSG edge.

    Deterministic (Kahn's algorithm breaking ties by transaction id);
    raises :class:`SerializabilityViolation` when the graph is cyclic.
    """
    import heapq

    indegree: typing.Dict[GlobalTransactionId, int] = {
        node: 0 for node in graph}
    for node, successors in graph.items():
        for succ in successors:
            indegree[succ] = indegree.get(succ, 0) + 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order: typing.List[GlobalTransactionId] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in sorted(graph.get(node, ())):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(indegree):
        cycle = find_dsg_cycle(graph)
        raise SerializabilityViolation(cycle or [])
    return order
