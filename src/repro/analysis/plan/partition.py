"""Deterministic shard partitioning of the interaction graph.

Constraints and objective:

* a shard never spans processes — recovery replays one log against one
  process's components, so nodes are first grouped by *process
  signature* (the sorted tuple of processes the wiring deploys them
  to);
* subordinate affinity edges are contracted up front (union-find): a
  parent and its ``new_subordinate`` children always co-shard, their
  calls being invisible to the interceptor;
* the default shard count is one per signature group — the cut then
  contains only unavoidable cross-process traffic;
* ``shards=K`` with ``K`` larger splits the heaviest groups by greedy
  bipartition: clusters are placed heaviest-first onto the side that
  maximizes ``(internal edge weight gained) - balance × (load
  imbalance created)``, followed by bounded refinement sweeps that
  move a cluster across the cut when doing so strictly reduces
  ``(cut weight, load imbalance)``.

Everything ties-breaks on names, so the partition is a pure function
of the graph — byte-identical across runs and filesystems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import GraphNode, InteractionGraph

#: weight of load imbalance against cut weight in the greedy objective
_BALANCE = 0.5
_REFINE_SWEEPS = 8


def message_load(graph: InteractionGraph, node: GraphNode) -> float:
    """The node's force load per sweep under message logging — the
    partitioner's balancing weight."""
    if node.ctype in ("functional", "read_only", "subordinate"):
        return 0.0
    out_client = (
        sum(e.client_forces for e in graph.out_edges(node.name))
        + node.unknown_out_forces
    )
    return (
        node.entry_forces
        + sum(e.server_forces for e in graph.in_edges(node.name))
        + max(0.0, out_client - node.multicall_saved)
    )


@dataclass
class Shard:
    shard_id: str
    processes: tuple[str, ...]
    members: tuple[str, ...]
    load: float = 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.shard_id,
            "processes": list(self.processes),
            "components": list(self.members),
            "force_load": self.load,
        }


@dataclass
class _Cluster:
    """An affinity-contracted unit of placement."""

    name: str  #: min member name (deterministic identity)
    members: tuple[str, ...]
    signature: tuple[str, ...]
    load: float = 0.0
    #: symmetric cluster-to-cluster force weights (by cluster name)
    adj: dict[str, float] = field(default_factory=dict)


def _clusters(graph: InteractionGraph) -> list[_Cluster]:
    parent: dict[str, str] = {name: name for name in graph.nodes}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # deterministic: smaller name becomes the root
            lo, hi = sorted((ra, rb))
            parent[hi] = lo

    for edge in graph.affinity_edges():
        union(edge.src, edge.dst)

    groups: dict[str, list[str]] = {}
    for name in sorted(graph.nodes):
        groups.setdefault(find(name), []).append(name)

    clusters: list[_Cluster] = []
    for root in sorted(groups):
        members = tuple(sorted(groups[root]))
        signature: set[str] = set()
        load = 0.0
        for member in members:
            node = graph.nodes[member]
            signature |= set(node.processes)
            load += message_load(graph, node)
        clusters.append(_Cluster(
            name=members[0],
            members=members,
            signature=tuple(sorted(signature)),
            load=load,
        ))
    by_name = {c.name: c for c in clusters}
    member_cluster = {
        m: c.name for c in clusters for m in c.members
    }
    for (src, dst), edge in sorted(graph.edges.items()):
        if edge.subordinate:
            continue
        ca, cb = member_cluster[src], member_cluster[dst]
        if ca == cb:
            continue
        by_name[ca].adj[cb] = by_name[ca].adj.get(cb, 0.0) + edge.weight
        by_name[cb].adj[ca] = by_name[cb].adj.get(ca, 0.0) + edge.weight
    return clusters


def _bipartition(clusters: list[_Cluster]) -> tuple[list, list]:
    """Greedy min-cut split of one signature group's clusters."""
    ordered = sorted(
        clusters, key=lambda c: (-c.load, c.name)
    )
    sides: tuple[list[_Cluster], list[_Cluster]] = ([ordered[0]], [])
    if len(ordered) > 1:
        sides[1].append(ordered[1])
    loads = [sides[0][0].load, sides[1][0].load if sides[1] else 0.0]
    names = [{c.name for c in side} for side in sides]
    for cluster in ordered[2:]:
        scores = []
        for index in (0, 1):
            gain = sum(
                weight
                for other, weight in cluster.adj.items()
                if other in names[index]
            )
            imbalance = abs(
                (loads[index] + cluster.load) - loads[1 - index]
            )
            scores.append(gain - _BALANCE * imbalance)
        # higher score wins; tie -> lighter side; tie -> side 0
        if scores[1] > scores[0] or (
            scores[1] == scores[0] and loads[1] < loads[0]
        ):
            index = 1
        else:
            index = 0
        sides[index].append(cluster)
        loads[index] += cluster.load
        names[index].add(cluster.name)

    for _ in range(_REFINE_SWEEPS):
        moved = False
        for cluster in sorted(
            sides[0] + sides[1], key=lambda c: c.name
        ):
            here = 0 if cluster.name in names[0] else 1
            there = 1 - here
            if len(sides[here]) == 1:
                continue  # never empty a side
            stay_gain = sum(
                w for o, w in cluster.adj.items() if o in names[here]
            )
            move_gain = sum(
                w for o, w in cluster.adj.items() if o in names[there]
            )
            cut_delta = stay_gain - move_gain  # move adds this to cut
            imb_now = abs(loads[0] - loads[1])
            if here == 0:
                imb_after = abs(
                    (loads[0] - cluster.load)
                    - (loads[1] + cluster.load)
                )
            else:
                imb_after = abs(
                    (loads[0] + cluster.load)
                    - (loads[1] - cluster.load)
                )
            if (cut_delta, imb_after) < (0.0, imb_now):
                sides[here].remove(cluster)
                sides[there].append(cluster)
                names[here].discard(cluster.name)
                names[there].add(cluster.name)
                loads[here] -= cluster.load
                loads[there] += cluster.load
                moved = True
        if not moved:
            break
    return sides[0], sides[1]


def partition(
    graph: InteractionGraph, shards: int | None = None
) -> list[Shard]:
    """Partition the graph; returns shards sorted by id."""
    clusters = _clusters(graph)
    groups: dict[tuple[str, ...], list[_Cluster]] = {}
    for cluster in clusters:
        groups.setdefault(cluster.signature, []).append(cluster)

    parts: list[tuple[tuple[str, ...], list[_Cluster]]] = [
        (signature, groups[signature]) for signature in sorted(groups)
    ]
    target = max(shards or 0, len(parts))
    while len(parts) < target:
        # split the heaviest part that still has >= 2 clusters
        candidates = [
            (index, sum(c.load for c in part))
            for index, (_, part) in enumerate(parts)
            if len(part) >= 2
        ]
        if not candidates:
            break
        index = max(candidates, key=lambda item: (item[1], -item[0]))[0]
        signature, part = parts[index]
        left, right = _bipartition(part)
        parts[index:index + 1] = [(signature, left), (signature, right)]

    # deterministic naming: signature joined by '+', then sub-index in
    # min-member order
    by_signature: dict[tuple[str, ...], list[list[_Cluster]]] = {}
    for signature, part in parts:
        by_signature.setdefault(signature, []).append(part)
    out: list[Shard] = []
    for signature in sorted(by_signature):
        sub_parts = sorted(
            by_signature[signature],
            key=lambda part: min(c.name for c in part),
        )
        for index, part in enumerate(sub_parts):
            label = "+".join(signature) or "<unplaced>"
            if len(sub_parts) > 1:
                label = f"{label}/{index}"
            members = tuple(sorted(
                m for cluster in part for m in cluster.members
            ))
            out.append(Shard(
                shard_id=label,
                processes=signature,
                members=members,
                load=sum(c.load for c in part),
            ))
    return sorted(out, key=lambda s: s.shard_id)
