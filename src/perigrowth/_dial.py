"""The two search kernels: weighted distances and unweighted saturation.

`dial_distances` is monotone label-setting over integer weights (Dial's
bucket queue).  It is generic over node type, so the same search drives
plain ball expansion, the (vertex, support-mask) product search and the
per-subset minimum-degree searches of the decomposition machinery.  Each
start carries its own initial distance.  Buckets are indexed by distance mod
(max(W, D) + 1), where W bounds the step weights and D the start distances:
once the labels below d are settled, every pending label lies in
[d, d + max(W, D)], so no two pending distances share a bucket.

`reachable` is worklist saturation: the closure of a start set under a
successor function.  Module saturation, monoid orbit search and quotient
reachability all run on it; each bounds its own search by yielding only
successors inside its degree bound or lattice region.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from .errors import ResourceLimitError

Node = Hashable


def dial_distances(
    starts: Iterable[tuple[Node, int]],
    successors: Callable[[Node], Iterable[tuple[Node, int]]],
    budget: int,
    max_weight: int,
    *,
    cap: int = 10_000_000,
    cap_what: str = "search frontier",
) -> dict[Node, int]:
    """Exact distances min over starts (s, d0) of d0 + d(s, v), up to budget.

    Starts beyond the budget are dropped; a node given twice keeps its
    smaller start distance.
    """
    dist: dict[Node, int] = {}
    for s, d0 in starts:
        if d0 < 0:
            raise ValueError(f"negative start distance {d0}")
        if d0 <= budget and dist.get(s, d0 + 1) > d0:
            dist[s] = d0
    modulus = max(max_weight, max(dist.values(), default=0)) + 1
    buckets: list[list[Node]] = [[] for _ in range(modulus)]
    for s, d0 in dist.items():
        buckets[d0 % modulus].append(s)
    for d in range(budget + 1):
        slot = buckets[d % modulus]
        if not slot:
            continue
        buckets[d % modulus] = []
        for node in slot:
            if dist[node] != d:
                continue  # superseded label
            for nb, w in successors(node):
                nd = d + w
                if nd > budget:
                    continue
                old = dist.get(nb)
                if old is None or nd < old:
                    if old is None and len(dist) >= cap:
                        raise ResourceLimitError(
                            f"{cap_what} exceeded {cap} nodes; raise the cap"
                        )
                    dist[nb] = nd
                    buckets[nd % modulus].append(nb)
    return dist


def reachable(
    starts: Iterable[Node],
    successors: Callable[[Node], Iterable[Node]],
    *,
    cap: int,
    cap_what: str,
) -> set[Node]:
    """Every node reachable from the starts, the starts included.

    Raises ResourceLimitError when a new node is found while the set
    already holds `cap` nodes.
    """
    seen = set(starts)
    frontier = list(seen)
    while frontier:
        nxt = []
        for node in frontier:
            for nb in successors(node):
                if nb not in seen:
                    if len(seen) >= cap:
                        raise ResourceLimitError(
                            f"{cap_what} exceeded {cap} nodes; raise the cap"
                        )
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return seen
