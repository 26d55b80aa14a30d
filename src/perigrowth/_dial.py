"""The two search kernels: weighted distances and unweighted saturation.

`dial_distances` is monotone label-setting over integer weights (Dial's
bucket queue).  It is generic over node type, so the same search drives
plain ball expansion and the (vertex, support-mask) product searches used
by the decomposition machinery.  Buckets are indexed by distance mod (max
weight + 1); with all weights in [1, W] every pending label lives within
that window.

`reachable` is worklist saturation: the closure of a start set under a
successor function.  Monoid and module saturation, multigraded Hilbert
counts, monoid orbit search and quotient reachability all run on it; each
bounds its own search by yielding only successors inside its degree box or
lattice region.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from .errors import ResourceLimitError

Node = Hashable


def dial_distances(
    starts: Iterable[Node],
    successors: Callable[[Node], Iterable[tuple[Node, int]]],
    budget: int,
    max_weight: int,
    *,
    cap: int = 10_000_000,
    cap_what: str = "search frontier",
) -> dict[Node, int]:
    """Exact distances d(start, v) <= budget for every reachable node v."""
    modulus = max_weight + 1 if max_weight > 0 else 1
    buckets: list[list[Node]] = [[] for _ in range(modulus)]
    dist: dict[Node, int] = {}
    for s in starts:
        dist[s] = 0
        buckets[0].append(s)
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
