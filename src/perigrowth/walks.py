"""Walk combinatorics on the quotient graph.

Cycles here are closed walks whose visited vertices are pairwise distinct;
rotations of the same cycle are collapsed to the lexicographically least
edge-id rotation, which is safe because every quantity derived from a
cycle (weight, visited orbits, net lattice displacement) is rotation
invariant.
"""

from __future__ import annotations

from .errors import ResourceLimitError
from .periodic_graph import QuotientGraph

DEFAULT_CYCLE_CAP = 1_000_000


def _canonical_rotation(edges: tuple[int, ...]) -> tuple[int, ...]:
    rotations = [edges[i:] + edges[:i] for i in range(len(edges))]
    return min(rotations)


def enumerate_cycles(
    g: QuotientGraph, *, cap: int = DEFAULT_CYCLE_CAP
) -> list[tuple[int, ...]]:
    """All simple directed cycles of the quotient, deduplicated and sorted.

    Each cycle is its edge ids in their least rotation, and the list is
    sorted by (length, edges).  Depth-first search rooted at each orbit in turn, visiting only orbits
    of larger index, so every cycle is discovered exactly once at its
    minimal orbit.  Loops and parallel edges give distinct cycles.
    """
    found: set[tuple[int, ...]] = set()
    n = g.num_orbits
    for start in range(n):
        # stack entries: (current orbit, path of edge ids, visited orbit set)
        stack = [(start, (), frozenset((start,)))]
        while stack:
            orbit, path, visited = stack.pop()
            for eo in g.out_edges(orbit):
                if eo.dst == start:
                    found.add(_canonical_rotation(path + (eo.id,)))
                    if len(found) > cap:
                        raise ResourceLimitError(
                            f"more than {cap} cycles; raise the cycle cap"
                        )
                elif eo.dst > start and eo.dst not in visited:
                    stack.append((eo.dst, path + (eo.id,), visited | {eo.dst}))
    return sorted(found, key=lambda c: (len(c), c))


def cycle_weights(g: QuotientGraph, *, cap: int = DEFAULT_CYCLE_CAP) -> list[int]:
    """The weight of every simple cycle, in `enumerate_cycles` order."""
    return [
        sum(g.edges[eid].weight for eid in c) for c in enumerate_cycles(g, cap=cap)
    ]
