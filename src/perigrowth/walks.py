"""Walk combinatorics on the quotient graph.

Cycles here are closed walks whose visited vertices are pairwise distinct;
rotations of the same cycle are collapsed to the lexicographically least
edge-id rotation, which is safe because every quantity derived from a
cycle (weight, visited orbits, net lattice displacement) is rotation
invariant.
"""

from __future__ import annotations

import math

from .errors import ResourceLimitError
from .periodic_graph import QuotientGraph, Vector

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


def cycle_data(g: QuotientGraph, cycles) -> list[tuple[frozenset[int], int, Vector]]:
    """(support, weight, displacement) of each of the given cycles.

    A closed walk visits each of its orbits as the source of an edge, and
    any lift of it moves by the sum of its edge shifts.
    """
    src = [e.src for e in g.edges].__getitem__
    weight = [e.weight for e in g.edges].__getitem__
    shift = [e.shift for e in g.edges].__getitem__
    return [
        (
            frozenset(map(src, c)),
            sum(map(weight, c)),
            tuple(map(sum, zip(*map(shift, c)))),
        )
        for c in cycles
    ]


def strongly_connected(g: QuotientGraph) -> bool:
    """Whether every orbit reaches every other along quotient edges."""
    arcs = [(e.src, e.dst) for e in g.edges]
    for pairs in (arcs, [(b, a) for a, b in arcs]):
        seen, size = {0}, 0
        while size < len(seen):
            size = len(seen)
            seen |= {b for a, b in pairs if a in seen}
        if len(seen) < g.num_orbits:
            return False
    return True


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points: list) -> list:
    """Vertices of the convex hull of sorted distinct plane points, counter-
    clockwise; points on an edge are not vertices (monotone chain)."""
    chains = []
    for ordered in (points, points[::-1]):
        chain: list = []
        for p in ordered:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def velocity_polytope(dim: int, data) -> list[dict[tuple[int, ...], frozenset[int]]]:
    """The facets of the velocity polytope P = conv{disp(c)/w(c)} over the
    cycles c of `cycle_data`, each mapping every cycle velocity v on it, its
    vertices and the points between them, to W(v), the distinct weights of
    the cycles whose velocity is exactly v.

    Velocities are scaled by the least common multiple of the cycle
    weights, so each is an integer point of a dilate of P and every
    comparison is exact.  In dimension 1 the facets are the two endpoints;
    in dimension 2 they are the hull edges, found with cross products.
    Empty when P is not full-dimensional, and in every other dimension.
    """
    common = math.lcm(*{w for _, w, _ in data})
    weights: dict[tuple[int, ...], set[int]] = {}
    for _, w, disp in data:
        weights.setdefault(tuple(x * (common // w) for x in disp), set()).add(w)
    points = sorted(weights)
    if dim == 1 and len(points) >= 2:
        facets = [[points[0]], [points[-1]]]
    elif dim == 2 and len(hull := _hull(points)) >= 3:
        facets = [
            [p for p in points if _cross(hull[i - 1], hull[i], p) == 0]
            for i in range(len(hull))
        ]
    else:
        return []
    return [{v: frozenset(weights[v]) for v in facet} for facet in facets]
