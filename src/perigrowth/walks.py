"""Walk combinatorics on the quotient graph.

Cycles here are closed walks whose visited vertices are pairwise distinct.
Every quantity the program derives from a cycle (its support, weight and
lattice displacement) is rotation invariant, so each cycle is found once,
at its least orbit, and kept only as that record.
"""

from __future__ import annotations

import math
from operator import add

from .errors import ResourceLimitError
from .periodic_graph import QuotientGraph, Vector

DEFAULT_CYCLE_CAP = 1_000_000


def enumerate_cycles(
    g: QuotientGraph, *, cap: int = DEFAULT_CYCLE_CAP
) -> list[tuple[frozenset[int], int, Vector]]:
    """(support, weight, displacement) of every simple directed cycle.

    Depth-first search rooted at each orbit in turn, visiting only orbits
    of larger index, so every cycle is discovered exactly once at its
    minimal orbit.  The record is built when the search closes the cycle:
    the support is the set of orbits the path visited, and the weight and
    the displacement of any lift are sums over the path's edges.  Loops
    and parallel edges give distinct cycles.  The list is in discovery
    order, which no reader depends on.
    """
    out = [[(e.dst, e.weight, e.shift) for e in g.out_edges(o)] for o in range(g.num_orbits)]
    cycles: list[tuple[frozenset[int], int, Vector]] = []
    for start in range(g.num_orbits):
        # stack entries: (current orbit, path weight, path displacement, visited orbit set)
        stack = [(start, 0, (0,) * g.dim, frozenset((start,)))]
        while stack:
            orbit, weight, disp, visited = stack.pop()
            for dst, w, vec in out[orbit]:
                if dst == start:
                    cycles.append((visited, weight + w, tuple(map(add, disp, vec))))
                    if len(cycles) > cap:
                        raise ResourceLimitError(
                            f"more than {cap} cycles; raise the cycle cap"
                        )
                elif dst > start and dst not in visited:
                    stack.append((dst, weight + w, tuple(map(add, disp, vec)), visited | {dst}))
    return cycles


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


def velocity_polytope(dim: int, cycles) -> list[dict[tuple[int, ...], frozenset[int]]]:
    """The facets of the velocity polytope P = conv{disp(c)/w(c)} over the
    cycle records c of `enumerate_cycles`, each mapping every cycle velocity
    v on it, its vertices and the points between them, to W(v), the
    distinct weights of the cycles whose velocity is exactly v.

    Velocities are scaled by the least common multiple of the cycle
    weights, so each is an integer point of a dilate of P and every
    comparison is exact.  In dimension 1 the facets are the two endpoints;
    in dimension 2 they are the hull edges, found with cross products.
    Empty when P is not full-dimensional, and in every other dimension.
    """
    common = math.lcm(*{w for _, w, _ in cycles})
    weights: dict[tuple[int, ...], set[int]] = {}
    for _, w, disp in cycles:
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
