"""Walk combinatorics on the quotient graph.

Cycles here are closed walks whose visited vertices are pairwise distinct.
Every quantity the program derives from a cycle (its support, weight and
lattice displacement) is rotation invariant, so each cycle is counted once,
at its least orbit, in the count of that record.
"""

from __future__ import annotations

import math
from operator import add

from .errors import ResourceLimitError
from .periodic_graph import QuotientGraph, Vector

DEFAULT_CYCLE_CAP = 1_000_000


def enumerate_cycles(
    g: QuotientGraph, *, cap: int = DEFAULT_CYCLE_CAP
) -> dict[tuple[frozenset[int], int, Vector], int]:
    """Each distinct (support, weight, displacement) of the simple directed
    cycles, mapped to its number of cycles (loops and parallel edges count).

    A DP grows the paths from each least orbit s over the orbits above s,
    one edge per round, in states (visited, end) that map (weight,
    displacement) to a number of paths; an edge back to s closes them into
    counted records.  Paths that share (visited, end) extend by the same
    edges, so merging them loses no cycle, and each state and label stands
    for at least one path, so the DP does no more work than walking every
    path.  The counts sum to the cycle count; the cap bounds it each round.
    """
    records: dict = {}
    for start in range(g.num_orbits):
        layer = {(frozenset((start,)), start): {(0, (0,) * g.dim): 1}}
        while layer:
            current, layer = layer, {}
            for (visited, orbit), paths in current.items():
                for e in g.out_edges(orbit):
                    if e.dst == start:
                        into, head = records, (visited,)
                    elif e.dst > start and e.dst not in visited:
                        into, head = layer.setdefault((visited | {e.dst}, e.dst), {}), ()
                    else:
                        continue
                    for (weight, disp), n in paths.items():
                        key = (*head, weight + e.weight, tuple(map(add, disp, e.shift)))
                        into[key] = into.get(key, 0) + n
            if sum(records.values()) > cap:
                raise ResourceLimitError(f"more than {cap} cycles; raise the cycle cap")
    return records


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
