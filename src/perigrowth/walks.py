"""Walk combinatorics on the quotient graph.

Cycles here are closed walks whose visited vertices are pairwise distinct;
rotations of the same cycle are collapsed to the lexicographically least
edge-id rotation, which is safe because every quantity we derive from a
cycle (weight, net lattice displacement) is rotation invariant.

The key map is `mu`: it sends the 1-chain of a closed walk in the quotient
to the net lattice translation picked up by any lift of that walk.  The
other helpers (`support`, `walk_weight`, `chain_of_walk`) read a `Cycle`,
the only walk the commands build.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ResourceLimitError
from .periodic_graph import QuotientGraph, Vector

EdgeChain = dict[int, int]


@dataclass(frozen=True, order=True)
class Cycle:
    """A simple directed cycle, stored in its least edge-id rotation."""

    edges: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


def walk_orbits(g: QuotientGraph, c: Cycle) -> list[int]:
    """Visited orbit sequence s(e1), t(e1), ..., t(el); validates composability."""
    orbits = [g.edges[c.edges[0]].src]
    for eid in c.edges:
        e = g.edges[eid]
        if e.src != orbits[-1]:
            raise ValueError(
                f"edge {eid} starts at orbit {e.src}, walk is at {orbits[-1]}"
            )
        orbits.append(e.dst)
    return orbits


def walk_weight(g: QuotientGraph, c: Cycle) -> int:
    return sum(g.edges[eid].weight for eid in c.edges)


def support(g: QuotientGraph, c: Cycle) -> frozenset[int]:
    """Set of orbits the cycle touches."""
    return frozenset(walk_orbits(g, c))


def chain_of_walk(c: Cycle) -> EdgeChain:
    """Edge multiplicities of the cycle as a 1-chain."""
    return dict(Counter(c.edges))


def _canonical_rotation(edges: tuple[int, ...]) -> tuple[int, ...]:
    rotations = [edges[i:] + edges[:i] for i in range(len(edges))]
    return min(rotations)


def enumerate_cycles(g: QuotientGraph, *, cap: int = 1_000_000) -> list[Cycle]:
    """All simple directed cycles of the quotient, deduplicated and sorted.

    Depth-first search rooted at each orbit in turn, visiting only orbits
    of larger index, so every cycle is discovered exactly once at its
    minimal orbit.  Loops and parallel edges give distinct cycles.
    """
    found: set[Cycle] = set()
    n = g.num_orbits
    for start in range(n):
        # stack entries: (current orbit, path of edge ids, visited orbit set)
        stack = [(start, (), frozenset((start,)))]
        while stack:
            orbit, path, visited = stack.pop()
            for eo in g.out_edges(orbit):
                if eo.dst == start:
                    found.add(Cycle(_canonical_rotation(path + (eo.id,))))
                    if len(found) > cap:
                        raise ResourceLimitError(
                            f"more than {cap} cycles; raise the cycle cap"
                        )
                elif eo.dst > start and eo.dst not in visited:
                    stack.append((eo.dst, path + (eo.id,), visited | {eo.dst}))
    return sorted(found, key=lambda c: (len(c.edges), c.edges))


def cycle_weights(g: QuotientGraph, *, cap: int = 1_000_000) -> list[int]:
    """The weight of every simple cycle, in `enumerate_cycles` order."""
    return [walk_weight(g, c) for c in enumerate_cycles(g, cap=cap)]


def _boundary(g: QuotientGraph, c: EdgeChain) -> dict[int, int]:
    bnd: Counter = Counter()
    for eid, mult in c.items():
        e = g.edges[eid]
        bnd[e.dst] += mult
        bnd[e.src] -= mult
    return {k: v for k, v in bnd.items() if v != 0}


def mu(g: QuotientGraph, c: EdgeChain) -> Vector:
    """Net lattice displacement of a homology chain.

    For the chain of any closed walk this equals the lattice difference
    between the endpoints of any lift of that walk.
    """
    bad = _boundary(g, c)
    if bad:
        raise ValueError(f"not a homology class: nonzero boundary at orbits {sorted(bad)}")
    total = [0] * g.dim
    for eid, mult in c.items():
        shift = g.edges[eid].shift
        for i in range(g.dim):
            total[i] += mult * shift[i]
    return tuple(total)
