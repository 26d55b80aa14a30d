"""Independent oracles used to pin expected values before testing the library.

Everything here is deliberately naive and self-contained: hand counts,
explicitly materialized patches, exhaustive enumeration.  None of it calls
the code paths under test (group word enumeration uses only `multiply`).
"""

import heapq
from collections import deque
from itertools import product

from perigrowth.vab import multiply


def square_lattice_count(i: int) -> int:
    """Number of integer points with |x| + |y| = i, by direct counting."""
    return sum(
        1
        for x in range(-i, i + 1)
        for y in range(-i, i + 1)
        if abs(x) + abs(y) == i
    )


def honeycomb_patch_growth(radius: int) -> list[int]:
    """BFS on an explicitly materialized honeycomb patch, from an a-vertex.

    Adjacency is hardcoded from the net geometry: a(x, y) touches b(x, y),
    b(x+1, y), b(x, y+1).  The patch is wide enough that the radius-R ball
    never reaches its boundary.
    """
    span = radius + 2

    def neighbors(node):
        kind, x, y = node
        if kind == "a":
            return [("b", x, y), ("b", x + 1, y), ("b", x, y + 1)]
        return [("a", x, y), ("a", x - 1, y), ("a", x, y - 1)]

    start = ("a", 0, 0)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if dist[node] == radius:
            continue
        for nb in neighbors(node):
            if abs(nb[1]) > span or abs(nb[2]) > span:
                raise AssertionError("patch too small")
            if nb not in dist:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    terms = [0] * (radius + 1)
    for d in dist.values():
        terms[d] += 1
    return terms


def dijkstra_ball(edges, base, radius: int) -> dict:
    """Shortest walk weights from base over explicit (orbit, coord) tuples.

    `edges` lists (src, dst, shift, weight) quotient edges; the cover is
    expanded lazily with a binary heap, one tuple per vertex, and every
    vertex with distance at most `radius` is returned.
    """
    dist = {base: 0}
    heap = [(0, base)]
    while heap:
        d, (orbit, coord) = heapq.heappop(heap)
        if d > dist[(orbit, coord)]:
            continue
        for src, dst, shift, weight in edges:
            if src != orbit or d + weight > radius:
                continue
            nb = (dst, tuple(c + s for c, s in zip(coord, shift)))
            if nb not in dist or d + weight < dist[nb]:
                dist[nb] = d + weight
                heapq.heappush(heap, (d + weight, nb))
    return dist


def brute_force_cycles(g, max_length: int) -> set[tuple[int, ...]]:
    """All cycles as least-rotation edge tuples, by exhaustive sequences."""
    found = set()
    for length in range(1, max_length + 1):
        for seq in product(range(len(g.edges)), repeat=length):
            orbits = [g.edges[seq[0]].src]
            ok = True
            for eid in seq:
                if g.edges[eid].src != orbits[-1]:
                    ok = False
                    break
                orbits.append(g.edges[eid].dst)
            if not ok or orbits[0] != orbits[-1]:
                continue
            targets = orbits[1:]
            if len(set(targets)) != len(targets):
                continue
            found.add(min(seq[i:] + seq[:i] for i in range(length)))
    return found


def word_weights(group, gens, max_weight: int) -> dict:
    """Minimal weighted word length per element, by breadth-first products.

    Uses only the group multiplication, so it is independent of the Cayley
    graph and ball machinery.
    """
    weights = {group.identity(): 0}
    levels = {0: [group.identity()]}
    for w in range(max_weight + 1):
        for el in levels.get(w, []):
            if weights[el] != w:
                continue
            for gen in gens:
                nw = w + gen.weight
                if nw > max_weight:
                    continue
                nxt = multiply(group, el, gen.element)
                if nxt not in weights or nw < weights[nxt]:
                    weights[nxt] = nw
                    levels.setdefault(nw, []).append(nxt)
    return weights


def growth_from_weights(weights, max_weight: int) -> list[int]:
    terms = [0] * (max_weight + 1)
    for w in weights.values():
        terms[w] += 1
    return terms


def monoid_elements_by_exponents(gens, degree: int) -> set:
    """All nonnegative combinations of graded generators up to a degree.

    Exhaustive exponent vectors; every generator has degree >= 1 so each
    exponent is bounded by the degree.
    """
    elements = set()
    rank = len(gens[0][1]) if gens else 0

    def rec(index, deg, vec):
        if deg > degree:
            return
        elements.add((deg, tuple(vec)))
        for j in range(index, len(gens)):
            gdeg, gvec = gens[j]
            rec(
                j,
                deg + gdeg,
                [a + b for a, b in zip(vec, gvec)],
            )

    rec(0, 0, [0] * rank)
    return elements
