"""Independent oracles for the benchmark.

Nothing here imports perigrowth or its tests: the readers, searches, group
law and series arithmetic are written again from the file formats, so a
defect in the program cannot hide by agreeing with itself.

- Ball terms come from a plain heap Dijkstra over explicitly materialized
  (orbit, lattice coordinate) vertices.
- Cayley balls multiply group elements by the extension law
  (v, f)(w, g) = (v + A_f w + c(f, g), fg) read from the `.vag` text; the
  relative-growth oracle uses a hand-coded infinite dihedral law instead.
- Series are checked by re-expanding the printed numerator and
  denominator with the linear recurrence.
- The reduced denominator of a term sequence is found by Berlekamp-Massey
  modulo a large prime, lifted to small integers.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass


def _lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.split()


# ---------------------------------------------------------------------------
# periodic graphs


@dataclass(frozen=True)
class Graph:
    """A quotient graph: edges are (src orbit, dst orbit, shift, weight)."""

    dim: int
    orbits: tuple[str, ...]
    edges: tuple[tuple[int, int, tuple[int, ...], int], ...]

    def out_edges(self) -> list[list[tuple[int, tuple[int, ...], int]]]:
        out = [[] for _ in self.orbits]
        for src, dst, shift, w in self.edges:
            out[src].append((dst, shift, w))
        return out


def read_pg(text: str) -> Graph:
    dim = None
    names: list[str] = []
    edges = []
    for tokens in _lines(text):
        if tokens[0] == "dim":
            dim = int(tokens[1])
        elif tokens[0] == "vertex":
            names.append(tokens[1])
        elif tokens[0] == "edge":
            numbers = [int(t) for t in tokens[3:]]
            edges.append(
                (
                    names.index(tokens[1]),
                    names.index(tokens[2]),
                    tuple(numbers[:dim]),
                    numbers[dim],
                )
            )
        else:
            raise ValueError(f"unknown .pg directive {tokens[0]!r}")
    return Graph(dim, tuple(names), tuple(edges))


def write_pg(g: Graph) -> str:
    lines = [f"dim {g.dim}"] + [f"vertex {name}" for name in g.orbits]
    for src, dst, shift, w in g.edges:
        coords = " ".join(str(c) for c in shift)
        lines.append(f"edge {g.orbits[src]} {g.orbits[dst]} {coords} {w}")
    return "\n".join(lines) + "\n"


def dijkstra(start, neighbours, radius: int, stop_after: int | None = None) -> dict:
    """Distances <= radius from start; neighbours(v) yields (u, weight).

    With `stop_after`, the search ends once that many vertices are settled
    and the current distance shell is complete, returning every vertex
    settled so far (an exact ball of the last completed radius and more).
    """
    dist = {start: 0}
    done: dict = {}
    heap = [(0, 0, start)]
    tie = itertools.count(1)
    shell = 0
    while heap:
        d, _, v = heapq.heappop(heap)
        if v in done:
            continue
        if stop_after is not None and len(done) >= stop_after and d > shell:
            break
        shell = d
        done[v] = d
        for u, w in neighbours(v):
            nd = d + w
            if nd <= radius and (u not in dist or nd < dist[u]):
                dist[u] = nd
                heapq.heappush(heap, (nd, next(tie), u))
    return done


def ball_distances(g: Graph, radius: int, stop_after: int | None = None) -> dict:
    """Distances from (orbit 0, origin) to every vertex within the radius."""
    out = g.out_edges()

    def neighbours(v):
        orbit, coord = v
        for dst, shift, w in out[orbit]:
            yield (dst, tuple(a + b for a, b in zip(coord, shift))), w

    return dijkstra((0, (0,) * g.dim), neighbours, radius, stop_after)


def spheres(distances: dict, radius: int) -> list[int]:
    counts = [0] * (radius + 1)
    for d in distances.values():
        if d <= radius:
            counts[d] += 1
    return counts


def cover_pairs(distances: dict, radius: int) -> int:
    """Size of the graded growth set: sum over the ball of radius - d + 1."""
    return sum(radius - d + 1 for d in distances.values() if d <= radius)


def simple_cycles(g: Graph) -> list[tuple[int, int]]:
    """(weight, orbit mask) of every simple directed cycle of the quotient."""
    out = [[] for _ in g.orbits]
    for src, dst, _, w in g.edges:
        out[src].append((dst, w))
    cycles = []
    for start in range(len(g.orbits)):
        stack = [(start, 0, 1 << start)]
        while stack:
            orbit, weight, mask = stack.pop()
            for dst, w in out[orbit]:
                if dst == start:
                    cycles.append((weight + w, mask))
                elif dst > start and not mask >> dst & 1:
                    stack.append((dst, weight + w, mask | 1 << dst))
    return cycles


def support_distances(g: Graph, radius: int) -> dict:
    """Least walk weight to each (orbit, coord, exact orbit support mask)."""
    out = g.out_edges()

    def neighbours(state):
        orbit, coord, mask = state
        for dst, shift, w in out[orbit]:
            yield (dst, tuple(a + b for a, b in zip(coord, shift)), mask | 1 << dst), w

    return dijkstra((0, (0,) * g.dim, 1), neighbours, radius)


# ---------------------------------------------------------------------------
# virtually abelian groups


@dataclass(frozen=True)
class Group:
    rank: int
    mult: tuple[tuple[int, ...], ...]
    action: dict
    cocycle: dict
    gens: tuple[tuple[tuple[int, ...], int, int], ...]  # (vec, part, weight)


def read_vag(text: str) -> Group:
    rank = order = 0
    mult = ((0,),)
    action: dict = {}
    cocycle: dict = {}
    gens = []
    for tokens in _lines(text):
        key = tokens[0]
        if key == "rank":
            rank = int(tokens[1])
        elif key == "finite":
            order = int(tokens[1])
        elif key == "mult":
            v = [int(t) for t in tokens[1:]]
            mult = tuple(tuple(v[i * order : (i + 1) * order]) for i in range(order))
        elif key == "action":
            v = [int(t) for t in tokens[2:]]
            action[int(tokens[1][2:])] = [v[i * rank : (i + 1) * rank] for i in range(rank)]
        elif key == "cocycle":
            f, g = int(tokens[1][2:]), int(tokens[2][2:])
            cocycle[(f, g)] = tuple(int(t) for t in tokens[3:])
        elif key == "gen":
            v = [int(t) for t in tokens[2:]]
            gens.append((tuple(v[:rank]), v[rank], v[rank + 1]))
        else:
            raise ValueError(f"unknown .vag directive {key!r}")
    for f in range(order):
        action.setdefault(f, [[int(i == j) for j in range(rank)] for i in range(rank)])
    return Group(rank, mult, action, cocycle, tuple(gens))


def group_multiply(group: Group, a, b):
    (v, f), (w, g) = a, b
    aw = [sum(r * x for r, x in zip(row, w)) for row in group.action[f]]
    c = group.cocycle.get((f, g), (0,) * group.rank)
    return tuple(x + y + z for x, y, z in zip(v, aw, c)), group.mult[f][g]


def word_weights(group: Group, radius: int, multiply=None) -> dict:
    """Weighted word length of every group element within the radius."""
    multiply = multiply or (lambda a, b: group_multiply(group, a, b))
    steps = [((vec, part), w) for vec, part, w in group.gens]

    def neighbours(el):
        for s, w in steps:
            yield multiply(el, s), w

    return dijkstra(((0,) * group.rank, 0), neighbours, radius)


def dihedral_multiply(a, b):
    """The infinite dihedral group Z x| Z/2, written out by hand."""
    (v,), f = a
    (w,), g = b
    return (v + (-w if f else w),), f ^ g


def read_set(text: str):
    """Pieces of a `.set` file as (list of ugens, shift tuple)."""
    arity = 0
    pieces = []
    for tokens in _lines(text):
        if tokens[0] == "arity":
            arity = int(tokens[1])
        elif tokens[0] == "piece":
            pieces.append(([], None))
        elif tokens[0] == "ugen":
            pieces[-1][0].append(tuple(int(t) for t in tokens[1:]))
        elif tokens[0] == "shift":
            shift = []
            for token in tokens[1:]:
                body, part = re.fullmatch(r"\(([-0-9,\s]*);(\d+)\)", token).groups()
                shift.append((tuple(int(t) for t in body.split(",")), int(part)))
            pieces[-1] = (pieces[-1][0], tuple(shift))
        else:
            raise ValueError(f"unknown .set directive {tokens[0]!r}")
    return arity, pieces


def dihedral_relative(vag_text: str, set_text: str, box: tuple[int, ...]):
    """Exact per-degree counts and the total-weight series of a rank-1 set.

    Returns (exact, cumulative, totals): exact[a] counts tuples whose word
    weights equal a, cumulative[a] those bounded by a, and totals[k] those
    whose weights sum to k, for k up to min(box).
    """
    group = read_vag(vag_text)
    arity, pieces = read_set(set_text)
    radius = max(box)
    weight = word_weights(group, radius, dihedral_multiply)
    members = set()
    for ugens, shift in pieces:
        reach = radius + max(abs(v[0]) for v, _ in shift) + 1
        for ks in itertools.product(range(reach + 1), repeat=len(ugens)):
            members.add(
                tuple(
                    ((v[0] + sum(k * u[i] for k, u in zip(ks, ugens)),), part)
                    for i, (v, part) in enumerate(shift)
                )
            )
    exact: dict = {}
    totals = [0] * (min(box) + 1)
    for tup in members:
        degs = [weight.get(el) for el in tup]
        if None in degs:
            continue
        key = tuple(degs)
        if all(a <= b for a, b in zip(key, box)):
            exact[key] = exact.get(key, 0) + 1
        if sum(key) < len(totals):
            totals[sum(key)] += 1
    cumulative = {}
    for a in itertools.product(*(range(b + 1) for b in box)):
        cumulative[a] = sum(
            c for k, c in exact.items() if all(x <= y for x, y in zip(k, a))
        )
    return exact, cumulative, totals


# ---------------------------------------------------------------------------
# series


def parse_series(lines: list[str]):
    """One printed series block: (arity, numerator, factors, verified)."""
    arity = int(lines[0].split("=", 1)[1])
    num: dict = {}
    factors = []
    verified = None
    for line in lines[1:]:
        tokens = line.split()
        if tokens[0] == "num":
            num[tuple(int(t) for t in tokens[1:-1])] = int(tokens[-1])
        elif tokens[0] == "den":
            factors.append((tuple(int(t) for t in tokens[1:-1]), int(tokens[-1][1:])))
        elif tokens[0] == "verified":
            verified = tuple(int(t) for t in tokens[1:])
        else:
            raise ValueError(f"unexpected series line {line!r}")
    if verified is None or len(verified) != arity:
        raise ValueError("series block without a verified line")
    return arity, num, factors, verified


def expand_univariate(num: dict, factors, through: int) -> list[int]:
    """Coefficients 0..through of num / prod (1 - t^w)^e."""
    den = [1]
    for (w,), e in factors:
        for _ in range(e):
            nxt = den + [0] * w
            for i, c in enumerate(den):
                nxt[i + w] -= c
            den = nxt
    out = []
    for i in range(through + 1):
        c = num.get((i,), 0)
        for j in range(1, min(i, len(den) - 1) + 1):
            c -= den[j] * out[i - j]
        out.append(c)
    return out


PRIME = (1 << 61) - 1


def berlekamp_massey(terms: list[int], p: int = PRIME) -> list[int]:
    """Shortest connection polynomial C (C[0] = 1) of the sequence mod p."""
    c, b = [1], [1]
    length, shift, last = 0, 1, 1
    for n, s in enumerate(terms):
        d = s % p
        for i in range(1, length + 1):
            d = (d + c[i] * terms[n - i]) % p
        if d == 0:
            shift += 1
            continue
        coef = d * pow(last, p - 2, p) % p
        t = c[:]
        c = c + [0] * max(0, len(b) + shift - len(c))
        for i, bi in enumerate(b):
            c[i + shift] = (c[i + shift] - coef * bi) % p
        if 2 * length <= n:
            length, b, last, shift = n + 1 - length, t, d, 1
        else:
            shift += 1
    return [x - p if x > p // 2 else x for x in c[: length + 1]]


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _divide(num: list[int], den: list[int]) -> list[int] | None:
    """Exact integer polynomial division, None when den does not divide."""
    num = _trim(list(num))
    if len(num) < len(den):
        return None if num else []
    quot = [0] * (len(num) - len(den) + 1)
    rem = num[:]
    for i in range(len(quot) - 1, -1, -1):
        q, r = divmod(rem[i + len(den) - 1], den[-1])
        if r:
            return None
        quot[i] = q
        for j, dc in enumerate(den):
            rem[i + j] -= q * dc
    return quot if not any(rem) else None


def one_minus(w: int) -> list[int]:
    return [1] + [0] * (w - 1) + [-1]


def reduced_form(terms: list[int]):
    """(reduced denominator Q, numerator P) of the sequence's generating
    function, or None when the terms are too few to pin them down."""
    q = _trim(berlekamp_massey(terms))
    length = len(q) - 1
    numerator = _trim([
        sum(q[j] * terms[i - j] for j in range(min(i, length) + 1))
        for i in range(len(terms))
    ])
    if len(terms) < 2 * max(length, len(numerator)) + 20:
        return None
    return q, numerator


def peel(q: list[int]) -> tuple[list[tuple[int, int]], list[int]]:
    """Greedy largest-period (1 - t^w) peeling; returns (factors, residual)."""
    factors = []
    residual = q
    for w in range(len(residual) - 1, 0, -1):
        while len(residual) - 1 >= w:
            quot = _divide(residual, one_minus(w))
            if quot is None:
                break
            factors.append((w, 1))
            residual = quot
    return factors, residual


def poly_power_product(factors: dict[int, int]) -> list[int]:
    out = [1]
    for w, e in sorted(factors.items()):
        for _ in range(e):
            nxt = out + [0] * w
            for i, c in enumerate(out):
                nxt[i + w] -= c
            out = nxt
    return out


def divides(q: list[int], den: list[int]) -> bool:
    return _divide(den, q) is not None
