"""The monoid-module skeleton of the graded growth set.

For a base vertex x0 and each subset S of quotient orbits there is a
monoid of (weight, lattice displacement) contributions of cycles supported
inside S, acting on the set of (budget, endpoint) pairs reachable by walks
whose quotient support is exactly S.  The graded growth set is the union
of these modules over all S, each finitely generated with generator
degrees bounded by W * (#S)^2 where W is the largest edge weight.  This
module constructs the generators and verifies the cover by least degrees
and the module action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Iterator

from ._dial import dial_distances
from .ball import (
    DEFAULT_BALL_CAP,
    VertexCodec,
    ball_rows,
    first_reach_rows,
    packed_distances,
    rows_fit,
    shift,
    vertex_codec,
)
from .errors import GuardError, ResourceLimitError
from .periodic_graph import PeriodicVertex, QuotientGraph, Vector, translate
from .walks import DEFAULT_CYCLE_CAP, enumerate_cycles

SupportSet = frozenset[int]

DEFAULT_ORBIT_GUARD = 12
MAX_WITNESSES = 10


@dataclass(frozen=True)
class GradedMonoid:
    """Finitely generated submonoid of Z>=0 x Z^rank, given by generators."""

    rank: int
    generators: tuple[tuple[int, Vector], ...]

    def __post_init__(self):
        for deg, vec in self.generators:
            if deg < 0:
                raise ValueError(f"negative generator degree {deg}")
            if len(vec) != self.rank:
                raise ValueError("generator vector length does not match rank")
            if deg == 0 and any(vec):
                raise ValueError(
                    "degree-0 generator with nonzero payload"
                    " makes graded pieces infinite"
                )


@dataclass(frozen=True)
class GradedModuleGens:
    """Generators (degree, vertex) of the S-supported reachability module."""

    degree_bound: int
    generators: tuple[tuple[int, PeriodicVertex], ...]


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    radius: int
    covered: int
    missing: tuple
    extra: tuple
    module_sizes: dict[SupportSet, int]
    blocks: tuple  # (S, monoid, module gens, action), in all_support_sets order


@dataclass(frozen=True)
class ActionReport:
    ok: bool
    witness: tuple | None  # (monoid generator, module element, image) on failure


def all_support_sets(g: QuotientGraph) -> list[SupportSet]:
    """Every subset of orbits, sorted by size then lexicographic indices."""
    subsets = [
        frozenset(c)
        for r in range(g.num_orbits + 1)
        for c in itertools.combinations(range(g.num_orbits), r)
    ]
    return subsets


def _cycle_data(g: QuotientGraph, cycle_cap: int) -> list:
    """(support, weight, displacement) of every simple cycle.

    A closed walk visits each of its orbits as the source of an edge, and
    any lift of it moves by the sum of its edge shifts.
    """
    data = []
    for c in enumerate_cycles(g, cap=cycle_cap):
        edges = [g.edges[eid] for eid in c]
        data.append((
            frozenset(e.src for e in edges),
            sum(e.weight for e in edges),
            tuple(map(sum, zip(*(e.shift for e in edges)))),
        ))
    return data


def _monoid(rank: int, S: SupportSet, cycle_data) -> GradedMonoid:
    gens = {(1, (0,) * rank)}
    gens.update((w, vec) for sup, w, vec in cycle_data if sup <= S)
    return GradedMonoid(rank, tuple(sorted(gens)))


def build_MS(g: QuotientGraph, S: SupportSet) -> GradedMonoid:
    """Monoid generated by cycles supported inside S, plus the degree step;
    the cycles are enumerated under `walks.DEFAULT_CYCLE_CAP`."""
    return _monoid(g.dim, S, _cycle_data(g, DEFAULT_CYCLE_CAP))


def support_distances(
    g: QuotientGraph, codec: VertexCodec, *, cap: int = DEFAULT_BALL_CAP
) -> dict[int, int]:
    """Minimal walk weight <= codec.radius to each (endpoint, exact support).

    A state is one int, key << n | mask: the endpoint's packed key and the
    bitmask of the n quotient orbits the walk visits.  The length-0 walk at
    the base has support {orbit of the base}, so that state sits at
    distance 0.  Every edge weighs at least 1, as the kernel requires.
    """
    n = codec.orbits
    steps = [
        [(codec.delta(e.shift) + e.dst - e.src << n, 1 << e.dst, e.weight) for e in out]
        for out in map(g.out_edges, range(n))
    ]

    # state % (n << n) is orbit << n | mask: an edge into orbit b adds its
    # packed delta << n, plus bit b when the mask lacks it.  The kernel
    # lists a class only when it settles a state of it
    def steps_at(c: int):
        seen = c & (1 << n) - 1
        return [(d + (~seen & bit), w) for d, bit, w in steps[c >> n]]

    start = codec.encode(codec.base) << n | 1 << codec.base.orbit
    return dial_distances(
        [(start, 0)],
        n << n,
        steps_at,
        codec.radius,
        cap=cap,
        cap_what="support-graded ball",
    )


def _support_groups(
    g: QuotientGraph, codec: VertexCodec, cap: int
) -> dict[SupportSet, list[tuple[int, int]]]:
    """The `support_distances` states grouped by support: S -> [(key, weight)]."""
    n = codec.orbits
    by_mask: dict[int, list[tuple[int, int]]] = {}
    for state, d in support_distances(g, codec, cap=cap).items():
        by_mask.setdefault(state & (1 << n) - 1, []).append((state >> n, d))
    return {
        frozenset(i for i in range(n) if mask >> i & 1): group
        for mask, group in by_mask.items()
    }


def module_degree_bound(g: QuotientGraph, S: SupportSet) -> int:
    """Generator degree bound W * (#S)^2 for the S-supported module.

    Proof by walk shortening.  Take a walk from the base with support
    exactly S, k = #S, and cut it at the first visit of each of its k
    orbits.  If an orbit repeats between two consecutive first visits, or
    in the tail after the last, the stretch between the two nearest equal
    orbits is a simple cycle inside S.  Removing it keeps every first
    visit, so the support stays S; it lowers the weight by the cycle's
    weight and moves the lift's end by minus the cycle's displacement,
    which is one monoid generator.  A walk with no such repeat sees
    distinct orbits, all among the j seen so far, from the j-th first visit
    to the (j + 1)-th, so it takes at most j edges there and k - 1 in the
    tail: (k - 1)(k + 2) / 2 edges in all.  Every module element is thus
    the end of such a walk, of weight at most W * (k - 1)(k + 2) / 2 <=
    W * k^2, moved by monoid generators (the degree step among them).  The
    printed generators keep the looser W * k^2.
    """
    return g.max_weight() * len(S) ** 2


def _module_gens(
    codec: VertexCodec, group, bound: int, exhaustive: bool
) -> GradedModuleGens:
    """The generators (d, vertex) of the packed (key, d) with d <= bound.

    They are sorted as (degree, orbit, coord) tuples, the order of
    (degree, PeriodicVertex), and each vertex is built after the sort.
    """
    gens = []
    for key, d in group:
        if d <= bound:
            orbit, coord = key % codec.orbits, codec.coord(key)
            if exhaustive:
                gens.extend((i, orbit, coord) for i in range(d, bound + 1))
            else:
                gens.append((d, orbit, coord))
    gens.sort()
    return GradedModuleGens(
        bound, tuple((d, PeriodicVertex(orbit, coord)) for d, orbit, coord in gens)
    )


def build_XS_generators(
    g: QuotientGraph, x0: PeriodicVertex, S: SupportSet
) -> GradedModuleGens:
    """Generators of the module of S-supported reachability pairs.

    One generator per endpoint, at the minimal weight of a walk with
    support exactly S; `verify_cover(..., exhaustive=True)` prints the full
    truncation at the degree bound instead, which generates the same
    module.  The support-graded search is capped at `ball.DEFAULT_BALL_CAP`
    states.
    """
    bound = module_degree_bound(g, S)
    codec = vertex_codec(g, x0, bound)
    group = _support_groups(g, codec, DEFAULT_BALL_CAP).get(S, [])
    return _module_gens(codec, group, bound, False)


def module_elements_upto(
    monoid: GradedMonoid, module_gens, degree: int
) -> set[tuple[int, PeriodicVertex]]:
    """All elements generator + monoid of degree <= degree, at most
    `ball.DEFAULT_BALL_CAP` of them."""
    seen = {(d, y) for d, y in module_gens if d <= degree}
    frontier = list(seen)
    while frontier:
        nxt = []
        for d, y in frontier:
            for gd, gvec in monoid.generators:
                el = (d + gd, translate(y, gvec))
                if el[0] <= degree and el not in seen:
                    if len(seen) >= DEFAULT_BALL_CAP:
                        raise ResourceLimitError(
                            f"module saturation exceeded {DEFAULT_BALL_CAP} nodes;"
                            " raise the cap"
                        )
                    seen.add(el)
                    nxt.append(el)
        frontier = nxt
    return seen


def _action(
    codec: VertexCodec, group, monoid: GradedMonoid, radius: int
) -> ActionReport:
    """Check that every generator maps each least-weight element into the module.

    `group` lists the packed (key, least weight) of the S-supported walk
    ends.  Each generator steps every key by its packed delta; only the
    failing elements of the first failing generator are decoded, and the
    witness is the least (vertex, degree) among them.  A zero-vector
    generator only raises the degree at the same vertex and cannot fail.
    """
    reached = dict(group)
    for gd, gvec in sorted(monoid.generators):
        if not any(gvec):
            continue
        delta = codec.delta(gvec)
        # (d, key) is the lowest-degree module element at key; acting on it
        # gives the strongest membership requirement
        failing = [
            key
            for key, d in group
            if d + gd <= radius and reached.get(key + delta, radius + 1) > d + gd
        ]
        if failing:
            y, key = min((codec.decode(key), key) for key in failing)
            d = reached[key]
            image = codec.decode(key + delta)
            return ActionReport(False, ((gd, gvec), (d, y), (d + gd, image)))
    return ActionReport(True, None)


def _min_degrees(
    codec: VertexCodec, monoid: GradedMonoid, starts, cap: int
) -> dict[int, int]:
    """Least degree <= codec.radius at which each packed vertex lies in the module.

    One multi-source search: every module generator (key, d) is a source at
    its own degree d, and every monoid generator that moves the vertex is a
    step by its packed delta, weighted by its degree.  Generators with a
    zero vector, the degree step (1, 0) among them, only raise the degree
    at the same vertex, so they never lower a least degree and are skipped.
    """
    moves = [(codec.delta(gvec), gd) for gd, gvec in monoid.generators if any(gvec)]
    return dial_distances(
        starts, 1, lambda _: moves, codec.radius, cap=cap, cap_what="module saturation"
    )


def _pair_count(low: dict, radius: int) -> int:
    """Number of pairs (i, y) with low[y] <= i <= radius."""
    return sum(radius - d + 1 for d in low.values())


def _witnesses(codec: VertexCodec, low: dict, high: dict, radius: int) -> tuple:
    """The k = `MAX_WITNESSES` least pairs (i, y), low[y] <= i <= radius, i < high[y].

    `low` and `high` map packed keys to least degrees, and a key missing
    from `high` bounds nothing.  Each key yields at most its k lowest
    pairs, which is enough for the k least overall; only keys that yield a
    pair are decoded.
    """
    k = MAX_WITNESSES
    pairs = []
    for key, lo in low.items():
        hi = min(high.get(key, radius + 1), lo + k)
        if lo < hi:
            y = codec.decode(key)
            pairs.extend((i, y) for i in range(lo, hi))
    return tuple(sorted(pairs)[:k])


def verify_cover(
    g: QuotientGraph,
    x0: PeriodicVertex,
    radius: int,
    *,
    exhaustive: bool = False,
    orbit_guard: int = DEFAULT_ORBIT_GUARD,
    cap: int = DEFAULT_BALL_CAP,
    cycle_cap: int = DEFAULT_CYCLE_CAP,
) -> CoverReport:
    """Check that the union of truncated modules equals the graded growth set.

    The target is the set of pairs (i, y) with d(x0, y) <= i <= radius.  For
    every orbit subset S the module generators are truncated at the degree
    bound and moved by the monoid up to the radius; the union of these
    pieces over all S must equal the target.

    Both sides are compared by least degree per vertex, not pair by pair.
    Every monoid holds the degree step (1, 0), so each piece is upward
    closed in degree: it is {(i, y) : m_S(y) <= i <= radius}, where m_S(y)
    is the least degree of a module element at y.  The target is upward
    closed in the same way, with least degree d(x0, y), and so is the
    union, with least degree min_S m_S(y).  The sets are therefore equal
    exactly when these two maps are, and `covered`, `module_sizes` and the
    sorted `missing` and `extra` witnesses, the `MAX_WITNESSES` least pairs
    of each, are rebuilt from the maps.

    Cycles are enumerated once, and the ball and the support-graded search
    run once, at the radius.  Every map is kept on the packed keys of one
    `ball.VertexCodec`, sized by the edges and every monoid generator, so
    all of them stay exact.  When `ball.rows_fit` admits 2^n + 4 row sets
    (the target, the union, the 2^n support masks, and one subset's
    cumulative support rows and module rows), the maps are held as bit rows
    and every search, module saturation included, is one seeded
    `ball.first_reach_rows` call (`_cover_on_rows`); otherwise they are
    dicts filled by Dial searches (`_cover_on_dial`).  Both give the same
    report.  Keys are decoded to `PeriodicVertex` only
    for the module generators, the `missing` and `extra` witnesses and the
    action witnesses.  `cap` bounds the vertices of each search: the ball,
    the support-graded states and the vertices reached per subset (not the
    pairs).  The report also carries, per S, the monoid, the module
    generators (as `build_MS` and `build_XS_generators` give them, with the
    degree bound cut to the radius) and the `verify_module_action` report.
    """
    if g.num_orbits > orbit_guard:
        raise GuardError(
            f"{g.num_orbits} orbits exceed the subset guard of {orbit_guard}"
        )
    cycle_data = _cycle_data(g, cycle_cap)
    monoids = {S: _monoid(g.dim, S, cycle_data) for S in all_support_sets(g)}
    moves = {gen for monoid in monoids.values() for gen in monoid.generators}
    codec = vertex_codec(g, x0, radius, moves)
    cover = _cover_on_rows if rows_fit(codec, 2**g.num_orbits + 4, cap) else _cover_on_dial
    return cover(g, codec, monoids, exhaustive, cap)


def _cover_on_dial(
    g: QuotientGraph, codec: VertexCodec, monoids, exhaustive: bool, cap: int
) -> CoverReport:
    """`verify_cover` by least-degree dicts: the ball and the support-graded
    search run once, and m_S takes one multi-source search per S."""
    radius = codec.radius
    target = packed_distances(g, codec, cap=cap)
    groups = _support_groups(g, codec, cap)
    union: dict[int, int] = {}
    sizes: dict[SupportSet, int] = {}
    blocks = []
    for S, monoid in monoids.items():
        group = groups.get(S, [])
        bound = min(module_degree_bound(g, S), radius)
        gens = _module_gens(codec, group, bound, exhaustive)
        starts = [(key, d) for key, d in group if d <= bound]
        piece = _min_degrees(codec, monoid, starts, cap)
        sizes[S] = _pair_count(piece, radius)
        for key, d in piece.items():
            if union.get(key, d + 1) > d:
                union[key] = d
        blocks.append((S, monoid, gens, _action(codec, group, monoid, radius)))
    ok = union == target
    return CoverReport(
        ok=ok,
        radius=radius,
        covered=_pair_count(target, radius),
        missing=() if ok else _witnesses(codec, target, union, radius),
        extra=() if ok else _witnesses(codec, union, target, radius),
        module_sizes=sizes,
        blocks=tuple(blocks),
    )


def _cover_on_rows(
    g: QuotientGraph, codec: VertexCodec, monoids, exhaustive: bool, cap: int
) -> CoverReport:
    """`verify_cover` on bit rows over the cells key // orbits.

    Each search is one `ball.first_reach_rows` call, read by `_exact_rows`:
    the target from `ball.ball_rows`; the exact-support rows F_S of every
    support mask from one search over the states orbit << n | mask; and per
    subset S the module from one search seeded with F_S up to the degree
    bound, the state the orbit, each moving monoid generator (gd, v) a
    shift by the cell delta of v at weight gd.  The target and the union of
    the modules are compared as cumulative rows, row d the cells of least
    degree <= d.  Cap errors keep the Dial texts and order: ball, then
    support-graded states, then per subset.
    """
    n, radius = codec.orbits, codec.radius
    zero = [0] * (radius + 1)
    covered, target = _exact_rows(ball_rows(g, codec, cap), radius)
    target = [list(accumulate(target.get(orbit, zero), or_)) for orbit in range(n)]

    low = (1 << n) - 1

    def steps(state: int):  # state = orbit << n | support mask
        return [
            (e.dst << n | state & low | 1 << e.dst, codec.delta(e.shift) // n, e.weight)
            for e in g.out_edges(state >> n)
        ]

    base = codec.base.orbit
    start = (0, base << n | 1 << base, 1 << codec.encode(codec.base) // n)
    search = first_reach_rows(codec, [start], steps, cap=cap, cap_what="support-graded ball")
    first: dict[int, dict[int, list[int]]] = {}  # mask -> {orbit: F_S rows}
    for state, rows in sorted(_exact_rows(search, radius)[1].items()):  # by orbit first
        first.setdefault(state & low, {})[state >> n] = rows

    union = [zero] * n
    sizes: dict[SupportSet, int] = {}
    blocks = []
    for S, monoid in monoids.items():
        exact = first.get(sum(1 << i for i in S), {})
        bound = min(module_degree_bound(g, S), radius)
        seeds = [
            (d, orbit, bits)
            for orbit, rows in exact.items()
            for d, bits in enumerate(rows[: bound + 1])
            if bits
        ]
        group = [(orbit + n * cell, d) for d, orbit, bits in seeds for cell in _cells(bits)]
        gens = _module_gens(codec, group, bound, exhaustive)
        moves = [(codec.delta(vec) // n, gd) for gd, vec in monoid.generators if any(vec)]
        search = first_reach_rows(
            codec, seeds, lambda o: [(o, *m) for m in moves], cap=cap, cap_what="module saturation"
        )
        sizes[S], piece = _exact_rows(search, radius)
        for orbit, rows in piece.items():
            union[orbit] = list(map(or_, union[orbit], accumulate(rows, or_)))
        blocks.append((S, monoid, gens, _row_action(codec, exact, monoid)))
    ok = union == target
    return CoverReport(
        ok=ok,
        radius=radius,
        covered=covered,
        missing=() if ok else _row_witnesses(codec, target, union),
        extra=() if ok else _row_witnesses(codec, union, target),
        module_sizes=sizes,
        blocks=tuple(blocks),
    )


def _exact_rows(search, radius: int) -> tuple[int, dict[int, list[int]]]:
    """The pairs (i, cell) with d <= i <= radius of a `first_reach_rows` search,
    counted, and its exact rows: rows[state][d], the cells first reached at d."""
    pairs = 0
    rows: dict[int, list[int]] = {}
    for d, (size, fresh) in enumerate(search):
        pairs += size * (radius - d + 1)
        for state, bits in fresh.items():
            if state not in rows:  # allocate once per state, not per distance
                rows[state] = [0] * (radius + 1)
            rows[state][d] = bits
    return pairs, rows


def _cells(bits: int) -> Iterator[int]:
    """The set bits of a row, lowest first."""
    digits = bin(bits)[:1:-1]  # bit i is digits[i]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _row_action(codec: VertexCodec, exact, monoid: GradedMonoid) -> ActionReport:
    """`_action` on the exact-support rows of S, {orbit: rows} by orbit.

    The elements of least weight d at which generator (gd, v) fails are
    exact[orbit][d] & ~shift(cumulative[orbit][d + gd], -delta), delta the
    cell delta of v and cumulative the OR of the rows up to each degree.
    Orbit leads the vertex order, so the witness comes from the first orbit
    that fails.
    """
    n, radius = codec.orbits, codec.radius
    cumulative = [list(accumulate(rows, or_)) for rows in exact.values()]
    for gd, gvec in sorted(monoid.generators):
        if not any(gvec):
            continue
        delta = codec.delta(gvec)
        for (orbit, rows), cum in zip(exact.items(), cumulative):
            keys = [
                (orbit + n * cell, d)
                for d in range(radius - gd + 1)
                if rows[d]
                for cell in _cells(rows[d] & ~shift(cum[d + gd], -(delta // n)))
            ]
            if keys:
                y, d, key = min((codec.decode(key), d, key) for key, d in keys)
                image = codec.decode(key + delta)
                return ActionReport(False, ((gd, gvec), (d, y), (d + gd, image)))
    return ActionReport(True, None)


def _row_witnesses(codec: VertexCodec, low, high) -> tuple:
    """The `MAX_WITNESSES` least pairs (i, y), y in low[orbit][i], not high[orbit][i]."""
    k, n = MAX_WITNESSES, codec.orbits
    pairs = []
    for i in range(codec.radius + 1):
        for orbit in range(n):
            bits = low[orbit][i] & ~high[orbit][i]
            pairs.extend(sorted((i, codec.decode(orbit + n * cell)) for cell in _cells(bits)))
            if len(pairs) >= k:
                return tuple(pairs[:k])
    return tuple(pairs)


def verify_module_action(
    g: QuotientGraph,
    x0: PeriodicVertex,
    S: SupportSet,
    radius: int,
    *,
    monoid: GradedMonoid | None = None,
) -> ActionReport:
    """Check the monoid action maps the truncated module into itself.

    The module truncation is computed directly by walk search, capped at
    `ball.DEFAULT_BALL_CAP` states, so feeding a corrupted monoid (an extra
    bogus generator) must produce a witness.
    """
    if monoid is None:
        monoid = build_MS(g, S)
    codec = vertex_codec(g, x0, radius, monoid.generators)
    group = _support_groups(g, codec, DEFAULT_BALL_CAP).get(S, [])
    return _action(codec, group, monoid, radius)
