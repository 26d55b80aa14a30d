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
from functools import cache, partial
from itertools import accumulate
from operator import or_
from typing import Iterator

from ._dial import Steps, dial_distances
from .ball import (
    DEFAULT_BALL_CAP,
    VertexCodec,
    first_reach_rows,
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


def _monoid(rank: int, S: SupportSet, cycles) -> GradedMonoid:
    gens = {(1, (0,) * rank)}
    gens.update((w, vec) for sup, w, vec in cycles if sup <= S)
    return GradedMonoid(rank, tuple(sorted(gens)))


def build_MS(g: QuotientGraph, S: SupportSet) -> GradedMonoid:
    """Monoid generated by cycles supported inside S, plus the degree step;
    the cycles are enumerated under `walks.DEFAULT_CYCLE_CAP`."""
    return _monoid(g.dim, S, enumerate_cycles(g, cap=DEFAULT_CYCLE_CAP))


def support_distances(
    g: QuotientGraph, codec: VertexCodec, *, cap: int = DEFAULT_BALL_CAP
) -> dict[int, int]:
    """Minimal walk weight <= codec.radius to each (endpoint, exact support).

    A node is one int, key << n | mask: the endpoint's packed key and the
    bitmask of the n quotient orbits the walk visits, the `_support_steps`
    state orbit << n | mask at its cell.  The length-0 walk at the base has
    support {orbit of the base}, so that node sits at distance 0.  Every
    edge weighs at least 1, as both kernels require.
    """
    n = codec.orbits
    start = codec.encode(codec.base) << n | 1 << codec.base.orbit
    return dial_distances(
        [(start, 0)],
        n << n,
        partial(_support_steps, g, codec),
        codec.radius,
        cap=cap,
        cap_what="support-graded ball",
    )


def _support_steps(g: QuotientGraph, codec: VertexCodec, state: int) -> list:
    """The support-graded steps from state orbit << n | mask: each out-edge of
    the orbit, into its dst with dst added to the mask, at the edge's weight."""
    n = codec.orbits
    mask = state & (1 << n) - 1
    return [
        (e.dst << n | mask | 1 << e.dst, codec.delta(e.shift) // n, e.weight)
        for e in g.out_edges(state >> n)
    ]


def _module_steps(codec: VertexCodec, monoids) -> Steps:
    """The module steps: state orbit << n | mask moves by the cell delta of v
    at weight gd for each generator (gd, v), v nonzero, of the mask's monoid;
    zero vectors, the degree step among them, never lower a least degree."""
    n = codec.orbits

    @cache
    def moves(mask: int) -> list[tuple[int, int]]:
        monoid = monoids[frozenset(i for i in range(n) if mask >> i & 1)]
        return [(codec.delta(v) // n, gd) for gd, v in monoid.generators if any(v)]

    return lambda state: [(state, c, gd) for c, gd in moves(state & (1 << n) - 1)]


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
    codec: VertexCodec, rows, bound: int, exhaustive: bool
) -> GradedModuleGens:
    """The generators of the rows (d, orbit, cells) with d <= bound.

    A cell gives the generator (d, vertex), or (i, vertex) for every
    d <= i <= bound when exhaustive.  The cells of all rows are decoded in
    one call of `VertexCodec.coords`, and the generators are sorted as
    (degree, orbit, coord) tuples, the order of (degree, PeriodicVertex).
    """
    heads, cells = [], []
    for d, orbit, row in rows:
        if d <= bound:
            heads += [(d, orbit)] * len(row)
            cells += row
    gens = sorted(
        (i, orbit, coord)
        for (d, orbit), coord in zip(heads, codec.coords(cells))
        for i in (range(d, bound + 1) if exhaustive else (d,))
    )
    return GradedModuleGens(tuple((d, PeriodicVertex(o, c)) for d, o, c in gens))


def _key_rows(codec: VertexCodec, group):
    """The packed (key, d) of a Dial search as one-cell rows (d, orbit, cells)."""
    n = codec.orbits
    return ((d, key % n, (key // n,)) for key, d in group)


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
    return _module_gens(codec, _key_rows(codec, group), bound, False)


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

    Monoids read distinct cycle records, and two searches run at the radius:
    the support-graded search and one module search over (subset, vertex)
    states, seeded with every subset's module generators at their degrees,
    where a state of S steps by the moving generators of the monoid of S.
    Every walk has some exact support, so d(x0, y) is the least over the
    support masks of the support-graded distances at y, and the target is
    read off that search.  Every map is kept on the packed keys of one
    `ball.VertexCodec`, sized by the edges and every monoid generator, so
    all of them stay exact.  When `ball.rows_fit` admits 2^n + 4 row sets
    (the target, the union, the 2^n support masks, and one subset's
    cumulative support rows and module rows), the maps are held as bit rows
    and each search is one seeded `ball.first_reach_rows` call
    (`_cover_on_rows`); otherwise they are dicts filled by Dial searches
    (`_cover_on_dial`).  Both give the same report.  Keys are decoded to
    `PeriodicVertex` only for the module generators, whose cells are read a
    row at a time and decoded together by the one decoder
    `VertexCodec.coords`, and for the `missing` and `extra` witnesses and
    the action witnesses.  `cap` bounds the nodes each search holds, seeds
    included: the support-graded states and the module search's (subset,
    vertex) states summed over the subsets (not the pairs).  The
    support-graded search holds at least one state per ball vertex, so a
    ball past the cap stops it.  On a sound cover the module of S reaches
    the ends of the walks of support exactly S, so the module search holds
    as many nodes as the support-graded one and is never the first to
    reach the cap.  The report also carries, per S, the monoid, the module
    generators (as `build_MS` and `build_XS_generators` give them, with the
    degree bound cut to the radius) and the `verify_module_action` report.
    """
    if g.num_orbits > orbit_guard:
        raise GuardError(
            f"{g.num_orbits} orbits exceed the subset guard of {orbit_guard}"
        )
    cycles = enumerate_cycles(g, cap=cycle_cap)
    monoids = {S: _monoid(g.dim, S, cycles) for S in all_support_sets(g)}
    moves = {gen for monoid in monoids.values() for gen in monoid.generators}
    codec = vertex_codec(g, x0, radius, moves)
    cover = _cover_on_rows if rows_fit(codec, 2**g.num_orbits + 4, cap) else _cover_on_dial
    return cover(g, codec, monoids, exhaustive, cap)


def _cover_on_dial(
    g: QuotientGraph, codec: VertexCodec, monoids, exhaustive: bool, cap: int
) -> CoverReport:
    """`verify_cover` by least-degree dicts: the support-graded search, whose
    least distance per key over the support masks is the target, and one
    module search over the nodes key << n | mask.  That node is cell *
    (n << n) plus the `_module_steps` state orbit << n | mask, so the Dial
    lists the steps of up to n << n states, one per (orbit, mask) it
    reaches.  A module generator (key, d) of S starts at degree d."""
    n, radius = codec.orbits, codec.radius
    groups = _support_groups(g, codec, cap)
    target: dict[int, int] = {}
    for key, d in itertools.chain.from_iterable(groups.values()):
        if target.get(key, d + 1) > d:
            target[key] = d
    starts, pairs, blocks = [], {}, []
    for S, monoid in monoids.items():
        group = groups.get(S, [])
        bound = min(module_degree_bound(g, S), radius)
        mask = sum(1 << i for i in S)
        starts += [(key << n | mask, d) for key, d in group if d <= bound]
        pairs[mask] = 0  # module pairs per mask, in the order of monoids
        gens = _module_gens(codec, _key_rows(codec, group), bound, exhaustive)
        blocks.append((S, monoid, gens, _action(codec, group, monoid, radius)))
    steps = _module_steps(codec, monoids)
    module = dial_distances(
        starts, n << n, steps, radius, cap=cap, cap_what="module saturation"
    )
    union: dict[int, int] = {}
    for node, d in module.items():
        pairs[node & (1 << n) - 1] += radius - d + 1
        if union.get(node >> n, d + 1) > d:
            union[node >> n] = d
    ok = union == target
    return CoverReport(
        ok=ok,
        radius=radius,
        covered=sum(radius - d + 1 for d in target.values()),
        missing=() if ok else _witnesses(codec, target, union, radius),
        extra=() if ok else _witnesses(codec, union, target, radius),
        module_sizes=dict(zip(monoids, pairs.values())),
        blocks=tuple(blocks),
    )


def _cover_on_rows(
    g: QuotientGraph, codec: VertexCodec, monoids, exhaustive: bool, cap: int
) -> CoverReport:
    """`verify_cover` on bit rows over the cells key // orbits.

    Each search is one `ball.first_reach_rows` call over the steps the Dial
    takes: the exact-support rows F_S of every support mask from one
    search over the `_support_steps` states orbit << n | mask, whose rows
    ORed per orbit over the masks are the target's; and one module search
    by `_module_steps`, seeded with every F_S up to the degree bound of S,
    its rows read as they arrive and not stored.  The target and the union
    of the modules are compared as cumulative rows, row d the cells of
    least degree <= d, and `covered` counts their bits.  Cap errors keep the Dial
    texts and order: support-graded states, then modules.
    """
    n, radius = codec.orbits, codec.radius
    low = (1 << n) - 1
    base = codec.base.orbit
    start = (0, base << n | 1 << base, 1 << codec.encode(codec.base) // n)
    steps = partial(_support_steps, g, codec)
    search = first_reach_rows(codec, [start], steps, cap=cap, cap_what="support-graded ball")
    first: dict[int, dict[int, list[int]]] = {}  # mask -> {orbit: F_S rows}
    target = [[0] * (radius + 1) for _ in range(n)]  # exact rows per orbit
    for state, rows in sorted(_exact_rows(search, radius).items()):  # by orbit first
        first.setdefault(state & low, {})[state >> n] = rows
        target[state >> n] = list(map(or_, target[state >> n], rows))
    target = [list(accumulate(rows, or_)) for rows in target]

    seeds, pairs, blocks = [], {}, []
    for S, monoid in monoids.items():
        mask = sum(1 << i for i in S)
        exact = first.get(mask, {})
        bound = min(module_degree_bound(g, S), radius)
        part = [
            (d, orbit << n | mask, bits)
            for orbit, rows in exact.items()
            for d, bits in enumerate(rows[: bound + 1])
            if bits
        ]
        seeds += part
        pairs[mask] = 0  # module pairs per mask, in the order of monoids
        rows = [(d, s >> n, list(_cells(bits))) for d, s, bits in part]
        gens = _module_gens(codec, rows, bound, exhaustive)
        blocks.append((S, monoid, gens, _row_action(codec, exact, monoid)))
    steps = _module_steps(codec, monoids)
    search = first_reach_rows(codec, seeds, steps, cap=cap, cap_what="module saturation")
    union = [[0] * (radius + 1) for _ in range(n)]  # exact rows per orbit
    for d, (_, fresh) in enumerate(search):
        for state, bits in fresh.items():
            pairs[state & low] += bits.bit_count() * (radius - d + 1)
            union[state >> n][d] |= bits
    union = [list(accumulate(rows, or_)) for rows in union]
    ok = union == target
    return CoverReport(
        ok=ok,
        radius=radius,
        covered=sum(bits.bit_count() for rows in target for bits in rows),
        missing=() if ok else _row_witnesses(codec, target, union),
        extra=() if ok else _row_witnesses(codec, union, target),
        module_sizes=dict(zip(monoids, pairs.values())),
        blocks=tuple(blocks),
    )


def _exact_rows(search, radius: int) -> dict[int, list[int]]:
    """The exact rows of a `first_reach_rows` search: rows[state][d], the
    cells first reached at d."""
    rows: dict[int, list[int]] = {}
    for d, (_, fresh) in enumerate(search):
        for state, bits in fresh.items():
            if state not in rows:  # allocate once per state, not per distance
                rows[state] = [0] * (radius + 1)
            rows[state][d] = bits
    return rows


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
    cell delta of v and cumulative the OR of the rows up to each degree;
    only a row with failing elements is read cell by cell.  Orbit leads the
    vertex order, so the witness comes from the first orbit that fails.
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
                if rows[d] and (bits := rows[d] & ~shift(cum[d + gd], -(delta // n)))
                for cell in _cells(bits)
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
