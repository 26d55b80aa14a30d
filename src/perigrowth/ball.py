"""Weighted ball expansion in the infinite cover.

Distances are exact shortest walk weights from a base vertex; everything
else here (growth sequences, the graded growth set, multivariate relative
counts) is a reindexing of one distance map.  Unreachable vertices are
simply absent, matching the convention that an infinite distance
contributes nothing to any series.

Every search over the cover, here and in the decomposition, runs on packed
integers, one per cover vertex, in a mixed-radix layout (`VertexCodec`)
fixed by the graph, the radius R and any lattice moves the search takes
besides the edges:

    key = orbit + sum_i (coord_i - base_i + R * S_i) * stride_i

where stride_0 is the number of orbits and stride_{i+1} = stride_i *
(2 * R * S_i + 1).  S_i is the largest ceil(|vec_i| / g) over every move
(g, vec) of degree g >= 1, each edge orbit counted as the move (weight,
shift).  An edge orbit or a move is then a precomputed integer delta (dst -
src plus its shift dotted with the strides), and following it is one
integer addition.  Since stride_0 is the number of orbits, key % orbits is
the orbit, so the Dial kernel takes one step class per orbit: that orbit's
out-edge deltas, listed when the search first settles a vertex of it.
Sets that are upward closed in distance can instead be held as bit rows of
the cells key // orbits, one row per state and distance, where an edge or
a monoid generator is a shift by its cell delta; every such search, module
saturation included, is one seeded `first_reach_rows` call.  `rows_fit`
decides which is used, from the layout and the cap alone: `growth_sequence`
counts shells on rows, and `decomposition.verify_cover` checks the cover on
them, when it holds, and both fall back to the Dial otherwise.  Every other
search that needs distances runs on the Dial.

No-carry invariant: every vertex a search reaches is the end of edges and
moves of total degree at most R, each shifting axis i by at most its degree
times S_i, so each digit stays in [0, 2 * R * S_i], never carries into its
neighbour, and the encoding is exact.  Keys are decoded to `PeriodicVertex`
only where results leave the searches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import prod
from operator import le, mul
from typing import Callable, Iterable, Iterator, NamedTuple

from ._dial import dial_distances
from .errors import CoverageError, InputError, ResourceLimitError
from .periodic_graph import PeriodicVertex, QuotientGraph, Vector, validate
from .series import MultivariateRationalSeries, expand_mv_series

DEFAULT_BALL_CAP = 10_000_000


@dataclass(frozen=True)
class DistanceMap:
    """All vertices within weighted distance `radius` of `base`."""

    base: PeriodicVertex
    radius: int
    entries: dict[PeriodicVertex, int]

    def distance(self, v: PeriodicVertex) -> int | None:
        return self.entries.get(v)

    def check_radius(self, radius: int) -> None:
        """Raise ValueError unless this ball reaches the given radius."""
        if self.radius < radius:
            raise ValueError(f"needs a ball of radius {radius}, got {self.radius}")


@dataclass(frozen=True)
class RelativeCountTable:
    """Exact per-multidegree counts of a tuple set, at and below each degree.

    counts_exact[a] counts tuples whose coordinate distances equal a
    componentwise; counts_cumulative[a] counts those bounded by a, for
    every a in the box.
    """

    box: tuple[int, ...]
    counts_exact: dict[tuple[int, ...], int]
    counts_cumulative: dict[tuple[int, ...], int]


class VertexCodec(NamedTuple):
    """The mixed-radix layout of the cover vertices a search from `base` reaches."""

    base: PeriodicVertex
    radius: int
    orbits: int
    offsets: tuple[int, ...]
    spans: tuple[int, ...]
    strides: tuple[int, ...]

    def delta(self, vec: Vector) -> int:
        """The packed delta of the lattice move vec."""
        return sum(map(mul, vec, self.strides))

    def encode(self, v: PeriodicVertex) -> int:
        return v.orbit + sum(
            (c - b + o) * t
            for c, b, o, t in zip(v.coord, self.base.coord, self.offsets, self.strides)
        )

    def decode(self, key: int) -> PeriodicVertex:
        return PeriodicVertex(key % self.orbits, self.coord(key))

    def coord(self, key: int) -> Vector:
        """The lattice coordinate of the packed key; every decode runs through here."""
        return tuple(
            key // t % span - o + b
            for t, span, o, b in zip(self.strides, self.spans, self.offsets, self.base.coord)
        )


def vertex_codec(
    g: QuotientGraph,
    x0: PeriodicVertex,
    radius: int,
    moves: Iterable[tuple[int, Vector]] = (),
) -> VertexCodec:
    """The layout for searches of weight or degree <= radius from x0.

    `moves` lists the (degree, vector) lattice moves the searches take
    besides the edges; see the module docstring for the bound they enter.
    A move with a zero vector is ignored; any other needs degree at least 1.
    """
    if radius < 0:
        raise InputError("radius must be nonnegative")
    report = validate(g)
    if report:
        raise ValueError("; ".join(report))
    if not 0 <= x0.orbit < g.num_orbits or len(x0.coord) != g.dim:
        raise ValueError(f"base {x0} is not a vertex of the cover")
    moves = {(deg, vec) for deg, vec in moves if any(vec)}
    if any(len(vec) != g.dim for _, vec in moves):
        raise ValueError(f"a move's vector length does not match dimension {g.dim}")
    if any(deg < 1 for deg, _ in moves):
        raise ValueError("a move that changes the vertex needs degree at least 1")
    # an edge orbit is a move whose degree is its weight
    moves |= {(e.weight, e.shift) for e in g.edges}
    offsets, spans, strides = [], [], []
    stride = g.num_orbits
    for axis in range(g.dim):
        reach = radius * max((-(-abs(vec[axis]) // deg) for deg, vec in moves), default=0)
        offsets.append(reach)
        spans.append(2 * reach + 1)
        strides.append(stride)
        stride *= spans[-1]
    return VertexCodec(
        x0, radius, g.num_orbits, tuple(offsets), tuple(spans), tuple(strides)
    )


def packed_distances(
    g: QuotientGraph, codec: VertexCodec, *, cap: int = DEFAULT_BALL_CAP
) -> dict[int, int]:
    """Dial search over packed keys: key -> distance <= codec.radius."""
    return dial_distances(
        [(codec.encode(codec.base), 0)],
        codec.orbits,
        lambda orbit: [
            (e.dst - e.src + codec.delta(e.shift), e.weight) for e in g.out_edges(orbit)
        ],
        codec.radius,
        cap=cap,
        cap_what="ball size",
    )


def distances_upto(
    g: QuotientGraph,
    x0: PeriodicVertex,
    radius: int,
    *,
    cap: int = DEFAULT_BALL_CAP,
) -> DistanceMap:
    """Exact distances from x0 to every vertex within the given radius."""
    codec = vertex_codec(g, x0, radius)
    dist = packed_distances(g, codec, cap=cap)
    return DistanceMap(x0, radius, {codec.decode(k): d for k, d in dist.items()})


def growth_sequence(
    g: QuotientGraph,
    x0: PeriodicVertex,
    radius: int,
    *,
    cap: int = DEFAULT_BALL_CAP,
) -> tuple[int, ...]:
    """Number of vertices at each exact distance 0..radius.

    The shells are counted as bit rows (`_shell_counts`) when `rows_fit`
    admits one row set, and otherwise from the Dial ball,
    `packed_distances`: on a 1-D cover a shell holds a few vertices and
    the rows would cost more than the search.  The worst case the rule
    admits is a rank-1 graph drawn in the plane: at the default cap the
    steps +-(1, 1) at radius 542 fill 543 * 1085^2, about 6.4e8 bits, for a
    ball of only 1,085 vertices.  Either way a ball of more than `cap`
    vertices raises ResourceLimitError.
    """
    codec = vertex_codec(g, x0, radius)
    if rows_fit(codec, 1, cap):
        return tuple(_shell_counts(g, codec, cap))
    terms = [0] * (radius + 1)
    for d in packed_distances(g, codec, cap=cap).values():
        terms[d] += 1
    return tuple(terms)


def rows_fit(codec: VertexCodec, row_sets: int, cap: int) -> bool:
    """Whether a search over `codec` runs on bit rows rather than the Dial.

    A row set is (radius + 1) * orbits rows of one bit per cell.  Rows are
    used when (a) at least two codec axes have span > 1, so shells grow
    with the radius, and (b) the `row_sets` row sets the caller holds at
    once fit in 64 * cap bits, which bounds their memory and word
    operations by the cap.
    """
    return (
        sum(span > 1 for span in codec.spans) >= 2
        and (codec.radius + 1) * codec.orbits * prod(codec.spans) * row_sets <= 64 * cap
    )


def first_reach_rows(
    codec: VertexCodec,
    starts: Iterable[tuple[int, int, int]],
    steps: Callable[[int], list[tuple[int, int, int]]],
    *,
    cap: int,
    cap_what: str,
) -> Iterator[tuple[int, dict[int, int]]]:
    """Per distance 0..codec.radius, the cells each state first reaches there.

    A state is an int with one row per pending distance, bit k set when
    cell k (key // orbits) is reached in it there.  Each start (d0, state,
    bits) seeds those cells at distance d0; as in `dial_distances`, starts
    beyond the radius are dropped and a cell seeded twice keeps its least
    distance.  State s steps into state t at weight w >= 1, shifting its row
    by the cell delta c, for each (t, c, w) in steps(s), asked for once per
    state; by the no-carry invariant no shift crosses a digit or falls off
    bit 0.  Yields (count, {state: bits}) per distance, the cells new to
    their state.  Raises ValueError for a negative start distance and
    ResourceLimitError once more than `cap` (cell, state) pairs, seeds
    included, are reached.
    """
    radius = codec.radius
    full = (1 << prod(codec.spans)) - 1
    unseen: dict[int, int] = {}
    steps = cache(steps)
    pending: list = [{} for _ in range(radius + 1)]
    for d0, state, bits in starts:
        if d0 < 0:
            raise ValueError(f"negative start distance {d0}")
        if d0 <= radius:
            pending[d0][state] = pending[d0].get(state, 0) | bits
    total = 0
    for d in range(radius + 1):
        row, pending[d] = pending[d], None  # free the rows once they are read
        fresh = {}
        size = 0
        for state, bits in row.items():
            bits &= unseen.get(state, full)
            if not bits:
                continue
            unseen[state] = unseen.get(state, full) ^ bits
            fresh[state] = bits
            size += bits.bit_count()
            if total + size > cap:
                raise ResourceLimitError(f"{cap_what} exceeded {cap} nodes; raise the cap")
            for t, c, w in steps(state):
                if d + w <= radius:
                    target = pending[d + w]
                    target[t] = target.get(t, 0) | shift(bits, c)
        total += size
        yield size, fresh


def shift(bits: int, cells: int) -> int:
    """The row bits moved up by `cells` (down when negative)."""
    return bits << cells if cells >= 0 else bits >> -cells


def ball_rows(
    g: QuotientGraph, codec: VertexCodec, cap: int
) -> Iterator[tuple[int, dict[int, int]]]:
    """`first_reach_rows` of the ball: one state per orbit, the shells per distance."""

    def steps(orbit: int):
        return [
            (e.dst, codec.delta(e.shift) // codec.orbits, e.weight)
            for e in g.out_edges(orbit)
        ]

    start = (0, codec.base.orbit, 1 << codec.encode(codec.base) // codec.orbits)
    return first_reach_rows(codec, [start], steps, cap=cap, cap_what="ball size")


def _shell_counts(g: QuotientGraph, codec: VertexCodec, cap: int) -> list[int]:
    """Shell sizes 0..codec.radius, counted on bit rows."""
    return [size for size, _ in ball_rows(g, codec, cap)]


def graded_growth_slice(
    g: QuotientGraph, x0: PeriodicVertex, radius: int
) -> set[tuple[int, PeriodicVertex]]:
    """The pairs (i, y) with d(x0, y) <= i <= radius, from a ball of at most
    `DEFAULT_BALL_CAP` vertices."""
    dm = distances_upto(g, x0, radius)
    return {
        (i, y)
        for y, d in dm.entries.items()
        for i in range(d, radius + 1)
    }


def relative_counts(
    dm: DistanceMap,
    tuples: list[tuple[PeriodicVertex, ...]],
    box: tuple[int, ...],
) -> RelativeCountTable:
    """Count tuples by per-coordinate distance in the ball `dm` over the box.

    The ball's radius must reach max(box).  The supplied enumeration must
    be exactly the within-ball truncation of the counted set: any
    coordinate outside the ball is a producer bug and raises rather than
    silently truncating.
    """
    if not box:
        raise ValueError("box must have at least one coordinate")
    arity = len(box)
    if any(b < 0 for b in box):
        raise ValueError("box bounds must be nonnegative")
    dm.check_radius(max(box))
    weights = []
    for tup in tuples:
        if len(tup) != arity:
            raise ValueError(f"tuple arity {len(tup)} does not match box arity {arity}")
        degs = []
        for y in tup:
            d = dm.distance(y)
            if d is None:
                raise CoverageError(
                    f"tuple coordinate {y} lies outside the radius-{dm.radius} ball"
                )
            degs.append(d)
        weights.append(tuple(degs))
    return count_table(weights, box)


def count_table(
    weights: Iterable[tuple[int, ...]], box: tuple[int, ...]
) -> RelativeCountTable:
    """The table of the weight tuples, one per counted tuple, inside the box."""
    exact = dict(Counter(w for w in weights if all(map(le, w, box))))
    # cumulative counts B = S / prod_i (1 - z_i), S the exact counts
    arity = len(box)
    units = tuple(
        (tuple(int(i == j) for j in range(arity)), 1) for i in range(arity)
    )
    cumulative = expand_mv_series(
        MultivariateRationalSeries(arity, exact, units, box), box
    )
    return RelativeCountTable(box, exact, cumulative)
