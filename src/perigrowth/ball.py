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
(2 * R * S_i + 1).  S_i is the largest of max |shift_i| over all edge
orbits and ceil(|vec_i| / g) over every move (g, vec) of degree g >= 1.
An edge orbit or a move is then a precomputed integer delta (dst - src plus
its shift dotted with the strides), and following it is one integer
addition.  Since stride_0 is the number of orbits, key % orbits is the
orbit, so the Dial kernel reads a vertex's steps from a table with one
class per orbit: that orbit's out-edge deltas, grouped by weight.

No-carry invariant: every edge weighs at least 1, so a walk of weight at
most R has at most R edges and moves coordinate i by at most R * S_i from
the base.  A module element of degree at most R is the end of such a walk
plus moves of total degree at most R, and each move of degree g shifts
axis i by at most g * S_i, so it too stays within R * S_i of the base.
Each digit therefore stays in [0, 2 * R * S_i], never carries into its
neighbour, and the encoding is exact.  Keys are decoded to `PeriodicVertex`
only where results leave the searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, NamedTuple

from ._dial import dial_distances, step_table
from .errors import CoverageError, InputError
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
    componentwise; counts_cumulative[a] counts those bounded by a.
    """

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
        coord = tuple(
            key // t % span - o + b
            for t, span, o, b in zip(self.strides, self.spans, self.offsets, self.base.coord)
        )
        return PeriodicVertex(key % self.orbits, coord)


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
    offsets, spans, strides = [], [], []
    stride = g.num_orbits
    for axis in range(g.dim):
        per_degree = max((abs(e.shift[axis]) for e in g.edges), default=0)
        for deg, vec in moves:
            per_degree = max(per_degree, -(-abs(vec[axis]) // deg))
        reach = radius * per_degree
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
    table = step_table(
        [(e.dst - e.src + codec.delta(e.shift), e.weight) for e in g.out_edges(orbit)]
        for orbit in range(codec.orbits)
    )
    return dial_distances(
        [(codec.encode(codec.base), 0)],
        table,
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
    """Number of vertices at each exact distance 0..radius."""
    dist = packed_distances(g, vertex_codec(g, x0, radius), cap=cap)
    terms = [0] * (radius + 1)
    for d in dist.values():
        terms[d] += 1
    return tuple(terms)


def graded_growth_slice(
    g: QuotientGraph,
    x0: PeriodicVertex,
    radius: int,
    *,
    cap: int = DEFAULT_BALL_CAP,
) -> set[tuple[int, PeriodicVertex]]:
    """The pairs (i, y) with d(x0, y) <= i <= radius."""
    dm = distances_upto(g, x0, radius, cap=cap)
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
    exact: dict[tuple[int, ...], int] = {}
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
        key = tuple(degs)
        if all(a <= b for a, b in zip(key, box)):
            exact[key] = exact.get(key, 0) + 1
    # cumulative counts B = S / prod_i (1 - z_i), S the exact counts
    units = tuple(
        (tuple(int(i == j) for j in range(arity)), 1) for i in range(arity)
    )
    cumulative = expand_mv_series(
        MultivariateRationalSeries(arity, exact, units, tuple(box)), box
    )
    return RelativeCountTable(exact, cumulative)
