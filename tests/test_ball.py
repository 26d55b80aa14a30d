import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigrowth import ball
from perigrowth._dial import dial_distances
from perigrowth.ball import (
    _shell_counts,
    distances_upto,
    graded_growth_slice,
    growth_sequence,
    packed_distances,
    relative_counts,
    vertex_codec,
)
from perigrowth.errors import CoverageError, ResourceLimitError
from perigrowth.periodic_graph import (
    EdgeOrbit,
    PeriodicVertex,
    QuotientGraph,
    parse_periodic_graph,
    translate,
)

from conftest import SEED, data_text
from oracles import dijkstra_ball, honeycomb_patch_growth, square_lattice_count


def test_square_ball_radius_two(square):
    dm = distances_upto(square, PeriodicVertex(0, (0, 0)), 2)
    assert len(dm.entries) == 13
    by_distance = {}
    for v, d in dm.entries.items():
        by_distance[d] = by_distance.get(d, 0) + 1
        assert abs(v.coord[0]) + abs(v.coord[1]) == d
    assert by_distance == {0: 1, 1: 4, 2: 8}


def test_one_way_ball(z_oneway):
    dm = distances_upto(z_oneway, PeriodicVertex(0, (0,)), 3)
    assert dm.entries == {
        PeriodicVertex(0, (k,)): k for k in range(4)
    }


def test_weighted_edge_ball():
    g = parse_periodic_graph("dim 1\nvertex v\nedge v v 1 2\n")
    dm = distances_upto(g, PeriodicVertex(0, (0,)), 3)
    assert dm.entries == {
        PeriodicVertex(0, (0,)): 0,
        PeriodicVertex(0, (1,)): 2,
    }


def test_ball_cap():
    g = parse_periodic_graph("dim 1\nvertex v\nedge v v 1 1\nedge v v -1 1\n")
    with pytest.raises(ResourceLimitError):
        distances_upto(g, PeriodicVertex(0, (0,)), 100, cap=10)


def test_ball_cap_boundary(honeycomb):
    # the cap counts every vertex held, the base included
    x0, radius = PeriodicVertex(1, (2, -1)), 7
    size = len(distances_upto(honeycomb, x0, radius).entries)
    assert len(distances_upto(honeycomb, x0, radius, cap=size).entries) == size
    with pytest.raises(ResourceLimitError):
        distances_upto(honeycomb, x0, radius, cap=size - 1)
    with pytest.raises(ResourceLimitError):
        distances_upto(honeycomb, x0, 0, cap=0)


def test_square_growth_matches_hand_count(square):
    terms = growth_sequence(square, PeriodicVertex(0, (0, 0)), 50)
    assert list(terms) == [square_lattice_count(i) for i in range(51)]
    assert terms[:6] == (1, 4, 8, 12, 16, 20)


def test_honeycomb_growth_matches_patch_bfs(honeycomb):
    terms = growth_sequence(honeycomb, PeriodicVertex(0, (0, 0)), 50)
    assert list(terms) == honeycomb_patch_growth(50)
    assert terms[:6] == (1, 3, 6, 9, 12, 15)


def test_square_growth_large_radius(square):
    assert [square_lattice_count(k) for k in range(1, 21)] == [4 * k for k in range(1, 21)]
    terms = growth_sequence(square, PeriodicVertex(0, (0, 0)), 400)
    assert list(terms) == [1] + [4 * k for k in range(1, 401)]


@pytest.fixture
def dial_balls(monkeypatch):
    """The codec of every Dial ball `growth_sequence` runs from here on."""
    codecs = []

    def counted(g, codec, **kwargs):
        codecs.append(codec)
        return packed_distances(g, codec, **kwargs)

    monkeypatch.setattr(ball, "packed_distances", counted)
    return codecs


@pytest.mark.parametrize(
    "radius, dial_runs",
    [
        # 31 * 61^2 <= 64 * 1860: rule (b) holds one vertex below the ball
        pytest.param(30, 0, id="bit-rows"),
        # 201 * 401^2 > 64 * 80401: rule (b) sends the count to the Dial
        pytest.param(200, 1, id="dial"),
    ],
)
def test_growth_cap_boundary(square, dial_balls, radius, dial_runs):
    # both counting paths hold a ball of exactly `cap` vertices and raise
    # the same error one vertex below it
    size = 2 * radius * (radius + 1) + 1
    origin = PeriodicVertex(0, (0, 0))
    assert sum(growth_sequence(square, origin, radius, cap=size)) == size
    assert len(dial_balls) == dial_runs
    with pytest.raises(
        ResourceLimitError, match=rf"^ball size exceeded {size - 1} nodes; raise the cap$"
    ):
        growth_sequence(square, origin, radius, cap=size - 1)


def test_one_dimensional_growth_keeps_the_dial(z_pm, dial_balls):
    # rule (a): a single axis of span > 1 keeps the count on the Dial ball
    assert growth_sequence(z_pm, PeriodicVertex(0, (0,)), 400) == (1,) + (2,) * 400
    assert len(dial_balls) == 1


def test_honeycomb_growth_large_radius(honeycomb):
    terms = growth_sequence(honeycomb, PeriodicVertex(0, (0, 0)), 200)
    assert list(terms) == honeycomb_patch_growth(200)


@st.composite
def cover_balls(draw):
    """A random quotient graph, a base vertex away from the origin, a radius."""
    dim = draw(st.integers(0, 3))
    n = draw(st.integers(1, 3))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.tuples(*[st.integers(-2, 2)] * dim),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=5,
        )
    )
    if draw(st.booleans()):  # inverse-closed: every edge has its reverse
        edges += [(dst, src, tuple(-s for s in shift), w) for src, dst, shift, w in edges]
    base = (draw(st.integers(0, n - 1)), draw(st.tuples(*[st.integers(-5, 5)] * dim)))
    return dim, n, edges, base, draw(st.integers(0, 10))


# unit square steps beside a long heavy edge that shortens walks to the left:
# ceil(7 / 3) = 3 cells per weight on the first axis, not 7
HEAVY_EDGE = (
    2,
    1,
    [(0, 0, (1, 0), 1), (0, 0, (-1, 0), 1), (0, 0, (0, 1), 1), (0, 0, (0, -1), 1),
     (0, 0, (-7, 3), 3)],
    (0, (3, -2)),
    10,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cover_balls())
@example(HEAVY_EDGE)
def test_ball_matches_heap_dijkstra(case):
    # the Dial ball, and both shell counters called directly, whatever
    # rules (a) and (b) would pick
    dim, n, edges, base, radius = case
    g = QuotientGraph(
        dim,
        tuple(f"o{i}" for i in range(n)),
        tuple(EdgeOrbit(i, *e) for i, e in enumerate(edges)),
    )
    expected = dijkstra_ball(edges, base, radius)
    x0 = PeriodicVertex(*base)
    entries = distances_upto(g, x0, radius).entries
    assert {(v.orbit, v.coord): d for v, d in entries.items()} == expected
    terms = [0] * (radius + 1)
    for d in expected.values():
        terms[d] += 1
    codec = vertex_codec(g, x0, radius)
    dial_terms = [0] * (radius + 1)
    for d in packed_distances(g, codec).values():
        dial_terms[d] += 1
    assert dial_terms == terms
    assert _shell_counts(g, codec, len(expected)) == terms
    assert list(growth_sequence(g, x0, radius)) == terms


@st.composite
def seeded_row_searches(draw):
    """A 2-D step table over 1-3 states, a radius and seeds (d0, state, x, y).

    Each step is (target state, cell move, weight) with a move of at most
    `s` cells per axis and weight at least 1, so a seed at d0 lies within
    d0 * s of the centre and every walk from it stays within radius * s:
    the no-carry invariant holds on a grid of that reach.  Seed 0 is seeded
    again at a distance no lower, and the end of one of its steps is seeded
    one above the step's own arrival, when that is within the radius, so a
    shorter path supersedes it.
    """
    n = draw(st.integers(1, 3))
    move = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    table = draw(
        st.lists(
            st.lists(st.tuples(st.integers(0, n - 1), move, st.integers(1, 3)), max_size=3),
            min_size=n,
            max_size=n,
        )
    )
    radius = draw(st.integers(1, 7))
    s = max([1] + [abs(c) for out in table for _, vec, _ in out for c in vec])
    seeds = []
    for i in range(draw(st.integers(1, 4))):
        # beyond the radius only after the first: a seed there is dropped
        d0 = draw(st.integers(0, radius + (i > 0)))
        r = min(d0, radius) * s
        x, y = draw(st.integers(-r, r)), draw(st.integers(-r, r))
        seeds.append((d0, draw(st.integers(0, n - 1)), x, y))
    d0, state, x, y = seeds[0]
    seeds.append((draw(st.integers(d0, radius)), state, x, y))
    if table[state]:
        t, (dx, dy), w = draw(st.sampled_from(table[state]))
        if d0 + w < radius:
            seeds.append((d0 + w + 1, t, x + dx, y + dy))
    return n, table, radius, radius * s, seeds


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seeded_row_searches())
# two states: seed 0 again at distance 3, and its step's end at 3 is
# reached from it at 1
@example(
    (2, [[(1, (1, 0), 1)], [(0, (0, 1), 2)]], 4, 4, [(0, 0, 0, 0), (3, 0, 0, 0), (3, 1, 1, 0)])
)
def test_seeded_rows_match_multi_start_dial(case):
    # first_reach_rows and dial_distances, given the same steps, over the
    # same packed keys state + n * cell, cell = (x + reach) + span * (y + reach)
    n, table, radius, reach, seeds = case
    span = 2 * reach + 1
    codec = ball.VertexCodec(
        PeriodicVertex(0, (0, 0)), radius, n, (reach, reach), (span, span), (n, n * span)
    )

    def cell(x, y):
        return x + reach + span * (y + reach)

    starts = [(d0, state, 1 << cell(x, y)) for d0, state, x, y in seeds]

    def row_steps(state):
        return [(t, cell(dx, dy) - cell(0, 0), w) for t, (dx, dy), w in table[state]]

    def search(cap):
        return list(
            ball.first_reach_rows(codec, starts, row_steps, cap=cap, cap_what="seeded rows")
        )

    expected = dial_distances(
        [(state + n * cell(x, y), d0) for d0, state, x, y in seeds],
        n,
        row_steps,
        radius,
        cap=10**6,
        cap_what="test search",
    )
    got = {}
    for d, (count, fresh) in enumerate(search(len(expected))):
        keys = [
            state + n * k for state, bits in fresh.items() for k in range(span**2) if bits >> k & 1
        ]
        assert count == len(keys)
        got.update(dict.fromkeys(keys, d))
    assert got == expected
    # the cap counts the (state, cell) pairs reached, seeds included
    message = f"seeded rows exceeded {len(expected) - 1} nodes; raise the cap"
    with pytest.raises(ResourceLimitError, match=rf"^{message}$"):
        search(len(expected) - 1)


def test_seeded_rows_reject_a_negative_start_distance(square):
    codec = vertex_codec(square, PeriodicVertex(0, (0, 0)), 2)
    with pytest.raises(ValueError, match="negative start distance -1"):
        list(ball.first_reach_rows(codec, [(-1, 0, 1)], lambda _: [], cap=10, cap_what="rows"))


@pytest.mark.parametrize(
    "extra_edges, moves, reach",
    [
        pytest.param("", (), (3, 3), id="edges"),
        # ceil(5/3) = 2 per degree on the first axis, the edges' 1 on the second
        pytest.param("", {(3, (-5, 2))}, (6, 3), id="slow-move"),
        pytest.param("", {(1, (7, 7)), (1, (-5, 2))}, (21, 21), id="fast-moves"),
        # a move that stays put, of any degree, leaves the layout alone
        pytest.param("", {(0, (0, 0)), (2, (0, 0))}, (3, 3), id="degree-0"),
        # an edge is sized as a move whose degree is its weight: the long
        # heavy edge adds ceil(50/100) = 1 per degree, as the unit steps do
        pytest.param("edge a a 50 0 100\nedge b b -50 0 100\n", (), (3, 3), id="heavy-edge"),
    ],
)
def test_codec_round_trips_at_the_radius_edge(extra_edges, moves, reach):
    # every corner base +- reach of the radius-3 box, on every orbit, around
    # a base with negative coordinates
    g = parse_periodic_graph(data_text("honeycomb.pg") + extra_edges)
    base = PeriodicVertex(1, (-4, -7))
    codec = vertex_codec(g, base, 3, moves)
    assert codec.offsets == reach
    keys = set()
    for orbit in range(g.num_orbits):
        for signs in itertools.product((-1, 0, 1), repeat=2):
            coord = tuple(b + s * r for b, s, r in zip(base.coord, signs, reach))
            v = PeriodicVertex(orbit, coord)
            key = codec.encode(v)
            assert codec.decode(key) == v
            keys.add(key)
    assert len(keys) == 2 * 9


@st.composite
def codec_vertices(draw):
    """A random codec (a `cover_balls` graph, radius 0-6, extra moves) and
    vertices anywhere in its layout."""
    dim, n, edges, base, _ = draw(cover_balls())
    radius = draw(st.integers(0, 6))
    moves = draw(
        st.lists(st.tuples(st.integers(1, 3), st.tuples(*[st.integers(-4, 4)] * dim)))
    )
    g = QuotientGraph(
        dim,
        tuple(f"o{i}" for i in range(n)),
        tuple(EdgeOrbit(i, *e) for i, e in enumerate(edges)),
    )
    codec = vertex_codec(g, PeriodicVertex(*base), radius, moves)
    coords = st.tuples(*[st.integers(b - o, b + o) for b, o in zip(base[1], codec.offsets)])
    vertices = draw(st.lists(st.builds(PeriodicVertex, st.integers(0, n - 1), coords)))
    return codec, vertices


@settings(max_examples=200, derandomize=True, deadline=None)
@given(codec_vertices())
def test_bulk_decoder_round_trips(case):
    # the cells of encoded vertices decode to their coordinates, in order,
    # and single-key decode agrees
    codec, vertices = case
    keys = [codec.encode(v) for v in vertices]
    assert codec.coords([k // codec.orbits for k in keys]) == [v.coord for v in vertices]
    assert [codec.decode(k) for k in keys] == vertices


@pytest.mark.parametrize(
    "move",
    [
        pytest.param((0, (4, -1)), id="degree-0"),
        pytest.param((-1, (0, 1)), id="negative-degree"),
    ],
)
def test_codec_rejects_a_moving_move_below_degree_1(honeycomb, move):
    # a degree-0 move has no per-degree bound for the layout
    with pytest.raises(ValueError, match="degree at least 1"):
        vertex_codec(honeycomb, honeycomb.vertex(0), 3, {move})


def test_edgeless_growth():
    g = parse_periodic_graph("dim 1\nvertex v\n")
    terms = growth_sequence(g, PeriodicVertex(0, (0,)), 4)
    assert terms == (1, 0, 0, 0, 0)


def test_graded_slice_z_pm(z_pm):
    base = PeriodicVertex(0, (0,))
    pairs = graded_growth_slice(z_pm, base, 2)
    expected = {
        (i, PeriodicVertex(0, (k,)))
        for i in range(3)
        for k in range(-i, i + 1)
    }
    assert pairs == expected
    assert len(pairs) == 1 + 3 + 5


def test_graded_slice_monotone(square, honeycomb, z_pm, z_oneway):
    for g in (square, honeycomb, z_pm, z_oneway):
        base = g.vertex(0)
        pairs = graded_growth_slice(g, base, 6)
        for i, y in pairs:
            if i + 1 <= 6:
                assert (i + 1, y) in pairs


def test_graded_slice_size_identity(square, honeycomb, z_pm):
    for g in (square, honeycomb, z_pm):
        base = g.vertex(0)
        radius = 8
        pairs = graded_growth_slice(g, base, radius)
        terms = growth_sequence(g, base, radius)
        expected = sum(sum(terms[: i + 1]) for i in range(radius + 1))
        assert len(pairs) == expected


def test_translate_invariance(square, honeycomb):
    rng = random.Random(SEED)
    for g in (square, honeycomb):
        base = g.vertex(0)
        dm = distances_upto(g, base, 6)
        for _ in range(5):
            u = tuple(rng.randint(-4, 4) for _ in range(g.dim))
            moved = distances_upto(g, translate(base, u), 6)
            assert moved.entries == {
                translate(v, u): d for v, d in dm.entries.items()
            }


def test_relative_counts_diagonal(z_pm):
    base = PeriodicVertex(0, (0,))
    dm = distances_upto(z_pm, base, 3)
    diagonal = [(v, v) for v in dm.entries]
    table = relative_counts(dm, diagonal, (3, 3))
    for a in table.counts_exact:
        assert a[0] == a[1]
    assert table.counts_exact[(0, 0)] == 1
    for k in range(1, 4):
        assert table.counts_exact[(k, k)] == 2


def test_relative_counts_d1_collapse(square):
    base = square.vertex(0)
    dm = distances_upto(square, base, 6)
    table = relative_counts(dm, [(v,) for v in dm.entries], (6,))
    terms = growth_sequence(square, base, 6)
    for i in range(7):
        assert table.counts_exact.get((i,), 0) == terms[i]


def test_relative_counts_cumulative_identity(z_pm):
    base = PeriodicVertex(0, (0,))
    dm = distances_upto(z_pm, base, 4)
    pairs = [(v, w) for v in dm.entries for w in dm.entries]
    table = relative_counts(dm, pairs, (4, 4))
    for a1 in range(5):
        for a2 in range(5):
            total = sum(
                table.counts_exact.get((b1, b2), 0)
                for b1 in range(a1 + 1)
                for b2 in range(a2 + 1)
            )
            assert table.counts_cumulative[(a1, a2)] == total


def test_relative_counts_outside_ball_is_hard_error(z_pm):
    base = PeriodicVertex(0, (0,))
    outside = PeriodicVertex(0, (99,))
    with pytest.raises(CoverageError):
        relative_counts(distances_upto(z_pm, base, 3), [(outside,)], (3,))
