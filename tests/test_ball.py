import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigrowth.ball import (
    distances_upto,
    graded_growth_slice,
    growth_sequence,
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

from conftest import SEED
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
    terms = growth_sequence(square, PeriodicVertex(0, (0, 0)), 200)
    assert list(terms) == [1] + [4 * k for k in range(1, 201)]


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
            max_size=4,
        )
    )
    if draw(st.booleans()):  # inverse-closed: every edge has its reverse
        edges += [(dst, src, tuple(-s for s in shift), w) for src, dst, shift, w in edges]
    base = (draw(st.integers(0, n - 1)), draw(st.tuples(*[st.integers(-5, 5)] * dim)))
    return dim, n, edges, base, draw(st.integers(0, 5))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(cover_balls())
def test_ball_matches_heap_dijkstra(case):
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
    assert list(growth_sequence(g, x0, radius)) == terms


@pytest.mark.parametrize(
    "moves, reach",
    [
        pytest.param((), (3, 3), id="edges"),
        # ceil(5/3) = 2 per degree on the first axis, the edges' 1 on the second
        pytest.param({(3, (-5, 2))}, (6, 3), id="slow-move"),
        pytest.param({(1, (7, 7)), (1, (-5, 2))}, (21, 21), id="fast-moves"),
        # a move that stays put, of any degree, leaves the layout alone
        pytest.param({(0, (0, 0)), (2, (0, 0))}, (3, 3), id="degree-0"),
    ],
)
def test_codec_round_trips_at_the_radius_edge(honeycomb, moves, reach):
    # every corner base +- reach of the radius-3 box, on every orbit, around
    # a base with negative coordinates
    base = PeriodicVertex(1, (-4, -7))
    codec = vertex_codec(honeycomb, base, 3, moves)
    keys = set()
    for orbit in range(honeycomb.num_orbits):
        for signs in itertools.product((-1, 0, 1), repeat=2):
            coord = tuple(b + s * r for b, s, r in zip(base.coord, signs, reach))
            v = PeriodicVertex(orbit, coord)
            key = codec.encode(v)
            assert codec.decode(key) == v
            keys.add(key)
    assert len(keys) == 2 * 9


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
