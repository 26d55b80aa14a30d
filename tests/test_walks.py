import random

import pytest

from perigrowth.periodic_graph import PeriodicVertex, parse_periodic_graph
from perigrowth.series import default_denominator
from perigrowth.walks import (
    Cycle,
    chain_of_walk,
    cycle_weights,
    enumerate_cycles,
    mu,
    support,
)

from conftest import SEED
from oracles import brute_force_cycles, lift_endpoint

# three orbits with parallel edges and a loop, for permutation-heavy cases
TRIANGLE_TEXT = """
dim 1
vertex a
vertex b
vertex c
edge a b 0 1
edge a b 1 1
edge b c 0 1
edge c a 0 1
edge b a 0 1
edge c c 2 1
"""


@pytest.fixture(scope="module")
def triangle():
    return parse_periodic_graph(TRIANGLE_TEXT)


def test_cycles_square(square):
    cycles = enumerate_cycles(square)
    assert len(cycles) == 4
    assert all(len(c.edges) == 1 for c in cycles)


def test_cycles_honeycomb(honeycomb):
    cycles = enumerate_cycles(honeycomb)
    assert len(cycles) == 9
    assert all(len(c.edges) == 2 for c in cycles)


def test_cycle_weights_keep_one_entry_per_cycle(triangle):
    # the two parallel a -> b edges give two cycles of each weight 2 and 3
    assert cycle_weights(triangle) == [len(c) for c in enumerate_cycles(triangle)]
    assert sorted(cycle_weights(triangle)) == [1, 2, 2, 3, 3]
    assert default_denominator(triangle) == ((1, 2), (2, 2), (3, 2))


def test_cycles_empty_graph():
    g = parse_periodic_graph("dim 1\nvertex v\n")
    assert enumerate_cycles(g) == []


def test_cycles_match_brute_force(square, honeycomb, z_pm, triangle):
    for g in (square, honeycomb, z_pm, triangle):
        expected = brute_force_cycles(g, g.num_orbits)
        got = {c.edges for c in enumerate_cycles(g)}
        assert got == expected


def test_chain_of_walk(triangle):
    # edge ids: 0, 1 a->b; 2 b->c; 3 c->a; 4 b->a; 5 the loop at c
    cycles = {c.edges: c for c in enumerate_cycles(triangle)}
    assert chain_of_walk(cycles[(0, 2, 3)]) == {0: 1, 2: 1, 3: 1}
    assert chain_of_walk(cycles[(1, 4)]) == {1: 1, 4: 1}
    assert chain_of_walk(cycles[(5,)]) == {5: 1}


def test_mu_single_loop(square):
    assert mu(square, {0: 1}) == (1, 0)


def test_mu_two_cycle_matches_lift(honeycomb):
    cycle = Cycle((1, 3))  # a->b shift (1,0), b->a shift (0,0)
    displacement = mu(honeycomb, chain_of_walk(cycle))
    start = PeriodicVertex(honeycomb.edges[cycle.edges[0]].src, (0, 0))
    orbit, end = lift_endpoint(honeycomb, cycle.edges, start)
    assert orbit == start.orbit
    assert displacement == tuple(e - s for e, s in zip(end, start.coord))
    assert displacement == (1, 0)


def test_mu_opposite_loops_cancel(square):
    assert mu(square, {0: 1, 1: 1}) == (0, 0)


def test_mu_equals_lift_displacement_for_all_cycles(square, honeycomb, z_pm, triangle):
    rng = random.Random(SEED)
    for g in (square, honeycomb, z_pm, triangle):
        for cycle in enumerate_cycles(g):
            start_orbit = g.edges[cycle.edges[0]].src
            x0 = PeriodicVertex(
                start_orbit, tuple(rng.randint(-4, 4) for _ in range(g.dim))
            )
            _, end = lift_endpoint(g, cycle.edges, x0)
            displacement = tuple(e - s for e, s in zip(end, x0.coord))
            assert displacement == mu(g, chain_of_walk(cycle))


def test_mu_rejects_non_homology(honeycomb):
    with pytest.raises(ValueError, match="homology"):
        mu(honeycomb, {0: 1})  # a single a->b edge has nonzero boundary


def test_support(triangle):
    cycles = {c.edges: c for c in enumerate_cycles(triangle)}
    assert support(triangle, cycles[(0, 4)]) == {0, 1}
    assert support(triangle, cycles[(1, 2, 3)]) == {0, 1, 2}
    assert support(triangle, cycles[(5,)]) == {2}
