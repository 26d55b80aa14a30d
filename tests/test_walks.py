import random

import pytest

from perigrowth.decomposition import _cycle_data
from perigrowth.periodic_graph import PeriodicVertex, parse_periodic_graph
from perigrowth.series import default_denominator
from perigrowth.walks import cycle_weights, enumerate_cycles

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
    assert all(len(c) == 1 for c in cycles)


def test_cycles_honeycomb(honeycomb):
    cycles = enumerate_cycles(honeycomb)
    assert len(cycles) == 9
    assert all(len(c) == 2 for c in cycles)


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
        got = set(enumerate_cycles(g))
        assert got == expected


def test_cycle_data_matches_lifts(square, honeycomb, z_pm, triangle):
    # each cycle's lift from a random start returns to its orbit, displaced
    # by what `_cycle_data` reports; support and weight read off the lift
    rng = random.Random(SEED)
    for g in (square, honeycomb, z_pm, triangle):
        cycles = enumerate_cycles(g)
        data = _cycle_data(g, 1_000_000)
        assert len(data) == len(cycles)
        for cycle, (sup, weight, displacement) in zip(cycles, data):
            x0 = PeriodicVertex(
                g.edges[cycle[0]].src,
                tuple(rng.randint(-4, 4) for _ in range(g.dim)),
            )
            ends = [lift_endpoint(g, cycle[:i], x0) for i in range(len(cycle) + 1)]
            orbit, coord = ends[-1]
            assert orbit == x0.orbit
            assert displacement == tuple(e - s for e, s in zip(coord, x0.coord))
            assert sup == {o for o, _ in ends}
            assert weight == sum(g.edges[eid].weight for eid in cycle)
