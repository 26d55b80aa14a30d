import random

import pytest

from perigrowth.periodic_graph import PeriodicVertex, parse_periodic_graph
from perigrowth.walks import (
    Cycle,
    QWalk,
    chain_of_walk,
    enumerate_cycles,
    mu,
    support,
    walk_orbits,
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


def test_cycles_empty_graph():
    g = parse_periodic_graph("dim 1\nvertex v\n")
    assert enumerate_cycles(g) == []


def test_cycles_match_brute_force(square, honeycomb, z_pm, triangle):
    for g in (square, honeycomb, z_pm, triangle):
        expected = brute_force_cycles(g, g.num_orbits)
        got = {c.edges for c in enumerate_cycles(g)}
        assert got == expected


def test_chain_of_walk():
    assert chain_of_walk(QWalk((), base=0)) == {}
    assert chain_of_walk(QWalk((0, 1, 0))) == {0: 2, 1: 1}


def test_chain_concatenation_additivity(square):
    rng = random.Random(SEED)
    for _ in range(20):
        p = _random_walk(square, rng, 8)
        q = _random_walk_from(square, rng, walk_orbits(square, p)[-1], 8)
        combined = QWalk(p.edges + q.edges, base=p.base if not p.edges and not q.edges else None)
        total = chain_of_walk(combined)
        left, right = chain_of_walk(p), chain_of_walk(q)
        merged = dict(left)
        for k, v in right.items():
            merged[k] = merged.get(k, 0) + v
        assert total == merged


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


def test_support():
    g = parse_periodic_graph(TRIANGLE_TEXT)
    assert support(g, QWalk((), base=1)) == {1}
    assert support(g, QWalk((0, 4))) == {0, 1}
    assert support(g, Cycle((5,))) == {2}


def _random_walk(g, rng, max_length):
    orbit = rng.randrange(g.num_orbits)
    return _random_walk_from(g, rng, orbit, max_length)


def _random_walk_from(g, rng, orbit, max_length):
    edges = []
    for _ in range(rng.randint(0, max_length)):
        options = g.out_edges(orbit)
        if not options:
            break
        e = rng.choice(options)
        edges.append(e.id)
        orbit = e.dst
    if edges:
        return QWalk(tuple(edges))
    return QWalk((), base=orbit)
