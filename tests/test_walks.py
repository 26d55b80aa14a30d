import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigrowth.errors import ResourceLimitError
from perigrowth.periodic_graph import EdgeOrbit, PeriodicVertex, QuotientGraph, parse_periodic_graph
from perigrowth.series import cycle_product
from perigrowth.walks import enumerate_cycles

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
    # the four unit loops at the one orbit
    assert sorted(enumerate_cycles(square)) == sorted(
        (frozenset({0}), 1, step) for step in ((1, 0), (-1, 0), (0, 1), (0, -1))
    )


def test_cycles_honeycomb(honeycomb):
    # one cycle a -> b -> a per pair of edges, three of them closing in place
    assert Counter(enumerate_cycles(honeycomb)) == Counter(
        (frozenset({0, 1}), 2, (a[0] + b[0], a[1] + b[1]))
        for a in ((0, 0), (1, 0), (0, 1))
        for b in ((0, 0), (-1, 0), (0, -1))
    )


def test_cycle_weights_keep_one_entry_per_cycle(triangle):
    # the two parallel a -> b edges give two cycles of each weight 2 and 3
    assert sorted(w for _, w, _ in enumerate_cycles(triangle)) == [1, 2, 2, 3, 3]
    assert cycle_product(triangle) == ((1, 2), (2, 2), (3, 2))


def test_cycles_empty_graph():
    g = parse_periodic_graph("dim 1\nvertex v\n")
    assert enumerate_cycles(g) == []


def test_cycle_data_matches_lifts(square, honeycomb, z_pm, triangle):
    # each cycle's lift from a random start returns to its orbit, displaced
    # by what `enumerate_cycles` reports; support and weight read off the lift
    rng = random.Random(SEED)
    for g in (square, honeycomb, z_pm, triangle):
        lifted = Counter()
        for cycle in brute_force_cycles(g, g.num_orbits):
            x0 = PeriodicVertex(
                g.edges[cycle[0]].src,
                tuple(rng.randint(-4, 4) for _ in range(g.dim)),
            )
            ends = [lift_endpoint(g, cycle[:i], x0) for i in range(len(cycle) + 1)]
            orbit, coord = ends[-1]
            assert orbit == x0.orbit
            lifted[
                frozenset(o for o, _ in ends),
                sum(g.edges[eid].weight for eid in cycle),
                tuple(e - s for e, s in zip(coord, x0.coord)),
            ] += 1
        assert Counter(enumerate_cycles(g)) == lifted


@st.composite
def quotients(draw):
    """A quotient of dim 0-2 with loops and parallel edges, small enough for
    the exhaustive `brute_force_cycles`."""
    dim = draw(st.integers(0, 2))
    n = draw(st.integers(1, 4))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.tuples(*[st.integers(-2, 2)] * dim),
                st.integers(1, 3),
            ),
            max_size=7,
        )
    )
    return QuotientGraph(
        dim,
        tuple(f"o{i}" for i in range(n)),
        tuple(EdgeOrbit(i, *e) for i, e in enumerate(edges)),
    )


def oracle_records(g) -> Counter:
    """(support, weight, displacement) of every cycle the brute force finds:
    support from the edge sources, weight from the edge weights and the
    displacement from the cycle's lift."""
    records = Counter()
    for cycle in brute_force_cycles(g, g.num_orbits):
        x0 = PeriodicVertex(g.edges[cycle[0]].src, (0,) * g.dim)
        _, end = lift_endpoint(g, cycle, x0)
        records[
            frozenset(g.edges[eid].src for eid in cycle),
            sum(g.edges[eid].weight for eid in cycle),
            end,
        ] += 1
    return records


@settings(max_examples=150, derandomize=True, deadline=None)
@given(quotients())
def test_cycles_match_brute_force(g):
    cycles = enumerate_cycles(g)
    assert Counter(cycles) == oracle_records(g)
    # the cap counts the cycles: it admits exactly as many as there are
    count = len(cycles)
    assert len(enumerate_cycles(g, cap=count)) == count
    if count:
        with pytest.raises(
            ResourceLimitError, match=rf"^more than {count - 1} cycles; raise the cycle cap$"
        ):
            enumerate_cycles(g, cap=count - 1)
