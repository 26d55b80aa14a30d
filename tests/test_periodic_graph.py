import random

import pytest

from perigrowth.ball import distances_upto
from perigrowth.errors import FormatError
from perigrowth.periodic_graph import (
    EdgeOrbit,
    PeriodicVertex,
    QuotientGraph,
    parse_periodic_graph,
    serialize_periodic_graph,
    translate,
    validate,
)

from conftest import SEED

SQUARE_TEXT = """
dim 2
vertex v
edge v v 1 0 1
edge v v -1 0 1
edge v v 0 1 1
edge v v 0 -1 1
"""


def test_parse_square():
    g = parse_periodic_graph(SQUARE_TEXT)
    assert g.dim == 2
    assert g.orbits == ("v",)
    assert len(g.edges) == 4
    assert g.edges[0].shift == (1, 0)
    assert all(e.weight == 1 for e in g.edges)


def test_parse_single_step_line():
    g = parse_periodic_graph("dim 1\nvertex v\nedge v v 1 1\n")
    assert g.dim == 1
    assert len(g.edges) == 1
    assert g.edges[0].shift == (1,)


def test_parse_unknown_orbit_reports_line():
    with pytest.raises(FormatError) as err:
        parse_periodic_graph("dim 2\nvertex v\nedge v w 1 0 1\n")
    assert "w" in str(err.value)
    assert err.value.line == 3


def test_parse_rejects_edge_before_dim():
    with pytest.raises(FormatError):
        parse_periodic_graph("vertex v\n")


def test_parse_rejects_bad_weight():
    with pytest.raises(FormatError):
        parse_periodic_graph("dim 1\nvertex v\nedge v v 1 0\n")


def test_parse_comments_and_blank_lines():
    g = parse_periodic_graph("# hello\n\ndim 1\nvertex v  # inline\nedge v v 1 1\n")
    assert g.orbits == ("v",)


def test_validate_square_empty(square):
    assert validate(square) == []


def test_validate_flags_nonpositive_weight():
    g = QuotientGraph(1, ("v",), (EdgeOrbit(0, 0, 0, (1,), 0),))
    report = validate(g)
    assert any("non-positive weight" in entry for entry in report)


def test_validate_flags_dimension_mismatch():
    g = QuotientGraph(2, ("v",), (EdgeOrbit(0, 0, 0, (1,), 1),))
    report = validate(g)
    assert any("dimension mismatch" in entry for entry in report)


def _out_neighbors(g, x):
    """Vertices one step out of x, as the ball search finds them."""
    return {v: d for v, d in distances_upto(g, x, 1).entries.items() if v != x}


def test_out_neighbors_square(square):
    nbrs = _out_neighbors(square, PeriodicVertex(0, (0, 0)))
    assert sorted(v.coord for v in nbrs) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert all(d == 1 for d in nbrs.values())


def test_out_neighbors_one_way(z_oneway):
    assert _out_neighbors(z_oneway, PeriodicVertex(0, (3,))) == {
        PeriodicVertex(0, (4,)): 1
    }


def test_out_neighbors_honeycomb(honeycomb):
    nbrs = _out_neighbors(honeycomb, PeriodicVertex(0, (0, 0)))
    assert len(nbrs) == 3
    assert all(v.orbit == 1 for v in nbrs)


def test_translate_examples():
    x = PeriodicVertex(0, (1, 2))
    assert translate(x, (0, 0)) == x
    assert translate(x, (3, -1)) == PeriodicVertex(0, (4, 1))
    assert translate(PeriodicVertex(0, (5,)), (-5,)) == PeriodicVertex(0, (0,))


def test_translate_length_mismatch():
    with pytest.raises(ValueError):
        translate(PeriodicVertex(0, (1, 2)), (1,))


def test_translate_is_free():
    rng = random.Random(SEED)
    x = PeriodicVertex(0, (0, 0))
    for _ in range(50):
        u = (rng.randint(-9, 9), rng.randint(-9, 9))
        if u != (0, 0):
            assert translate(x, u) != x


def test_out_neighbors_equivariance(square, honeycomb):
    rng = random.Random(SEED)
    for g in (square, honeycomb):
        for _ in range(25):
            orbit = rng.randrange(g.num_orbits)
            x = PeriodicVertex(orbit, tuple(rng.randint(-5, 5) for _ in range(g.dim)))
            u = tuple(rng.randint(-5, 5) for _ in range(g.dim))
            direct = _out_neighbors(g, translate(x, u))
            moved = {translate(v, u): d for v, d in _out_neighbors(g, x).items()}
            assert direct == moved


def test_parse_serialize_round_trip(square, honeycomb, z_pm, z_oneway):
    for g in (square, honeycomb, z_pm, z_oneway):
        assert parse_periodic_graph(serialize_periodic_graph(g)) == g
