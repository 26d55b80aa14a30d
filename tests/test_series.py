import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigrowth.ball import distances_upto, growth_sequence, relative_counts
from perigrowth.errors import FormatError, InputError, NoFitError
from perigrowth.periodic_graph import PeriodicVertex, parse_periodic_graph
from perigrowth.series import (
    MultivariateRationalSeries,
    RationalSeries,
    canonicalize,
    cycle_product,
    default_denominator,
    expand_mv_series,
    expand_series,
    fit_multivariate,
    fit_univariate,
    fit_univariate_auto,
    merge_factors,
    merge_mv_factors,
    qp_evaluate,
    quasi_polynomial,
    s_from_b,
    series_from_text,
    series_to_text,
    specialize_to_univariate,
)

from conftest import data_text
from oracles import (
    dense_expand,
    dense_fit_numerator,
    dense_mv_expand,
    dense_mv_fit_numerator,
    expand_factors,
    honeycomb_patch_growth,
    poly_div_exact,
    poly_mul,
    reduced_denominator,
    reference_reduction,
)


def test_default_denominator_square(square):
    assert cycle_product(square) == ((1, 5),)


def test_default_denominator_honeycomb(honeycomb):
    assert cycle_product(honeycomb) == ((1, 1), (2, 9))


def test_default_denominator_edgeless():
    g = parse_periodic_graph("dim 1\nvertex v\n")
    assert cycle_product(g) == ((1, 1),)


def test_velocity_denominator_square_and_honeycomb(square, honeycomb):
    # square: four edges of the unit diamond, each two weight-1 loops;
    # honeycomb: six edges of a hexagon, each two weight-2 returns
    assert default_denominator(square) == ((1, 3),)
    assert default_denominator(honeycomb) == ((1, 1), (2, 2))


# b reaches a but not back: Q = 1 - t^3 from a's loop alone, while the
# velocity ansatz over all cycles would be (1 - t)^2 (1 - t^2)
ONE_WAY_SINK = """\
dim 1
vertex a
vertex b
edge a a 1 3
edge b b 2 1
edge b b -1 2
edge b a 0 1
"""

# the weight-3 loops have velocity (0, 1/3), inside the hull edge from
# (-1/2, 0) to (1, 1) but not a vertex of it, and Q = (1 - t)(1 - t^3)
MID_EDGE_VELOCITY = """\
dim 2
vertex v0
vertex v1
edge v0 v1 0 0 1
edge v1 v0 -1 0 3
edge v1 v1 0 1 3
edge v1 v1 -1 0 2
edge v0 v0 1 1 1
edge v0 v0 0 1 3
"""


@st.composite
def strongly_connected_quotients(draw):
    """A ring through every orbit plus random edges, in the line or the
    plane, directed or closed under inverses."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(1, 4 if dim == 1 else 3))
    shift = st.tuples(*[st.integers(-1, 1)] * dim)
    weight = st.integers(1, 4 if dim == 1 else 3)
    edges = [(i, (i + 1) % n, draw(shift), draw(weight)) for i in range(n)]
    orbit = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(orbit, orbit, shift, weight), max_size=6))
    if not draw(st.booleans()):
        edges += [(b, a, tuple(-x for x in s), w) for a, b, s, w in edges]
    lines = [f"dim {dim}"] + [f"vertex v{i}" for i in range(n)]
    lines += [f"edge v{a} v{b} {' '.join(map(str, s))} {w}" for a, b, s, w in edges]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(strongly_connected_quotients())
@example(ONE_WAY_SINK)
@example(MID_EDGE_VELOCITY)
@example(data_text("z_oneway.pg"))
def test_velocity_ansatz_holds_the_reduced_denominator(text):
    g = parse_periodic_graph(text)
    # sphere counts of small directed quotients can take 300 terms to settle
    for radius in (400, 800, 1600) if g.dim == 1 else (100, 200, 400):
        q = reduced_denominator(growth_sequence(g, g.vertex(0), radius))
        if q is not None:
            break
    assert q is not None
    assert poly_div_exact(expand_factors(default_denominator(g)), q) is not None


def test_velocity_ansatz_falls_back_to_the_cycle_product(z_oneway):
    # not strongly connected, and a velocity polytope that is one point
    for g in (parse_periodic_graph(ONE_WAY_SINK), z_oneway):
        assert default_denominator(g) == cycle_product(g)


def test_fit_constant_ones():
    fit = fit_univariate([1] * 21, [(1, 1)])
    assert fit.numerator == (1,)
    assert fit.factors == ((1, 1),)
    assert fit.verified_through == 20


def test_fit_square_canonical(square):
    terms = growth_sequence(square, square.vertex(0), 50)
    # oracle first: (1+t)^2/(1-t)^2 expands to 1, 4i
    closed = RationalSeries((1, 2, 1), ((1, 2),), 50)
    assert expand_series(closed, 50) == list(terms)
    fit = canonicalize(fit_univariate(terms, default_denominator(square)))
    assert fit.numerator == (1, 2, 1)
    assert fit.factors == ((1, 2),)
    assert fit.verified_through == 50


def test_fit_honeycomb_canonical(honeycomb):
    terms = growth_sequence(honeycomb, honeycomb.vertex(0), 60)
    assert list(terms) == honeycomb_patch_growth(60)
    fit = canonicalize(fit_univariate(terms, default_denominator(honeycomb)))
    assert fit.numerator == (1, 1, 1)
    assert fit.factors == ((1, 2),)
    # cross-check the fitted form against the independent patch terms
    assert expand_series(fit, 60) == honeycomb_patch_growth(60)


def test_fit_reports_no_fit():
    terms = [2**i for i in range(30)]  # not rational with cyclotomic denominator
    with pytest.raises(NoFitError):
        fit_univariate(terms, [(1, 2)])


@pytest.mark.parametrize("margin", [0, 1, 4, 10])
def test_fit_margin_boundary(margin):
    # (1 + t)^2 / (1 - t)^2 has numerator degree 2: terms through 2 + margin
    # leave exactly `margin` vanishing coefficients above it
    terms = [1] + [4 * i for i in range(1, margin + 3)]
    fit = fit_univariate(terms, [(1, 2)], margin=margin)
    assert fit.numerator == (1, 2, 1)
    assert fit.verified_through == margin + 2
    if margin:
        with pytest.raises(NoFitError):
            fit_univariate(terms[:-1], [(1, 2)], margin=margin)


def test_evaluate_examples():
    square_series = RationalSeries((1, 2, 1), ((1, 2),), 50)
    assert expand_series(square_series, 7)[7] == 28
    ones = RationalSeries((1,), ((1, 1),), 10)
    assert expand_series(ones, 0)[0] == 1


def test_evaluate_matches_fit_terms(z_pm):
    terms = growth_sequence(z_pm, z_pm.vertex(0), 25)
    fit = fit_univariate(terms, default_denominator(z_pm))
    assert expand_series(fit, 25) == list(terms)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    num=st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    periods=st.lists(st.integers(1, 3), min_size=1, max_size=3),
)
def test_fit_round_trip_property(num, periods):
    source = RationalSeries(tuple(num), tuple((w, 1) for w in set(periods)), 0)
    through = 40
    terms = expand_series(source, through)
    fit = fit_univariate(terms, source.factors)
    assert expand_series(fit, through) == terms
    reduced = canonicalize(fit)
    assert expand_series(reduced, through) == terms


FACTORS = st.lists(st.tuples(st.integers(1, 8), st.integers(1, 3)), max_size=4)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    terms=st.lists(st.integers(-20, 20), min_size=1, max_size=50),
    factors=FACTORS,
    numerator=st.lists(st.integers(-4, 4), max_size=8),
)
def test_fit_and_expansion_match_dense_reference(terms, factors, numerator):
    factors = merge_factors(factors)
    fit = fit_univariate(terms, factors, margin=0)
    assert list(fit.numerator) == dense_fit_numerator(terms, factors)
    through = len(terms) - 1
    rs = RationalSeries(tuple(numerator), factors, through)
    assert expand_series(rs, through) == dense_expand(
        numerator, expand_factors(factors), through
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    base=st.lists(st.integers(-4, 4), max_size=6),
    shared=st.lists(st.integers(1, 8), max_size=3),
    factors=FACTORS,
    through=st.integers(0, 40),
)
def test_canonicalize_matches_reference_reduction(base, shared, factors, through):
    # numerators that share (1 - t^v) factors, whole or in part, with the
    # denominator exercise both the complete peeling and the lift
    numerator = poly_mul(base, expand_factors([(v, 1) for v in shared]))
    factors = merge_factors(factors)
    rs = RationalSeries(tuple(numerator), factors, through)
    red_num, red_den, peeled = reference_reduction(numerator, factors)
    got = canonicalize(rs)
    if peeled is not None:
        assert got.numerator == tuple(red_num)
        assert got.factors == peeled
        return
    lifted = expand_factors(got.factors)
    assert poly_div_exact(lifted, red_den) is not None
    assert poly_mul(list(got.numerator), red_den) == poly_mul(red_num, lifted)
    assert expand_series(got, through) == expand_series(rs, through)


def test_canonicalize_lifts_non_product_denominator():
    # (1 - t^10) / ((1 - t^3)(1 - t^7)) reduces to 1 / ((1 + t + t^2)(1 - t^7));
    # lifting (1 + t + t^2) to (1 - t^3) brings back the (1 - t) it cancelled
    rs = RationalSeries((1,) + (0,) * 9 + (-1,), ((3, 1), (7, 1)), 30)
    got = canonicalize(rs)
    assert got.numerator == rs.numerator
    assert got.factors == ((3, 1), (7, 1))
    _, _, peeled = reference_reduction(list(rs.numerator), rs.factors)
    assert peeled is None


def test_quasi_polynomial_square():
    qp = quasi_polynomial(RationalSeries((1, 2, 1), ((1, 2),), 50))
    assert qp.period == 1
    assert qp.threshold == 1
    assert qp.exceptions == {0: 1}
    assert qp.polynomials[0] == (Fraction(0), Fraction(4))
    assert [qp_evaluate(qp, i) for i in range(6)] == [1, 4, 8, 12, 16, 20]


def test_quasi_polynomial_even_indicator():
    qp = quasi_polynomial(RationalSeries((1,), ((2, 1),), 30))
    assert qp.period == 2
    assert qp.threshold == 0
    assert qp.exceptions == {}
    assert qp.polynomials == ((Fraction(1),), (Fraction(0),))


def test_quasi_polynomial_geometric():
    qp = quasi_polynomial(RationalSeries((1,), ((1, 1),), 30))
    assert qp.period == 1
    assert qp.polynomials == ((Fraction(1),),)


def test_quasi_polynomial_matches_series_everywhere(honeycomb):
    terms = growth_sequence(honeycomb, honeycomb.vertex(0), 40)
    fit = canonicalize(fit_univariate(terms, default_denominator(honeycomb)))
    qp = quasi_polynomial(fit)
    for i, term in enumerate(expand_series(fit, fit.verified_through)):
        assert qp_evaluate(qp, i) == term


def _diagonal_table(z_pm, box):
    base = PeriodicVertex(0, (0,))
    dm = distances_upto(z_pm, base, max(box))
    diagonal = [(v, v) for v in dm.entries]
    return relative_counts(dm, diagonal, box)


def test_fit_multivariate_diagonal(z_pm):
    table = _diagonal_table(z_pm, (12, 12))
    fit = fit_multivariate(table.counts_exact, (12, 12), [((1, 1), 1)])
    assert fit.numerator == {(0, 0): 1, (1, 1): 1}
    assert fit.factors == (((1, 1), 1),)


def test_fit_multivariate_d1_matches_univariate(square):
    base = square.vertex(0)
    terms = growth_sequence(square, base, 20)
    dm = distances_upto(square, base, 20)
    table = relative_counts(dm, [(v,) for v in dm.entries], (20,))
    mv = fit_multivariate(table.counts_exact, (20,), [((1,), 5)])
    uni = fit_univariate(terms, ((1, 5),))
    assert {a[0]: c for a, c in mv.numerator.items()} == {
        i: c for i, c in enumerate(uni.numerator) if c
    }


def test_fit_multivariate_product_structure(z_pm):
    base = PeriodicVertex(0, (0,))
    box = (10, 10)
    dm = distances_upto(z_pm, base, 10)
    pairs = [(v, w) for v in dm.entries for w in dm.entries]
    table = relative_counts(dm, pairs, box)
    fit = fit_multivariate(
        table.counts_exact, box, [((1, 0), 1), ((0, 1), 1)]
    )
    # expansion equals the product of the univariate growth data
    terms = growth_sequence(z_pm, base, 10)
    expansion = expand_mv_series(fit, box)
    for a1 in range(11):
        for a2 in range(11):
            assert expansion[(a1, a2)] == terms[a1] * terms[a2]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_fit_multivariate_matches_dense_denominator(data):
    arity = data.draw(st.integers(1, 3))
    box = tuple(
        data.draw(st.lists(st.integers(0, 5), min_size=arity, max_size=arity))
    )
    vector = st.tuples(*[st.integers(0, 2)] * arity).filter(any)
    factors = merge_mv_factors(
        data.draw(
            st.lists(st.tuples(vector, st.integers(1, 2)), min_size=1, max_size=3)
        )
    )
    points = list(product(*(range(b + 1) for b in box)))
    values = data.draw(
        st.lists(st.integers(-5, 5), min_size=len(points), max_size=len(points))
    )
    # a missing key counts as zero, as for the empty sets the CLI passes
    table = {a: c for a, c in zip(points, values) if c}
    fit = fit_multivariate(table, box, factors, margins=(0,) * arity)
    assert fit.numerator == dense_mv_fit_numerator(table, box, factors)
    assert expand_mv_series(fit, box) == dense_mv_expand(fit.numerator, factors, box)


def test_s_from_b_d1():
    b = MultivariateRationalSeries(1, {(0,): 1}, (((1,), 2),), (10,))
    s = s_from_b(b)
    assert s.factors == (((1,), 1),)
    assert s.numerator == {(0,): 1}


def test_s_from_b_diagonal(z_pm):
    box = (12, 12)
    table = _diagonal_table(z_pm, box)
    fit_s = fit_multivariate(table.counts_exact, box, [((1, 1), 1)])
    fit_b = fit_multivariate(
        table.counts_cumulative, box, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)]
    )
    derived = s_from_b(fit_b)
    assert expand_mv_series(derived, box) == expand_mv_series(fit_s, box)


def test_s_from_b_zero_series():
    empty = MultivariateRationalSeries(2, {}, (((1, 1), 1),), (6, 6))
    derived = s_from_b(empty)
    assert derived.numerator == {}
    expansion = expand_mv_series(derived, (6, 6))
    assert all(c == 0 for c in expansion.values())


def test_specialize_diagonal():
    ms = MultivariateRationalSeries(
        2, {(0, 0): 1, (1, 1): 1}, (((1, 1), 1),), (12, 12)
    )
    rs = specialize_to_univariate(ms)
    assert rs.numerator == (1, 0, 1)
    assert rs.factors == ((2, 1),)
    assert rs.verified_through == 12


def test_specialize_d1_identity():
    ms = MultivariateRationalSeries(1, {(0,): 1, (2,): 1}, (((1,), 1),), (15,))
    rs = specialize_to_univariate(ms)
    assert rs.numerator == (1, 0, 1)
    assert rs.factors == ((1, 1),)


def test_series_text_round_trip(z_pm):
    terms = growth_sequence(z_pm, z_pm.vertex(0), 25)
    fit = canonicalize(fit_univariate(terms, default_denominator(z_pm)))
    assert series_from_text(series_to_text(fit)) == fit
    ms = MultivariateRationalSeries(
        2, {(0, 0): 1, (1, 1): 1}, (((1, 1), 1),), (12, 12)
    )
    assert series_from_text(series_to_text(ms)) == ms


def test_escalation_ladder_squares_factors():
    # terms of 1/(1-t)^2 cannot fit over (1-t) but fit after squaring
    source = RationalSeries((1,), ((1, 2),), 0)
    terms = expand_series(source, 30)
    fit = fit_univariate_auto(terms, ((1, 1),))
    assert fit.factors == ((1, 2),)


@pytest.mark.parametrize(
    "arity, bad",
    [
        (1, "num 0 x"),
        (1, "den 2 ^x"),
        (1, "verified x"),
        (1, "den 0 ^1"),
        (1, "den 2 ^0"),
        (2, "den 0 0 ^1"),
        (1, "num -1 5"),
        (1, "verified -1"),
        (1, "num 0 2"),
        (1, "verified 5"),
    ],
)
def test_series_from_text_format_errors(arity, bad):
    # every case sits after a valid verified line and a constant term
    text = (
        f"series d={arity}\nverified {' '.join(['3'] * arity)}\n"
        f"num {'0 ' * arity}1\n{bad}\n"
    )
    with pytest.raises(FormatError, match=re.escape(repr(bad))):
        series_from_text(text)


SERIES_TOKEN = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(
        ["x", "^", "^1", "^0", "^-1", "^x", "num", "den", "verified", "d=1"]
    ),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    header=st.sampled_from(["series d=1", "series d=2", "series d=0", "series d=-1",
                            "series d=", "series d=x", "series"]),
    body=st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(["num", "den", "verified"]),
                st.lists(SERIES_TOKEN, max_size=4),
            ).map(lambda t: " ".join([t[0], *t[1]])),
            st.lists(SERIES_TOKEN, max_size=5).map(" ".join),
            st.text(max_size=12),
        ),
        max_size=6,
    ),
)
def test_series_from_text_raises_only_input_errors(header, body):
    try:
        series_from_text("\n".join([header, *body]))
    except InputError:
        pass
