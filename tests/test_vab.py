import functools
import itertools
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perigrowth.ball import distances_upto, growth_sequence, relative_counts
from perigrowth.errors import (
    DisjointnessError,
    FormatError,
    GuardError,
    ResourceLimitError,
)
from perigrowth.periodic_graph import PeriodicVertex
from perigrowth.series import (
    canonicalize,
    fit_multivariate,
    fit_univariate,
    series_from_text,
    specialize_to_univariate,
)
from perigrowth.vab import (
    GroupElement,
    MonoidModulePiece,
    MonoidModuleSet,
    VAGroup,
    WeightedGenerator,
    _hermite,
    build_cayley,
    default_set_denominator,
    enumerate_monoid_module_set,
    evaluate_word,
    inverse,
    multiply,
    parse_eqn,
    parse_set,
    parse_vag,
    relative_growth_terms,
    solve_box,
    univariate_terms,
    validate_group,
)

from conftest import SEED, data_text
from oracles import (
    _leibniz_det,
    growth_from_weights,
    independent_columns,
    matrix_rank,
    monoid_module_piece_tuples,
    unimodular_inverse,
    word_weights,
)

E = GroupElement


def z_group():
    return VAGroup(1, 1, ((0,),), (((1,),),), (((0,),),))


def z2_group():
    identity = ((1, 0), (0, 1))
    return VAGroup(2, 1, ((0,),), (identity,), _zero_cocycle(2, 1))


def test_validate_z():
    assert validate_group(z_group()) == []


def test_validate_dinf(dinf):
    group, _ = dinf
    assert validate_group(group) == []
    assert group.rank == 1 and group.order == 2


def test_validate_klein(klein):
    group, _ = klein
    assert validate_group(group) == []
    # spot-check the cocycle identity instances by hand
    for f in range(2):
        for g in range(2):
            for h in range(2):
                act = group.action[f]
                lhs = tuple(
                    sum(act[i][j] * group.cocycle[g][h][j] for j in range(2))
                    + group.cocycle[f][group.mult[g][h]][i]
                    for i in range(2)
                )
                rhs = tuple(
                    group.cocycle[f][g][i] + group.cocycle[group.mult[f][g]][h][i]
                    for i in range(2)
                )
                assert lhs == rhs


def test_validate_catches_broken_table():
    broken = VAGroup(1, 2, ((0, 1), (1, 1)), (((1,),), ((-1,),)), _zero_cocycle(1, 2))
    assert validate_group(broken)


def test_validate_catches_non_unimodular_action():
    bad = VAGroup(1, 2, ((0, 1), (1, 0)), (((1,),), ((2,),)), _zero_cocycle(1, 2))
    report = validate_group(bad)
    assert any("invertible" in line for line in report)


@pytest.mark.parametrize(
    "matrix, unimodular",
    [
        pytest.param(((1, 2), (2, 4)), False, id="singular"),
        pytest.param(((2, 1), (1, 1)), True, id="det-1-shear"),
        pytest.param(((0, 1), (1, 0)), True, id="det-minus-1-swap"),
    ],
)
def test_validate_checks_unimodularity(matrix, unimodular):
    group = VAGroup(
        2, 2, ((0, 1), (1, 0)), (((1, 0), (0, 1)), matrix), _zero_cocycle(2, 2)
    )
    flagged = "action matrix 1 is not invertible over the integers"
    assert (flagged not in validate_group(group)) == unimodular


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(*[st.tuples(*[st.integers(-2, 2)] * n)] * n)
    )
)
def test_validate_unimodularity_matches_determinant(matrix):
    n = len(matrix)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    group = VAGroup(n, 2, ((0, 1), (1, 0)), (identity, matrix), _zero_cocycle(n, 2))
    flagged = "action matrix 1 is not invertible over the integers"
    assert (flagged in validate_group(group)) == (abs(_leibniz_det(matrix)) != 1)


def test_validate_rank_zero_group():
    # Z/2 acting on the zero lattice: both action matrices are 0 x 0
    group = VAGroup(0, 2, ((0, 1), (1, 0)), ((), ()), _zero_cocycle(0, 2))
    assert validate_group(group) == []


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(*[st.integers(-5, 5)] * n), max_size=4)
        )
    )
)
@example((3, []))  # no rows: a piece with no ugens
@example((0, [(), (), ()]))  # no columns: the action of a rank-0 group
@example((3, [(1, -2, 3), (0, 0, 0), (2, 4, -1)]))  # a zero row
@example((2, [(2, 4), (-1, -2)]))  # dependent rows with a negative pivot
def test_hermite_form(case):
    n, a = case
    h, u = _hermite(a, n)  # the columns of H and of U
    r = len(h)
    assert r == matrix_rank(a, n)
    # A·U = [H | 0]
    au = [[sum(x * y for x, y in zip(row, col)) for col in u] for row in a]
    assert au == [[h[j][i] if j < r else 0 for j in range(n)] for i in range(len(a))]
    # U is unimodular
    rows_u = [[col[i] for col in u] for i in range(n)]
    assert abs(_leibniz_det(rows_u)) == 1
    # H is in column echelon form with positive leading entries
    assert all(any(col) for col in h)
    leads = [next(i for i, x in enumerate(col) if x) for col in h]
    assert leads == sorted(set(leads))
    assert all(col[i] > 0 for col, i in zip(h, leads))
    # the last n - r columns of U span every integer kernel vector in a box:
    # x = U·y with y integer, and y vanishes above r exactly when x is theirs
    inverse = unimodular_inverse(rows_u)
    for x in itertools.product(range(-3, 4), repeat=n):
        if not any(sum(c * v for c, v in zip(row, x)) for row in a):
            y = [sum(c * v for c, v in zip(row, x)) for row in inverse]
            assert not any(y[:r]), (x, y)


def test_validate_catches_bad_cocycle(klein):
    group, _ = klein
    tweaked = VAGroup(
        group.rank,
        group.order,
        group.mult,
        group.action,
        (((0, 0), (0, 0)), ((0, 0), (1, 1))),
    )
    report = validate_group(tweaked)
    assert any("cocycle identity" in line for line in report)


def _zero_cocycle(rank, order):
    zero = (0,) * rank
    return tuple(tuple(zero for _ in range(order)) for _ in range(order))


def test_multiply_dinf(dinf):
    group, _ = dinf
    assert multiply(group, E((2,), 1), E((3,), 1)) == E((-1,), 0)


def test_multiply_klein_square_of_flip(klein):
    group, _ = klein
    b = E((0, 0), 1)
    assert multiply(group, b, b) == E((0, 1), 0)


def test_inverse_dinf_reflection(dinf):
    group, _ = dinf
    a = E((5,), 1)
    assert inverse(group, a) == a
    assert multiply(group, a, inverse(group, a)) == group.identity()


def test_inverse_round_trip(dinf, klein):
    rng = random.Random(SEED)
    for group in (dinf[0], klein[0], z_group()):
        for _ in range(100):
            el = E(
                tuple(rng.randint(-6, 6) for _ in range(group.rank)),
                rng.randrange(group.order),
            )
            inv = inverse(group, el)
            assert multiply(group, el, inv) == group.identity()
            assert multiply(group, inv, el) == group.identity()


def test_associativity_randomized(dinf, klein):
    rng = random.Random(SEED)
    for group in (dinf[0], klein[0], z_group()):
        for _ in range(1000):
            a, b, c = (
                E(
                    tuple(rng.randint(-5, 5) for _ in range(group.rank)),
                    rng.randrange(group.order),
                )
                for _ in range(3)
            )
            assert multiply(group, multiply(group, a, b), c) == multiply(
                group, a, multiply(group, b, c)
            )


def test_cayley_z_pm_growth():
    group = z_group()
    gens = [
        WeightedGenerator("a", E((1,), 0), 1),
        WeightedGenerator("ai", E((-1,), 0), 1),
    ]
    graph, base = build_cayley(group, gens)
    terms = growth_sequence(graph, base, 8)
    assert terms == (1, 2, 2, 2, 2, 2, 2, 2, 2)


def test_cayley_dinf_two_reflections(dinf):
    group, _ = dinf
    gens = [
        WeightedGenerator("b", E((0,), 1), 1),
        WeightedGenerator("ab", E((1,), 1), 1),
    ]
    graph, base = build_cayley(group, gens)
    terms = growth_sequence(graph, base, 12)
    oracle = growth_from_weights(word_weights(group, gens, 12), 12)
    assert list(terms) == oracle
    assert terms == (1,) + (2,) * 12
    fit = canonicalize(
        fit_univariate(growth_sequence(graph, base, 30), ((1, 3),))
    )
    assert fit.numerator == (1, 1)
    assert fit.factors == ((1, 1),)


def test_cayley_dinf_three_generators_weights(dinf):
    group, gens = dinf
    graph, base = build_cayley(group, gens)
    terms = growth_sequence(graph, base, 10)
    weights = word_weights(group, gens, 10)
    assert list(terms) == growth_from_weights(weights, 10)
    for k in range(-8, 9):
        assert weights[E((k,), 1)] == abs(k) + 1
        if k:
            assert weights[E((k,), 0)] == abs(k)


def test_cayley_distance_equals_word_weight(klein, dinf):
    for group, gens in (klein, dinf):
        graph, base = build_cayley(group, gens)
        dm = distances_upto(graph, base, 10)
        weights = word_weights(group, gens, 10)
        assert {
            PeriodicVertex(el.part, el.vec): w for el, w in weights.items()
        } == dm.entries


def test_evaluate_word_examples(dinf):
    group, _ = dinf
    square_word = (("var", 1), ("var", 1))
    for k in (-3, 0, 5):
        assert evaluate_word(group, square_word, (E((k,), 1),)) == group.identity()
    assert evaluate_word(
        group, (("var", 1),), (group.identity(),)
    ) == group.identity()
    conj = (("var", 1), ("const", E((1,), 0)), ("inv", 1))
    assert evaluate_word(group, conj, (E((0,), 1),)) == E((-1,), 0)


def test_solve_box_involutions(dinf):
    group, _ = dinf
    arity, words = parse_eqn(data_text("involution.eqn"), group)
    solutions = solve_box(group, arity, words, 3)
    assert len(solutions) == 8
    expected = {(group.identity(),)} | {(E((k,), 1),) for k in range(-3, 4)}
    assert set(solutions) == expected


def test_solve_box_trivial_word(dinf):
    group, _ = dinf
    word = (("var", 1),)
    assert solve_box(group, 1, [word], 3) == [(group.identity(),)]


def test_solve_box_commutator_z2():
    group = z2_group()
    word = (("var", 1), ("var", 2), ("inv", 1), ("inv", 2))
    solutions = solve_box(group, 2, [word], 1)
    assert len(solutions) == 81


def test_solve_box_guard():
    group = z2_group()
    with pytest.raises(GuardError):
        solve_box(group, 3, [], 50)


def test_parse_eqn_errors(dinf):
    group, _ = dinf
    with pytest.raises(FormatError):
        parse_eqn("word X1\n", group)
    with pytest.raises(FormatError):
        parse_eqn("vars 1\nword X2\n", group)
    with pytest.raises(FormatError):
        parse_eqn("vars 1\nword [1,2;0]\n", group)  # rank mismatch


def _ball(group, gens, radius):
    """The Cayley graph of (group, gens) and its ball about the identity."""
    graph, base = build_cayley(group, gens)
    return graph, distances_upto(graph, base, radius)


def test_enumerate_diagonal_piece():
    group = z_group()
    gens = [
        WeightedGenerator("a", E((1,), 0), 1),
        WeightedGenerator("ai", E((-1,), 0), 1),
    ]
    piece = MonoidModulePiece((((1,), (1,)),), (group.identity(), group.identity()))
    mmset = MonoidModuleSet(2, (piece,))
    _, dm = _ball(group, gens, 5)
    members = enumerate_monoid_module_set(dm, mmset, (5, 5))
    assert members == {(E((k,), 0), E((k,), 0)): (k, k) for k in range(6)}


def test_enumerate_detects_overlap():
    group = z_group()
    gens = [
        WeightedGenerator("a", E((1,), 0), 1),
        WeightedGenerator("ai", E((-1,), 0), 1),
    ]
    dm = _ball(group, gens, 4)[1]
    p0 = MonoidModulePiece((), (group.identity(),))
    p1 = MonoidModulePiece((((1,),),), (group.identity(),))
    p2 = MonoidModulePiece((((1,),),), (E((1,), 0),))  # overlaps p1 from 1 on
    message = re.escape("pieces 0 and 1 overlap at (1;0)")
    with pytest.raises(DisjointnessError, match=message):
        enumerate_monoid_module_set(dm, MonoidModuleSet(1, (p1, p2)), (4,))
    # a piece that meets two earlier ones is named with the earliest
    p3 = MonoidModulePiece((((-1,),),), (E((3,), 0),))  # 3, 2, 1, 0, -1, ...
    message = re.escape("pieces 0 and 2 overlap at (0;0)")
    with pytest.raises(DisjointnessError, match=message):
        enumerate_monoid_module_set(dm, MonoidModuleSet(1, (p0, p2, p3)), (4,))


def test_enumerate_matches_solve_box(dinf):
    group, gens = dinf
    mmset = parse_set(data_text("invol.set"), group)
    arity, words = parse_eqn(data_text("involution.eqn"), group)
    _, dm = _ball(group, gens, 10)
    tuples = enumerate_monoid_module_set(dm, mmset, (10,))
    solutions = solve_box(group, arity, words, 9)
    assert sorted(tuples) == sorted(solutions)


def test_enumerate_needs_reachable_coordinates():
    # with only the +1 generator the negative side is never enumerated
    group = z_group()
    gens = [WeightedGenerator("a", E((1,), 0), 1)]
    piece = MonoidModulePiece((((-1,),),), (group.identity(),))
    _, dm = _ball(group, gens, 5)
    members = enumerate_monoid_module_set(dm, MonoidModuleSet(1, (piece,)), (5,))
    assert members == {(group.identity(),): (0,)}


@functools.cache
def _corpus_ball(name: str):
    """The bundled group and its Cayley ball of radius 6 about the identity."""
    group, gens = parse_vag(data_text(f"{name}.vag"))
    return group, _ball(group, gens, 6)[1]


@st.composite
def independent_pieces(draw):
    """One piece in D-infinity or Klein: arity 1-2, 0-3 independent ugens with
    entries -2..2, a shift near the origin, and a box of at most 6."""
    name = draw(st.sampled_from(["dinf", "klein"]))
    group, _ = _corpus_ball(name)
    arity = draw(st.integers(1, 2))
    vector = st.tuples(*[st.integers(-2, 2)] * group.rank)
    ugens = draw(st.lists(st.tuples(*[vector] * arity), max_size=3))
    assume(independent_columns([sum(gen, ()) for gen in ugens]))
    shift = draw(
        st.tuples(*[st.builds(E, vector, st.integers(0, group.order - 1))] * arity)
    )
    box = draw(st.tuples(*[st.integers(0, 6)] * arity))
    return name, MonoidModulePiece(tuple(ugens), shift), box


@settings(max_examples=120, derandomize=True, deadline=None)
@given(independent_pieces())
# two Klein ugens of opposite signs in x: members such as
# (0,1) = (2,1) + 2(-1,0) need both
@example(("klein", MonoidModulePiece((((2, 1),), ((-1, 0),)), (E((0, 0), 0),)), (6,)))
# four ugens of determinant -2: a full-rank sublattice of index 2 in Z^4
@example(
    (
        "klein",
        MonoidModulePiece(
            (((1, 0), (1, 0)), ((0, 1), (0, -1)), ((1, 1), (0, 0)), ((0, 0), (1, 1))),
            (E((0, 0), 0), E((1, 0), 1)),
        ),
        (4, 4),
    )
)
# a rank-1 piece whose Hermite diagonal is 2: only odd points from 1 up
@example(("dinf", MonoidModulePiece((((2,),),), (E((1,), 0),)), (6,)))
def test_join_matches_brute_force(case):
    name, piece, box = case
    _, dm = _corpus_ball(name)
    members = enumerate_monoid_module_set(dm, MonoidModuleSet(len(box), (piece,)), box)
    assert sorted(members) == sorted(monoid_module_piece_tuples(dm, piece, box))
    for member, weights in members.items():
        vertices = (PeriodicVertex(el.part, el.vec) for el in member)
        assert weights == tuple(map(dm.distance, vertices))
    # every member of total weight <= min(box) lies in the box's table: count
    # the piece over the whole ball by brute force
    window = min(box)
    oracle = [0] * (window + 1)
    for tup in monoid_module_piece_tuples(dm, piece, (dm.radius,) * len(box)):
        total = sum(dm.distance(PeriodicVertex(el.part, el.vec)) for el in tup)
        if total <= window:
            oracle[total] += 1
    table = relative_growth_terms(members, box)
    assert univariate_terms(table, window) == oracle
    with pytest.raises(ValueError, match=f"window {window + 1} exceeds the box"):
        univariate_terms(table, window + 1)


def test_enumerate_cap_bounds_head_tuples():
    # the join walks the points of coordinate 0 and looks up coordinate 1
    group = z_group()
    gens = [
        WeightedGenerator("a", E((1,), 0), 1),
        WeightedGenerator("ai", E((-1,), 0), 1),
    ]
    _, dm = _ball(group, gens, 5)
    mmset = parse_set(data_text("diag.set"), group)
    heads = sum(1 for dist in dm.entries.values() if dist <= 3)
    assert heads == 7
    assert len(enumerate_monoid_module_set(dm, mmset, (3, 5), cap=heads)) == 7
    with pytest.raises(ResourceLimitError, match="exceeds 6 head tuples"):
        enumerate_monoid_module_set(dm, mmset, (3, 5), cap=heads - 1)


def test_relative_growth_terms_involutions(dinf):
    group, gens = dinf
    mmset = parse_set(data_text("invol.set"), group)
    _, dm = _ball(group, gens, 8)
    members = enumerate_monoid_module_set(dm, mmset, (8,))
    table = relative_growth_terms(members, (8,))
    counts = [table.counts_exact.get((i,), 0) for i in range(9)]
    assert counts == [1, 1, 2, 2, 2, 2, 2, 2, 2]


def test_relative_growth_full_group_recovers_growth(dinf):
    group, gens = dinf
    graph, base = build_cayley(group, gens)
    dm = distances_upto(graph, base, 7)
    members = {(GroupElement(v.coord, v.orbit),): (d,) for v, d in dm.entries.items()}
    table = relative_growth_terms(members, (7,))
    terms = growth_sequence(graph, base, 7)
    assert [table.counts_exact.get((i,), 0) for i in range(8)] == list(terms)


def test_relative_growth_diagonal_series():
    group = z_group()
    gens = [
        WeightedGenerator("a", E((1,), 0), 1),
        WeightedGenerator("ai", E((-1,), 0), 1),
    ]
    mmset = parse_set(data_text("diag.set"), group)
    box = (12, 12)
    _, dm = _ball(group, gens, 12)
    members = enumerate_monoid_module_set(dm, mmset, box)
    table = relative_growth_terms(members, box)
    fit = fit_multivariate(table.counts_exact, box, [((1, 1), 1)])
    assert fit.numerator == {(0, 0): 1, (1, 1): 1}
    assert fit.factors == (((1, 1), 1),)


def test_specialization_identity(dinf):
    group, gens = dinf
    mmset = parse_set(data_text("invol.set"), group)
    box = (10,)
    graph, dm = _ball(group, gens, 10)
    members = enumerate_monoid_module_set(dm, mmset, box)
    table = relative_growth_terms(members, box)
    factors = default_set_denominator(graph, dm, mmset)
    mv = fit_multivariate(table.counts_exact, box, factors)
    specialized = specialize_to_univariate(mv)
    uni = univariate_terms(table, 10)
    direct = canonicalize(
        fit_univariate(uni, [(sum(w), e) for w, e in mv.factors], margin=5)
    )
    assert specialized.numerator == direct.numerator == (1, 0, 1)
    assert specialized.factors == direct.factors == ((1, 1),)


def test_ball_consumers_reject_a_short_ball(dinf):
    group, gens = dinf
    mmset = parse_set(data_text("invol.set"), group)
    graph, dm = _ball(group, gens, 3)
    for call in (
        lambda: enumerate_monoid_module_set(dm, mmset, (4,)),
        lambda: default_set_denominator(graph, _ball(group, gens, 0)[1], mmset),
        lambda: relative_counts(dm, [], (4,)),
    ):
        with pytest.raises(ValueError, match="needs a ball of radius 4|radius 1, got 0"):
            call()


def test_parse_vag_round_trip_values(dinf):
    group, gens = dinf
    assert group.mult == ((0, 1), (1, 0))
    assert group.action[1] == ((-1,),)
    assert [g.name for g in gens] == ["a", "ai", "b"]
    assert gens[2].element == E((0,), 1)


def test_parse_vag_errors():
    with pytest.raises(FormatError):
        parse_vag("rank 1\n")  # missing finite
    with pytest.raises(FormatError):
        parse_vag("rank 1\nfinite 2\nmult 0 1 1 0\n")  # missing action f=1
    with pytest.raises(FormatError):
        parse_vag("rank 1\nfinite 2\nmult 0 1\naction f=1 -1\n")


@pytest.mark.parametrize(
    "parse, text",
    [
        (lambda text, group: parse_vag(text), "rank\n"),
        (lambda text, group: parse_vag(text), "rank 1\nfinite\n"),
        (parse_eqn, "vars\n"),
        (parse_set, "arity\n"),
        (lambda text, group: series_from_text(text), "series d=\nverified 3\n"),
    ],
    ids=["rank", "finite", "vars", "arity", "series-header"],
)
def test_argumentless_directive_is_format_error(dinf, parse, text):
    group, _ = dinf
    with pytest.raises(FormatError):
        parse(text, group)


def test_parse_set_errors(dinf):
    group, _ = dinf
    with pytest.raises(FormatError):
        parse_set("arity 1\nugen 1\n", group)  # ugen outside piece
    with pytest.raises(FormatError):
        parse_set("arity 1\npiece\nugen 1\n", group)  # missing shift
    with pytest.raises(FormatError):
        parse_set("arity 1\npiece\nshift (0;7)\n", group)  # part out of range
