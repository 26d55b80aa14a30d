import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perigrowth import decomposition
from perigrowth.decomposition import (
    GradedMonoid,
    all_support_sets,
    build_MS,
    build_XS_generators,
    hilbert_counts,
    intersect_graded_modules,
    intersect_graded_monoids,
    module_elements_upto,
    monoid_elements_upto,
    verify_cover,
    verify_module_action,
)
from perigrowth.errors import GuardError
from perigrowth.periodic_graph import (
    EdgeOrbit,
    PeriodicVertex,
    QuotientGraph,
    parse_periodic_graph,
)

from oracles import monoid_elements_by_exponents, pair_set_cover

V = PeriodicVertex


def test_build_MS_z_pm(z_pm):
    m = build_MS(z_pm, frozenset({0}))
    assert set(m.generators) == {(1, (0,)), (1, (1,)), (1, (-1,))}


def test_build_MS_honeycomb_single_orbit(honeycomb):
    m = build_MS(honeycomb, frozenset({0}))
    assert set(m.generators) == {(1, (0, 0))}


def test_build_MS_honeycomb_full(honeycomb):
    m = build_MS(honeycomb, frozenset({0, 1}))
    forward = [e.shift for e in honeycomb.edges if e.src == 0]
    backward = [e.shift for e in honeycomb.edges if e.src == 1]
    displacements = {
        tuple(a + b for a, b in zip(s, t)) for s in forward for t in backward
    }
    assert set(m.generators) == {(1, (0, 0))} | {(2, d) for d in displacements}
    # the nine two-cycles contribute seven distinct displacements
    assert len(displacements) == 7


def test_build_MS_monotone_in_support(honeycomb):
    small = set(build_MS(honeycomb, frozenset({0})).generators)
    large = set(build_MS(honeycomb, frozenset({0, 1})).generators)
    assert small <= large


def test_build_XS_z_pm_minimal(z_pm):
    gens = build_XS_generators(z_pm, V(0, (0,)), frozenset({0}))
    assert gens.degree_bound == 1
    assert set(gens.generators) == {
        (0, V(0, (0,))),
        (1, V(0, (1,))),
        (1, V(0, (-1,))),
    }


def test_build_XS_honeycomb_single_orbit(honeycomb):
    gens = build_XS_generators(honeycomb, V(0, (0, 0)), frozenset({0}))
    assert set(gens.generators) == {(0, V(0, (0, 0)))}


def test_build_XS_honeycomb_pair(honeycomb):
    gens = build_XS_generators(honeycomb, V(0, (0, 0)), frozenset({0, 1}))
    assert gens.degree_bound == 4
    for e in honeycomb.edges:
        if e.src == 0:
            assert (1, V(1, e.shift)) in gens.generators


def test_build_XS_exhaustive_generates_same_module(z_pm):
    base = V(0, (0,))
    S = frozenset({0})
    monoid = build_MS(z_pm, S)
    minimal = build_XS_generators(z_pm, base, S)
    full = build_XS_generators(z_pm, base, S, exhaustive=True)
    assert set(minimal.generators) <= set(full.generators)
    for radius in (5, 9):
        a = module_elements_upto(monoid, minimal.generators, radius)
        b = module_elements_upto(monoid, full.generators, radius)
        assert a == b


def test_verify_cover_z_pm(z_pm):
    report = verify_cover(z_pm, V(0, (0,)), 15)
    assert report.ok
    assert report.covered == 256  # sum of 2i+1 for i <= 15 is 16^2


def test_verify_cover_square(square):
    assert verify_cover(square, square.vertex(0), 10).ok


def test_verify_cover_honeycomb(honeycomb):
    assert verify_cover(honeycomb, honeycomb.vertex(0), 12).ok


def test_verify_cover_orbit_guard():
    names = [f"v{i}" for i in range(13)]
    text = "dim 1\n" + "\n".join(f"vertex {n}" for n in names)
    g = parse_periodic_graph(text)
    with pytest.raises(GuardError):
        verify_cover(g, g.vertex(0), 3)


def test_verify_module_action(z_pm, honeycomb):
    assert verify_module_action(z_pm, V(0, (0,)), frozenset({0}), 10).ok
    assert verify_module_action(
        honeycomb, V(0, (0, 0)), frozenset({0, 1}), 8
    ).ok


def test_verify_module_action_catches_corruption(z_pm):
    bogus = GradedMonoid(1, ((1, (0,)), (1, (1,)), (1, (-1,)), (1, (5,))))
    report = verify_module_action(z_pm, V(0, (0,)), frozenset({0}), 10, monoid=bogus)
    assert not report.ok
    gen, element, image = report.witness
    assert gen == (1, (5,))


def test_all_support_sets(honeycomb):
    assert all_support_sets(honeycomb) == [
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    ]


def test_monoid_elements_match_exponent_oracle(z_pm):
    m = build_MS(z_pm, frozenset({0}))
    for degree in (4, 7):
        assert monoid_elements_upto(m, degree) == monoid_elements_by_exponents(
            list(m.generators), degree
        )


def test_intersect_monoids_multiples():
    a = GradedMonoid(1, ((1, (1,)),))
    b = GradedMonoid(1, ((2, (2,)),))
    cert = intersect_graded_monoids([a, b], 6)
    assert cert.generators == ((2, (2,)),)
    assert cert.verified_degree_bound == 6
    assert not cert.complete


def test_intersect_monoids_with_degree_step():
    a = GradedMonoid(1, ((1, (1,)), (1, (-1,)), (1, (0,))))
    b = GradedMonoid(1, ((1, (1,)), (1, (0,))))
    cert = intersect_graded_monoids([a, b], 5)
    assert set(cert.generators) == {(1, (0,)), (1, (1,))}


def test_intersect_monoids_idempotent(z_pm, honeycomb):
    for g, S in ((z_pm, frozenset({0})), (honeycomb, frozenset({0, 1}))):
        m = build_MS(g, S)
        cert = intersect_graded_monoids([m, m], 8)
        regenerated = monoid_elements_upto(
            GradedMonoid(m.rank, cert.generators), 8
        )
        assert regenerated == monoid_elements_upto(m, 8)


def test_intersect_monoids_completeness_flag():
    a = GradedMonoid(1, ((1, (1,)),))
    assert intersect_graded_monoids([a, a], 6, completeness_bound=3).complete
    assert not intersect_graded_monoids([a, a], 5, completeness_bound=3).complete


def test_intersect_monoids_rejects_degree_zero_drift():
    bad = GradedMonoid(1, ((0, (1,)),))
    with pytest.raises(ValueError):
        intersect_graded_monoids([bad, bad], 3)


def test_intersect_monoids_soundness_and_completeness_brute(z_pm):
    a = build_MS(z_pm, frozenset({0}))
    b = GradedMonoid(1, ((1, (0,)), (2, (2,)), (3, (-3,))))
    degree = 7
    cert = intersect_graded_monoids([a, b], degree)
    ea = monoid_elements_by_exponents(list(a.generators), degree)
    eb = monoid_elements_by_exponents(list(b.generators), degree)
    common = ea & eb
    for gen in cert.generators:
        assert gen in common
    regenerated = monoid_elements_by_exponents(list(cert.generators), degree)
    assert regenerated == common


def test_intersect_modules_idempotent(z_pm):
    base = V(0, (0,))
    S = frozenset({0})
    monoid = build_MS(z_pm, S)
    gens = list(build_XS_generators(z_pm, base, S).generators)
    cert = intersect_graded_modules([(monoid, gens), (monoid, gens)], 8)
    regenerated = module_elements_upto(monoid, cert.generators, 8)
    assert regenerated == module_elements_upto(monoid, gens, 8)


def test_intersect_modules_even_sublattice(z_pm):
    base = V(0, (0,))
    S = frozenset({0})
    walks = (build_MS(z_pm, S), list(build_XS_generators(z_pm, base, S).generators))
    even = (
        GradedMonoid(1, ((1, (0,)), (2, (2,)), (2, (-2,)))),
        [(0, V(0, (0,)))],
    )
    degree = 8
    cert = intersect_graded_modules([walks, even], degree)
    expected = {
        (i, V(0, (2 * k,)))
        for i in range(degree + 1)
        for k in range(-(i // 2), i // 2 + 1)
    }
    assert module_elements_upto(walks[0], walks[1], degree) & module_elements_upto(
        even[0], even[1], degree
    ) == expected
    # one generator suffices: every even point is a monoid translate of the base
    assert cert.generators == ((0, V(0, (0,))),)
    common_monoid = intersect_graded_monoids([walks[0], even[0]], degree)
    regenerated = module_elements_upto(
        GradedMonoid(1, common_monoid.generators), cert.generators, degree
    )
    assert regenerated == expected


def test_intersect_modules_empty():
    a = (GradedMonoid(1, ((1, (1,)),)), [(0, V(0, (0,)))])
    b = (GradedMonoid(1, ((1, (1,)),)), [(0, V(1, (0,)))])
    cert = intersect_graded_modules([a, b], 5)
    assert cert.generators == ()


def test_hilbert_counts_single_ray():
    table = hilbert_counts(
        [((1,), ((1,),))],
        [((0,), (V(0, (0,)),))],
        (6,),
    )
    assert table.values == {(a,): 1 for a in range(7)}


def test_hilbert_counts_two_rays():
    table = hilbert_counts(
        [((1,), ((1,),)), ((1,), ((-1,),))],
        [((0,), (V(0, (0,)),))],
        (6,),
    )
    # degree a reaches a+1 distinct points -a, -a+2, ..., a
    assert table.values == {(a,): a + 1 for a in range(7)}


def test_hilbert_counts_tensor_structure():
    univariate = hilbert_counts(
        [((1,), ((1,),))],
        [((0,), (V(0, (0,)),))],
        (4,),
    )
    split = hilbert_counts(
        [
            ((1, 0), ((1,), (0,))),
            ((0, 1), ((0,), (1,))),
        ],
        [((0, 0), (V(0, (0,)), V(0, (0,))))],
        (4, 4),
    )
    for a1 in range(5):
        for a2 in range(5):
            assert (
                split.values.get((a1, a2), 0)
                == univariate.values.get((a1,), 0) * univariate.values.get((a2,), 0)
            )


def test_generators_split_off_above_degree_bound(z_pm):
    # every module element above the degree bound splits off a generator
    base = V(0, (0,))
    S = frozenset({0})
    monoid = build_MS(z_pm, S)
    gens = build_XS_generators(z_pm, base, S, exhaustive=True)
    radius = 12
    elements = module_elements_upto(monoid, gens.generators, radius)
    monoid_elems = monoid_elements_upto(monoid, radius)
    for i, y in elements:
        if i <= gens.degree_bound:
            continue
        assert any(
            (i - gi, tuple(a - b for a, b in zip(y.coord, gv.coord))) in
            {(mi, mv) for mi, mv in monoid_elems}
            for gi, gv in gens.generators
            if gi <= i and gv.orbit == y.orbit
        )


@st.composite
def plane_covers(draw):
    """A random plane graph with 1-3 orbits and weights 1-2, directed or
    inverse-closed, a base vertex, a radius and the cover options."""
    n = draw(st.integers(1, 3))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                st.integers(1, 2),
            ),
            max_size=5,
        )
    )
    if draw(st.booleans()):  # inverse-closed: every edge has its reverse
        edges += [(dst, src, (-s, -t), w) for src, dst, (s, t), w in edges]
    g = QuotientGraph(
        2,
        tuple(f"o{i}" for i in range(n)),
        tuple(EdgeOrbit(i, *e) for i, e in enumerate(edges)),
    )
    x0 = V(draw(st.integers(0, n - 1)), draw(st.tuples(*[st.integers(-3, 3)] * 2)))
    return g, x0, draw(st.integers(0, 6)), draw(st.booleans()), draw(st.integers(1, 4))


def assert_matches_pair_sets(report, g, x0, radius, max_witnesses):
    expected = pair_set_cover(g, x0, radius, report.blocks, max_witnesses)
    assert report.ok == expected["ok"]
    assert report.covered == expected["covered"]
    assert report.missing == expected["missing"]
    assert report.extra == expected["extra"]
    assert report.module_sizes == expected["module_sizes"]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(plane_covers())
def test_cover_by_least_degrees_matches_pair_sets(case):
    g, x0, radius, exhaustive, max_witnesses = case
    report = verify_cover(
        g, x0, radius, exhaustive=exhaustive, max_witnesses=max_witnesses
    )
    assert report.ok
    assert_matches_pair_sets(report, g, x0, radius, max_witnesses)


def test_cover_missing_pairs_match_pair_sets(honeycomb, monkeypatch):
    # no module generator beyond degree 0: most of the ball goes missing
    monkeypatch.setattr(decomposition, "module_degree_bound", lambda g, S: 0)
    x0, radius = honeycomb.vertex(0), 6
    report = verify_cover(honeycomb, x0, radius, max_witnesses=3)
    assert not report.ok
    assert len(report.missing) == 3 and not report.extra
    assert_matches_pair_sets(report, honeycomb, x0, radius, 3)
    every = pair_set_cover(honeycomb, x0, radius, report.blocks, None)
    assert len(every["missing"]) > 3


def test_cover_extra_pairs_match_pair_sets(honeycomb, monkeypatch):
    # a bogus monoid generator reaches vertices before their distance
    real = decomposition._monoid

    def bogus(rank, S, cycle_data):
        m = real(rank, S, cycle_data)
        return GradedMonoid(rank, m.generators + ((1, (3, 0)),))

    monkeypatch.setattr(decomposition, "_monoid", bogus)
    x0, radius = honeycomb.vertex(0), 6
    report = verify_cover(honeycomb, x0, radius, max_witnesses=3)
    assert not report.ok
    assert len(report.extra) == 3 and not report.missing
    assert_matches_pair_sets(report, honeycomb, x0, radius, 3)
    every = pair_set_cover(honeycomb, x0, radius, report.blocks, None)
    assert len(every["extra"]) > 3
