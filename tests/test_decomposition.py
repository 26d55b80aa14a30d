import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigrowth import decomposition
from perigrowth.ball import VertexCodec, vertex_codec
from perigrowth.decomposition import (
    MAX_WITNESSES,
    GradedMonoid,
    all_support_sets,
    build_MS,
    build_XS_generators,
    module_elements_upto,
    support_distances,
    verify_cover,
    verify_module_action,
)
from perigrowth.errors import GuardError, ResourceLimitError
from perigrowth.periodic_graph import (
    EdgeOrbit,
    PeriodicVertex,
    QuotientGraph,
    parse_periodic_graph,
)

from conftest import SEED, data_text
from oracles import (
    monoid_elements_by_exponents,
    pair_set_cover,
    reference_action,
    support_state_distances,
)

V = PeriodicVertex


def ring(n: int) -> QuotientGraph:
    """n orbits on a 1-D ring, each with a step forward, a step back and a
    loop one period along, all of weight 1."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n, (int(i == n - 1),), 1))
        edges.append((i, (i - 1) % n, (-int(i == 0),), 1))
        edges.append((i, i, (1,), 1))
    return QuotientGraph(
        1,
        tuple(f"o{i}" for i in range(n)),
        tuple(EdgeOrbit(i, *e) for i, e in enumerate(edges)),
    )


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


def exhaustive_generators(g, x0, S, radius):
    """The generators of S that `verify_cover(..., exhaustive=True)` prints."""
    report = verify_cover(g, x0, radius, exhaustive=True)
    return next(gens for T, _, gens, _ in report.blocks if T == S)


def test_build_XS_exhaustive_generates_same_module(z_pm):
    base = V(0, (0,))
    S = frozenset({0})
    monoid = build_MS(z_pm, S)
    minimal = build_XS_generators(z_pm, base, S)
    full = exhaustive_generators(z_pm, base, S, 9)
    assert full.degree_bound == minimal.degree_bound
    assert set(minimal.generators) < set(full.generators)
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


def test_cover_decodes_only_the_module_generators(honeycomb, monkeypatch):
    # every search steps packed keys: no translate, and on a passing cover
    # one cell passes through the decoder per returned module generator, on
    # bit rows and on the Dial alike (every decode runs through
    # `VertexCodec.coords`)
    decoded = []
    real = VertexCodec.coords

    def counting(codec, cells):
        decoded.extend(cells)
        return real(codec, cells)

    monkeypatch.setattr(VertexCodec, "coords", counting)
    monkeypatch.setattr(decomposition, "translate", None)
    for rows in (True, False):
        monkeypatch.setattr(decomposition, "rows_fit", lambda *_, rows=rows: rows)
        decoded.clear()
        report = verify_cover(honeycomb, V(1, (2, -1)), 20)
        assert report.ok
        assert len(decoded) == sum(len(gens.generators) for _, _, gens, _ in report.blocks)


def test_verify_cover_orbit_guard():
    names = [f"v{i}" for i in range(13)]
    text = "dim 1\n" + "\n".join(f"vertex {n}" for n in names)
    g = parse_periodic_graph(text)
    with pytest.raises(GuardError):
        verify_cover(g, g.vertex(0), 3)
    g = ring(decomposition.DEFAULT_ORBIT_GUARD)
    assert verify_cover(g, g.vertex(0), 6).ok


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


def test_verify_module_action_rejects_a_monoid_of_another_rank(honeycomb):
    # a packed delta of a short vector would silently drop an axis
    monoid = GradedMonoid(1, ((1, (0,)), (1, (2,))))
    with pytest.raises(ValueError, match="dimension 2"):
        verify_module_action(honeycomb, V(0, (0, 0)), frozenset({0, 1}), 4, monoid=monoid)


def test_all_support_sets(honeycomb):
    assert all_support_sets(honeycomb) == [
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1}),
    ]


def test_monoid_elements_match_exponent_oracle(z_pm):
    # one module generator at degree 0 on the base vertex: the module is the
    # monoid itself, translated onto orbit 0
    m = build_MS(z_pm, frozenset({0}))
    for degree in (4, 7):
        elements = module_elements_upto(m, [(0, V(0, (0,)))], degree)
        assert {(d, y.coord) for d, y in elements} == monoid_elements_by_exponents(
            list(m.generators), degree
        )


def test_intersect_monoids_rejects_degree_zero_drift(z_pm, monkeypatch):
    # a degree-0 generator that moves the vertex makes every graded piece
    # infinite, so the least-degree search must refuse it
    real = decomposition._monoid

    def drifting(rank, S, cycle_data):
        m = real(rank, S, cycle_data)
        return GradedMonoid(rank, m.generators + ((0, (1,)),))

    monkeypatch.setattr(decomposition, "_monoid", drifting)
    with pytest.raises(ValueError, match="degree-0"):
        verify_cover(z_pm, V(0, (0,)), 3)


def test_generators_split_off_above_degree_bound(z_pm):
    # every module element above the degree bound splits off a generator
    base = V(0, (0,))
    S = frozenset({0})
    monoid = build_MS(z_pm, S)
    radius = 12
    gens = exhaustive_generators(z_pm, base, S, radius)
    elements = module_elements_upto(monoid, gens.generators, radius)
    monoid_elems = monoid_elements_by_exponents(list(monoid.generators), radius)
    for i, y in elements:
        if i <= gens.degree_bound:
            continue
        assert any(
            (i - gi, tuple(a - b for a, b in zip(y.coord, gv.coord))) in monoid_elems
            for gi, gv in gens.generators
            if gi <= i and gv.orbit == y.orbit
        )


@st.composite
def plane_covers(draw):
    """A random plane graph with 1-3 orbits and weights 1-2, directed or
    inverse-closed, a base vertex, a radius and the exhaustive flag."""
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
    return g, x0, draw(st.integers(0, 6)), draw(st.booleans())


def assert_matches_pair_sets(report, g, x0, radius):
    expected = pair_set_cover(g, x0, radius, report.blocks, MAX_WITNESSES)
    assert report.ok == expected["ok"]
    assert report.covered == expected["covered"]
    assert report.missing == expected["missing"]
    assert report.extra == expected["extra"]
    assert report.module_sizes == expected["module_sizes"]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(plane_covers())
def test_cover_by_least_degrees_matches_pair_sets(case):
    g, x0, radius, exhaustive = case
    report = verify_cover(g, x0, radius, exhaustive=exhaustive)
    assert report.ok
    assert_matches_pair_sets(report, g, x0, radius)


@st.composite
def space_covers(draw):
    """A random 3-D graph with 1-2 orbits and weights 1-2, directed or
    inverse-closed, a base vertex, a radius and the exhaustive flag."""
    n = draw(st.integers(1, 2))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.tuples(*[st.integers(-1, 1)] * 3),
                st.integers(1, 2),
            ),
            min_size=1,
            max_size=4,
        )
    )
    if draw(st.booleans()):  # inverse-closed: every edge has its reverse
        edges += [(dst, src, tuple(-c for c in s), w) for src, dst, s, w in edges]
    g = QuotientGraph(
        3,
        tuple(f"o{i}" for i in range(n)),
        tuple(EdgeOrbit(i, *e) for i, e in enumerate(edges)),
    )
    x0 = V(draw(st.integers(0, n - 1)), draw(st.tuples(*[st.integers(-3, 3)] * 3)))
    return g, x0, draw(st.integers(1, 4)), draw(st.booleans())


HONEYCOMB = parse_periodic_graph(data_text("honeycomb.pg"))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    st.one_of(plane_covers(), space_covers()),
    st.sampled_from(["sound", "degree bound 0", "bogus generator"]),
    st.tuples(st.integers(1, 2), st.tuples(*[st.integers(-3, 3)] * 3)),
)
@example((HONEYCOMB, V(0, (0, 0)), 6, False), "degree bound 0", (1, (0, 0, 0)))
@example((HONEYCOMB, V(1, (2, -1)), 5, True), "bogus generator", (1, (3, 0, 0)))
@example((HONEYCOMB, V(0, (0, 0)), 3, False), "bogus generator", (2, (-3, 2, 0)))
def test_cover_paths_agree_with_pair_sets(case, fault, generator):
    # the bit-row and Dial covers, each forced, return equal reports, and
    # both match the pair-set oracle and the reference action, failing
    # covers included: no generator above degree 0 leaves pairs missing,
    # and a bogus monoid generator adds extra pairs and fails the action
    g, x0, radius, exhaustive = case
    real = decomposition._monoid
    gd, vec = generator[0], generator[1][: g.dim]
    reports = []
    with pytest.MonkeyPatch.context() as patch:
        if fault == "degree bound 0":
            patch.setattr(decomposition, "module_degree_bound", lambda g, S: 0)
        if fault == "bogus generator":
            patch.setattr(
                decomposition,
                "_monoid",
                lambda rank, S, data: GradedMonoid(
                    rank, real(rank, S, data).generators + ((gd, vec),)
                ),
            )
        for rows in (True, False):
            patch.setattr(decomposition, "rows_fit", lambda *_, rows=rows: rows)
            reports.append(verify_cover(g, x0, radius, exhaustive=exhaustive))
    assert reports[0] == reports[1]
    assert_matches_pair_sets(reports[0], g, x0, radius)
    sdist = support_state_distances(g, x0, radius)
    for S, monoid, _, action in reports[0].blocks:
        assert action == reference_action(sdist, S, monoid, radius)


def shortened_walk_bound(g, S):
    """W * (k - 1)(k + 2) / 2, the proved length of a walk with no cycle to cut."""
    k = len(S)
    return g.max_weight() * (k - 1) * (k + 2) // 2


@settings(max_examples=60, derandomize=True, deadline=None)
@given(plane_covers())
def test_cover_holds_at_the_proved_degree_bound(case):
    # the bound W * |S|^2 is a relaxation of the walk-shortening bound
    g, x0, radius, exhaustive = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomposition, "module_degree_bound", shortened_walk_bound)
        assert verify_cover(g, x0, radius, exhaustive=exhaustive).ok


def test_cover_holds_far_above_the_degree_bound():
    # the pieces are generated below W * n^2; check the cover at a radius
    # three times that, where a missing generator could no longer hide
    rng = random.Random(SEED)
    for case in range(8):
        dim, n = rng.randint(1, 2), rng.randint(1, 3)
        edges = [
            (
                rng.randrange(n),
                rng.randrange(n),
                tuple(rng.randint(-1, 1) for _ in range(dim)),
                rng.randint(1, 2),
            )
            for _ in range(rng.randint(1, 6))
        ]
        if case % 2:  # inverse-closed: every edge has its reverse
            edges += [(dst, src, tuple(-c for c in s), w) for src, dst, s, w in edges]
        g = QuotientGraph(
            dim,
            tuple(f"o{i}" for i in range(n)),
            tuple(EdgeOrbit(i, *e) for i, e in enumerate(edges)),
        )
        radius = 3 * g.max_weight() * n**2 + 4
        assert verify_cover(g, g.vertex(rng.randrange(n)), radius).ok, (g, radius)


def test_cover_missing_pairs_match_pair_sets(honeycomb, monkeypatch):
    # no module generator beyond degree 0: most of the ball goes missing
    monkeypatch.setattr(decomposition, "module_degree_bound", lambda g, S: 0)
    x0, radius = honeycomb.vertex(0), 6
    report = verify_cover(honeycomb, x0, radius)
    assert not report.ok
    assert len(report.missing) == MAX_WITNESSES == 10 and not report.extra
    assert_matches_pair_sets(report, honeycomb, x0, radius)
    every = pair_set_cover(honeycomb, x0, radius, report.blocks, None)
    assert len(every["missing"]) > 10


def test_cover_extra_pairs_match_pair_sets(honeycomb, monkeypatch):
    # a bogus monoid generator reaches vertices before their distance; the
    # last two move farther per degree than any edge, so the packed layout
    # must be sized by the monoid, not by the edges alone
    real = decomposition._monoid
    x0 = honeycomb.vertex(0)
    for generator, radius in [((1, (3, 0)), 6), ((1, (7, 7)), 3), ((1, (-5, 2)), 3)]:

        def bogus(rank, S, cycle_data, generator=generator):
            m = real(rank, S, cycle_data)
            return GradedMonoid(rank, m.generators + (generator,))

        monkeypatch.setattr(decomposition, "_monoid", bogus)
        report = verify_cover(honeycomb, x0, radius)
        assert not report.ok
        assert len(report.extra) == MAX_WITNESSES == 10 and not report.missing
        assert_matches_pair_sets(report, honeycomb, x0, radius)
        every = pair_set_cover(honeycomb, x0, radius, report.blocks, None)
        assert len(every["extra"]) > 10


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    plane_covers(),
    st.tuples(st.integers(1, 3), st.tuples(*[st.integers(-7, 7)] * 2)),
)
def test_packed_action_matches_reference(case, generator):
    # one bogus generator added to every monoid: the packed action check
    # returns the reference report, the witness included
    g, x0, radius, exhaustive = case
    real = decomposition._monoid

    def bogus(rank, S, cycle_data):
        return GradedMonoid(rank, real(rank, S, cycle_data).generators + (generator,))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomposition, "_monoid", bogus)
        report = verify_cover(g, x0, radius, exhaustive=exhaustive)
    sdist = support_state_distances(g, x0, radius)
    for S, monoid, _, action in report.blocks:
        assert action == reference_action(sdist, S, monoid, radius)


def test_graded_monoid_rejects_degree_zero_move():
    # a degree-0 generator that moves the vertex makes every graded piece
    # infinite, so no monoid may hold one
    with pytest.raises(ValueError, match="degree-0"):
        GradedMonoid(2, ((1, (0, 0)), (0, (4, -3))))
    assert GradedMonoid(2, ((0, (0, 0)), (1, (0, 0)))).generators


@st.composite
def support_searches(draw):
    """A random graph with 1-3 orbits, dim 1-2 and weights 1-3, directed or
    inverse-closed, a base vertex off the origin and a radius."""
    n, dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.tuples(*[st.integers(-1, 1)] * dim),
                st.integers(1, 3),
            ),
            max_size=6,
        )
    )
    if draw(st.booleans()):  # inverse-closed: every edge has its reverse
        edges += [(dst, src, tuple(-c for c in s), w) for src, dst, s, w in edges]
    g = QuotientGraph(
        dim,
        tuple(f"o{i}" for i in range(n)),
        tuple(EdgeOrbit(i, *e) for i, e in enumerate(edges)),
    )
    x0 = V(draw(st.integers(0, n - 1)), draw(st.tuples(*[st.integers(-3, 3)] * dim)))
    return g, x0, draw(st.integers(0, 7))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(support_searches())
# 12 << 12 step classes, of which the search reaches a handful
@example((ring(12), V(3, (0,)), 1))
@example((ring(12), V(3, (0,)), 2))
def test_support_distances_match_reference(case):
    # each packed state key << n | mask decodes to (endpoint, exact support)
    g, x0, radius = case
    codec = vertex_codec(g, x0, radius)
    n = g.num_orbits
    got = {
        (codec.decode(state >> n), frozenset(i for i in range(n) if state >> i & 1)): d
        for state, d in support_distances(g, codec).items()
    }
    assert got == support_state_distances(g, x0, radius)


def test_search_caps_count_every_node_held(honeycomb, monkeypatch):
    # a search may hold exactly `cap` nodes, its starts included, and no more
    x0, radius = V(1, (2, -1)), 6
    codec = vertex_codec(honeycomb, x0, radius)
    size = len(support_distances(honeycomb, codec))
    assert len(support_distances(honeycomb, codec, cap=size)) == size
    with pytest.raises(ResourceLimitError):
        support_distances(honeycomb, codec, cap=size - 1)
    # the module search holds the (subset, vertex) states of every subset at
    # once: a bogus generator grows the modules of {1} and {0, 1} past the
    # support states, so the module search is the one to reach the cap
    real = decomposition._monoid

    def bogus(rank, S, data):
        return GradedMonoid(rank, real(rank, S, data).generators + ((1, (3, 0)),))

    monkeypatch.setattr(decomposition, "_monoid", bogus)
    report = verify_cover(honeycomb, x0, radius)
    pieces = [
        {y for _, y in module_elements_upto(monoid, gens.generators, radius)}
        for _, monoid, gens, _ in report.blocks
    ]
    assert sum(map(bool, pieces)) >= 2
    held = sum(map(len, pieces))
    assert held > len(support_state_distances(honeycomb, x0, radius))
    for rows in (True, False):
        monkeypatch.setattr(decomposition, "rows_fit", lambda *_, rows=rows: rows)
        assert verify_cover(honeycomb, x0, radius, cap=held) == report
        with pytest.raises(ResourceLimitError, match="module saturation exceeded"):
            verify_cover(honeycomb, x0, radius, cap=held - 1)


@pytest.mark.parametrize(
    "g, generator",
    [(HONEYCOMB, (1, (3, 0))), (ring(3), (1, (3,)))],
    ids=["honeycomb", "ring3"],
)
def test_merged_module_search_keeps_subsets_apart(g, generator, monkeypatch):
    # a bogus generator in one subset's monoid only: on both backends every
    # other subset keeps its module and its passing action, so no mask's
    # moves reach another mask's states in the one module search
    x0, radius = g.vertex(0), 5
    clean = verify_cover(g, x0, radius)
    real = decomposition._monoid
    for bad in [S for S, size in clean.module_sizes.items() if size]:

        def bogus(rank, S, data, bad=bad):
            gens = real(rank, S, data).generators
            return GradedMonoid(rank, gens + (generator,) if S == bad else gens)

        reports = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(decomposition, "_monoid", bogus)
            for rows in (True, False):
                patch.setattr(decomposition, "rows_fit", lambda *_, rows=rows: rows)
                reports.append(verify_cover(g, x0, radius))
        assert reports[0] == reports[1]
        report = reports[0]
        expected = pair_set_cover(g, x0, radius, report.blocks, MAX_WITNESSES)
        assert report.module_sizes == expected["module_sizes"]
        assert report.module_sizes[bad] > clean.module_sizes[bad]
        for S, _, _, action in report.blocks:
            if S != bad:
                assert action.ok, (bad, S)
                assert report.module_sizes[S] == clean.module_sizes[S], (bad, S)
