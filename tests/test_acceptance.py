"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; each
numeric target is reproduced by its independent oracle inside the test
before being asserted against the library.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from perigrowth.ball import distances_upto, growth_sequence
from perigrowth.cli import main
from perigrowth.decomposition import (
    GradedMonoid,
    all_support_sets,
    verify_cover,
    verify_module_action,
)
from perigrowth.periodic_graph import PeriodicVertex, parse_periodic_graph
from perigrowth.series import (
    canonicalize,
    default_denominator,
    expand_mv_series,
    expand_series,
    fit_multivariate,
    fit_univariate,
    fit_univariate_auto,
    quasi_polynomial,
    s_from_b,
    specialize_to_univariate,
)
from perigrowth.vab import (
    GroupElement,
    WeightedGenerator,
    build_cayley,
    enumerate_monoid_module_set,
    parse_eqn,
    parse_set,
    parse_vag,
    relative_growth_terms,
    solve_box,
    univariate_terms,
    validate_group,
)

from conftest import data_path, data_text
from oracles import (
    growth_from_weights,
    honeycomb_patch_growth,
    square_lattice_count,
    word_weights,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_acceptance_1_square_lattice(capsys, tmp_path):
    with capsys.disabled(), criterion(1, "square lattice growth and series via the CLI"):
        started = time.perf_counter()
        oracle = [square_lattice_count(i) for i in range(51)]
        assert oracle[0] == 1 and all(oracle[i] == 4 * i for i in range(1, 51))
        growth_path = tmp_path / "growth.txt"
        code = main(
            ["--output", str(growth_path), "pg", "growth", data_path("square.pg"),
             "--base", "v", "--upto", "50"]
        )
        assert code == 0
        line = growth_path.read_text().splitlines()[1]
        assert [int(t) for t in line.split(",")] == oracle
        series_path = tmp_path / "series.txt"
        code = main(
            ["--output", str(series_path), "pg", "series", data_path("square.pg"),
             "--upto", "50", "--canonical"]
        )
        assert code == 0
        assert series_path.read_text().splitlines() == [
            "perigrowth-format 1",
            "series d=1",
            "num 0 1",
            "num 1 2",
            "num 2 1",  # numerator (1 + t)^2
            "den 1 ^2",  # denominator (1 - t)^2
            "verified 50",
        ]
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_acceptance_2_honeycomb(capsys):
    with capsys.disabled(), criterion(2, "honeycomb growth, series and quasi-polynomial"):
        g = parse_periodic_graph(data_text("honeycomb.pg"))
        oracle = honeycomb_patch_growth(60)
        assert oracle[0] == 1 and all(oracle[i] == 3 * i for i in range(1, 51))
        terms = growth_sequence(g, g.vertex(0), 60)
        assert list(terms) == oracle
        fit = canonicalize(fit_univariate(terms, default_denominator(g)))
        assert fit.verified_through == 60
        assert expand_series(fit, 60) == oracle
        qp = quasi_polynomial(fit)
        assert qp.period == 1
        assert qp.polynomials[0] == (Fraction(0), Fraction(3))  # 3i
        assert qp.exceptions == {0: 1}


def test_acceptance_3_one_way_series(capsys):
    with capsys.disabled(), criterion(3, "one-way lattice series is 1/(1-t)"):
        g = parse_periodic_graph(data_text("z_oneway.pg"))
        terms = growth_sequence(g, g.vertex(0), 25)
        assert list(terms) == [1] * 26  # analytic: one new vertex per step
        fit = canonicalize(fit_univariate(terms, default_denominator(g)))
        assert fit.numerator == (1,)
        assert fit.factors == ((1, 1),)


def test_acceptance_4_dihedral_generating_sets(capsys):
    with capsys.disabled(), criterion(4, "dihedral growth for both generating sets"):
        group, gens3 = parse_vag(data_text("dinf.vag"))
        reflections = [
            WeightedGenerator("b", GroupElement((0,), 1), 1),
            WeightedGenerator("ab", GroupElement((1,), 1), 1),
        ]
        oracle = growth_from_weights(word_weights(group, reflections, 12), 12)
        assert oracle == [1] + [2] * 12
        graph, base = build_cayley(group, reflections)
        assert list(growth_sequence(graph, base, 12)) == oracle
        fit = canonicalize(
            fit_univariate(growth_sequence(graph, base, 30), ((1, 3),))
        )
        assert fit.numerator == (1, 1)  # (1 + t) / (1 - t)
        assert fit.factors == ((1, 1),)
        weights = word_weights(group, gens3, 10)
        graph3, base3 = build_cayley(group, gens3)
        dm = distances_upto(graph3, base3, 10)
        for k in range(-8, 9):
            assert weights[GroupElement((k,), 1)] == abs(k) + 1
            assert dm.distance(PeriodicVertex(1, (k,))) == abs(k) + 1


def test_acceptance_5_klein_bottle(capsys):
    with capsys.disabled(), criterion(5, "Klein-bottle group validates and fits"):
        group, gens = parse_vag(data_text("klein.vag"))
        assert validate_group(group) == []
        graph, base = build_cayley(group, gens)
        window = 25
        extra = 15
        terms = growth_sequence(graph, base, window + extra)
        fit = fit_univariate_auto(terms[: window + 1], default_denominator(graph))
        expansion = expand_series(fit, window + extra)
        assert expansion[window + 1 :] == list(terms[window + 1 :])


def test_acceptance_6_decomposition_verification(capsys):
    with capsys.disabled(), criterion(6, "monoid-module cover and action at radius 15"):
        for name in ("z_pm.pg", "square.pg", "honeycomb.pg"):
            g = parse_periodic_graph(data_text(name))
            base = g.vertex(0)
            report = verify_cover(g, base, 15)
            assert report.ok, (name, report.missing, report.extra)
            for S in all_support_sets(g):
                action = verify_module_action(g, base, S, 15)
                assert action.ok, (name, S, action.witness)
        z_pm = parse_periodic_graph(data_text("z_pm.pg"))
        corrupted = GradedMonoid(1, ((1, (0,)), (1, (1,)), (1, (-1,)), (1, (5,))))
        falsified = verify_module_action(
            z_pm, z_pm.vertex(0), frozenset({0}), 15, monoid=corrupted
        )
        assert not falsified.ok and falsified.witness is not None


def test_acceptance_7_diagonal_identities(capsys):
    with capsys.disabled(), criterion(7, "diagonal multivariate series identities"):
        g = parse_periodic_graph(data_text("z_pm.pg"))
        base = g.vertex(0)
        box = (12, 12)
        dm = distances_upto(g, base, 12)
        diagonal = [(v, v) for v in dm.entries]
        from perigrowth.ball import relative_counts

        table = relative_counts(dm, diagonal, box)
        fitted_s = fit_multivariate(table.counts_exact, box, [((1, 1), 1)])
        assert fitted_s.numerator == {(0, 0): 1, (1, 1): 1}
        assert fitted_s.factors == (((1, 1), 1),)
        fitted_b = fit_multivariate(
            table.counts_cumulative, box, [((1, 0), 1), ((0, 1), 1), ((1, 1), 1)]
        )
        derived = s_from_b(fitted_b)
        assert expand_mv_series(derived, box) == expand_mv_series(fitted_s, box)
        # termwise finite-difference identity on the whole box
        B = table.counts_cumulative
        for a1 in range(13):
            for a2 in range(13):
                diff = (
                    B[(a1, a2)]
                    - (B[(a1 - 1, a2)] if a1 else 0)
                    - (B[(a1, a2 - 1)] if a2 else 0)
                    + (B[(a1 - 1, a2 - 1)] if a1 and a2 else 0)
                )
                assert diff == table.counts_exact.get((a1, a2), 0)


def test_acceptance_8_involution_algebraic_set(capsys):
    with capsys.disabled(), criterion(8, "dihedral involution set: both routes, one series"):
        group, gens = parse_vag(data_text("dinf.vag"))
        arity, words = parse_eqn(data_text("involution.eqn"), group)
        mmset = parse_set(data_text("invol.set"), group)
        box = (10,)
        from_equations = solve_box(group, arity, words, 9)
        graph, base = build_cayley(group, gens)
        dm = distances_upto(graph, base, 10)
        from_pieces = enumerate_monoid_module_set(dm, mmset, box)
        assert sorted(from_equations) == sorted(from_pieces)
        # independent oracle: word weights give 1, 1, 2, 2, ... whose series
        # sums to (1 + t^2) / (1 - t)
        weights = word_weights(group, gens, 10)
        oracle = [0] * 11
        for tup in from_pieces:
            oracle[weights[tup[0]]] += 1
        assert oracle == [1, 1] + [2] * 9
        table = relative_growth_terms(dm, from_pieces, box)
        assert [table.counts_exact.get((i,), 0) for i in range(11)] == oracle
        mv = fit_multivariate(
            table.counts_exact, box, [((1,), 1), ((2,), 1)]
        )
        specialized = specialize_to_univariate(mv)
        direct = canonicalize(
            fit_univariate(
                univariate_terms(dm, from_pieces, 10),
                ((1, 1), (2, 1)),
                margin=5,
            )
        )
        assert specialized.numerator == direct.numerator == (1, 0, 1)
        assert specialized.factors == direct.factors == ((1, 1),)


def test_acceptance_9_fit_honesty(capsys):
    with capsys.disabled(), criterion(9, "fits reproduce 10 unseen ball terms"):
        surplus = 10
        cases = []
        for name in ("square.pg", "honeycomb.pg", "z_pm.pg", "z_oneway.pg"):
            g = parse_periodic_graph(data_text(name))
            cases.append((name, g, g.vertex(0), 30))
        for name in ("dinf.vag", "klein.vag"):
            group, gens = parse_vag(data_text(name))
            graph, base = build_cayley(group, gens)
            cases.append((name, graph, base, 30))
        for name, g, base, window in cases:
            terms = growth_sequence(g, base, window + surplus)
            fit = fit_univariate_auto(terms[: window + 1], default_denominator(g))
            tail = expand_series(fit, window + surplus)[window + 1 :]
            assert tail == list(terms[window + 1 :]), name


def test_acceptance_10_cli_determinism(tmp_path, capsys):
    from test_cli import CORPUS

    with capsys.disabled(), criterion(10, "CLI corpus byte-identical across thread counts"):
        results = {}
        for threads in (1, 8):
            outputs = []
            for index, argv in enumerate(CORPUS):
                path = tmp_path / f"t{threads}_{index}.txt"
                code = main(["--threads", str(threads), "--output", str(path)] + argv)
                outputs.append((code, path.read_bytes()))
            results[threads] = outputs
        assert results[1] == results[8]
