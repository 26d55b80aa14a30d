"""Command line surface: `perigrowth pg ...` and `perigrowth vag ...`.

All output is plain sorted text behind a one-line version header so runs
can be compared byte for byte; math-level failures (no fit, verification
FAIL) exit 1, input problems exit 2, and internal errors print
`internal error:` and exit 2.
"""

from __future__ import annotations

import argparse
import sys

from . import ball, decomposition, series, vab
from .errors import InputError, MathError, PerigrowthError
from .periodic_graph import (
    PeriodicVertex,
    parse_periodic_graph,
    serialize_periodic_graph,
    validate,
)

FORMAT_HEADER = "perigrowth-format 1"

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_base(g, value: str | None) -> PeriodicVertex:
    if value is None:
        if not g.num_orbits:
            raise InputError("the graph has no vertex to start from")
        return g.vertex(0)
    name, _, coords = value.partition(":")
    orbit = g.orbit_index(name)
    if not coords:
        return g.vertex(orbit)
    try:
        vec = tuple(int(t) for t in coords.split(","))
    except ValueError:
        raise InputError(f"bad base coordinates {coords!r}") from None
    if len(vec) != g.dim:
        raise InputError(f"base needs {g.dim} coordinates, got {len(vec)}")
    return g.vertex(orbit, vec)


def _parse_box(value: str, arity: int) -> tuple[int, ...]:
    try:
        parts = [int(t) for t in value.split(",")]
    except ValueError:
        raise InputError(f"bad box {value!r}, expected e.g. 10 or 12,12") from None
    if len(parts) == 1:
        parts = parts * arity
    if len(parts) != arity:
        raise InputError(f"box needs 1 or {arity} bounds, got {len(parts)}")
    if any(p < 0 for p in parts):
        raise InputError("box bounds must be nonnegative")
    return tuple(parts)


def _emit(args, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_pg(path: str):
    g = parse_periodic_graph(_read(path))
    report = validate(g)
    if report:
        raise InputError("; ".join(report))
    return g


def _load_vag(path: str):
    group, gens = vab.parse_vag(_read(path))
    report = vab.validate_group(group)
    if report:
        raise InputError("; ".join(report))
    return group, gens


def _series_lines(obj) -> list[str]:
    return series.series_to_text(obj).splitlines()


def _table_lines(table: ball.RelativeCountTable) -> list[str]:
    lines = []
    for a in sorted(table.counts_cumulative):
        exact = table.counts_exact.get(a, 0)
        cumulative = table.counts_cumulative[a]
        lines.append(" ".join(str(x) for x in a) + f" : {exact} {cumulative}")
    return lines


# ---------------------------------------------------------------------------
# pg subcommands


def cmd_pg_validate(args) -> int:
    g = parse_periodic_graph(_read(args.file))
    report = validate(g)
    if report:
        _emit(args, [FORMAT_HEADER] + report)
        return EXIT_INPUT
    _emit(args, [FORMAT_HEADER, "valid"])
    return EXIT_OK


def cmd_pg_growth(args) -> int:
    g = _load_pg(args.file)
    base = _parse_base(g, args.base)
    terms = ball.growth_sequence(g, base, args.upto, cap=args.max_ball)
    _emit(args, [FORMAT_HEADER, ",".join(map(str, terms))])
    return EXIT_OK


def cmd_pg_series(args) -> int:
    g = _load_pg(args.file)
    base = _parse_base(g, args.base)
    terms = ball.growth_sequence(g, base, args.upto, cap=args.max_ball)
    factors = series.default_denominator(g, cycle_cap=args.max_cycles)
    fit = series.fit_univariate_auto(terms, factors, margin=args.margin)
    if args.canonical:
        fit = series.canonicalize(fit)
    _emit(args, [FORMAT_HEADER] + _series_lines(fit))
    return EXIT_OK


def cmd_pg_decompose(args) -> int:
    g = _load_pg(args.file)
    base = _parse_base(g, args.base)
    cover = decomposition.verify_cover(
        g,
        base,
        args.upto,
        exhaustive=args.exhaustive,
        orbit_guard=args.orbit_guard,
        cap=args.max_ball,
        cycle_cap=args.max_cycles,
    )
    lines = [FORMAT_HEADER]
    ok = cover.ok
    for S, monoid, gens, action in cover.blocks:
        names = ",".join(g.orbits[i] for i in sorted(S))
        lines.append(f"S {{{names}}}")
        lines.append(
            "monoid "
            + " ".join(
                f"({deg} | {' '.join(str(c) for c in vec)})"
                for deg, vec in monoid.generators
            )
        )
        lines.append(
            "module "
            + " ".join(
                f"({deg} | {g.orbits[v.orbit]} {' '.join(str(c) for c in v.coord)})"
                for deg, v in gens.generators
            )
        )
        lines.append("action " + ("PASS" if action.ok else f"FAIL {action.witness}"))
        ok = ok and action.ok
    if cover.ok:
        lines.append(f"cover PASS ({cover.covered} pairs at radius {cover.radius})")
    else:
        lines.append(
            f"cover FAIL missing={list(cover.missing)} extra={list(cover.extra)}"
        )
    _emit(args, lines)
    return EXIT_OK if ok else EXIT_MATH


# ---------------------------------------------------------------------------
# vag subcommands


def cmd_vag_cayley(args) -> int:
    group, gens = _load_vag(args.file)
    graph, base = vab.build_cayley(group, gens)
    lines = [
        f"# {FORMAT_HEADER}",
        f"# base {graph.orbits[base.orbit]}",
    ]
    lines.extend(serialize_periodic_graph(graph).splitlines())
    _emit(args, lines)
    return EXIT_OK


def cmd_vag_growth(args) -> int:
    group, gens = _load_vag(args.file)
    graph, base = vab.build_cayley(group, gens)
    terms = ball.growth_sequence(graph, base, args.upto, cap=args.max_ball)
    _emit(args, [FORMAT_HEADER, ",".join(map(str, terms))])
    return EXIT_OK


def cmd_vag_solve(args) -> int:
    group, gens = _load_vag(args.file)
    arity, words = vab.parse_eqn(_read(args.equations), group)
    solutions = vab.solve_box(group, arity, words, args.box)
    lines = [FORMAT_HEADER, f"solutions {len(solutions)}"]
    lines.extend(" ".join(map(str, tup)) for tup in solutions)
    _emit(args, lines)
    return EXIT_OK


def cmd_vag_relative(args) -> int:
    group, gens = _load_vag(args.file)
    mmset = vab.parse_set(_read(args.set), group)
    box = _parse_box(args.upto, mmset.arity)
    # one ball serves the set enumeration, the counts and the coupling grades
    graph, base = vab.build_cayley(group, gens)
    radius = max(max(box), vab.coupling_radius(graph, mmset))
    dm = ball.distances_upto(graph, base, radius, cap=args.max_ball)
    tuples = vab.enumerate_monoid_module_set(dm, mmset, box, cap=args.max_ball)
    table = vab.relative_growth_terms(dm, tuples, box)
    factors = vab.default_set_denominator(graph, dm, mmset, cycle_cap=args.max_cycles)
    margins = tuple(args.margin for _ in box)
    fit = series.fit_multivariate_auto(
        table.counts_exact, box, factors, margins=margins
    )
    specialized = series.specialize_to_univariate(fit)
    window = min(box)
    uni_terms = vab.univariate_terms(dm, tuples, window)
    direct = series.canonicalize(
        series.fit_univariate_auto(uni_terms, specialized.factors, margin=args.margin)
    )
    lines = [FORMAT_HEADER]
    lines.extend(_table_lines(table))
    lines.extend(_series_lines(fit))
    lines.extend(_series_lines(specialized))
    matches = (specialized.numerator, specialized.factors) == (
        direct.numerator,
        direct.factors,
    )
    lines.append("crosscheck " + ("PASS" if matches else "FAIL"))
    _emit(args, lines)
    return EXIT_OK if matches else EXIT_MATH


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perigrowth",
        description="growth sequences and certified rational growth series",
    )
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; no effect"
    )
    parser.add_argument("--output", help="write output to this path instead of stdout")
    parser.add_argument(
        "--max-ball", type=int, default=ball.DEFAULT_BALL_CAP, help="ball size cap"
    )
    parser.add_argument(
        "--max-cycles", type=int, default=1_000_000, help="cycle enumeration cap"
    )
    top = parser.add_subparsers(dest="family", required=True)

    pg = top.add_parser("pg", help="periodic graph commands").add_subparsers(
        dest="command", required=True
    )
    p = pg.add_parser("validate", help="check a .pg file")
    p.add_argument("file")
    p.set_defaults(run=cmd_pg_validate)
    p = pg.add_parser("growth", help="growth sequence from a base vertex")
    p.add_argument("file")
    p.add_argument("--base", help="orbit name, optionally name:c1,c2,...")
    p.add_argument("--upto", type=int, required=True)
    p.set_defaults(run=cmd_pg_growth)
    p = pg.add_parser("series", help="fit a certified rational growth series")
    p.add_argument("file")
    p.add_argument("--base")
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--margin", type=int, default=series.DEFAULT_MARGIN)
    p.add_argument("--canonical", action="store_true")
    p.set_defaults(run=cmd_pg_series)
    p = pg.add_parser("decompose", help="verify the monoid-module cover")
    p.add_argument("file")
    p.add_argument("--base")
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument(
        "--orbit-guard", type=int, default=decomposition.DEFAULT_ORBIT_GUARD
    )
    p.set_defaults(run=cmd_pg_decompose)

    vg = top.add_parser("vag", help="virtually abelian group commands").add_subparsers(
        dest="command", required=True
    )
    p = vg.add_parser("cayley", help="emit the Cayley periodic graph as .pg")
    p.add_argument("file")
    p.set_defaults(run=cmd_vag_cayley)
    p = vg.add_parser("growth", help="weighted word growth sequence")
    p.add_argument("file")
    p.add_argument("--upto", type=int, required=True)
    p.set_defaults(run=cmd_vag_growth)
    p = vg.add_parser("solve", help="brute-force equation solutions in a lattice box")
    p.add_argument("file")
    p.add_argument("equations")
    p.add_argument("--box", type=int, required=True)
    p.set_defaults(run=cmd_vag_solve)
    p = vg.add_parser("relative", help="relative growth of a monoid-module set")
    p.add_argument("file")
    p.add_argument("set")
    p.add_argument("--upto", required=True, help="degree box, e.g. 10 or 12,12")
    p.add_argument("--margin", type=int, default=series.DEFAULT_MARGIN_PER_AXIS)
    p.set_defaults(run=cmd_vag_relative)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, cap in (("--max-ball", args.max_ball), ("--max-cycles", args.max_cycles)):
        if cap < 1:
            parser.error(f"argument {flag}: a cap must be at least 1, got {cap}")
    try:
        return args.run(args)
    except MathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PerigrowthError, ValueError) as exc:
        # a broken invariant of the program, not of its input
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
