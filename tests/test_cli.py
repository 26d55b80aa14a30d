import json
from pathlib import Path

import pytest

from perigrowth import ball, decomposition, vab
from perigrowth.cli import main
from perigrowth.series import expand_mv_series, series_from_text

from conftest import data_path, data_text
from oracles import word_weights

# expected stdout bytes (<name>.out) and exit codes (exit_codes.json); only an
# intended change of the output format may rewrite them
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pg_growth_square(capsys):
    code, out, _ = run_cli(
        capsys, "pg", "growth", data_path("square.pg"), "--base", "v", "--upto", "5"
    )
    assert code == 0
    assert out.splitlines() == ["perigrowth-format 1", "1,4,8,12,16,20"]


def test_pg_growth_base_with_coords(capsys):
    code, out, _ = run_cli(
        capsys,
        "pg", "growth", data_path("square.pg"), "--base", "v:3,-2", "--upto", "4",
    )
    assert code == 0
    assert out.splitlines()[1] == "1,4,8,12,16"


def test_pg_series_one_way(capsys):
    code, out, _ = run_cli(
        capsys,
        "pg", "series", data_path("z_oneway.pg"),
        "--upto", "20", "--margin", "10", "--canonical",
    )
    assert code == 0
    assert out.splitlines() == [
        "perigrowth-format 1",
        "series d=1",
        "num 0 1",
        "den 1 ^1",
        "verified 20",
    ]


def test_pg_series_canonical_lifts_non_product_denominator(capsys, tmp_path):
    # the series is (1 - t^10) / ((1 - t^3)(1 - t^7)); its reduced denominator
    # (1 + t + t^2)(1 - t^7) is no (1 - t^w) product, so the printed form
    # lifts it back to (1 - t^3)(1 - t^7)
    pg = tmp_path / "lift.pg"
    pg.write_text("dim 1\nvertex v\nedge v v 1 3\nedge v v -1 7\n")
    code, out, err = run_cli(
        capsys, "pg", "series", str(pg), "--upto", "60", "--canonical"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "perigrowth-format 1",
        "series d=1",
        "num 0 1",
        "num 10 -1",
        "den 3 ^1",
        "den 7 ^1",
        "verified 60",
    ]


def test_pg_series_no_fit_exit_code(capsys, tmp_path):
    # growth of the square lattice cannot be matched by a bare (1-t)
    bad = tmp_path / "bad.pg"
    bad.write_text("dim 2\nvertex v\nedge v v 1 0 1\nedge v v 0 1 1\n")
    code, out, err = run_cli(
        capsys, "pg", "series", str(bad), "--upto", "6", "--margin", "10"
    )
    assert code == 1
    assert "no fit" in err or "insufficient" in err


def test_pg_validate_reports(capsys, tmp_path):
    bad = tmp_path / "bad.pg"
    bad.write_text("dim 1\nvertex v\nedge v v 1 0\n")
    code, out, err = run_cli(capsys, "pg", "validate", str(bad))
    assert code == 2
    assert "weight" in err


def test_pg_missing_file(capsys):
    code, _, err = run_cli(capsys, "pg", "growth", "nope.pg", "--upto", "3")
    assert code == 2
    assert "cannot read" in err


def test_pg_decompose_z_pm(capsys):
    code, out, _ = run_cli(
        capsys, "pg", "decompose", data_path("z_pm.pg"), "--upto", "15"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines.count("action PASS") == 2  # S = {} and S = {v}
    assert any(line.startswith("cover PASS") for line in lines)


def test_vag_cayley_shape(capsys):
    code, out, _ = run_cli(capsys, "vag", "cayley", data_path("dinf.vag"))
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("vertex ")) == 2
    assert sum(1 for ln in lines if ln.startswith("edge ")) == 6


def test_vag_cayley_round_trip(capsys, tmp_path):
    out_path = tmp_path / "dinf.pg"
    code, _, _ = run_cli(
        capsys, "--output", str(out_path), "vag", "cayley", data_path("dinf.vag")
    )
    assert code == 0
    code, growth_direct, _ = run_cli(
        capsys, "vag", "growth", data_path("dinf.vag"), "--upto", "9"
    )
    assert code == 0
    code, growth_via_pg, _ = run_cli(
        capsys, "pg", "growth", str(out_path), "--base", "f0", "--upto", "9"
    )
    assert code == 0
    assert growth_direct.splitlines()[1] == growth_via_pg.splitlines()[1]


def test_vag_solve_involutions(capsys):
    code, out, _ = run_cli(
        capsys,
        "vag", "solve", data_path("dinf.vag"), data_path("involution.eqn"),
        "--box", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "solutions 8"
    assert lines[2:] == [
        "(-3;1)", "(-2;1)", "(-1;1)", "(0;0)", "(0;1)", "(1;1)", "(2;1)", "(3;1)",
    ]


def test_vag_relative_involutions(capsys):
    code, out, _ = run_cli(
        capsys,
        "vag", "relative", data_path("dinf.vag"), data_path("invol.set"),
        "--upto", "10", "--margin", "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert "crosscheck PASS" in lines
    # the specialized univariate certificate is (1 + t^2) / (1 - t)
    block = lines[lines.index("crosscheck PASS") - 5 :]
    assert "num 0 1" in block and "num 2 1" in block and "den 1 ^1" in block


def test_vag_relative_lattice_diagonal_inside_dinf(capsys):
    # the diagonal of the translation lattice, sitting inside the dihedral group
    code, out, _ = run_cli(
        capsys,
        "vag", "relative", data_path("dinf.vag"), data_path("diag.set"),
        "--upto", "16,16",
    )
    assert code == 0
    assert "crosscheck PASS" in out.splitlines()


# Z with unit generators a, a^-1: a trivial finite part over a rank-1 lattice
Z_VAG = "rank 1\nfinite 1\nmult 0\ngen a 1 0 1\ngen ai -1 0 1\n"


def test_vag_relative_diagonal_over_z(capsys, tmp_path):
    zfile = tmp_path / "z.vag"
    zfile.write_text(Z_VAG)
    code, out, _ = run_cli(
        capsys,
        "vag", "relative", str(zfile), data_path("diag.set"), "--upto", "12,12",
    )
    assert code == 0
    lines = out.splitlines()
    assert "crosscheck PASS" in lines
    assert "0 0 : 1 1" in lines
    assert "3 3 : 2 7" in lines


def test_ball_cap_exits_2_with_empty_stdout(capsys):
    code, out, err = run_cli(
        capsys,
        "--max-ball", "1000", "pg", "growth", data_path("square.pg"), "--upto", "200",
    )
    assert code == 2
    assert "ball size exceeded 1000" in err
    assert out == ""


@pytest.mark.parametrize(
    "cap, radius",
    [
        # one vertex below the ball: on bit rows at radius 30, on the Dial
        # at radius 200, where 201 * 401^2 > 64 * 80400
        pytest.param("1860", "30", id="bit-rows"),
        pytest.param("80400", "200", id="dial"),
    ],
)
def test_ball_cap_boundary_exits_2(capsys, cap, radius):
    code, out, err = run_cli(
        capsys, "--max-ball", cap, "pg", "growth", data_path("square.pg"), "--upto", radius
    )
    assert (code, out) == (2, "")
    assert err == f"error: ball size exceeded {cap} nodes; raise the cap\n"


# two orbits joined both ways, each with the eight king steps: at radius 4
# its ball holds 130 vertices and its support-graded search 155 states
KING = "dim 2\nvertex a\nvertex b\nedge a b 0 0 1\nedge b a 0 0 1\n" + "".join(
    f"edge {v} {v} {s} {t} 1\n"
    for v in "ab"
    for s in (-1, 0, 1)
    for t in (-1, 0, 1)
    if s or t
)


@pytest.mark.parametrize(
    "graph, size, what",
    [
        # square r=4: 41 vertices, and as many support states
        pytest.param("square", 41, "ball size", id="ball"),
        pytest.param("king", 155, "support-graded ball", id="supports"),
        # a bogus diagonal generator takes the {v} piece past the ball, to 51
        pytest.param("square-bogus", 51, "module saturation", id="saturation"),
    ],
)
def test_decompose_cap_boundary_on_bit_rows(capsys, monkeypatch, tmp_path, graph, size, what):
    # the cap admits the rows at both values, so each message is raised
    # by the bit-row cover; with the rows refused, the Dial cover raises
    # the same message at the same count
    path = data_path("square.pg")
    if graph == "king":
        path = tmp_path / "king.pg"
        path.write_text(KING)
    if graph == "square-bogus":
        real = decomposition._monoid

        def bogus(rank, S, cycle_data):
            m = real(rank, S, cycle_data)
            return decomposition.GradedMonoid(rank, m.generators + ((1, (1, 1)),))

        monkeypatch.setattr(decomposition, "_monoid", bogus)
    admitted = []
    real_fit = decomposition.rows_fit
    argv = ["pg", "decompose", str(path), "--upto", "4"]
    for on_rows in (True, False):
        monkeypatch.setattr(
            decomposition,
            "rows_fit",
            lambda *a: admitted.append(real_fit(*a)) or (admitted[-1] and on_rows),
        )
        code, out, err = run_cli(capsys, "--max-ball", str(size), *argv)
        assert (code, err) == ((1, "") if graph == "square-bogus" else (0, ""))
        assert out.startswith("perigrowth-format 1\n")
        code, out, err = run_cli(capsys, "--max-ball", str(size - 1), *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {what} exceeded {size - 1} nodes; raise the cap\n"
    assert admitted == [True] * 4


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-cycles", "1", "pg", "decompose", data_path("honeycomb.pg"),
          "--upto", "5"], "more than 1 cycles"),
        (["--max-ball", "10", "pg", "decompose", data_path("honeycomb.pg"),
          "--upto", "8"], "ball size exceeded 10"),
        (["--max-cycles", "1", "vag", "relative", data_path("dinf.vag"),
          data_path("invol.set"), "--upto", "10", "--margin", "5"],
         "more than 1 cycles"),
        (["--max-ball", "5", "vag", "relative", data_path("dinf.vag"),
          data_path("invol.set"), "--upto", "10", "--margin", "5"],
         "ball size exceeded 5"),
    ],
)
def test_caps_reach_decompose_and_relative(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_decompose_orbit_guard(capsys, tmp_path):
    # 13 edgeless orbits: one past the default guard on the 2^n subsets
    path = tmp_path / "orbits13.pg"
    path.write_text("dim 1\n" + "".join(f"vertex v{i}\n" for i in range(13)))
    argv = ["pg", "decompose", str(path), "--upto", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: 13 orbits exceed the subset guard of 12\n"
    code, out, err = run_cli(capsys, *argv, "--orbit-guard", "13")
    assert (code, err) == (0, "")
    assert out.count("S {") == 2**13
    assert out.endswith("cover PASS (4 pairs at radius 3)\n")


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def test_decompose_searches_cycles_and_supports_once(capsys, monkeypatch, honeycomb, z_pm):
    # no graded pair sets: the cover compares least degrees on packed keys,
    # so the decoding `distances_upto` never runs.  Each representation has
    # one kernel, called once per search: the ball, the support search and
    # one module saturation per orbit subset.  On the plane they are bit
    # rows and run no Dial search; on the 1-D z_pm each is a Dial search
    calls = []
    names = (
        "enumerate_cycles",
        "support_distances",
        "packed_distances",
        "distances_upto",
        "graded_growth_slice",
        "module_elements_upto",
        "dial_distances",
        "first_reach_rows",
    )
    for module in (ball, decomposition):
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                monkeypatch.setattr(module, name, counting(calls, name, fn))
    code, _, _ = run_cli(
        capsys, "pg", "decompose", data_path("honeycomb.pg"), "--upto", "6"
    )
    assert code == 0
    searches = 2 + len(decomposition.all_support_sets(honeycomb))
    assert sorted(calls) == ["enumerate_cycles"] + ["first_reach_rows"] * searches
    calls.clear()
    code, _, _ = run_cli(capsys, "pg", "decompose", data_path("z_pm.pg"), "--upto", "6")
    assert code == 0
    searches = 2 + len(decomposition.all_support_sets(z_pm))
    assert sorted(calls) == sorted(
        ["enumerate_cycles", "packed_distances", "support_distances"]
        + ["dial_distances"] * searches
    )
    # `pg growth` on the plane counts its shells on one row search and
    # runs no Dial search; on the 1-D z_pm it counts them from one Dial ball
    calls.clear()
    code, _, _ = run_cli(capsys, "pg", "growth", data_path("honeycomb.pg"), "--upto", "6")
    assert code == 0
    assert calls == ["first_reach_rows"]
    calls.clear()
    code, _, _ = run_cli(capsys, "pg", "growth", data_path("z_pm.pg"), "--upto", "6")
    assert code == 0
    assert sorted(calls) == ["dial_distances", "packed_distances"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-ball", "0", "pg", "growth", data_path("square.pg"), "--upto", "0"],
        ["--max-ball", "-5", "pg", "growth", data_path("square.pg"), "--upto", "3"],
        ["--max-cycles", "-1", "pg", "series", data_path("square.pg"), "--upto", "10"],
        ["--max-cycles", "0", "vag", "relative", data_path("dinf.vag"),
         data_path("invol.set"), "--upto", "10"],
    ],
)
def test_caps_below_one_exit_2_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert "a cap must be at least 1" in captured.err
    assert captured.out == ""


def test_cap_of_one_holds_the_base(capsys):
    code, out, _ = run_cli(
        capsys, "--max-ball", "1", "pg", "growth", data_path("square.pg"), "--upto", "0"
    )
    assert (code, out.splitlines()[1]) == (0, "1")


def test_vag_relative_builds_one_graph_and_one_ball(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(
        vab, "build_cayley", counting(calls, "build_cayley", vab.build_cayley)
    )
    monkeypatch.setattr(
        ball, "distances_upto", counting(calls, "distances_upto", ball.distances_upto)
    )
    code, _, _ = run_cli(
        capsys,
        "vag", "relative", data_path("dinf.vag"), data_path("invol.set"),
        "--upto", "10", "--margin", "5",
    )
    assert code == 0
    assert sorted(calls) == ["build_cayley", "distances_upto"]


def test_vag_relative_grades_coupling_by_ball_weight(capsys, tmp_path):
    # in the Klein-bottle group (0,1;0) = b^2 weighs 2, more than |u|_1 times
    # the largest generator weight; the coupling factor (1 - z1 z2^2) must
    # still enter the ansatz, or the multivariate fit fails
    path = tmp_path / "k.set"
    path.write_text("arity 2\npiece\nugen 1 0 0 1\nshift (0,0;0) (0,0;0)\n")
    code, out, err = run_cli(
        capsys, "vag", "relative", data_path("klein.vag"), str(path), "--upto", "12"
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "den 1 2 ^1" in lines
    assert lines[-1] == "crosscheck PASS"
    start = lines.index("series d=2")
    end = lines.index("verified 12 12") + 1
    fit = series_from_text("\n".join(lines[start:end]))
    # brute force: the set is {(a^k, b^2k)}, graded by word weights alone
    group, gens = vab.parse_vag(data_text("klein.vag"))
    weights = word_weights(group, gens, 12)
    table = {}
    for k in range(13):
        w = (
            weights.get(vab.GroupElement((k, 0), 0)),
            weights.get(vab.GroupElement((0, k), 0)),
        )
        if None not in w:
            table[w] = table.get(w, 0) + 1
    expansion = expand_mv_series(fit, (12, 12))
    assert {a: c for a, c in expansion.items() if c} == table


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pg", "growth", data_path("square.pg"), "--upto", "3", "--base", "nosuch"],
         "unknown orbit name 'nosuch'"),
        (["vag", "solve", data_path("dinf.vag"), data_path("involution.eqn"),
          "--box", "-1"], "box radius must be nonnegative"),
        (["pg", "series", data_path("square.pg"), "--upto", "30", "--margin", "-3"],
         "margin must be nonnegative"),
        (["vag", "relative", data_path("dinf.vag"), data_path("invol.set"),
          "--upto", "10", "--margin", "-1"], "margin must be nonnegative"),
        (["vag", "relative", data_path("dinf.vag"), data_path("invol.set"),
          "--upto", "4,x"], "bad box '4,x'"),
        (["vag", "relative", data_path("dinf.vag"), data_path("invol.set"),
          "--upto", ""], "bad box ''"),
        (["pg", "growth", data_path("square.pg"), "--upto", "-1"],
         "radius must be nonnegative"),
        (["pg", "decompose", data_path("square.pg"), "--upto", "-1"],
         "radius must be nonnegative"),
    ],
)
def test_bad_arguments_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err
    assert out == ""


def test_graph_without_vertex_exits_2_on_searches(capsys, tmp_path):
    path = tmp_path / "empty.pg"
    path.write_text("dim 1\n")
    code, out, err = run_cli(capsys, "pg", "validate", str(path))
    assert (code, out, err) == (0, "perigrowth-format 1\nvalid\n", "")
    for command in ("growth", "series", "decompose"):
        code, out, err = run_cli(capsys, "pg", command, str(path), "--upto", "3")
        assert (code, out) == (2, "")
        assert err == "error: the graph has no vertex to start from\n"


DINF_HEAD = "rank 1\nfinite 2\nmult 0 1 1 0\n"


@pytest.mark.parametrize(
    "name, text, message",
    [
        pytest.param("g.vag", DINF_HEAD + "action\n",
                     "line 4: action needs f=<index>", id="bare-action"),
        pytest.param("g.vag", DINF_HEAD + "action f=1 -1\ncocycle f=1\n",
                     "line 5: cocycle needs g=<index>", id="cocycle-without-g"),
        pytest.param("g.vag", DINF_HEAD + "action f=1 -1\naction f=2 1\n",
                     "line 5: f=2 out of range for finite 2", id="action-index"),
        pytest.param("g.vag", DINF_HEAD + "action f=1 -1\ncocycle f=1 g=2 0\n",
                     "line 5: g=2 out of range for finite 2", id="cocycle-index"),
        pytest.param("g.vag", "rank 1\naction f=1 -1\nfinite 2\n",
                     "line 2: rank and finite must come before action",
                     id="action-before-finite"),
        pytest.param("g.vag", "finite 1\ncocycle f=0 g=0 0\nrank 1\n",
                     "line 2: rank and finite must come before cocycle",
                     id="cocycle-before-rank"),
        pytest.param("g.vag", "rank 1\ngen a 1 0 1\nfinite 1\n",
                     "line 2: rank and finite must come before gen",
                     id="gen-before-finite"),
        pytest.param("s.set", "arity 1\npiece\nshift (-;0)\n",
                     "line 3: shift vector entries must be integers", id="shift-entry"),
        pytest.param("e.eqn", "vars 1\nword X1 [-;0]\n",
                     "line 2: constant vector entries must be integers",
                     id="constant-entry"),
        pytest.param("e.eqn", "vars 1\nword X1 [0;5]\n",
                     "line 2: constant part 5 out of range", id="constant-part"),
        pytest.param("s.set", "arity 1\npiece\nugen 2\nshift (0;0)\narity 2\n",
                     "line 5: duplicate arity directive", id="duplicate-arity"),
        pytest.param("e.eqn", "vars 1\nword X1 X1\nvars 2\n",
                     "line 3: duplicate vars directive", id="duplicate-vars"),
    ],
)
def test_malformed_file_exits_2_with_line(capsys, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    vag = str(path) if name == "g.vag" else data_path("dinf.vag")
    argv = {
        "g.vag": ["vag", "growth", vag, "--upto", "3"],
        "s.set": ["vag", "relative", vag, str(path), "--upto", "3"],
        "e.eqn": ["vag", "solve", vag, str(path), "--box", "2"],
    }[name]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("arity 1\npiece\nugen 1\nugen 2\nshift (0;0)\n",
                     "piece 0 has linearly dependent ugens", id="dependent"),
        pytest.param("arity 1\npiece\nshift (0;0)\npiece\nugen 0\nshift (1;0)\n",
                     "piece 1 has linearly dependent ugens", id="zero"),
    ],
)
def test_dependent_ugens_exit_2(capsys, tmp_path, text, message):
    path = tmp_path / "s.set"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "vag", "relative", data_path("dinf.vag"), str(path), "--upto", "10"
    )
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("arity 1\npiece\nshift (1;1)\npiece\nugen 1\nshift (0;1)\n",
                     "pieces 0 and 1 overlap at (1;1)", id="arity-1"),
        pytest.param("arity 2\npiece\nshift (1;1) (0;0)\n"
                     "piece\nugen 1 0\nshift (-2;1) (0;0)\n",
                     "pieces 0 and 1 overlap at (1;1) (0;0)", id="arity-2"),
        # only the last two of three pieces meet, on (0;1) to (3;1); the
        # message names the least of those
        pytest.param("arity 1\npiece\nshift (0;0)\npiece\nugen 1\nshift (0;1)\n"
                     "piece\nugen -1\nshift (3;1)\n",
                     "pieces 1 and 2 overlap at (0;1)", id="three-pieces"),
    ],
)
def test_overlapping_pieces_exit_2_in_set_notation(capsys, tmp_path, text, message):
    # the overlap is named in the (v;part) notation of `.set` files
    path = tmp_path / "s.set"
    path.write_text(text)
    code, out, err = run_cli(
        capsys, "vag", "relative", data_path("dinf.vag"), str(path), "--upto", "4"
    )
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_unwritable_output_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(
        capsys, "--output", str(target), "pg", "growth", data_path("square.pg"),
        "--upto", "3",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


DINF_GENS = "gen a 1 0 1\ngen b 0 1 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(DINF_HEAD + "action f=1 -1\naction f=1 1\n" + DINF_GENS,
                     "line 5: duplicate action for f=1", id="action"),
        pytest.param(DINF_HEAD + "action f=1 -1\ncocycle f=1 g=1 1\ncocycle f=1 g=1 0\n"
                     + DINF_GENS, "line 6: duplicate cocycle for f=1 g=1", id="cocycle"),
        pytest.param("rank 1\nrank 1\nfinite 2\nmult 0 1 1 0\naction f=1 -1\n" + DINF_GENS,
                     "line 2: duplicate rank directive", id="rank"),
        pytest.param("rank 1\nfinite 2\nfinite 2\nmult 0 1 1 0\naction f=1 -1\n" + DINF_GENS,
                     "line 3: duplicate finite directive", id="finite"),
        pytest.param(DINF_HEAD + "mult 0 1 1 0\naction f=1 -1\n" + DINF_GENS,
                     "line 4: duplicate mult directive", id="mult"),
    ],
)
def test_repeated_vag_directive_exits_2(capsys, tmp_path, text, message):
    # a repeated directive used to override the earlier one silently: the
    # action case ran `vag growth --upto 4` to 1,2,2,2,2 with exit 0
    path = tmp_path / "g.vag"
    path.write_text(text)
    code, out, err = run_cli(capsys, "vag", "growth", str(path), "--upto", "4")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_internal_value_error_is_not_an_input_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken invariant")

    monkeypatch.setattr(ball, "growth_sequence", broken)
    code, out, err = run_cli(
        capsys, "pg", "growth", data_path("square.pg"), "--upto", "3"
    )
    assert (code, out, err) == (2, "", "internal error: broken invariant\n")


def test_vag_argumentless_rank_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.vag"
    bad.write_text("rank\n")
    code, out, err = run_cli(capsys, "vag", "growth", str(bad), "--upto", "3")
    assert code == 2
    assert "rank takes exactly one integer argument" in err
    assert out == ""


CORPUS = [
    ["pg", "validate", data_path("square.pg")],
    ["pg", "growth", data_path("square.pg"), "--base", "v", "--upto", "12"],
    ["pg", "growth", data_path("honeycomb.pg"), "--base", "a", "--upto", "12"],
    ["pg", "series", data_path("square.pg"), "--upto", "30", "--canonical"],
    ["pg", "series", data_path("honeycomb.pg"), "--upto", "40"],
    ["pg", "series", data_path("z_pm.pg"), "--upto", "20"],
    ["pg", "series", data_path("z_oneway.pg"), "--upto", "20", "--canonical"],
    ["pg", "decompose", data_path("z_pm.pg"), "--upto", "15"],
    ["pg", "decompose", data_path("square.pg"), "--upto", "10"],
    ["pg", "decompose", data_path("honeycomb.pg"), "--upto", "10", "--exhaustive"],
    ["vag", "cayley", data_path("dinf.vag")],
    ["vag", "cayley", data_path("klein.vag")],
    ["vag", "growth", data_path("dinf.vag"), "--upto", "15"],
    ["vag", "growth", data_path("klein.vag"), "--upto", "12"],
    ["vag", "solve", data_path("dinf.vag"), data_path("involution.eqn"), "--box", "4"],
    ["vag", "solve", data_path("klein.vag"), data_path("involution.eqn"), "--box", "2"],
    ["vag", "relative", data_path("dinf.vag"), data_path("invol.set"),
     "--upto", "10", "--margin", "5"],
]


def corpus_outputs(tmp_path, threads):
    tmp_path.mkdir(parents=True, exist_ok=True)
    outputs = []
    for index, argv in enumerate(CORPUS):
        path = tmp_path / f"out_{threads}_{index}.txt"
        code = main(["--threads", str(threads), "--output", str(path)] + argv)
        outputs.append((code, path.read_bytes()))
    return outputs


def test_cli_corpus_deterministic_across_threads(tmp_path):
    single = corpus_outputs(tmp_path / "a", threads=1)
    again = corpus_outputs(tmp_path / "b", threads=1)
    pooled = corpus_outputs(tmp_path / "c", threads=8)
    assert single == again
    assert single == pooled


# three orbits in the plane whose subsets see different cycles: the loops at
# a and c, the two-orbit returns a-b-a and a-c-a, and the triangle a-b-c-a
PLANE3 = """\
dim 2
vertex a
vertex b
vertex c
edge a b 0 0 1
edge b a 0 0 1
edge b c 1 0 1
edge c b -1 0 1
edge a a 1 0 1
edge a a -1 0 1
edge c c 0 1 2
edge c c 0 -1 2
edge c a 0 1 1
edge a c 0 -1 1
"""


def golden_name(argv) -> str:
    stem = Path(argv[2]).stem
    return "_".join([argv[0], argv[1], stem])


GOLDEN_CASES = [
    pytest.param(argv, f"{index:02d}_{golden_name(argv)}", id=f"{index:02d}")
    for index, argv in enumerate(CORPUS)
]


def check_golden(capsys, argv, name):
    """stdout and exit code of main(argv) against the committed golden run."""
    code, out, _ = run_cli(capsys, *argv)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("argv, name", GOLDEN_CASES)
def test_cli_corpus_matches_golden(capsys, argv, name):
    check_golden(capsys, argv, name)


def test_cli_decompose_three_orbits_matches_golden(capsys, tmp_path):
    path = tmp_path / "plane3.pg"
    path.write_text(PLANE3)
    argv = ["pg", "decompose", str(path), "--upto", "8"]
    check_golden(capsys, argv, "plane3_decompose")


def test_cli_decompose_shifted_base_matches_golden(capsys):
    # a base off the origin and off orbit 0: the packed layout's offset path
    argv = ["pg", "decompose", data_path("honeycomb.pg"), "--base", "b:2,-1", "--upto", "12"]
    check_golden(capsys, argv, "honeycomb_shifted_decompose")


def test_cli_relative_diagonal_in_dinf_matches_golden(capsys):
    # the crosscheck fits over the specialized denominator (1 - t^2), so it
    # certifies at this box; over every specialized ansatz factor it would not
    argv = ["vag", "relative", data_path("dinf.vag"), data_path("diag.set"), "--upto", "12"]
    check_golden(capsys, argv, "dinf_diag_relative")


def test_cli_relative_involutions_at_box_100_matches_golden(capsys):
    # the argv of the benchmark's fit job, which checks the counts but not
    # the printed series
    argv = ["vag", "relative", data_path("dinf.vag"), data_path("invol.set"),
            "--upto", "100"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / "dinf_invol_relative_upto100.out").read_bytes()


def test_cli_relative_diagonal_over_z_matches_golden(capsys, tmp_path):
    path = tmp_path / "z.vag"
    path.write_text(Z_VAG)
    argv = ["vag", "relative", str(path), data_path("diag.set"), "--upto", "12,12"]
    check_golden(capsys, argv, "z_diag_relative")
