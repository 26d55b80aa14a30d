"""The benchmark's files must keep working against perigrowth.

`perfbench/spans.py` looks each (module, name) up with getattr when a traced
run starts, so a function renamed or deleted here makes every traced
benchmark run fail.  `perfbench/child.py` runs the `fit` workload's
`terms_needed` bisection and the traced `fit` and `decompose` jobs; the
benchmark stops when one of them writes no result.  Both files are used as they are, never edited.
"""

import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from perigrowth.cli import main
from perigrowth.decomposition import CoverReport

from oracles import honeycomb_patch_growth

ROOT = Path(__file__).parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
CHILD = ROOT / "perfbench" / "child.py"
DATA = ROOT / "src" / "perigrowth" / "data"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    spans = load_spans()
    wrapped = [f for functions, _ in spans.LAYERS.values() for f in functions]
    wrapped += list(spans.CALLS)
    assert wrapped
    for module_name, attr in wrapped:
        module = importlib.import_module(f"perigrowth.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_cover_report_keeps_counted_fields():
    fields = {f.name for f in dataclasses.fields(CoverReport)}
    assert {"covered", "module_sizes"} <= fields


def run_child(tmp_path, spec: dict) -> dict:
    """The result child.py writes for the spec, run as the benchmark runs it."""
    spec = dict(spec, result=str(tmp_path / "result.json"))
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(tmp_path / "spec.json")],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / "result.json").read_text())


def test_child_terms_needed_certifies_a_prefix(tmp_path):
    spec = {
        "mode": "terms_needed",
        "pg": str(DATA / "honeycomb.pg"),
        "terms": honeycomb_patch_growth(60),
        "margin": 10,
    }
    result = run_child(tmp_path, spec)
    assert result["terms_needed"] is not None
    assert 1 <= result["terms_needed"] <= 61


def test_child_traced_fit_jobs_record_layers(tmp_path):
    for argv in (
        ["pg", "series", str(DATA / "honeycomb.pg"), "--upto", "60", "--canonical"],
        ["vag", "relative", str(DATA / "dinf.vag"), str(DATA / "invol.set"), "--upto", "20"],
    ):
        result = run_child(tmp_path, {"mode": "job", "argv": argv, "trace": True})
        assert result["code"] == 0, argv
        assert "trace.top_level_s" in result["layers"], argv


def test_child_traced_decompose_jobs_count_the_cover(tmp_path):
    # the `decompose` workload's traced path, plain and with `--threads 2`
    # as the benchmark runs it: the cover's counters come from the report
    argv = ["pg", "decompose", str(DATA / "honeycomb.pg"), "--upto", "6"]
    for extra in ([], ["--threads", "2"]):  # a global flag, before the command
        result = run_child(tmp_path, {"mode": "job", "argv": extra + argv, "trace": True})
        assert result["code"] == 0, extra
        layers = result["layers"]
        assert layers["decomposition.saturated_elements"] > 0, extra
        assert layers["decomposition.covered_pairs"] > 0, extra


def test_child_terms_needed_certifies_every_fit_series(tmp_path, monkeypatch):
    # `run.py` stops with an error when a `terms_needed` child finds no
    # certified prefix; these are the fit workload's series graphs of two
    # seeds, with the terms the benchmark's own oracle computes
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    oracle = importlib.import_module("oracle")
    workloads = importlib.import_module("workloads")
    for seed in (5, 11):
        work = tmp_path / str(seed)
        for job in workloads.build("fit", seed, str(work)).jobs:
            if job.kind != "series":
                continue
            pg, upto = job.check["pg"], job.check["upto"]
            g = oracle.read_pg(Path(pg).read_text())
            terms = oracle.spheres(oracle.ball_distances(g, upto), upto)
            spec = {"mode": "terms_needed", "pg": pg, "terms": terms,
                    "margin": workloads.MARGIN}
            assert run_child(work, spec)["terms_needed"] is not None, (seed, job.name)


def test_fit_and_decompose_jobs_pass_the_benchmark_check(tmp_path, monkeypatch, capsys):
    # `run.py` checks every job's stdout with its own oracle, and a parse
    # error other than ValueError or IndexError there stops the whole run;
    # the seed-5 jobs, run in process, must pass that check as they are
    monkeypatch.chdir(ROOT)  # job paths under the bundled data are relative
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    run = importlib.import_module("run")
    for name in ("fit", "decompose"):
        for job in workloads.build(name, 5, str(tmp_path / name)).jobs:
            code = main(list(job.argv))
            captured = capsys.readouterr()
            status, _, reason = run.check(job, run.expect(job), code, captured.out, captured.err)
            assert status == "ok", (name, job.name, reason)
