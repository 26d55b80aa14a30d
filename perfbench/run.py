"""perigrowth benchmark: timed CLI invocations, each checked by an oracle.

    python3 perfbench/run.py --workload {ball,decompose,fit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.

A pass runs every job of the workload once, one after another, each as
`cli.main(argv)` in a fresh child interpreter, so no cache or state carries
from one invocation to the next. Passes repeat until the next one would end
after `--seconds`. Every output is checked against the benchmark's own
oracles (`oracle.py`), outside every timed region.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1`
untraced and traced passes alternate and the per-layer metrics are printed,
the traced job wall time split into layer self times plus `cli.self_s`.
Metric names, units and directions come from BENCHMARK.json. The last line
of stdout is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
WORK = ".perfbench_work"
SETUP_REPEATS = 3
JOB_TIMEOUT_S = 120
KNOWN_DEFECT = "expanded denominators have no factored text form"
HEADER = "perigrowth-format 1"


# ---------------------------------------------------------------------------
# oracles: what every job must print


def expect(job: workloads.Job) -> dict:
    c = job.check
    if job.kind == "growth":
        if "pg" in c:
            dist = oracle.ball_distances(oracle.read_pg(Path(c["pg"]).read_text()), c["radius"])
        else:
            dist = oracle.word_weights(oracle.read_vag(Path(c["vag"]).read_text()), c["radius"])
        return {"terms": oracle.spheres(dist, c["radius"])}
    if job.kind == "decompose":
        g = oracle.read_pg(Path(c["pg"]).read_text())
        dist = oracle.ball_distances(g, c["radius"])
        return {"subsets": 2 ** len(g.orbits), "pairs": oracle.cover_pairs(dist, c["radius"])}
    if job.kind == "series":
        g = oracle.read_pg(Path(c["pg"]).read_text())
        terms = oracle.spheres(oracle.ball_distances(g, c["upto"]), c["upto"])
        q, _ = oracle.reduced_form(terms)
        return {"terms": terms, "defect": oracle.peel(q)[1] != [1]}
    set_text = Path(c["set"]).read_text()
    arity, _ = oracle.read_set(set_text)
    box = (c["box"],) * arity
    exact, cumulative, totals = oracle.dihedral_relative(Path(c["vag"]).read_text(), set_text, box)
    table = [" ".join(str(x) for x in a) + f" : {exact.get(a, 0)} {cumulative[a]}"
             for a in sorted(cumulative)]
    return {"table": table, "totals": totals}


def _series_blocks(lines: list[str]) -> list[list[str]]:
    blocks = []
    for line in lines:
        if line.startswith("series d="):
            blocks.append([line])
        elif blocks and not blocks[-1][-1].startswith("verified"):
            blocks[-1].append(line)
    return blocks


def _check_univariate(block: list[str], terms: list[int]) -> int:
    """Verified coefficient count of a printed d=1 series matching terms."""
    arity, num, factors, (verified,) = oracle.parse_series(block)
    if arity != 1 or verified >= len(terms):
        raise ValueError(f"series claims terms through {verified}, the oracle has {len(terms) - 1}")
    if oracle.expand_univariate(num, factors, verified) != terms[: verified + 1]:
        raise ValueError("series expansion disagrees with the oracle terms")
    return verified + 1


def check(job: workloads.Job, exp: dict, code, out: str, err: str) -> tuple[str, int, str]:
    """(status, work units, reason); status is ok, known, error or wrong."""
    last_err = err.strip().splitlines()[-1] if err.strip() else ""
    if code is None:
        return "error", 0, f"exception or timeout: {last_err}"
    if job.kind == "series" and code == 2 and exp["defect"] and KNOWN_DEFECT in err:
        return "known", 0, f"exit 2, {last_err} (reduced denominator is not a (1 - t^w) product)"
    if code != 0:
        return "error", 0, f"exit {code}: {last_err}"
    lines = out.splitlines()
    try:
        if not lines or lines[0] != HEADER:
            raise ValueError("missing format header")
        if job.kind == "growth":
            terms = [int(t) for t in lines[1].split(",")]
            if terms != exp["terms"]:
                raise ValueError("growth terms disagree with the oracle")
            return "ok", sum(terms), ""
        if job.kind == "decompose":
            blocks = sum(1 for line in lines if line.startswith("S {"))
            passes = sum(1 for line in lines if line == "action PASS")
            cover = f"cover PASS ({exp['pairs']} pairs at radius {job.check['radius']})"
            if blocks != exp["subsets"] or passes != blocks or lines[-1] != cover:
                raise ValueError(f"expected {exp['subsets']} action PASS lines and {cover!r}")
            return "ok", exp["pairs"], ""
        blocks = _series_blocks(lines)
        if job.kind == "series":
            (block,) = blocks
            units = _check_univariate(block, exp["terms"])
            if units != job.check["upto"] + 1:
                raise ValueError("series is not verified through --upto")
            return "ok", units, ""
        table = [line for line in lines[1:] if " : " in line]
        if table != exp["table"]:
            raise ValueError("count table disagrees with the dihedral enumeration")
        if lines[-1] != "crosscheck PASS" or len(blocks) != 2:
            raise ValueError("missing crosscheck PASS")
        _, _, _, box = oracle.parse_series(blocks[0])
        units = math.prod(v + 1 for v in box) + _check_univariate(blocks[1], exp["totals"])
        return "ok", units, ""
    except (ValueError, IndexError) as exc:
        return "wrong", 0, str(exc)


# ---------------------------------------------------------------------------
# running jobs


@dataclass
class JobRun:
    name: str
    code: int | None
    wall: float
    startup: float
    rss_kb: int
    stdout_bytes: int
    status: str
    units: int
    reason: str
    layers: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, work: str, stdout_path: str, stderr_path: str) -> tuple[dict | None, float]:
    """Run child.py on the spec; returns (its result or None, start-up seconds)."""
    spec = dict(spec, result=f"{work}/result.json")
    Path(spec["result"]).unlink(missing_ok=True)
    Path(f"{work}/spec.json").write_text(json.dumps(spec))
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        launched = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), f"{work}/spec.json"],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env(),
        )
        try:
            proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if not Path(spec["result"]).exists():
        return None, 0.0
    result = json.loads(Path(spec["result"]).read_text())
    return result, result["ready"] - launched


class Runner:
    def __init__(self, workload: workloads.Workload, expected: dict, work: str):
        self.workload = workload
        self.expected = expected
        self.work = work
        self.verdicts: dict = {}

    def run_job(self, job: workloads.Job, trace: bool) -> JobRun:
        out_path, err_path = f"{self.work}/job.out", f"{self.work}/job.err"
        result, startup = run_child(
            {"mode": "job", "argv": job.argv, "trace": trace}, self.work, out_path, err_path
        )
        out = Path(out_path).read_text(errors="replace")
        err = Path(err_path).read_text(errors="replace")
        code = result["code"] if result else None
        key = (job.name, code, out, err)
        if key not in self.verdicts:
            self.verdicts[key] = check(job, self.expected[job.name], code, out, err)
        status, units, reason = self.verdicts[key]
        return JobRun(
            job.name, code, result["wall"] if result else 0.0, startup,
            result["rss_kb"] if result else 0, len(out.encode()), status, units, reason,
            (result or {}).get("layers", {}),
        )

    def run_pass(self, trace: bool) -> list[JobRun]:
        return [self.run_job(job, trace) for job in self.workload.jobs]

    def terms_needed(self) -> int:
        total = 0
        for job in self.workload.jobs:
            if job.kind == "series":
                spec = {"mode": "terms_needed", "pg": job.check["pg"],
                        "terms": self.expected[job.name]["terms"], "margin": workloads.MARGIN}
                result, _ = run_child(spec, self.work, f"{self.work}/tn.out", f"{self.work}/tn.err")
                if not result or result["terms_needed"] is None:
                    raise RuntimeError(f"terms_needed found no certified prefix for {job.name}")
                total += result["terms_needed"]
        return total


# ---------------------------------------------------------------------------
# metrics


def pass_wall(runs: list[JobRun]) -> float:
    return sum(r.wall for r in runs)


def layer_metrics(runs: list[JobRun], untraced_wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over its jobs."""
    total: dict[str, float] = {}
    for r in runs:
        for key, value in r.layers.items():
            total[key] = total.get(key, 0) + value
    out = dict(total)
    out["ball.us_per_vertex"] = (
        1e6 * total.get("ball.distances_s", 0.0) / total["ball.vertices"]
        if total.get("ball.vertices") else 0.0
    )
    out["decomposition.saturation_useful"] = (
        total.get("decomposition.covered_pairs", 0) / total["decomposition.saturated_elements"]
        if total.get("decomposition.saturated_elements") else 0.0
    )
    out["cli.stdout_bytes"] = sum(r.stdout_bytes for r in runs)
    out["trace.wall_s"] = pass_wall(runs)
    out["trace.overhead_s"] = pass_wall(runs) - untraced_wall
    return out


def spread(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4f}, min {min(values):.4f}, "
            f"max {max(values):.4f}, n={len(values)}")


def run(name: str, seed: int, seconds: float, trace: bool, work: str, size: str = "full"):
    """Run one workload; returns (result object, report lines)."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    report = [f"perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}"]

    generation, snapshot = [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workloads.build(name, seed, work, size)
        generation.append(time.perf_counter() - start)
        current = (workload.files, [job.argv for job in workload.jobs])
        if snapshot is not None and current != snapshot:
            raise RuntimeError("input generation is not deterministic for this seed")
        snapshot = current

    report.append(f"why: {workload.why}")
    start = time.perf_counter()
    expected = {job.name: expect(job) for job in workload.jobs}
    report.append(f"oracle: {time.perf_counter() - start:.3f} s, not timed")
    runner = Runner(workload, expected, work)
    run_child({"mode": "warm"}, work, f"{work}/warm.out", f"{work}/warm.err")

    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        untraced.append(runner.run_pass(False))
        if trace:
            traced.append(runner.run_pass(True))
        if time.perf_counter() - start + (time.perf_counter() - began) > seconds:
            break

    everything = [r for p in untraced + traced for r in p]
    attempted = len(everything)
    failed = [r for r in everything if r.status != "ok"]
    correct = all(r.status in ("ok", "known") for r in everything)

    report.append(f"{'job':<20} {'exit':>4} {'status':<6} wall seconds per invocation")
    for job in workload.jobs:
        runs = [r for p in untraced for r in p if r.name == job.name]
        report.append(f"{job.name:<20} {str(runs[-1].code):>4} {runs[-1].status:<6} "
                      f"{spread([r.wall for r in runs])}")
        report.append(f"    {' '.join(job.argv)}")
        report.append(f"    why: {job.why}")
    reasons = sorted({(r.name, r.status, r.reason) for r in failed})
    report.append(f"failed {len(failed)} of {attempted} attempted, failed_ratio "
                  f"{len(failed) / attempted:.4f}")
    for job_name, status, reason in reasons:
        label = "known defect (ROADMAP item 4)" if status == "known" else status
        report.append(f"    {job_name}: {label}: {reason}")

    walls = [pass_wall(p) for p in untraced]
    rates = [sum(r.units for r in p) / pass_wall(p) for p in untraced]
    # every invocation starts one interpreter; their median times the job
    # count is steadier than the per-pass sums, which hold a few samples each
    startups = [r.startup for p in untraced + traced for r in p]
    per_pass = len(workload.jobs) * statistics.median(startups)
    values = {
        "wall_s": statistics.median(walls),
        "throughput": statistics.median(rates),
        "peak_rss_mb": max(r.rss_kb for p in untraced for r in p) / 1024,
        "setup_s": statistics.median(generation) + per_pass,
    }
    report.append(f"wall_s: {spread(walls)} s per pass")
    report.append(f"throughput: {spread(rates)} {workload.unit}")
    report.append(f"peak_rss_mb: {values['peak_rss_mb']:.1f} MB, largest job child")
    report.append(f"setup_s: generation {spread(generation)} s; child start and import "
                  f"{spread(startups)} s per job, {per_pass:.4f} s per pass")
    metrics_spec = bench["end_to_end"]
    if trace:
        layers = [layer_metrics(p, statistics.median(walls)) for p in traced]
        values = {key: statistics.median(p.get(key, 0) for p in layers) for key in layers[0]}
        values["series.terms_needed"] = runner.terms_needed()
        top = statistics.median(p["trace.top_level_s"] for p in layers)
        report.append(f"traced: top-level spans {top:.4f} s + cli.self_s {values['cli.self_s']:.4f} s"
                      f" = job wall {values['trace.wall_s']:.4f} s (medians of {len(traced)} passes)")
        metrics_spec = bench["per_layer"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in metrics_spec
    }
    result = {"correct": correct, "attempted": attempted, "failed": len(failed), "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/perigrowth/cli.py").is_file():
        print("error: run from the root of a perigrowth checkout (src/perigrowth not found)",
              file=sys.stderr)
        return 2
    work = f"{WORK}/{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    Path(work).mkdir(parents=True)
    try:
        result, report = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if Path(WORK).is_dir() and not any(Path(WORK).iterdir()):
            Path(WORK).rmdir()
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
