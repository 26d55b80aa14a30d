"""One benchmark job in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/child.py SPEC.json

The spec names a mode and a result path. Mode `job` runs `cli.main(argv)`
once, with the CLI's stdout and stderr going wherever the parent pointed
this process's, and records its wall time and peak RSS; with `trace` set it
also records per-layer spans. Mode `terms_needed` bisects for the shortest
prefix of given terms that `fit_univariate_auto` certifies. Mode `warm`
only imports the program. The moment the import finished is reported on
the monotonic clock, which the parent shares, so the parent can time
interpreter start plus import without a timer inside this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def run_job(spec: dict, cli) -> dict:
    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.install()
    start = time.perf_counter()
    try:
        code = cli.main(spec["argv"])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        code = None
    sys.stdout.flush()
    wall = time.perf_counter() - start
    result = {
        "code": code,
        "wall": wall,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        result["layers"] = recorder.summary(wall)
    return result


def terms_needed(spec: dict) -> dict:
    from perigrowth import parse_periodic_graph, series
    from perigrowth.errors import InputError, NoFitError

    with open(spec["pg"], encoding="utf-8") as handle:
        g = parse_periodic_graph(handle.read())
    factors = series.default_denominator(g)
    terms = spec["terms"]

    def certified(n: int) -> bool:
        try:
            series.fit_univariate_auto(terms[:n], factors, margin=spec["margin"])
        except (NoFitError, InputError):
            return False
        return True

    if not certified(len(terms)):
        return {"terms_needed": None}
    lo, hi = 1, len(terms)
    while lo < hi:
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid + 1
    return {"terms_needed": lo}


def main() -> None:
    from perigrowth import cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    if spec["mode"] == "job":
        result = run_job(spec, cli)
    elif spec["mode"] == "terms_needed":
        result = terms_needed(spec)
    else:
        result = {}
    result["ready"] = ready
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
