"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py        (from the root of a checkout)

Covers generator determinism, the oracles on hand-countable cases, and a
tiny-size run of every workload, traced and untraced, through the full
oracle check.
"""

from __future__ import annotations

import json
import os
import shutil
import unittest
from pathlib import Path

import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = f"{run.WORK}/selftest"


def snapshot(name: str, seed: int):
    w = workloads.build(name, seed, WORK, "tiny")
    files = {path: Path(path).read_bytes() for path in w.files}
    return files, [job.argv for job in w.jobs]


class BenchTest(unittest.TestCase):
    def setUp(self):
        os.chdir(ROOT)
        Path(WORK).mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)
        if not any(Path(run.WORK).iterdir()):
            Path(run.WORK).rmdir()


class GeneratorTest(BenchTest):
    def test_same_seed_gives_same_bytes(self):
        for name in workloads.BUILDERS:
            self.assertEqual(snapshot(name, 7), snapshot(name, 7), name)

    def test_seeds_differ(self):
        for name in workloads.BUILDERS:
            self.assertNotEqual(snapshot(name, 7)[0], snapshot(name, 8)[0], name)

    def test_fit_mix_is_fixed(self):
        w = workloads.build("fit", 3, WORK, "tiny")
        defects = [job.check["defect"] for job in w.jobs if job.kind == "series"]
        self.assertEqual(defects, [False, True, False, True])


class OracleTest(unittest.TestCase):
    def corpus(self, name):
        return oracle.read_pg((ROOT / workloads.DATA / name).read_text())

    def test_square_spheres_are_4k(self):
        got = oracle.spheres(oracle.ball_distances(self.corpus("square.pg"), 30), 30)
        self.assertEqual(got, [1] + [4 * k for k in range(1, 31)])

    def test_honeycomb_spheres_are_3k(self):
        got = oracle.spheres(oracle.ball_distances(self.corpus("honeycomb.pg"), 30), 30)
        self.assertEqual(got, [1] + [3 * k for k in range(1, 31)])

    def test_cover_pairs_of_square(self):
        dist = oracle.ball_distances(self.corpus("square.pg"), 2)
        self.assertEqual(oracle.cover_pairs(dist, 2), 3 + 4 * 2 + 8 * 1)

    def test_honeycomb_cycles(self):
        self.assertEqual(oracle.simple_cycles(self.corpus("honeycomb.pg")),
                         [(2, 0b11)] * 9)

    def test_dihedral_involutions(self):
        text = lambda name: (ROOT / workloads.DATA / name).read_text()
        exact, cumulative, totals = oracle.dihedral_relative(
            text("dinf.vag"), text("invol.set"), (6,))
        self.assertEqual([exact.get((k,), 0) for k in range(7)], [1, 1, 2, 2, 2, 2, 2])
        self.assertEqual(cumulative[(6,)], 12)
        self.assertEqual(totals, [1, 1, 2, 2, 2, 2, 2])

    def test_reduced_form_and_peeling(self):
        q, p = oracle.reduced_form([k + 1 for k in range(60)])
        self.assertEqual((q, p), ([1, -2, 1], [1]))
        # one ray of period 3 and one of period 7: the known defect's shape
        terms = [1] + [(k % 3 == 0) + (k % 7 == 0) for k in range(1, 120)]
        q, _ = oracle.reduced_form(terms)
        self.assertEqual(oracle.peel(q), ([(7, 1)], [1, 1, 1]))

    def test_series_expansion(self):
        block = ["series d=1", "num 0 1", "num 1 1", "den 1 ^1", "den 2 ^1", "verified 5"]
        _, num, factors, _ = oracle.parse_series(block)
        self.assertEqual(oracle.expand_univariate(num, factors, 5), [1, 2, 3, 4, 5, 6])


class SmokeTest(BenchTest):
    def test_every_workload_end_to_end(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for name in workloads.BUILDERS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result, _ = run.run(name, 5, 0.01, trace, WORK, "tiny")
                    self.assertTrue(result["correct"])
                    jobs = len(workloads.build(name, 5, WORK, "tiny").jobs)
                    self.assertEqual(result["attempted"], jobs * (2 if trace else 1))
                    self.assertEqual(result["failed"], (2 if name == "fit" else 0)
                                     * (2 if trace else 1))
                    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
                    self.assertEqual(list(result["metrics"]), names)
                    if trace:
                        self.assertGreater(result["metrics"]["trace.wall_s"]["value"], 0)
                    if trace and name == "decompose":
                        # 2 * 2^n + 1 support searches per job: 2, 3, 4 and 4 orbits
                        calls = result["metrics"]["decomposition.support_distances_calls"]
                        self.assertEqual(calls["value"], 9 + 17 + 33 + 33)


if __name__ == "__main__":
    unittest.main()
