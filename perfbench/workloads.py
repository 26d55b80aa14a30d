"""Seeded workloads: the jobs each benchmark workload runs, and why.

A workload is a list of `perigrowth` CLI invocations. Bundled corpus files
are used as they ship; every other input is drawn from a random generator
seeded by the workload name and the seed, so one seed always gives the same
file bytes, argv and `--upto` values. Seeded graphs are drawn again until a
size proxy computed by the benchmark's own code (never by the program)
lands near a fixed target, which keeps the work per run steady across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import oracle

DATA = "src/perigrowth/data"
MARGIN = 10  # perigrowth's default --margin for `pg series`
SLACK = 20  # terms beyond the least --upto that certifies the series

# Final sizes. The ball radii are half of the starting points named when the
# benchmark was specified (square and honeycomb r=400, klein r=200, a 3-D
# lattice at r~25), so each ball job holds a quarter of the vertices and a
# pass fits several times into one run. decompose and fit run at full size.
SIZES = {
    "full": {
        "ball": {"square": 200, "honeycomb": 200, "klein": 100, "lattice3d": 8000},
        "decompose": {"honeycomb": 40, "radii": (16, 24), "cost": {3: 0.6, 4: 0.8},
                      "pairs": {3: 7000, 4: 5500}},
        "fit": {"orbits": (5, 7), "cycles": (40, 110), "ansatz": (560, 660),
                "diag": 60, "invol": 100},
    },
    "tiny": {
        "ball": {"square": 12, "honeycomb": 12, "klein": 8, "lattice3d": 300},
        "decompose": {"honeycomb": 8, "radii": (6, 8), "cost": {3: 0.027, 4: 0.042},
                      "pairs": {3: 200, 4: 190}},
        "fit": {"orbits": (5, 7), "cycles": (40, 110), "ansatz": (560, 660),
                "diag": 16, "invol": 16},
    },
}

# Seconds per unit of the decompose cost proxy; fitted once on this family
# (support-graded states times 2^n + 1 subsets, and saturated pairs times the
# monoid generators of their support). Only the targets depend on it.
STATE_COST = 1.87e-5
PAIR_COST = 4.15e-6

ATTEMPTS = 500


@dataclass
class Job:
    name: str
    argv: list[str]
    why: str
    kind: str  # growth, decompose, series or relative
    check: dict  # what the oracle needs: input paths, radius or --upto


@dataclass
class Workload:
    name: str
    why: str
    unit: str  # what throughput counts
    jobs: list[Job]
    files: dict[str, str]  # path relative to the checkout root -> text


def _shift(rng: random.Random, dim: int, choices=(-1, 0, 0, 1)) -> tuple[int, ...]:
    return tuple(rng.choice(choices) for _ in range(dim))


def _loop_shift(rng, dim, a, b, choices):
    shift = _shift(rng, dim, choices)
    while a == b and not any(shift):
        shift = _shift(rng, dim, choices)
    return shift


def _inverse_closed(edges):
    return tuple(edges) + tuple((b, a, tuple(-x for x in s), w) for a, b, s, w in edges)


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"o{i}" for i in range(n))


# ---------------------------------------------------------------------------
# ball: large-radius growth


def lattice3d(rng: random.Random) -> oracle.Graph:
    """Two orbits, one bridge, three axis loops, two random edges, weights 1-2,
    every edge with its reverse."""
    edges = [(0, 1, _shift(rng, 3, (-1, 0, 1)), rng.randint(1, 2))]
    for axis in range(3):
        o = rng.randrange(2)
        edges.append((o, o, tuple(int(i == axis) for i in range(3)), rng.randint(1, 2)))
    for _ in range(2):
        a, b = rng.randrange(2), rng.randrange(2)
        edges.append((a, b, _loop_shift(rng, 3, a, b, (-1, 0, 1)), rng.randint(1, 2)))
    return oracle.Graph(3, ("a", "b"), _inverse_closed(edges))


def ball_radius(g: oracle.Graph, target: int) -> int | None:
    """The radius whose ball size is nearest the target, if within 8%."""
    dist = oracle.ball_distances(g, 10 * target, stop_after=2 * target)
    counts = oracle.spheres(dist, max(dist.values()))
    total, best = 0, None
    for r, c in enumerate(counts):
        total += c
        if best is None or abs(total - target) < abs(best[1] - target):
            best = (r, total)
    r, size = best
    return r if abs(size - target) <= 0.08 * target else None


def build_ball(rng, sizes, work: str) -> Workload:
    s = sizes["ball"]
    for _ in range(ATTEMPTS):
        g = lattice3d(rng)
        r = ball_radius(g, s["lattice3d"])
        if r is not None:
            break
    else:
        raise RuntimeError("no 3-D lattice drawn near the target ball size")
    path = f"{work}/lattice3d.pg"
    jobs = [
        Job("square", ["pg", "growth", f"{DATA}/square.pg", "--upto", str(s["square"])],
            "one orbit, four unit steps: the plainest Dial ball, largest sphere",
            "growth", {"pg": f"{DATA}/square.pg", "radius": s["square"]}),
        Job("honeycomb", ["pg", "growth", f"{DATA}/honeycomb.pg", "--upto", str(s["honeycomb"])],
            "two orbits, so out_neighbors changes orbit on every step",
            "growth", {"pg": f"{DATA}/honeycomb.pg", "radius": s["honeycomb"]}),
        Job("klein", ["vag", "growth", f"{DATA}/klein.vag", "--upto", str(s["klein"])],
            "a Cayley graph with a cocycle, built by vab.build_cayley first",
            "growth", {"vag": f"{DATA}/klein.vag", "radius": s["klein"]}),
        Job("lattice3d", ["pg", "growth", path, "--upto", str(r)],
            "seeded 3-D two-orbit inverse-closed lattice, weights 1-2: a third "
            "lattice dimension and a weight-2 bucket queue",
            "growth", {"pg": path, "radius": r}),
    ]
    return Workload(
        "ball",
        "large-radius growth: out_neighbors, _dial and ball do nearly all the work, "
        "no cycles and no fitting",
        "vertices/s",
        jobs,
        {path: oracle.write_pg(g)},
    )


# ---------------------------------------------------------------------------
# decompose: the monoid-module cover


def plane_graph(rng: random.Random, n: int) -> oracle.Graph:
    """A chain through n orbits, two axis loops and one random edge, in the
    plane, weights 1-2, every edge with its reverse."""
    edges = [(i, i + 1, _shift(rng, 2), rng.randint(1, 2)) for i in range(n - 1)]
    for axis in range(2):
        o = rng.randrange(n)
        edges.append((o, o, tuple(int(i == axis) for i in range(2)), rng.randint(1, 2)))
    a, b = rng.randrange(n), rng.randrange(n)
    edges.append((a, b, _loop_shift(rng, 2, a, b, (-1, 0, 0, 1)), rng.randint(1, 2)))
    return oracle.Graph(2, _names(n), _inverse_closed(edges))


def decompose_cost(g: oracle.Graph, radius: int, states: dict, cycles) -> float:
    n = len(g.orbits)
    inside = {}
    count, pairs = 0, 0
    for (_, _, mask), d in states.items():
        if d <= radius:
            if mask not in inside:
                inside[mask] = 1 + sum(1 for _, m in cycles if m & ~mask == 0)
            count += 1
            pairs += (radius - d + 1) * inside[mask]
    return STATE_COST * count * (2**n + 1) + PAIR_COST * pairs


def decompose_radius(g: oracle.Graph, radii, cost: float, pairs: int) -> int | None:
    """The --upto in the range whose cost proxy is nearest the target, if
    that is within 8% and the cover pair count within 10% of theirs."""
    states = oracle.support_distances(g, radii[1])
    cycles = oracle.simple_cycles(g)
    ball = oracle.ball_distances(g, radii[1])
    fits = {}
    for r in range(radii[0], radii[1] + 1):
        error = abs(decompose_cost(g, r, states, cycles) - cost)
        if error <= 0.08 * cost and abs(oracle.cover_pairs(ball, r) - pairs) <= 0.1 * pairs:
            fits[r] = error
    return min(fits, key=fits.get) if fits else None


def build_decompose(rng, sizes, work: str) -> Workload:
    s = sizes["decompose"]
    files = {}
    jobs = [
        Job("honeycomb", ["pg", "decompose", f"{DATA}/honeycomb.pg", "--upto", str(s["honeycomb"])],
            "bundled two-orbit net; module_elements_upto dominates",
            "decompose", {"pg": f"{DATA}/honeycomb.pg", "radius": s["honeycomb"]}),
    ]
    for n in (3, 4):
        for _ in range(ATTEMPTS):
            g = plane_graph(rng, n)
            r = decompose_radius(g, s["radii"], s["cost"][n], s["pairs"][n])
            if r is not None:
                break
        else:
            raise RuntimeError(f"no {n}-orbit graph drawn near the target cost")
        path = f"{work}/orbits{n}.pg"
        files[path] = oracle.write_pg(g)
        check = {"pg": path, "radius": r}
        argv = ["pg", "decompose", path, "--upto", str(r)]
        jobs.append(Job(f"orbits{n}", argv,
                        f"seeded {n}-orbit plane graph: 2^{n} orbit subsets, so "
                        "support_distances runs 2*2^n+1 times",
                        "decompose", check))
    jobs.append(Job("orbits4-threads2", ["--threads", "2"] + jobs[-1].argv,
                    "the 4-orbit job again with the global --threads 2: does the "
                    "thread pool pay under the GIL",
                    "decompose", jobs[-1].check))
    return Workload(
        "decompose",
        "the monoid-module cover: support search, saturation and cover check "
        "over every orbit subset, on small balls",
        "pairs/s",
        jobs,
        files,
    )


# ---------------------------------------------------------------------------
# fit: certified closed forms


def line_graph(rng: random.Random, n: int, directed: bool) -> oracle.Graph:
    """A ring through n orbits of the integer line plus random extra edges,
    weights 1-5; inverse-closed unless directed."""
    edges = [(i, (i + 1) % n, rng.choice((-1, 0, 1)) if i else 1, rng.randint(1, 5))
             for i in range(n)]
    for _ in range(rng.randint(10, 16) if directed else rng.randint(2, 6)):
        a, b = rng.randrange(n), rng.randrange(n)
        edges.append((a, b, rng.choice((-1, 0, 0, 1)), rng.randint(1, 5)))
    edges = [(a, b, (s,), w) for a, b, s, w in edges]
    return oracle.Graph(1, _names(n), tuple(edges) if directed else _inverse_closed(edges))


def series_plan(g: oracle.Graph, ansatz_band, cycle_band):
    """(upto, defect) for a `pg series` job on g, or None to draw again.

    The program multiplies the terms by its ansatz D = (1-t) * prod over
    simple cycles (1 - t^weight). Its numerator then has degree
    deg D - deg Q + deg P, where P/Q is the reduced generating function, and
    the fit needs MARGIN terms beyond it. `defect` is whether Q is not a
    product of (1 - t^w) factors, which `--canonical` cannot print.
    """
    cycles = oracle.simple_cycles(g)
    ansatz = {1: 1}
    for w, _ in cycles:
        ansatz[w] = ansatz.get(w, 0) + 1
    degree = sum(w * e for w, e in ansatz.items())
    if not (cycle_band[0] <= len(cycles) <= cycle_band[1]):
        return None
    if not (ansatz_band[0] <= degree <= ansatz_band[1]):
        return None
    through = 300
    while (form := oracle.reduced_form(oracle.spheres(oracle.ball_distances(g, through), through))) is None:
        through *= 2
        if through > 4 * degree:
            return None
    q, p = form
    if len(q) - 1 > 12 or len(p) - 1 > 40:
        return None  # long gcd chains and long transients would dominate the run
    if not oracle.divides(q, oracle.poly_power_product(ansatz)):
        return None  # the first ansatz cannot fit; the ladder would square it
    upto = degree - (len(q) - 1) + (len(p) - 1) + MARGIN + SLACK
    return upto, oracle.peel(q)[1] != [1]


# (name, directed, defect): one job of each kind, so every seed runs the same
# mix and fails the same number of jobs.
FIT_SLOTS = (
    ("sym", False, False),
    ("sym-defect", False, True),
    ("dir", True, False),
    ("dir-defect", True, True),
)


def build_fit(rng, sizes, work: str) -> Workload:
    s = sizes["fit"]
    files = {}
    jobs = []
    for name, directed, defect in FIT_SLOTS:
        for _ in range(ATTEMPTS):
            g = line_graph(rng, rng.randint(*s["orbits"]), directed)
            plan = series_plan(g, s["ansatz"], s["cycles"])
            if plan is not None and plan[1] == defect:
                break
        else:
            raise RuntimeError(f"no draw for fit slot {name}")
        upto, is_defect = plan
        path = f"{work}/{name}.pg"
        files[path] = oracle.write_pg(g)
        kind = "directed" if directed else "inverse-closed"
        why = f"seeded {kind} 1-D quotient, {len(g.orbits)} orbits"
        if is_defect:
            why += (", reduced denominator not a (1 - t^w) product: reproduces "
                    "the --canonical print failure")
        jobs.append(Job(f"series-{name}", ["pg", "series", path, "--upto", str(upto), "--canonical"],
                        why, "series", {"pg": path, "upto": upto, "defect": is_defect}))
    vag = f"{DATA}/dinf.vag"
    for set_name, key in (("diag", "diag"), ("invol", "invol")):
        box = s[key]
        jobs.append(Job(f"relative-{set_name}",
                        ["vag", "relative", vag, f"{DATA}/{set_name}.set", "--upto", str(box)],
                        "bundled monoid-module set of the infinite dihedral group: "
                        "fit_multivariate and the univariate crosscheck",
                        "relative",
                        {"vag": vag, "set": f"{DATA}/{set_name}.set", "box": box}))
    return Workload(
        "fit",
        "certified closed forms: ansatz, fit and canonicalize over small 1-D balls, "
        "half the inputs directed",
        "terms/s",
        jobs,
        files,
    )


BUILDERS = {"ball": build_ball, "decompose": build_decompose, "fit": build_fit}


def build(name: str, seed: int, work: str, size: str = "full") -> Workload:
    """Draw the workload for this seed and write its files under `work`."""
    rng = random.Random(f"{name}:{seed}")
    workload = BUILDERS[name](rng, SIZES[size], work)
    for path, text in workload.files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    return workload
