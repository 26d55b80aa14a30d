"""The one search kernel: weighted distances from a set of starts.

`dial_distances` is monotone label-setting over integer weights (Dial's
bucket queue, CACM 12(11), 1969) on int nodes cell * classes + state.  It
reads the steps `ball.first_reach_rows` reads: a state steps into state t,
c cells over, at weight w, for each (t, c, w) in steps(state), which the
kernel turns into the node delta c * classes + t - state.  So each search
writes its steps once and runs on either kernel: the ball, whose states
are the orbits, and the decomposition's two over the states orbit << n |
mask, the support-graded search, which also gives the cover its ball, and
the one module search.  The shell counts of `ball.growth_sequence` and the
whole cover check of `decomposition.verify_cover` run on bit rows instead
when `ball.rows_fit` admits them.  Each start carries its own initial
distance.  A state's steps are listed and grouped by weight the first time
a node of it is settled, so the search builds only the states it reaches.
Every step weighs at least 1, so a node settled at distance d only fills
buckets above d; the buckets are keyed by distance and each is emptied
once, in order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable

from .errors import ResourceLimitError

Steps = Callable[[int], Iterable[tuple[int, int, int]]]


def listed_steps(steps: Steps, state: int) -> list[tuple[int, int, int]]:
    """steps(state) as a list, with a ValueError for a weight below 1."""
    listed = list(steps(state))
    for _, _, w in listed:
        if w < 1:
            raise ValueError(f"step weight {w} is below 1")
    return listed


def dial_distances(
    starts: Iterable[tuple[int, int]],
    classes: int,
    steps: Steps,
    budget: int,
    *,
    cap: int,
    cap_what: str,
) -> dict[int, int]:
    """Exact distances min over starts (s, d0) of d0 + d(s, v), up to budget.

    Node v = cell * classes + state steps to (cell + c) * classes + t at
    weight w for each (t, c, w) in steps(state).  Starts beyond the budget
    are dropped; a node given twice keeps its smaller start distance.
    Raises ValueError for a negative start distance or a step weight below
    1, and ResourceLimitError when the search would hold more than `cap`
    nodes, starts included.
    """
    full = f"{cap_what} exceeded {cap} nodes; raise the cap"
    dist: dict[int, int] = {}
    for s, d0 in starts:
        if d0 < 0:
            raise ValueError(f"negative start distance {d0}")
        if d0 <= budget and dist.get(s, d0 + 1) > d0:
            dist[s] = d0
    if len(dist) > cap:
        raise ResourceLimitError(full)
    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for s, d0 in dist.items():
        buckets[d0].append(s)
    # state -> its (w, node deltas) groups, lightest w first
    built: dict[int, list[tuple[int, list[int]]]] = {}
    for d in range(budget + 1):
        slot = buckets.pop(d, None)
        if not slot:
            continue
        for node in slot:
            if dist[node] != d:
                continue  # superseded label
            state = node % classes
            groups = built.get(state)
            if groups is None:
                by_weight: dict[int, list[int]] = {}
                for t, c, w in listed_steps(steps, state):
                    by_weight.setdefault(w, []).append(c * classes + t - state)
                groups = built[state] = sorted(by_weight.items())
            for w, deltas in groups:
                nd = d + w
                if nd > budget:
                    break
                bucket = buckets[nd]
                for delta in deltas:
                    nb = node + delta
                    old = dist.get(nb)
                    if old is None:
                        if len(dist) >= cap:
                            raise ResourceLimitError(full)
                    elif nd >= old:
                        continue
                    dist[nb] = nd
                    bucket.append(nb)
    return dist
