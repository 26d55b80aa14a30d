"""The one search kernel: weighted distances from a set of starts.

`dial_distances` is monotone label-setting over integer weights (Dial's
bucket queue, CACM 12(11), 1969) on int nodes with additive steps: node v
takes the steps of class v % classes: the orbit of a packed cover vertex,
the (orbit, support mask) of a support-graded state, or the subset mask of
a module state.  It drives every search that needs distances: the ball,
and the decomposition's two, the support-graded search, which also gives
the cover its ball, and the one module search over (subset, vertex)
states.  The shell counts of
`ball.growth_sequence` and the whole cover check of
`decomposition.verify_cover` run on bit rows instead when `ball.rows_fit`
admits them, each search one seeded `ball.first_reach_rows` call.
Each start carries its own initial distance.  A class's steps are listed
and grouped by weight the first time a node of that class is settled, so
the search builds only the classes it reaches.  Every step weighs at
least 1, so a node settled at distance d only fills buckets above d; the
buckets are keyed by distance and each is emptied once, in order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable

from .errors import ResourceLimitError


def dial_distances(
    starts: Iterable[tuple[int, int]],
    classes: int,
    steps: Callable[[int], Iterable[tuple[int, int]]],
    budget: int,
    *,
    cap: int,
    cap_what: str,
) -> dict[int, int]:
    """Exact distances min over starts (s, d0) of d0 + d(s, v), up to budget.

    Node v steps to v + delta at weight w for each (delta, w) in
    steps(v % classes).  Starts beyond the budget are dropped; a node given
    twice keeps its smaller start distance.  Raises ValueError for a
    negative start distance or a step weight below 1, and
    ResourceLimitError when the search would hold more than `cap` nodes,
    starts included.
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
    # class -> its (w, deltas) groups, lightest w first
    built: dict[int, list[tuple[int, list[int]]]] = {}
    for d in range(budget + 1):
        slot = buckets.pop(d, None)
        if not slot:
            continue
        for node in slot:
            if dist[node] != d:
                continue  # superseded label
            c = node % classes
            groups = built.get(c)
            if groups is None:
                by_weight: dict[int, list[int]] = {}
                for delta, w in steps(c):
                    if w < 1:
                        raise ValueError(f"step weight {w} is below 1")
                    by_weight.setdefault(w, []).append(delta)
                groups = built[c] = sorted(by_weight.items())
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
