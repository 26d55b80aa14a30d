"""The one search kernel: weighted distances from a set of starts.

`dial_distances` is monotone label-setting over integer weights (Dial's
bucket queue, CACM 12(11), 1969) on int nodes with additive steps: node v
takes the steps of class v % len(table), the orbit of a packed cover vertex
or the (orbit, support mask) of a support-graded state.  It drives the
ball, the support-graded search and the per-subset minimum-degree searches.
Each start carries its own initial distance.  Buckets are indexed by
distance mod (max(W, D) + 1), where W bounds the step weights and D the
start distances: once the labels below d are settled, every pending label
lies in [d, d + max(W, D)], so no two pending distances share a bucket.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ResourceLimitError

StepTable = tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]


def step_table(classes: Iterable[Iterable[tuple[int, int]]]) -> StepTable:
    """Each class's (delta, w) steps as (w, deltas) groups, lightest w first."""
    table = []
    for steps in classes:
        groups: dict[int, list[int]] = {}
        for delta, w in steps:
            groups.setdefault(w, []).append(delta)
        table.append(tuple((w, tuple(groups[w])) for w in sorted(groups)))
    return tuple(table)


def dial_distances(
    starts: Iterable[tuple[int, int]],
    table: StepTable,
    budget: int,
    *,
    cap: int,
    cap_what: str,
) -> dict[int, int]:
    """Exact distances min over starts (s, d0) of d0 + d(s, v), up to budget.

    Starts beyond the budget are dropped; a node given twice keeps its
    smaller start distance.  Raises ResourceLimitError when the search
    would hold more than `cap` nodes, starts included.
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
    max_weight = max((groups[-1][0] for groups in table if groups), default=0)
    modulus = max(max_weight, max(dist.values(), default=0)) + 1
    buckets: list[list[int]] = [[] for _ in range(modulus)]
    for s, d0 in dist.items():
        buckets[d0 % modulus].append(s)
    n = len(table)
    for d in range(budget + 1):
        slot = buckets[d % modulus]
        if not slot:
            continue
        buckets[d % modulus] = []
        for node in slot:
            if dist[node] != d:
                continue  # superseded label
            for w, deltas in table[node % n]:
                nd = d + w
                if nd > budget:
                    break
                bucket = buckets[nd % modulus]
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

