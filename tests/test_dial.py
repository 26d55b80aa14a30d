import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigrowth._dial import dial_distances

from oracles import heap_distances


@st.composite
def multi_source_searches(draw):
    """A small weighted digraph, starts with distances spread past the
    largest weight, and a budget."""
    n = draw(st.integers(1, 6))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
            max_size=12,
        )
    )
    starts = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 15)), min_size=1, max_size=5)
    )
    return n, edges, starts, draw(st.integers(0, 20))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(multi_source_searches())
# a lone start beyond the largest weight: a ring of W + 1 buckets drops it
@example((2, [(0, 1, 1)], [(0, 5)], 10))
def test_multi_source_dial_matches_heap_dijkstra(case):
    n, edges, starts, budget = case
    adjacency = {v: [(b, w) for a, b, w in edges if a == v] for v in range(n)}
    max_weight = max((w for _, _, w in edges), default=0)
    got = dial_distances(starts, adjacency.__getitem__, budget, max_weight)
    assert got == heap_distances(starts, adjacency.__getitem__, budget)


def test_dial_rejects_negative_start_distance():
    with pytest.raises(ValueError):
        dial_distances([(0, -1)], lambda v: [], 5, 1)
