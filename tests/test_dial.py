import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigrowth._dial import dial_distances
from perigrowth.errors import ResourceLimitError

from oracles import heap_distances


@st.composite
def multi_source_searches(draw):
    """A 1-D periodic step table of n classes, starts with distances spread
    past the largest weight, and a budget."""
    n = draw(st.integers(1, 4))
    classes = draw(
        st.lists(
            st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 3)), max_size=4),
            min_size=n,
            max_size=n,
        )
    )
    starts = draw(
        st.lists(
            st.tuples(st.integers(-10, 10), st.integers(0, 15)), min_size=1, max_size=5
        )
    )
    return classes, starts, draw(st.integers(0, 20))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(multi_source_searches())
# a lone start beyond the largest weight: a ring of W + 1 buckets dropped it
@example(([[(1, 1)]], [(0, 5)], 10))
def test_multi_source_dial_matches_heap_dijkstra(case):
    classes, starts, budget = case

    def successors(node):
        return [(node + delta, w) for delta, w in classes[node % len(classes)]]

    got = dial_distances(
        starts,
        len(classes),
        classes.__getitem__,
        budget,
        cap=10**6,
        cap_what="test search",
    )
    assert got == heap_distances(starts, successors, budget)


def test_dial_rejects_negative_start_distance():
    with pytest.raises(ValueError):
        dial_distances([(0, -1)], 1, lambda _: [], 5, cap=10, cap_what="test search")


@pytest.mark.parametrize("weight", [0, -1])
def test_dial_rejects_step_weight_below_one(weight):
    # a weight-0 step once landed in the bucket being emptied and was lost,
    # and a negative one gave negative distances
    with pytest.raises(ValueError, match="below 1"):
        dial_distances([(0, 0)], 1, lambda _: [(1, weight)], 3, cap=100, cap_what="t")


def test_dial_builds_each_reached_class_once():
    # 1000 classes; from node 0 at budget 4 the search settles ten nodes in
    # six classes (0, 1000 and 2000 share class 0, -1 is in class 999) and
    # lists the steps of those six only, once each
    built = []

    def steps(c):
        built.append(c)
        return [(1, 1), (1000, 2), (-1, 3)]

    dist = dial_distances([(0, 0)], 1000, steps, 4, cap=100, cap_what="t")
    assert dist == {
        -1: 3, 0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 1000: 2, 1001: 3, 1002: 4, 2000: 4
    }
    assert sorted(built) == [0, 1, 2, 3, 4, 999]


def test_dial_cap_counts_starts():
    # two starts and the two nodes they reach: four nodes in all
    starts = [(0, 0), (10, 0)]

    def steps(_):
        return [(1, 1)]

    assert len(dial_distances(starts, 1, steps, 1, cap=4, cap_what="t")) == 4
    with pytest.raises(ResourceLimitError):
        dial_distances(starts, 1, steps, 1, cap=3, cap_what="t")
    with pytest.raises(ResourceLimitError):
        dial_distances(starts, 1, steps, 0, cap=1, cap_what="t")
