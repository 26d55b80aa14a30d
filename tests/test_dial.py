import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigrowth._dial import dial_distances, step_table
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
# a lone start beyond the largest weight: a ring of W + 1 buckets drops it
@example(([[(1, 1)]], [(0, 5)], 10))
def test_multi_source_dial_matches_heap_dijkstra(case):
    classes, starts, budget = case

    def successors(node):
        return [(node + delta, w) for delta, w in classes[node % len(classes)]]

    got = dial_distances(
        starts, step_table(classes), budget, cap=10**6, cap_what="test search"
    )
    assert got == heap_distances(starts, successors, budget)


def test_dial_rejects_negative_start_distance():
    with pytest.raises(ValueError):
        dial_distances([(0, -1)], step_table([[]]), 5, cap=10, cap_what="test search")


def test_step_table_groups_by_weight():
    # groups run lightest first; deltas keep their order within a group
    assert step_table([[(3, 2), (-1, 1), (5, 2)], []]) == (
        ((1, (-1,)), (2, (3, 5))),
        (),
    )


def test_dial_cap_counts_starts():
    # two starts and the two nodes they reach: four nodes in all
    table = step_table([[(1, 1)]])
    starts = [(0, 0), (10, 0)]
    assert len(dial_distances(starts, table, 1, cap=4, cap_what="t")) == 4
    with pytest.raises(ResourceLimitError):
        dial_distances(starts, table, 1, cap=3, cap_what="t")
    with pytest.raises(ResourceLimitError):
        dial_distances(starts, table, 0, cap=1, cap_what="t")
