import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perigrowth._dial import dial_distances
from perigrowth.ball import first_reach_rows, vertex_codec
from perigrowth.errors import ResourceLimitError
from perigrowth.periodic_graph import PeriodicVertex, parse_periodic_graph

from oracles import heap_distances


@st.composite
def multi_source_searches(draw):
    """A 1-D periodic step table of n states, each step (t, c, w), starts
    with distances spread past the largest weight, and a budget."""
    n = draw(st.integers(1, 4))
    step = st.tuples(st.integers(0, n - 1), st.integers(-2, 2), st.integers(1, 3))
    classes = draw(st.lists(st.lists(step, max_size=4), min_size=n, max_size=n))
    starts = draw(
        st.lists(
            st.tuples(st.integers(-10, 10), st.integers(0, 15)), min_size=1, max_size=5
        )
    )
    return classes, starts, draw(st.integers(0, 20))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(multi_source_searches())
# a lone start beyond the largest weight: a ring of W + 1 buckets dropped it
@example(([[(0, 1, 1)]], [(0, 5)], 10))
def test_multi_source_dial_matches_heap_dijkstra(case):
    # node = cell * n + state steps to (cell + c) * n + t
    classes, starts, budget = case
    n = len(classes)

    def successors(node):
        cell, state = divmod(node, n)
        return [((cell + c) * n + t, w) for t, c, w in classes[state]]

    got = dial_distances(
        starts,
        n,
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
    # both kernels read the same steps, so both reject the same bad step.
    # On the Dial a weight-0 step once landed in the bucket being emptied
    # and was lost, and a negative one gave negative distances; on rows
    # either wrote into a distance already read
    def steps(_):
        return [(0, 1, weight)]

    line = parse_periodic_graph("dim 1\nvertex a\nedge a a 1 1\n")
    codec = vertex_codec(line, PeriodicVertex(0, (0,)), 3)
    message = f"^step weight {weight} is below 1$"
    with pytest.raises(ValueError, match=message):
        dial_distances([(0, 0)], 1, steps, 3, cap=100, cap_what="t")
    with pytest.raises(ValueError, match=message):
        list(first_reach_rows(codec, [(0, 0, 1 << 3)], steps, cap=100, cap_what="t"))


def test_dial_builds_each_reached_class_once():
    # 1000 classes, each stepping to node +1, +1000 and -1; from node 0 at
    # budget 4 the search settles ten nodes in six classes (0, 1000 and
    # 2000 share class 0, -1 is in class 999) and lists the steps of those
    # six only, once each
    built = []

    def steps(state):
        built.append(state)
        up, down = divmod(state + 1, 1000), divmod(state - 1, 1000)
        return [(up[1], up[0], 1), (state, 1, 2), (down[1], down[0], 3)]

    dist = dial_distances([(0, 0)], 1000, steps, 4, cap=100, cap_what="t")
    assert dist == {
        -1: 3, 0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 1000: 2, 1001: 3, 1002: 4, 2000: 4
    }
    assert sorted(built) == [0, 1, 2, 3, 4, 999]


def test_dial_cap_counts_starts():
    # two starts and the two nodes they reach: four nodes in all
    starts = [(0, 0), (10, 0)]

    def steps(_):
        return [(0, 1, 1)]

    assert len(dial_distances(starts, 1, steps, 1, cap=4, cap_what="t")) == 4
    with pytest.raises(ResourceLimitError):
        dial_distances(starts, 1, steps, 1, cap=3, cap_what="t")
    with pytest.raises(ResourceLimitError):
        dial_distances(starts, 1, steps, 0, cap=1, cap_what="t")
