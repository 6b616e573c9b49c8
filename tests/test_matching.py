from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from diamondkernel.graph import Graph
from diamondkernel.matching import maximum_matching, maximum_non_matching_size

from conftest import (brute_force_matching_size, complete_graph, cycle_graph, path_graph,
                      petersen_graph)


def is_matching(g, edges):
    touched = set()
    for u, v in edges:
        assert g.has_edge(u, v)
        assert u not in touched and v not in touched
        touched.update((u, v))


def test_path_matching():
    g = path_graph(4)
    m = maximum_matching(g)
    assert m == {(0, 1), (2, 3)}


def test_odd_cycle():
    assert len(maximum_matching(cycle_graph(5))) == 2


def test_petersen_matching():
    # brute force over all matchings of the 15 edges gives 5
    g = petersen_graph()
    m = maximum_matching(g)
    is_matching(g, m)
    assert len(m) == 5 == brute_force_matching_size(g)


def test_two_triangles_sharing_nothing():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert len(maximum_matching(g)) == 2


def test_blossom_with_stem():
    # 5-cycle with a pendant path: needs the contraction to augment through
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6)])
    m = maximum_matching(g)
    is_matching(g, m)
    assert len(m) == 3 == brute_force_matching_size(g)


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_matching_matches_brute_force(g):
    m = maximum_matching(g)
    is_matching(g, m)
    assert len(m) == brute_force_matching_size(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs(8))
def test_non_matching_equals_complement_matching(g):
    vs = g.vertex_set()
    comp = g.complement_restricted(vs)
    assert maximum_non_matching_size(g, vs) == brute_force_matching_size(comp)


@pytest.mark.parametrize("g,expected", [
    (complete_graph(5), 0),                                # no non-edge: greedy finds 0
    (Graph.from_edges(4, [(0, 1), (2, 3)]), 2),            # greedy non-matching is perfect
    # non-edges form the path 2-0-1-3: greedy pairs 0-1 only, Edmonds finds 2
    (Graph.from_edges(4, [(0, 3), (1, 2), (2, 3)]), 2),
])
def test_non_matching_shortcut_cases(g, expected):
    vs = g.vertex_set()
    assert maximum_non_matching_size(g, vs) == expected
    assert expected == brute_force_matching_size(g.complement_restricted(vs))


@settings(max_examples=200, deadline=None)
@given(small_graphs(10), st.data())
def test_non_matching_equals_blossom_on_complement(g, data):
    vs = data.draw(st.sets(st.sampled_from(g.vertices))) if g.n else set()
    expected = len(maximum_matching(g.complement_restricted(vs)))
    assert maximum_non_matching_size(g, vs) == expected


def test_matching_deterministic():
    g = petersen_graph()
    assert maximum_matching(g) == maximum_matching(g.copy())
