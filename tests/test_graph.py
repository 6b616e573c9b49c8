from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from diamondkernel.errors import UnknownVertexError
from diamondkernel.graph import Graph, edge_key

from conftest import bowtie_graph, complete_graph, diamond_graph, path_graph


def random_graphs(max_n=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(0, max_n))
        pairs = list(combinations(range(n), 2))
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])
    return build()


def test_edge_key_canonical():
    assert edge_key(4, 1) == (1, 4) == edge_key(1, 4)
    with pytest.raises(ValueError):
        edge_key(2, 2)


def test_fresh_ids_never_recycled():
    g = Graph.from_edges(3, [(0, 1)])
    g.remove_vertex(2)
    assert g.add_vertex() == 3
    g.remove_vertex(3)
    assert g.add_vertex() == 4


def test_unknown_vertex_errors():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(UnknownVertexError):
        g.neighbors(5)
    with pytest.raises(UnknownVertexError):
        g.induced_subgraph({0, 5})
    with pytest.raises(UnknownVertexError):
        g.complement_restricted({5})


def test_neighborhood_components_bowtie():
    g = bowtie_graph()
    assert g.neighborhood_components(0) == [{1, 2}, {3, 4}]


def test_neighborhood_components_diamond_degree_three():
    g = diamond_graph()
    # N(1) = {0, 2, 3} with edges 0-2 and 2-3: one component
    assert g.neighborhood_components(1) == [{0, 2, 3}]


def test_neighborhood_components_isolated():
    g = Graph.from_edges(1, [])
    assert g.neighborhood_components(0) == []


def test_connected_components():
    two_triangles = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert two_triangles.connected_components() == [{0, 1, 2}, {3, 4, 5}]
    assert Graph.from_edges(0, []).connected_components() == []
    assert path_graph(3).connected_components() == [{0, 1, 2}]


def test_components_within_a_vertex_set():
    # restricted to a vertex set, the walk never leaves it
    two_triangles = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert path_graph(3).connected_components({0, 2}) == [{0}, {2}]
    assert two_triangles.connected_components({0, 1, 3, 4}) == [{0, 1}, {3, 4}]
    assert two_triangles.component(1, {0, 1, 3}) == {0, 1}


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_neighborhood_components_match_induced_subgraph(g):
    for v in g.vertices:
        expected = g.induced_subgraph(g.neighbors(v)).connected_components()
        assert g.neighborhood_components(v) == expected
    evens = {v for v in g.vertices if v % 2 == 0}
    assert g.connected_components(evens) == g.induced_subgraph(evens).connected_components()
    assert evens == {v for v in g.vertices if v % 2 == 0}   # within is not consumed


def test_neighborhood_components_copy_no_subgraph(monkeypatch):
    def refuse(self, vs):
        raise AssertionError("neighborhood_components copied a subgraph")

    monkeypatch.setattr(Graph, "induced_subgraph", refuse)
    assert bowtie_graph().neighborhood_components(0) == [{1, 2}, {3, 4}]
    assert diamond_graph().neighborhood_components(1) == [{0, 2, 3}]


def test_induced_subgraph_cases():
    k4 = complete_graph(4)
    tri = k4.induced_subgraph({0, 1, 2})
    assert tri.vertices == [0, 1, 2] and tri.m == 3
    empty = k4.induced_subgraph(set())
    assert empty.n == 0 and empty.m == 0
    # the two degree-2 vertices of a diamond are non-adjacent
    sub = diamond_graph().induced_subgraph({0, 3})
    assert sub.m == 0 and sub.n == 2


def test_complement_restricted_cases():
    independent = Graph.from_edges(4, [])
    assert independent.complement_restricted(range(4)).m == 6
    clique = complete_graph(4)
    assert clique.complement_restricted(range(4)).m == 0
    # a diamond has exactly one non-edge
    comp = diamond_graph().complement_restricted(range(4))
    assert comp.edge_set() == {(0, 3)}


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_induced_on_all_vertices_is_identity(g):
    assert g.induced_subgraph(g.vertex_set()) == g


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_validate_after_mutations(g):
    g.validate()
    for v in list(g.vertices)[: g.n // 2]:
        g.remove_vertex(v)
        g.validate()


@settings(max_examples=60, deadline=None)
@given(random_graphs(7))
def test_complement_restricted_partitions_pairs(g):
    comp = g.complement_restricted(g.vertex_set())
    pairs = {edge_key(u, v) for u, v in combinations(g.vertices, 2)}
    assert g.edge_set() | comp.edge_set() == pairs
    assert not g.edge_set() & comp.edge_set()


def complement_pair_by_pair(g, vs):
    """complement_restricted as one add_edge per non-adjacent pair of vs."""
    keep = sorted(set(vs))
    for v in keep:
        g.neighbors(v)   # raises for the smallest unknown id
    comp = Graph.from_vertices_and_edges(
        keep, [(u, v) for u, v in combinations(keep, 2) if not g.has_edge(u, v)])
    comp._next_id = g._next_id
    return comp


@settings(max_examples=80, deadline=None)
@given(random_graphs(8), st.sets(st.integers(0, 11)), st.booleans())
def test_complement_restricted_equals_the_pair_by_pair_build(g, vs, grow):
    if grow:   # ids past the last vertex, so _next_id is not n
        g.remove_vertex(g.add_vertex())
    try:
        expected = complement_pair_by_pair(g, vs)
    except UnknownVertexError as exc:
        with pytest.raises(UnknownVertexError) as info:
            g.complement_restricted(vs)
        assert info.value.vertex == exc.vertex
        return
    comp = g.complement_restricted(vs)
    assert comp == expected and comp._next_id == expected._next_id
    comp.validate()
