import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from diamondkernel import checks, patterns
from diamondkernel.errors import FamilyError, InvariantError, NotDiamondFreeError
from diamondkernel.family import FamilySpec
from diamondkernel.graph import Graph, edge_key
from diamondkernel.patterns import (OccurrenceIndex, _clusters_neighbourhood, centre_edges,
                                    clique_partition, fewest_conflicts_packing,
                                    find_induced_occurrence, greedy_packing,
                                    is_core_member_edge, is_family_free,
                                    iter_clique_occurrences, iter_sdiamond_occurrences)
from diamondkernel.solver import _min_toggles, has_induced_pattern_naive
from diamondkernel.instances import clique_layout, gen_hard_structure, gen_planted_yes

from conftest import (apex_gadgets, complete_graph, cycle_graph, diamond_graph,
                      edge_in_diamond_subgraph, path_graph)

DIAMOND = FamilySpec.diamond()


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])


# -- family spec ------------------------------------------------------------------

def test_family_tokens_round_trip():
    for token in ("diamond", "2-diamond", "k4", "diamond,k4", "3-diamond,k5"):
        assert FamilySpec.parse_token(token).token() == token


def test_family_validation():
    with pytest.raises(FamilyError):
        FamilySpec.parse_token("triangle")
    with pytest.raises(FamilyError):
        FamilySpec(sdiamond=0)
    with pytest.raises(FamilyError):
        FamilySpec(clique=2)
    assert FamilySpec.diamond().kernelizable()
    assert FamilySpec.diamond_kt(4).kernelizable()
    assert not FamilySpec.s_diamond(2).kernelizable()
    assert not FamilySpec(sdiamond=1, clique=3).kernelizable()


# -- detection ---------------------------------------------------------------------

def test_find_diamond_in_diamond():
    occ = find_induced_occurrence(diamond_graph(), DIAMOND)
    assert occ.vertices == (0, 1, 2, 3)
    assert len(occ.edges) == 5


def test_k4_has_no_induced_diamond():
    assert find_induced_occurrence(complete_graph(4), DIAMOND) is None


def test_two_diamond():
    # an edge joined to an independent triple
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    occ = find_induced_occurrence(g, FamilySpec.s_diamond(2))
    assert occ.vertices == (0, 1, 2, 3, 4)
    assert len(occ.edges) == 7


def test_family_free_examples():
    assert is_family_free(cycle_graph(4), DIAMOND)
    assert not is_family_free(complete_graph(5), FamilySpec.diamond_kt(4))
    cliques = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6),
                                   (4, 5), (4, 6), (5, 6)])
    assert is_family_free(cliques, DIAMOND)
    assert not has_induced_pattern_naive(cliques, DIAMOND)


def test_mixed_family_reports_clique_kind():
    out = find_induced_occurrence(complete_graph(4), FamilySpec.diamond_kt(4))
    assert out.kind == "clique" and out.vertices == (0, 1, 2, 3)


@settings(max_examples=120, deadline=None)
@given(small_graphs())
def test_detector_agrees_with_subset_enumeration(g):
    for fam in (DIAMOND, FamilySpec.s_diamond(2), FamilySpec.diamond_kt(4),
                FamilySpec(clique=3)):
        assert (find_induced_occurrence(g, fam) is not None) == \
            has_induced_pattern_naive(g, fam)
        assert is_family_free(g, fam) == (not has_induced_pattern_naive(g, fam))


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_occurrences_are_induced(g):
    occ = find_induced_occurrence(g, DIAMOND)
    if occ is None:
        return
    present = {edge_key(u, v) for u, v in combinations(occ.vertices, 2) if g.has_edge(u, v)}
    assert present == occ.edges
    assert len(occ.vertices) == 4 and len(occ.edges) == 5


def enumerated_minimum(g, fam, avoid_edges):
    """The reference answer: minimum over the full enumerators, s-diamonds first."""
    best = None
    if fam.sdiamond is not None:
        best = min(iter_sdiamond_occurrences(g, fam.sdiamond, avoid_edges),
                   key=lambda o: o.vertices, default=None)
    if best is None and fam.clique is not None:
        best = min(iter_clique_occurrences(g, fam.clique, avoid_edges),
                   key=lambda o: o.vertices, default=None)
    return best


@settings(max_examples=150, deadline=None)
@given(small_graphs(9), st.data())
def test_first_occurrence_equals_enumerated_minimum(g, data):
    avoid = data.draw(st.sets(st.sampled_from(sorted(g.edges())))) if g.m else set()
    for fam in (DIAMOND, FamilySpec.s_diamond(2), FamilySpec.diamond_kt(4),
                FamilySpec(clique=4)):
        for avoid_edges in (None, avoid):
            assert find_induced_occurrence(g, fam, avoid_edges) == \
                enumerated_minimum(g, fam, avoid_edges)


def has_induced_p3_around(g, v):
    """Brute force: some y, z, w in N(v) with yz, zw edges and yw a non-edge."""
    return any(g.has_edge(y, z) and g.has_edge(z, w) and not g.has_edge(y, w)
               for y, w in combinations(sorted(g.neighbors(v)), 2)
               for z in g.neighbors(v) - {y, w})


@settings(max_examples=150, deadline=None)
@given(small_graphs(9))
def test_centre_edges_keep_every_possible_middle_edge(g):
    for v in g.vertices:
        assert _clusters_neighbourhood(g, v) == (not has_induced_p3_around(g, v))
    kept = centre_edges(g)
    assert kept == [e for e in g.edges() if e in set(kept)]
    for s in (1, 2):
        for occ in iter_sdiamond_occurrences(g, s):
            # the middle edge is the one pair adjacent to every other vertex
            middle = [e for e in occ.edges
                      if all(edge_key(u, w) in occ.edges
                             for u in e for w in occ.vertices if w not in e)]
            assert len(middle) == 1 and middle[0] in kept
    for x, y in g.edges():
        common = g.neighbors(x) & g.neighbors(y)
        if any(not g.has_edge(a, b) for a, b in combinations(common, 2)):
            assert (x, y) in kept


@st.composite
def blow_ups(draw, max_base=6):
    """A random graph on <= max_base vertices with each vertex replaced by a
    clique or an independent set of 1-4 vertices, joined completely where
    the base graph has an edge; vertex ids are shuffled."""
    base = draw(small_graphs(max_base))
    blocks, n = [], 0
    for _ in base.vertices:
        size = draw(st.integers(1, 4))
        blocks.append((range(n, n + size), draw(st.booleans())))
        n += size
    label = draw(st.permutations(range(n)))
    edges = [(u, v) for members, clique in blocks if clique for u, v in combinations(members, 2)]
    edges += [(u, v) for a, b in base.edges() for u in blocks[a][0] for v in blocks[b][0]]
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


def centre_edges_per_vertex(g):
    """centre_edges with the neighbourhood test run on every vertex."""
    centres = {v for v in g.vertex_set()
               if g.degree(v) > 2 and not _clusters_neighbourhood(g, v)}
    return sorted((x, y) for x in centres for y in g.neighbors(x) & centres if x < y)


@settings(max_examples=300, deadline=None)
@given(blow_ups())
def test_centre_edges_share_verdicts_exactly_between_twins(g):
    assert centre_edges(g) == centre_edges_per_vertex(g)


def test_cluster_test_runs_once_per_class_of_true_twins(monkeypatch):
    calls = []
    real = patterns._clusters_neighbourhood
    monkeypatch.setattr(patterns, "_clusters_neighbourhood",
                        lambda g, x: calls.append(x) or real(g, x))
    # per copy: one class for the 16 clique vertices, then a, b and p (q has degree 2)
    g, centres = apex_gadgets(3, 16)
    assert centre_edges(g) == centres and len(calls) == 12
    for k in (4, 8, 12):
        # w1, w2, each clique's representative, and one class per clique
        # for its other members; w3 and w4 have degree 2
        g = gen_hard_structure(k).graph
        calls.clear()
        kept = centre_edges(g)
        assert len(calls) == 2 * k + 2
        assert kept == centre_edges_per_vertex(g)


def twin_classes_by_definition(g):
    closed = {v: g.neighbors(v) | {v} for v in g.vertices}
    return {v: min(u for u in g.vertices if closed[u] == closed[v]) for v in g.vertices}


MUTATORS = ("add_vertex", "add_vertex_with_id", "add_edge", "remove_edge", "remove_vertex")


@settings(max_examples=200, deadline=None)
@given(blow_ups(), st.lists(st.tuples(st.sampled_from(MUTATORS), st.integers(0, 99),
                                      st.integers(0, 99)), max_size=8))
def test_kept_results_follow_every_mutation(g, steps):
    # the comparisons below, not the memo's own debug cross-check, must
    # catch a kept result that a mutation left stale
    checks.set_debug_assertions(False)
    for step in steps + [None]:
        assert dict(g.twin_classes()) == twin_classes_by_definition(g)
        assert centre_edges(g) == centre_edges_per_vertex(g)
        if step is None:
            return
        name, i, j = step
        vs, edges = g.vertices, list(g.edges())
        if name == "add_vertex":
            g.add_vertex()
        elif name == "add_vertex_with_id":
            g.add_vertex_with_id(max(vs, default=-1) + 1 + i % 3)
        elif name == "add_edge" and len(vs) > 1 and vs[i % len(vs)] != vs[j % len(vs)]:
            g.add_edge(vs[i % len(vs)], vs[j % len(vs)])
        elif name == "remove_edge" and edges:
            g.remove_edge(*edges[i % len(edges)])
        elif name == "remove_vertex" and vs:
            g.remove_vertex(vs[i % len(vs)])


@settings(max_examples=200, deadline=None)
@given(blow_ups(), st.sampled_from([DIAMOND, FamilySpec.diamond_kt(4), FamilySpec.s_diamond(2)]))
def test_component_test_in_place_equals_the_induced_copy(g, fam):
    for component in g.connected_components():
        assert (is_family_free(g, fam, component)
                == (find_induced_occurrence(g.induced_subgraph(component), fam) is None))


def test_debug_check_finds_a_kept_result_that_a_mutation_left(monkeypatch):
    def remove_edge_keeping_memo(self, u, v):
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    # no two vertices are twins before or after 0-4 goes, but the centre edges change
    g = Graph.from_edges(6, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 5), (3, 5),
                             (4, 5)])
    assert centre_edges(g) == [(0, 1), (0, 5), (1, 2), (1, 5), (2, 5)]
    # 1 and 2 are twins until 1-3 goes
    d = diamond_graph()
    assert dict(d.twin_classes()) == {0: 0, 1: 1, 2: 1, 3: 3}
    monkeypatch.setattr(Graph, "remove_edge", remove_edge_keeping_memo)
    g.remove_edge(0, 4)
    assert dict(g.twin_classes()) == {v: v for v in range(6)}
    with pytest.raises(InvariantError, match="kept centre_edges is stale"):
        centre_edges(g)
    d.remove_edge(1, 3)
    with pytest.raises(InvariantError, match="kept twin_classes is stale"):
        d.twin_classes()


# -- core membership -----------------------------------------------------------------

def core_member_by_counting(g, e, fam):
    """Some {x, y, a, b} spans >= 5 edges, or (with a clique item) e lies in a K_t."""
    x, y = e
    others = [v for v in g.vertices if v not in e]
    for a, b in combinations(others, 2):
        if sum(g.has_edge(p, q) for p, q in combinations((x, y, a, b), 2)) >= 5:
            return True
    if fam.clique is not None:
        for rest in combinations(others, fam.clique - 2):
            if all(g.has_edge(p, q) for p, q in combinations((x, y) + rest, 2)):
                return True
    return False


def test_core_member_path_edge():
    assert not is_core_member_edge(path_graph(3), (0, 1), DIAMOND)


def test_core_member_k4_edges():
    k4 = complete_graph(4)
    assert all(is_core_member_edge(k4, e, DIAMOND) for e in k4.edges())


def test_core_member_diamond_every_edge():
    g = diamond_graph()
    for e in g.edges():
        assert is_core_member_edge(g, e, DIAMOND)
        assert edge_in_diamond_subgraph(g, e)


def test_core_member_vertex_cases():
    k4_pendant = complete_graph(4)
    p = k4_pendant.add_vertex()
    k4_pendant.add_edge(3, p)
    assert not is_core_member_edge(k4_pendant, (3, p), DIAMOND)


def test_core_member_k5_clique_family():
    fam = FamilySpec.diamond_kt(5)
    k5_minus = complete_graph(5)
    # remove enough edges that no diamond subgraph remains but a K5 would be needed
    g = complete_graph(5)
    assert is_core_member_edge(g, (0, 1), fam)


def test_core_member_requires_plain_diamond_family():
    with pytest.raises(FamilyError):
        is_core_member_edge(diamond_graph(), (0, 1), FamilySpec.s_diamond(2))


@settings(max_examples=50, deadline=None)
@given(small_graphs(8))
def test_core_membership_equals_subgraph_isomorphism(g):
    for e in g.edges():
        assert is_core_member_edge(g, e, DIAMOND) == edge_in_diamond_subgraph(g, e)


@settings(max_examples=120, deadline=None)
@given(small_graphs(9))
def test_core_membership_equals_edge_counting(g):
    for fam in (DIAMOND, FamilySpec(sdiamond=1, clique=3), FamilySpec.diamond_kt(4),
                FamilySpec.diamond_kt(5)):
        for e in g.edges():
            assert is_core_member_edge(g, e, fam) == core_member_by_counting(g, e, fam)


# -- greedy packing --------------------------------------------------------------------

def test_packing_single_diamond():
    res = greedy_packing(diamond_graph(), 1, DIAMOND)
    assert not res.budget_exceeded
    assert len(res.occurrences) == 1 and len(res.packing_edges) == 5


def test_packing_two_disjoint_diamonds_exceeds():
    d1 = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    d2 = [(4, 5), (4, 6), (5, 6), (5, 7), (6, 7)]
    g = Graph.from_edges(8, d1 + d2)
    assert greedy_packing(g, 1, DIAMOND).budget_exceeded


def test_packing_hard_structure_is_one():
    inst = gen_hard_structure(3)
    res = greedy_packing(inst.graph, 3, DIAMOND)
    assert not res.budget_exceeded
    assert len(res.occurrences) == 1
    # every induced diamond shares an edge with the packed one
    for occ in iter_sdiamond_occurrences(inst.graph, 1):
        assert occ.edges & res.packing_edges


@settings(max_examples=60, deadline=None)
@given(small_graphs(8), st.integers(0, 3))
def test_packing_properties(g, k):
    res = greedy_packing(g, k, DIAMOND)
    seen = set()
    for occ in res.occurrences:
        assert not (occ.edges & seen), "occurrences must be edge-disjoint"
        seen |= occ.edges
    if res.budget_exceeded:
        assert len(res.occurrences) == k + 1
    else:
        assert len(res.occurrences) <= k
        # maximality over the host graph
        for occ in iter_sdiamond_occurrences(g, 1):
            assert occ.edges & res.packing_edges


def test_packing_maximality_check_catches_a_short_packing(monkeypatch):
    # two vertex-disjoint diamonds, but the packing stops after the first
    g = Graph.from_edges(8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                             (4, 5), (4, 6), (5, 6), (5, 7), (6, 7)])

    def first_only(work, k, fixed, choose):
        occ = choose(work)
        return patterns.PackingResult(False, set(occ.edges), [occ])

    monkeypatch.setattr(patterns, "_pack", first_only)
    with pytest.raises(InvariantError, match="edge-disjoint from a maximal packing"):
        greedy_packing(g, 2, DIAMOND)
    checks.set_debug_assertions(False)
    short = greedy_packing(g, 2, DIAMOND)
    assert not short.budget_exceeded
    assert [occ.vertices for occ in short.occurrences] == [(0, 1, 2, 3)]


def test_packing_all_fixed_occurrence_exceeds():
    # an occurrence that no solution may hit rules out every budget
    g = diamond_graph()
    res = fewest_conflicts_packing(OccurrenceIndex(g, DIAMOND), 3, g.edge_set())
    assert res.budget_exceeded and len(res.occurrences) == 1


def test_packing_shared_fixed_edges_count_as_disjoint():
    # six diamonds share the middle edge 1-2; with it fixed, {0, 3} and {4, 5}
    # give two occurrences whose unfixed edges are disjoint
    g = Graph.from_edges(6, [(1, 2)] + [(v, c) for v in (1, 2) for c in (0, 3, 4, 5)])
    index = OccurrenceIndex(g, DIAMOND)
    assert not fewest_conflicts_packing(index, 1, set()).budget_exceeded
    res = fewest_conflicts_packing(index, 1, {(1, 2)})
    assert res.budget_exceeded
    assert [occ.vertices for occ in res.occurrences] == [(0, 1, 2, 3), (1, 2, 4, 5)]
    assert (1, 2) not in res.packing_edges
    assert index.avoid == set()   # the caller's index is left as it was


@settings(max_examples=100, deadline=None)
@given(small_graphs(8), st.data())
def test_fewest_conflicts_packing_is_a_sound_bound(g, data):
    edges = sorted(g.edges())
    fixed = set(data.draw(st.lists(st.sampled_from(edges), max_size=4))) if edges else set()
    unfixed_edges = [e for e in edges if e not in fixed]
    for fam in (DIAMOND, FamilySpec.s_diamond(2), FamilySpec.diamond_kt(4)):
        induced = set(iter_sdiamond_occurrences(g, fam.sdiamond))
        if fam.clique is not None:
            induced |= set(iter_clique_occurrences(g, fam.clique))
        for k in range(4):
            res = fewest_conflicts_packing(OccurrenceIndex(g, fam), k, fixed)
            seen = set()
            for occ in res.occurrences:
                assert occ in induced
                assert not (occ.edges - fixed) & seen, "unfixed edges must be disjoint"
                seen |= occ.edges - fixed
            if res.budget_exceeded:
                # no k deletions outside fixed leave g family-free
                assert _min_toggles(g, fam, k, None, unfixed_edges) == (None, None)
            else:
                assert len(res.occurrences) <= k


def _edge_disjoint_packing(g, k, fam):
    """The packing loop without fixed edges: take the first occurrence edge-
    disjoint from those packed until k+1 are packed or none is left."""
    edges, occurrences = set(), []
    while (occ := find_induced_occurrence(g, fam, avoid_edges=edges)) is not None:
        occurrences.append(occ)
        edges |= occ.edges
        if len(occurrences) >= k + 1:
            return True, edges, occurrences
    return False, edges, occurrences


@settings(max_examples=60, deadline=None)
@given(small_graphs(8), st.integers(0, 3))
def test_packing_defaults_are_edge_disjoint_packing(g, k):
    for fam in (DIAMOND, FamilySpec.s_diamond(2), FamilySpec.diamond_kt(4)):
        expected = _edge_disjoint_packing(g, k, fam)
        res = greedy_packing(g, k, fam)
        assert (res.budget_exceeded, res.packing_edges, res.occurrences) == expected


def test_occurrence_index_refuses_ambiguous_requests():
    g = diamond_graph()
    index = OccurrenceIndex(g, DIAMOND)
    with pytest.raises(ValueError):   # the mask belongs to the index
        find_induced_occurrence(g, DIAMOND, {(1, 2)}, index=index)
    with pytest.raises(ValueError):   # a silent no-op would hide a caller's wrong edge
        index.remove_edge(0, 3)
    assert index.first() == find_induced_occurrence(g, DIAMOND)


def _assert_peels_like_the_scan(index, g, fam, avoid):
    """Peel a copy of index, masking each first occurrence's edges, and
    compare every answer with the scan under the same mask."""
    probe, avoid = index.copy(), set(avoid)
    while True:
        occ = probe.first()
        assert occ == find_induced_occurrence(g, fam, avoid)
        if occ is None:
            return
        avoid |= occ.edges
        probe.mask(set(occ.edges))


@settings(max_examples=100, deadline=None)
@given(small_graphs(12), st.sampled_from((DIAMOND, FamilySpec.s_diamond(2),
                                          FamilySpec.diamond_kt(4))),
       st.integers(0, 3), st.data())
def test_occurrence_index_follows_toggles_and_masks(g, fam, k, data):
    # one index takes toggles and a growing mask, a second takes the same
    # toggles only and backs the fewest-conflicts packing; each has its own
    # copy of the graph
    masked_g, plain_g = g.copy(), g.copy()
    masked, plain = OccurrenceIndex(masked_g, fam), OccurrenceIndex(plain_g, fam)
    pairs = list(combinations(g.vertices, 2))
    avoid, removed = set(), []
    for _ in range(data.draw(st.integers(0, 12))):
        step = data.draw(st.sampled_from(("toggle", "restore", "mask")))
        if step == "mask" and masked_g.m:
            new = set(data.draw(st.lists(st.sampled_from(sorted(masked_g.edges())),
                                         max_size=3)))
            avoid |= new
            masked.mask(new)
        elif pairs:
            # "restore" re-adds the last removed pair through the index
            pair = removed.pop() if step == "restore" and removed else \
                data.draw(st.sampled_from(pairs))
            if plain_g.has_edge(*pair):
                removed.append(pair)
            for h, index in ((masked_g, masked), (plain_g, plain)):
                (index.remove_edge if h.has_edge(*pair) else index.add_edge)(*pair)
        assert masked.first() == find_induced_occurrence(masked_g, fam, avoid) == \
            enumerated_minimum(masked_g, fam, avoid)
        _assert_peels_like_the_scan(masked, masked_g, fam, avoid)
        assert find_induced_occurrence(plain_g, fam, index=plain) == \
            enumerated_minimum(plain_g, fam, None)
        fixed = set(data.draw(st.lists(st.sampled_from(sorted(plain_g.edges())),
                                       max_size=4))) if plain_g.m else set()
        # budget m packs until the packing is maximal; the toggled index packs
        # as one built afresh on the same graph
        for budget in (k, plain_g.m):
            for fx in (set(), fixed):
                assert fewest_conflicts_packing(plain, budget, fx) == \
                    fewest_conflicts_packing(OccurrenceIndex(plain_g.copy(), fam), budget, fx)


# -- clique partitioning ----------------------------------------------------------------

def test_partition_two_triangles_sharing_vertex():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert clique_partition(g) == [{0, 1, 2}, {2, 3, 4}]


def test_partition_edgeless_graph():
    assert clique_partition(Graph.from_edges(3, [])) == [{0}, {1}, {2}]


def test_partition_k4_plus_edge():
    g = Graph.from_edges(6, list(combinations(range(4), 2)) + [(4, 5)])
    assert clique_partition(g) == [{0, 1, 2, 3}, {4, 5}]


def test_partition_rejects_diamond():
    with pytest.raises(NotDiamondFreeError) as info:
        clique_partition(diamond_graph())
    assert info.value.occurrence.vertices == (0, 1, 2, 3)


@settings(max_examples=80, deadline=None)
@given(small_graphs(8))
def test_partition_properties_on_diamond_free(g):
    if not is_family_free(g, DIAMOND):
        return
    cliques = clique_partition(g)  # debug validation covers the partition laws
    covered = set()
    for c in cliques:
        covered |= {edge_key(u, v) for u, v in combinations(sorted(c), 2)}
    assert covered == g.edge_set()
    assert {v for c in cliques for v in c} == g.vertex_set()


def edge_walk_partition(g):
    """The partition as every edge uv gives it, {u, v} with their common
    neighbourhood, plus the isolated vertices, deduplicated and sorted."""
    found = {frozenset({u, v} | (g.neighbors(u) & g.neighbors(v))) for u, v in g.edges()}
    found |= {frozenset({v}) for v in g.vertices if g.degree(v) == 0}
    return sorted(map(set, found), key=lambda c: tuple(sorted(c)))


def relabelled(g, seed):
    """g on shuffled vertex ids, so no clique's cut vertex is known to be its minimum."""
    ids = g.vertices
    perm = ids[:]
    random.Random(seed).shuffle(perm)
    new = dict(zip(ids, perm))
    return Graph.from_vertices_and_edges(perm, [(new[u], new[v]) for u, v in g.edges()])


@pytest.mark.parametrize("sizes,glue", [
    ([20] * 5, "chain"), ([60, 20, 45, 60], "chain"), ([33, 1, 40, 2], "disjoint"),
], ids=["chain5x20", "chain-20-to-60", "disjoint-with-isolated"])
def test_partition_equals_the_edge_walk_on_planted_cliques(sizes, glue):
    base = gen_planted_yes(clique_layout(sizes, glue), 0, 0).graph
    for g in (base, relabelled(base, 1), relabelled(base, 2)):
        cliques = clique_partition(g)
        assert cliques == edge_walk_partition(g)
        assert sorted(map(len, cliques)) == sorted(sizes)


@settings(max_examples=200, deadline=None)
@given(blow_ups())
def test_partition_equals_the_edge_walk_on_twin_rich_graphs(g):
    if not is_family_free(g, DIAMOND):
        return
    assert clique_partition(g) == edge_walk_partition(g)
