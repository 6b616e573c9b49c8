from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from diamondkernel import solver
from diamondkernel.errors import GuardError
from diamondkernel.family import FamilySpec
from diamondkernel.graph import Graph
from diamondkernel.phase1 import Instance
from diamondkernel.instances import gen_gnp, reduce_vc_to_sdfed
from diamondkernel.patterns import (PackingResult, is_family_free, iter_clique_occurrences,
                                    iter_sdiamond_occurrences)
from diamondkernel.solver import (Solution, brute_force_min_deletion, brute_force_min_editing,
                                  brute_force_vertex_deletion, check_solution,
                                  solve_branching)

from conftest import (brute_force_editing_solution, complete_graph, cycle_graph,
                      diamond_graph, editing_feasible, path_graph)

DIAMOND = FamilySpec.diamond()


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])


# -- branching solver -------------------------------------------------------------

def test_branching_diamond():
    sol = solve_branching(Instance(diamond_graph(), 1, DIAMOND))
    assert sol.feasible and len(sol.delete_set) == 1
    h = diamond_graph()
    h.remove_edge(*next(iter(sol.delete_set)))
    assert is_family_free(h, DIAMOND)


def test_branching_diamond_budget_zero():
    assert not solve_branching(Instance(diamond_graph(), 0, DIAMOND)).feasible


def test_branching_k4_free_at_zero():
    sol = solve_branching(Instance(complete_graph(4), 0, DIAMOND))
    assert sol.feasible and sol.delete_set == frozenset()


def test_branching_negative_budget():
    assert not solve_branching(Instance(cycle_graph(4), -1, DIAMOND)).feasible


def test_branching_packing_bound_agrees():
    # pruning is always on: one diamond needs exactly one deletion
    answers = [solve_branching(Instance(diamond_graph(), k, DIAMOND)).feasible
               for k in range(4)]
    assert answers == [False, True, True, True]


def test_branching_node_count_regression(monkeypatch):
    # triangle plus a disjoint edge has vertex cover 2, so k0 = 2 reduces to a
    # no-instance at k = 6 that the unpruned search settles in 19,531 nodes
    g0 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    inst, _ = reduce_vc_to_sdfed(g0, 2)
    assert inst.k == 6
    searches = []
    real = solver.find_induced_occurrence
    monkeypatch.setattr(solver, "find_induced_occurrence",
                        lambda *a, **kw: searches.append(1) or real(*a, **kw))
    sol = solve_branching(inst)
    assert not sol.feasible
    assert sol.nodes == len(searches) <= 1_000


def _lexicographic_packing(index, k, fixed):
    """The solver's former bound: pack the first occurrence under the mask
    each time, until k+1 are packed or one has only fixed edges."""
    work, packing_edges, occurrences = index.copy(), set(), []
    while (occ := work.first()) is not None:
        occurrences.append(occ)
        unfixed = occ.edges - fixed
        if not unfixed or len(occurrences) > k:
            return PackingResult(True, packing_edges | unfixed, occurrences)
        packing_edges |= unfixed
        work.mask(unfixed)
    return PackingResult(False, packing_edges, occurrences)


def test_branching_node_count_is_pinned(monkeypatch):
    # the same no-instance as above: the pruned search tree has exactly 6
    # nodes, and 246 under the lexicographic packing, with the same answer
    g0 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    inst, _ = reduce_vc_to_sdfed(g0, 2)
    sol = solve_branching(inst)
    assert not sol.feasible and sol.nodes == 6
    monkeypatch.setattr(solver, "fewest_conflicts_packing", _lexicographic_packing)
    lexicographic = solve_branching(inst)
    assert lexicographic == sol and lexicographic.nodes == 246


@pytest.mark.parametrize("k0,feasible", [(4, False), (5, True)])
def test_branching_work_on_reduced_vertex_cover(k0, feasible, monkeypatch):
    # vertex cover 5: k = 16 and 17 after the reduction, which the
    # lexicographic packing settles in 57,340 and 66,599 nodes
    inst, _ = reduce_vc_to_sdfed(gen_gnp(8, 0.4, 1), k0)
    searches = []
    real = solver.find_induced_occurrence

    def counted(*args, **kwargs):
        searches.append(1)
        assert len(searches) <= 300, "more than 300 search nodes"
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "find_induced_occurrence", counted)
    sol = solve_branching(inst)
    assert sol.feasible == feasible and sol.nodes == len(searches)


@pytest.mark.parametrize("n,p,k0,feasible,most", [
    (16, 0.3, 8, False, 250), (16, 0.3, 9, True, 125), (18, 0.25, 11, True, 125),
], ids=["n16-no", "n16-yes", "n18-yes"])
def test_branching_work_on_larger_reduced_vertex_cover(n, p, k0, feasible, most):
    # vertex cover 9 and 11: the solver takes 168, 83 and 83 nodes, where
    # branching in canonical order took 427, 1,466 and 18,456
    inst, _ = reduce_vc_to_sdfed(gen_gnp(n, p, 1), k0)
    sol = solve_branching(inst)
    assert sol.feasible == feasible and sol.nodes <= most
    if feasible:
        assert check_solution(inst.graph, inst.family, inst.k, sol) == \
            {"verified_family_free": True}


def _reference_deletion_set(g: Graph, fam: FamilySpec, k: int):
    """The solver's branching rule and forbidden-edge marking, applied from
    scratch at every node, with no packing bound and no OccurrenceIndex."""
    g = g.copy()
    deleted, fixed = [], set()

    def entries():
        # per middle edge, the occurrence with the smallest vertex tuple
        first = {}
        for occ in iter_sdiamond_occurrences(g, fam.sdiamond) if fam.sdiamond else ():
            degree = Counter(v for e in occ.edges for v in e)
            middle = tuple(v for v in occ.vertices if degree[v] == fam.sdiamond + 2)
            if middle not in first or occ.vertices < first[middle].vertices:
                first[middle] = occ
        return list(first.values())

    def dfs(budget):
        occs = entries()
        fallback = None
        if not occs and fam.clique is not None:
            fallback = next(iter_clique_occurrences(g, fam.clique), None)
        if not occs and fallback is None:
            return True
        if budget == 0:
            return False
        if occs:
            unfixed = [(occ.edges - fixed, occ) for occ in occs]
            load = Counter(e for free, _occ in unfixed for e in free)
            free, _occ = min(unfixed, key=lambda item: (
                len(item[0]), -max((load[e] for e in item[0]), default=0), item[1].vertices))
            edges = sorted(free, key=lambda e: (-load[e], e))
        else:
            edges = sorted(fallback.edges - fixed)
        for e in edges:
            g.remove_edge(*e)
            deleted.append(e)
            if dfs(budget - 1):
                return True
            g.add_edge(*e)
            deleted.pop()
            fixed.add(e)
        fixed.difference_update(edges)
        return False

    return frozenset(deleted) if dfs(k) else None


@settings(max_examples=60, deadline=None)
@given(small_graphs(9), st.integers(0, 4))
def test_branching_returns_unpruned_deletion_set(g, k):
    # the packing bound fails only nodes whose search finds nothing, so
    # neither it nor the index may change the returned set
    for fam in (DIAMOND, FamilySpec.s_diamond(2), FamilySpec.diamond_kt(4)):
        sol = solve_branching(Instance(g.copy(), k, fam))
        # nodes takes no part in equality
        assert sol == Solution(_reference_deletion_set(g, fam, k))


@pytest.mark.parametrize("n,edges,fam,expected", [
    (6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5),
         (3, 5), (4, 5)], DIAMOND, {(0, 2), (1, 4), (2, 3)}),
    (8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 5),
         (1, 6), (1, 7), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 7), (4, 5),
         (4, 6)], FamilySpec.s_diamond(2), {(0, 1), (0, 3), (2, 5)}),
], ids=["diamond", "2-diamond"])
def test_branching_breaks_ties_by_load(n, edges, fam, expected):
    # entries with equally few unfixed edges go to the one holding the most
    # loaded edge; breaking the tie by vertex tuple alone returns another set
    g = Graph.from_edges(n, edges)
    sol = solve_branching(Instance(g.copy(), 4, fam))
    assert sol.delete_set == expected == _reference_deletion_set(g, fam, 4)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(0, 3))
def test_branching_agrees_with_oracle(g, k):
    for fam in (DIAMOND, FamilySpec.s_diamond(2), FamilySpec.diamond_kt(4)):
        minimum = brute_force_min_deletion(g, fam, 3)
        sol = solve_branching(Instance(g.copy(), k, fam))
        assert sol.feasible == (minimum is not None and minimum <= k)
        if sol.feasible:
            h = g.copy()
            for e in sol.delete_set:
                h.remove_edge(*e)
            assert is_family_free(h, fam)
            assert len(sol.delete_set) <= k


# -- solution checker --------------------------------------------------------------

def test_check_solution_cases():
    g = diamond_graph()   # middle edge 1-2
    assert check_solution(g, DIAMOND, 1, Solution.of([(1, 2)])) == {"verified_family_free": True}
    assert check_solution(g, DIAMOND, 1, Solution.of([(0, 1)])) == {"verified_family_free": True}
    assert check_solution(g, DIAMOND, 0, Solution.of([])) == {"verified_family_free": False}
    assert check_solution(g, DIAMOND, 2, Solution.of([(1, 2), (0, 3)])) == \
        {"verified_family_free": True, "non_edges": [[0, 3]]}
    assert check_solution(g, DIAMOND, 1, Solution.of([(0, 1), (2, 3)])) == \
        {"verified_family_free": True, "over_budget": 1}
    assert g == diamond_graph()   # checked on a copy


def test_check_solution_counts_additions():
    # adding the missing pair 0-3 turns the diamond into a K4
    k4 = Solution(frozenset(), frozenset({(0, 3)}))
    assert check_solution(diamond_graph(), DIAMOND, 1, k4) == {"verified_family_free": True}
    assert check_solution(diamond_graph(), DIAMOND, 0, k4) == \
        {"verified_family_free": True, "over_budget": 1}
    # on a triangle with a pendant, adding 2-3 creates the diamond
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    made = Solution(frozenset(), frozenset({(2, 3)}))
    assert check_solution(paw, DIAMOND, 1, made) == {"verified_family_free": False}


# -- deletion oracle ---------------------------------------------------------------

def test_min_deletion_examples():
    assert brute_force_min_deletion(diamond_graph(), DIAMOND, 2) == 1
    assert brute_force_min_deletion(cycle_graph(4), DIAMOND, 0) == 0
    two = Graph.from_edges(8, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
                               (4, 5), (4, 6), (5, 6), (5, 7), (6, 7)])
    assert brute_force_min_deletion(two, DIAMOND, 1) is None
    assert brute_force_min_deletion(two, DIAMOND, 2) == 2


def test_min_deletion_monotone_feasibility():
    g = complete_graph(5)
    results = [brute_force_min_deletion(g, DIAMOND, k) is not None for k in range(5)]
    assert results == sorted(results)


def test_guard_refuses_oversized():
    g = complete_graph(9)
    with pytest.raises(GuardError):
        brute_force_min_deletion(g, DIAMOND, 3, cap=10)


def test_guard_sums_no_size_past_the_universe(monkeypatch):
    # a huge budget must not make the guard loop up to it
    calls = []
    monkeypatch.setattr(solver, "comb", lambda n, r: calls.append(r) or comb(n, r))
    assert brute_force_min_deletion(diamond_graph(), DIAMOND, 10**6) == 1
    assert 0 < len(calls) <= diamond_graph().m + 1
    assert brute_force_min_deletion(diamond_graph(), DIAMOND, 10**12) == 1


# -- editing oracle -----------------------------------------------------------------

def test_min_editing_diamond():
    # delete the middle edge or add the missing pair
    assert brute_force_min_editing(diamond_graph(), DIAMOND, 1) == 1


def test_min_editing_free_graph():
    assert brute_force_min_editing(cycle_graph(4), DIAMOND, 0) == 0


def test_editing_solution_sets():
    sol = brute_force_editing_solution(diamond_graph(), DIAMOND, 1)
    assert sol.feasible
    toggles = set(sol.delete_set) | set(sol.add_set)
    assert len(toggles) == 1
    h = diamond_graph()
    for e in sol.delete_set:
        h.remove_edge(*e)
    for e in sol.add_set:
        h.add_edge(*e)
    assert is_family_free(h, DIAMOND)


@settings(max_examples=40, deadline=None)
@given(small_graphs(6), st.integers(0, 2))
def test_editing_oracle_matches_search(g, k):
    minimum = brute_force_min_editing(g, DIAMOND, k)
    assert (minimum is not None) == editing_feasible(g, DIAMOND, k)


@settings(max_examples=40, deadline=None)
@given(small_graphs(7), st.integers(0, 3))
def test_editing_never_worse_than_deletion(g, k):
    deletion = brute_force_min_deletion(g, DIAMOND, k)
    editing = brute_force_min_editing(g, DIAMOND, k)
    if deletion is not None:
        assert editing is not None and editing <= deletion


# -- vertex deletion oracle ------------------------------------------------------------

def test_vertex_cover_examples():
    assert brute_force_vertex_deletion(Graph.from_edges(2, [(0, 1)]), "vertex-cover", 1) == 1
    assert brute_force_vertex_deletion(path_graph(4), "vertex-cover", 2) == 2
    assert brute_force_vertex_deletion(path_graph(4), "vertex-cover", 1) is None


def test_star_mode_examples():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert brute_force_vertex_deletion(star, "star", 1, s=3) == 1
    assert brute_force_vertex_deletion(star, "star", 0, s=3) is None
    assert brute_force_vertex_deletion(star, "star", 0, s=4) == 0


def test_vertex_deletion_argument_validation():
    with pytest.raises(ValueError):
        brute_force_vertex_deletion(path_graph(2), "coloring", 1)
    with pytest.raises(ValueError):
        brute_force_vertex_deletion(path_graph(2), "star", 1)
