from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from diamondkernel import solver
from diamondkernel.cli import main
from diamondkernel.errors import DiamondKernelError, GuardError
from diamondkernel.family import FamilySpec
from diamondkernel.graph import Graph
from diamondkernel.phase1 import Instance
from diamondkernel.instances import reduce_vc_to_sdfed
from diamondkernel.io import serialize_instance
from diamondkernel.patterns import find_induced_occurrence, is_family_free
from diamondkernel.solver import (Solution, brute_force_editing_solution,
                                  brute_force_min_deletion, brute_force_min_editing,
                                  brute_force_vertex_deletion, solve_branching)

from conftest import complete_graph, cycle_graph, diamond_graph, editing_feasible, path_graph

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


def test_branching_node_count_is_pinned():
    # the same no-instance as above: the pruned search tree has exactly 382 nodes
    g0 = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    inst, _ = reduce_vc_to_sdfed(g0, 2)
    sol = solve_branching(inst)
    assert not sol.feasible and sol.nodes == 382


def _unpruned_deletion_set(g: Graph, fam: FamilySpec, k: int):
    """Plain depth-first branching on every edge of the first occurrence."""
    g = g.copy()
    deleted = []

    def dfs(budget):
        occ = find_induced_occurrence(g, fam)
        if occ is None:
            return True
        if budget == 0:
            return False
        for e in sorted(occ.edges):
            g.remove_edge(*e)
            deleted.append(e)
            if dfs(budget - 1):
                return True
            g.add_edge(*e)
            deleted.pop()
        return False

    return frozenset(deleted) if dfs(k) else None


@settings(max_examples=60, deadline=None)
@given(small_graphs(9), st.integers(0, 4))
def test_branching_returns_unpruned_deletion_set(g, k):
    for fam in (DIAMOND, FamilySpec.s_diamond(2), FamilySpec.diamond_kt(4)):
        sol = solve_branching(Instance(g.copy(), k, fam))
        # nodes takes no part in equality
        assert sol == Solution(_unpruned_deletion_set(g, fam, k))


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


def test_guard_env_override(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("DIAMOND_KERNEL_ORACLE_CAP", "10")
    with pytest.raises(GuardError):
        brute_force_min_deletion(complete_graph(9), DIAMOND, 3)
    monkeypatch.setenv("DIAMOND_KERNEL_ORACLE_CAP", "10000000")
    assert brute_force_min_deletion(complete_graph(5), DIAMOND, 3) is not None
    monkeypatch.setenv("DIAMOND_KERNEL_ORACLE_CAP", "abc")
    with pytest.raises(DiamondKernelError, match="DIAMOND_KERNEL_ORACLE_CAP='abc'"):
        brute_force_min_deletion(complete_graph(5), DIAMOND, 3)
    path = tmp_path / "diamond.txt"
    path.write_text(serialize_instance(Instance(diamond_graph(), 1, DIAMOND)))
    assert main(["solve", "-i", str(path), "--engine", "brute"]) == 2
    assert "DIAMOND_KERNEL_ORACLE_CAP" in capsys.readouterr().err


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
