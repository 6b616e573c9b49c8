import random
from itertools import combinations

import pytest

from diamondkernel.errors import DescriptorError, DiamondKernelError
from diamondkernel.family import FamilySpec
from diamondkernel.graph import Graph, edge_key
from diamondkernel.instances import (add_universal, attach_stars, clique_layout, gen_gnp,
                                     gen_hard_structure, gen_planted_yes, lift_solution,
                                     reduce_vc_to_sdfed, subdivide_twice)
from diamondkernel.patterns import (is_family_free, iter_clique_occurrences,
                                    iter_sdiamond_occurrences)
from diamondkernel.phase1 import Instance, run_phase1
from diamondkernel.solver import (Solution, brute_force_min_deletion,
                                  brute_force_vertex_deletion, check_solution, solve_branching)

from conftest import brute_force_editing_solution, cycle_graph, editing_feasible

DIAMOND = FamilySpec.diamond()


# -- random and planted --------------------------------------------------------

def test_gnp_extremes():
    assert gen_gnp(5, 0.0, 1).m == 0
    assert gen_gnp(4, 1.0, 1).m == 6


def test_gnp_golden():
    # golden values frozen from the first run of this generator
    g = gen_gnp(8, 0.4, 7)
    assert g.m == 16
    assert sorted(g.edges())[:3] == [(0, 1), (0, 2), (0, 4)]
    assert g == gen_gnp(8, 0.4, 7)


def test_planted_two_triangles():
    inst = gen_planted_yes(clique_layout([3, 3]), 1, 3)
    assert inst.k == 1
    assert brute_force_min_deletion(inst.graph, DIAMOND, 1) is not None


def test_planted_zero_extra():
    inst = gen_planted_yes(clique_layout([4, 4], "chain"), 0, 0)
    assert inst.k == 0 and is_family_free(inst.graph, DIAMOND)


def test_planted_three_k4():
    inst = gen_planted_yes(clique_layout([4, 4, 4]), 2, 11)
    assert brute_force_min_deletion(inst.graph, DIAMOND, 2) is not None


def test_planted_rejects_bad_descriptor():
    with pytest.raises(DescriptorError):
        gen_planted_yes([[0, 1, 2], [0, 1, 3]], 1, 0)
    with pytest.raises(DescriptorError):
        # pairwise intersections fine, but a cross edge sneaks in a diamond
        gen_planted_yes([[0, 1, 2], [2, 3, 4], [0, 3]], 0, 0)
    with pytest.raises(DescriptorError):
        gen_planted_yes(clique_layout([3]), 99, 0)


def test_hard_structure_counts_and_wiring():
    for k in (2, 3, 4, 5, 6):
        inst = gen_hard_structure(k)
        g = inst.graph
        assert g.n == k * k + 4 and inst.k == k
        assert g.degree(0) == 3 + k * k           # adjacent to everything + diamond
        assert g.degree(1) == 3 + k               # middle edge partner + representatives
        assert all(len(g.neighborhood_components(v)) <= 1 for v in g.vertices)
    with pytest.raises(ValueError):
        gen_hard_structure(1)


def test_hard_structure_is_phase1_fixpoint():
    inst = gen_hard_structure(4)
    before = inst.graph.copy()
    run_phase1(inst)
    assert inst.graph == before and inst.k == 4


# -- pipeline stages --------------------------------------------------------------

def test_subdivide_single_edge():
    g, k, _ = subdivide_twice(Graph.from_edges(2, [(0, 1)]), 1)
    assert (g.n, g.m, k) == (4, 3, 2)
    assert g.degree(0) == g.degree(1) == 1


def test_subdivide_triangle_gives_c9():
    g, k, _ = subdivide_twice(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), 1)
    assert (g.n, g.m, k) == (9, 9, 4)
    assert all(g.degree(v) == 2 for v in g.vertices)
    assert len(g.connected_components()) == 1


def test_subdivide_size_law_and_triangle_freeness():
    base = gen_gnp(6, 0.6, 3)
    g, _, _ = subdivide_twice(base, 2)
    assert g.n == base.n + 2 * base.m and g.m == 3 * base.m
    assert not any(g.neighbors(u) & g.neighbors(v) for u, v in g.edges())


def test_subdivide_vc_equivalence_k4():
    base = Graph.from_edges(4, combinations(range(4), 2))
    g, k, _ = subdivide_twice(base, 2)
    assert (g.n, k) == (16, 8)
    assert (brute_force_vertex_deletion(base, "vertex-cover", 2) is not None) == \
        (brute_force_vertex_deletion(g, "vertex-cover", 8, cap=10**8) is not None)


def test_attach_stars_shapes():
    single, _ = attach_stars(Graph.from_edges(1, []), 2)
    assert single.n == 3 and single.degree(0) == 2
    pendant, _ = attach_stars(Graph.from_edges(2, [(0, 1)]), 1)
    assert pendant.n == 4 and pendant.m == 3  # a path on four vertices


def test_attach_stars_vc_to_star_deletion():
    base = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # P4, VC = 2
    starred, _ = attach_stars(base, 1)
    assert starred.n == 8
    vc = brute_force_vertex_deletion(base, "vertex-cover", 2)
    star = brute_force_vertex_deletion(starred, "star", 2, s=2)
    assert vc == 2 and star is not None and star <= 2
    assert brute_force_vertex_deletion(starred, "star", 1, s=2) is None


def test_add_universal_cases():
    star, _ = add_universal(Graph.from_edges(3, []))
    assert star.m == 3 and star.n == 4
    tri, _ = add_universal(Graph.from_edges(2, [(0, 1)]))
    assert tri.m == 3
    wheel, _ = add_universal(cycle_graph(5))
    assert is_family_free(wheel, FamilySpec(clique=4))
    with pytest.raises(DiamondKernelError):
        add_universal(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))


# -- full reduction ------------------------------------------------------------------

def test_reduce_single_edge():
    inst, trace = reduce_vc_to_sdfed(Graph.from_edges(2, [(0, 1)]), 1, 1)
    assert inst.graph.n == 9 and inst.graph.m == 15 and inst.k == 2
    assert brute_force_min_deletion(inst.graph, inst.family, inst.k) == 2
    # the editing optimum coincides with the deletion optimum
    assert brute_force_editing_solution(inst.graph, inst.family, 1).feasible is False
    assert brute_force_editing_solution(inst.graph, inst.family, 2).feasible


def test_reduce_triangle_infeasible_at_budget():
    inst, _ = reduce_vc_to_sdfed(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), 1, 1)
    assert inst.k == 4
    assert not solve_branching(inst).feasible
    assert not editing_feasible(inst.graph, inst.family, inst.k)


def test_reduce_single_vertex_trivial():
    for s in (1, 2):
        inst, _ = reduce_vc_to_sdfed(Graph.from_edges(1, []), 0, s)
        sol = solve_branching(inst)
        assert sol.feasible and sol.delete_set == frozenset()


def test_reduced_graphs_are_k4_free_with_w_in_every_occurrence():
    rng = random.Random(17)
    for s in (1, 2):
        for _ in range(8):
            n = rng.randint(1, 5)
            base = gen_gnp(n, 0.5, rng.getrandbits(32))
            inst, trace = reduce_vc_to_sdfed(base, rng.randint(0, 2), s)
            w = trace.w
            starred = trace.starred
            assert not list(iter_clique_occurrences(inst.graph, 4))
            for occ in iter_sdiamond_occurrences(inst.graph, s):
                assert w in occ.vertices
                rest = set(occ.vertices) - {w}
                # removing w leaves an induced star of the pre-universal graph
                degrees = sorted(len(starred.neighbors(v) & rest) for v in rest)
                assert degrees == [1] * (s + 1) + [s + 1]


def test_stagewise_equivalence_tiny():
    rng = random.Random(4)
    for s in (1, 2):
        for _ in range(6):
            n = rng.randint(1, 4)
            pairs = list(combinations(range(n), 2))
            edges = [e for e in pairs if rng.random() < 0.5][:2]
            base = Graph.from_edges(n, edges)
            k = rng.randint(0, 2)
            vc = brute_force_vertex_deletion(base, "vertex-cover", k) is not None
            sub, k1, _ = subdivide_twice(base, k)
            assert (brute_force_vertex_deletion(sub, "vertex-cover", k1, cap=10**8)
                    is not None) == vc
            starred, _ = attach_stars(sub, s)
            star_del = brute_force_vertex_deletion(starred, "star", k1, s=s + 1, cap=10**8)
            assert (star_del is not None) == vc
            final, _ = add_universal(starred)
            inst = Instance(final, k1, FamilySpec.s_diamond(s))
            assert solve_branching(inst).feasible == vc


# -- lifting ---------------------------------------------------------------------------

def test_lift_single_edge_pipeline():
    base = Graph.from_edges(2, [(0, 1)])
    inst, trace = reduce_vc_to_sdfed(base, 1, 1)
    sol = solve_branching(inst)
    cover = lift_solution(trace, sol)
    assert cover <= {0, 1} and len(cover) == 1


def test_lift_edgeless_empty_solution():
    base = Graph.from_edges(3, [])
    inst, trace = reduce_vc_to_sdfed(base, 0, 1)
    cover = lift_solution(trace, Solution.of(()))
    assert cover == set()


def test_lift_triangle_at_slack_budget():
    base = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    inst, trace = reduce_vc_to_sdfed(base, 2, 1)
    sol = solve_branching(inst)
    cover = lift_solution(trace, sol)
    assert len(cover) <= 2
    assert all(u in cover or v in cover for u, v in base.edges())


def test_lift_editing_solution():
    base = Graph.from_edges(2, [(0, 1)])
    inst, trace = reduce_vc_to_sdfed(base, 1, 1)
    edit = brute_force_editing_solution(inst.graph, inst.family, inst.k)
    cover = lift_solution(trace, edit)
    assert len(cover) == 1


def test_lift_covers_an_original_edge_left_uncovered():
    # deleting the w-edges of both interior vertices of the path 0-x1-x2-1
    # solves the reduced instance but covers no original vertex, so the
    # lift covers the edge 0-1 at its smaller end
    base = Graph.from_edges(2, [(0, 1)])
    inst, trace = reduce_vc_to_sdfed(base, 1, 1)
    x1, x2 = trace.interior[(0, 1)]
    sol = Solution.of([edge_key(trace.w, x1), edge_key(trace.w, x2)])
    assert check_solution(inst.graph, inst.family, inst.k, sol) == {"verified_family_free": True}
    assert lift_solution(trace, sol) == {0}


def test_lift_rejects_non_solutions():
    base = Graph.from_edges(2, [(0, 1)])
    inst, trace = reduce_vc_to_sdfed(base, 1, 1)
    with pytest.raises(ValueError):
        lift_solution(trace, Solution.of(()))   # leaves the instance unsolved
    with pytest.raises(ValueError):
        lift_solution(trace, Solution.infeasible())
