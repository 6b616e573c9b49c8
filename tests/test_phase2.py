from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from diamondkernel.errors import FamilyError, InvariantError
from diamondkernel.family import FamilySpec
from diamondkernel.graph import Graph
from diamondkernel.instances import gen_hard_structure
from diamondkernel.phase1 import Instance
from diamondkernel.phase2 import (Modulator, classify_clique, compute_modulator,
                                  dfed_vertex_bound, dkt_vertex_bound, kernelize,
                                  rule_clique_reduction, validate_modulator)
from diamondkernel.solver import brute_force_min_deletion
from diamondkernel.patterns import is_family_free

from conftest import complete_graph, diamond_graph

DIAMOND = FamilySpec.diamond()


def oracle_feasible(g, fam, k):
    return k >= 0 and brute_force_min_deletion(g, fam, k) is not None


@st.composite
def small_instances(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])
    k = draw(st.integers(0, 3))
    fam = draw(st.sampled_from([FamilySpec.diamond(), FamilySpec.diamond_kt(4)]))
    return Instance(g, k, fam)


# -- modulator -------------------------------------------------------------------

def test_modulator_of_diamond():
    mod = compute_modulator(Instance(diamond_graph(), 1, DIAMOND))
    assert len(mod.packing_edges) == 5
    assert mod.vertices == {0, 1, 2, 3}
    assert mod.cliques == []


def test_modulator_budget_zero_decides_no():
    assert compute_modulator(Instance(diamond_graph(), 0, DIAMOND)) is None


def test_modulator_of_diamond_free_graph():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    mod = compute_modulator(Instance(g, 2, DIAMOND))
    assert mod.packing_edges == set() and mod.vertices == set()
    assert mod.cliques == [{0, 1, 2}, {3, 4}]


def test_modulator_size_validation_catches_private_neighbors():
    # a 4k+1 clique whose every vertex has a private modulator neighbor
    # needs more than 4k modulator vertices, so the modulator is invalid
    k = 1
    g = complete_graph(5)
    privates = []
    for v in range(5):
        p = g.add_vertex()
        g.add_edge(v, p)
        privates.append(p)
    fake = Modulator(packing_edges={(v, p) for v, p in zip(range(5), privates)},
                     vertices=set(range(5)) | set(privates),
                     cliques=[set(range(5))])
    with pytest.raises(InvariantError):
        validate_modulator(g, fake, k, DIAMOND)


# -- clique contexts ----------------------------------------------------------------

def test_classify_singleton_clique():
    # diamond on 0..3 is the modulator; vertex 4 hangs off vertex 0
    g = diamond_graph()
    g.add_vertex_with_id(4)
    g.add_edge(0, 4)
    ctx = classify_clique(g, {0, 1, 2, 3}, {4})
    assert ctx.full_modulator == {0}
    assert ctx.single_modulator == set() and ctx.single_outside == set()


def test_classify_single_adjacency_sets():
    g = complete_graph(5)
    u = g.add_vertex()   # modulator vertex adjacent to exactly one member
    g.add_edge(0, u)
    b = g.add_vertex()   # plain outside vertex adjacent to exactly one member
    g.add_edge(1, b)
    ctx = classify_clique(g, {u}, set(range(5)))
    assert ctx.single_modulator == {u}
    assert ctx.single_outside == {b}
    assert ctx.modulator_of[0] == {u} and ctx.outside_of[1] == {b}


def test_classify_rejects_partial_modulator_adjacency():
    g = complete_graph(4)
    v = g.add_vertex()
    g.add_edge(0, v)
    g.add_edge(1, v)  # two of four: neither one nor all
    with pytest.raises(InvariantError):
        classify_clique(g, {v}, set(range(4)))


def test_classify_rejects_outside_double_adjacency():
    g = complete_graph(4)
    w = g.add_vertex()
    g.add_edge(0, w)
    g.add_edge(1, w)
    with pytest.raises(InvariantError):
        classify_clique(g, set(), set(range(4)))


# -- clique reduction -----------------------------------------------------------------

def clique_with_anchor_and_gadget():
    """K6 fully adjacent to an anchor p, p in a pendant diamond (the packing)."""
    g = complete_graph(6)
    p = g.add_vertex()
    for v in range(6):
        g.add_edge(v, p)
    q, r, s = (g.add_vertex() for _ in range(3))
    # diamond p,q,r,s with middle q-r
    for e in ((p, q), (p, r), (q, r), (q, s), (r, s)):
        g.add_edge(*e)
    return g, p


def test_clique_reduction_deletes_locals():
    g, p = clique_with_anchor_and_gadget()
    inst = Instance(g.copy(), 1, DIAMOND)
    mod = compute_modulator(inst)
    assert mod is not None and len(mod.cliques) == 1
    fired = rule_clique_reduction(inst, mod)
    assert fired is not None
    before, doomed = fired
    assert before == set(range(6)) and len(doomed) == 5
    assert mod.cliques[0] == {0}
    # decision equivalence at k=1 via brute force on both hosts
    assert oracle_feasible(g, DIAMOND, 1) == oracle_feasible(inst.graph, DIAMOND, 1)


def test_clique_reduction_not_applicable_small():
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    inst = Instance(g, 1, DIAMOND)
    mod = Modulator(set(), set(), [{0, 1, 2}])
    assert rule_clique_reduction(inst, mod) is None


def test_clique_reduction_family_guard():
    inst = Instance(diamond_graph(), 1, FamilySpec.diamond_kt(4))
    with pytest.raises(FamilyError):
        rule_clique_reduction(inst, Modulator(set(), set(), []))


def test_no_optimal_solution_uses_big_clique_edges():
    # K6 sharing vertex 5 with a pendant diamond; k = 2 and |C| = 6 = 2k+2
    g = complete_graph(6)
    for v in (6, 7, 8):
        g.add_vertex_with_id(v)
    for e in ((5, 6), (5, 7), (6, 7), (6, 8), (7, 8)):
        g.add_edge(*e)
    k = 2
    intra = {e for e in g.edges() if e[0] < 6 and e[1] < 6}
    edges = list(g.edges())
    solutions = []
    for size in range(0, k + 1):
        for combo in combinations(edges, size):
            h = g.copy()
            for e in combo:
                h.remove_edge(*e)
            if is_family_free(h, DIAMOND):
                solutions.append(set(combo))
    assert solutions, "instance should be solvable within k"
    for sol in solutions:
        assert not (sol & intra)


# -- kernelizers ------------------------------------------------------------------------

def test_kernelize_diamond_unchanged():
    out = kernelize(Instance(diamond_graph(), 1, DIAMOND))
    assert not out.decided_no
    assert out.kernel.graph == diamond_graph() and out.kernel.k == 1


def test_kernelize_triangle_empty():
    out = kernelize(Instance(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), 0, DIAMOND))
    assert not out.decided_no and out.kernel.graph.n == 0


def test_kernelize_diamond_budget_zero():
    out = kernelize(Instance(diamond_graph(), 0, DIAMOND))
    assert out.decided_no
    with pytest.raises(ValueError):
        out.kernel


def test_kernelize_dkt_examples():
    out = kernelize(Instance(complete_graph(5), 0, FamilySpec.diamond_kt(4)))
    assert out.decided_no
    out = kernelize(Instance(diamond_graph(), 1, FamilySpec.diamond_kt(4)))
    assert not out.decided_no and out.kernel.graph == diamond_graph()
    free = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    out = kernelize(Instance(free, 2, FamilySpec.diamond_kt(4)))
    assert not out.decided_no and out.kernel.graph.n == 0


def test_kernelize_family_dispatch_guards():
    with pytest.raises(FamilyError):
        kernelize(Instance(diamond_graph(), 1, FamilySpec.s_diamond(2)))


def test_kernelize_hard_structures_unchanged():
    for k in range(2, 7):
        inst = gen_hard_structure(k)
        before = inst.graph.copy()
        out = kernelize(inst)
        assert not out.decided_no
        assert out.kernel.graph == before and out.kernel.k == k
        assert out.kernel.graph.n == k * k + 4


def test_kernelize_survives_restored_pair_trap():
    """A packing drawn from the edge-deleted remainder would count the K4 on
    {a, b, c, c'} as a second diamond here and wrongly declare no."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]          # diamond a,b,p,q
    C = [4, 5, 6, 7, 8]
    edges += [(u, v) for u, v in combinations(C, 2)]          # K5
    edges += [(0, c) for c in C] + [(1, c) for c in C]        # a,b adjacent to all of C
    g = Graph.from_edges(9, edges)
    assert brute_force_min_deletion(g, DIAMOND, 1) == 1
    out = kernelize(Instance(g.copy(), 1, DIAMOND))
    assert not out.decided_no
    assert oracle_feasible(out.kernel.graph, DIAMOND, out.kernel.k)
    assert out.report.quota_warnings == 1  # the rule deleted past the lemma quota


def test_vertex_bounds():
    assert dfed_vertex_bound(0) == 0
    assert dfed_vertex_bound(1) == 152 + 70 + 7
    assert dfed_vertex_bound(5) == 152 * 125 + 70 * 25 + 7 * 5
    assert dkt_vertex_bound(0, 4) == 0
    # t=4, k=1: 4 + [6*3 + C(4,2)] * 4 + 12*3*3
    assert dkt_vertex_bound(1, 4) == 4 + (18 + 6) * 4 + 108


def test_report_stage_monotone_edges():
    out = kernelize(Instance(gen_hard_structure(3).graph, 3, DIAMOND))
    stages = out.report.stages
    for a, b in zip(stages, stages[1:]):
        assert b.m <= a.m
    assert all(c >= 0 for c in out.report.rule_firings.values())


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_kernelization_preserves_decision(inst):
    before = oracle_feasible(inst.graph, inst.family, inst.k)
    out = kernelize(inst.copy())
    if out.decided_no:
        after = False
    else:
        kern = out.kernel
        after = oracle_feasible(kern.graph, kern.family, kern.k)
        assert out.report.bound_ok
        assert kern.k <= inst.k
    assert after == before


def test_kernelize_reports_pin_both_families():
    """Every deterministic report field, and the timed stages, of one
    diamond instance where clique reduction fires and one mixed-family
    instance where three phase-1 rules fire."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]          # the restored-pair trap
    C = [4, 5, 6, 7, 8]
    edges += [(u, v) for u, v in combinations(C, 2)]
    edges += [(0, c) for c in C] + [(1, c) for c in C]
    out = kernelize(Instance(Graph.from_edges(9, edges), 1, DIAMOND))
    report = out.report.as_dict()
    assert set(report.pop("wall_times")) == {"phase1", "modulator", "clique_reduction"}
    assert report == {
        "rule_firings": {"clique_reduction": 1},
        "stages": [{"label": "input", "n": 9, "m": 25, "k": 1},
                   {"label": "phase1", "n": 9, "m": 25, "k": 1},
                   {"label": "kernel", "n": 5, "m": 7, "k": 1}],
        "packing_edge_count": 5, "modulator_size": 4, "clique_count": 1,
        "clique_reductions": 1, "quota_warnings": 1,
        "vertex_bound": 229, "bound_ok": True,
    }

    g = Graph.from_edges(9, [(0, 1), (0, 2), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5),
                             (1, 7), (1, 8), (2, 3), (2, 7), (3, 6), (4, 5), (5, 8)])
    out = kernelize(Instance(g, 2, FamilySpec.diamond_kt(4)))
    report = out.report.as_dict()
    assert set(report.pop("wall_times")) == {"phase1", "modulator"}
    assert report == {
        "rule_firings": {"irrelevant_component": 1, "irrelevant_edge": 1, "vertex_split": 1},
        "stages": [{"label": "input", "n": 9, "m": 14, "k": 2},
                   {"label": "phase1", "n": 9, "m": 13, "k": 2},
                   {"label": "kernel", "n": 9, "m": 13, "k": 2}],
        "packing_edge_count": 10, "modulator_size": 8, "clique_count": 1,
        "clique_reductions": 0, "quota_warnings": 0,
        "vertex_bound": 720, "bound_ok": True,
    }
