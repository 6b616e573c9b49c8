from itertools import combinations

from hypothesis import given, settings, strategies as st

from diamondkernel import phase1
from diamondkernel.family import FamilySpec
from diamondkernel.graph import Graph
from diamondkernel.instances import gen_hard_structure
from diamondkernel.phase1 import (Instance, RuleEvent, replay,
                                  phase1_fixpoint_properties, rule_irrelevant_component,
                                  rule_irrelevant_edge, rule_sunflower, rule_vertex_split,
                                  run_phase1)
from diamondkernel.phase2 import kernelize
from diamondkernel.solver import brute_force_min_deletion

from conftest import complete_graph, diamond_graph, path_graph

DIAMOND = FamilySpec.diamond()


@st.composite
def small_instances(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, keep in zip(pairs, mask) if keep])
    k = draw(st.integers(0, 3))
    fam = draw(st.sampled_from([FamilySpec.diamond(), FamilySpec.diamond_kt(4)]))
    return Instance(g, k, fam)


def oracle_feasible(g, fam, k):
    return k >= 0 and brute_force_min_deletion(g, fam, k) is not None


# -- individual rules ------------------------------------------------------------

def test_irrelevant_edge_on_path():
    inst = Instance(path_graph(3), 1, DIAMOND)
    assert rule_irrelevant_edge(inst) == (0, 1)
    assert not inst.graph.has_edge(0, 1)


def test_irrelevant_edge_untouched_diamond():
    inst = Instance(diamond_graph(), 1, DIAMOND)
    assert rule_irrelevant_edge(inst) is None


def test_irrelevant_edge_k4_pendant():
    g = complete_graph(4)
    g.add_vertex_with_id(4)
    g.add_edge(3, 4)
    inst = Instance(g, 1, DIAMOND)
    assert rule_irrelevant_edge(inst) == (3, 4)


def sunflower_gadget():
    # x=0, y=1 adjacent; both adjacent to the independent set {2,3,4,5}
    edges = [(0, 1)] + [(0, z) for z in range(2, 6)] + [(1, z) for z in range(2, 6)]
    return Graph.from_edges(6, edges)


def test_sunflower_fires_and_decrements():
    inst = Instance(sunflower_gadget(), 1, DIAMOND)
    assert rule_sunflower(inst) == (0, 1)
    assert inst.k == 0
    # brute force: the only one-edge solution of the original deletes 0-1
    assert brute_force_min_deletion(sunflower_gadget(), DIAMOND, 1) == 1


def test_decided_no_keeps_rule_log():
    # sunflower at budget 0 decides no in phase 1; the log starts with that firing
    out = kernelize(Instance(sunflower_gadget(), 0, DIAMOND))
    assert out.decided_no
    assert out.log.events[0] == RuleEvent("sunflower", (0, 1), 0, -1)
    # three disjoint diamonds at budget 2: phase 1 is quiet, the packing decides no
    diamond = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
    g = Graph.from_edges(12, [(u + 4 * i, v + 4 * i) for i in range(3) for u, v in diamond])
    out = kernelize(Instance(g, 2, DIAMOND))
    assert out.decided_no and out.log is not None and len(out.log) == 0


def test_sunflower_threshold_not_met():
    assert rule_sunflower(Instance(diamond_graph(), 1, DIAMOND)) is None
    assert rule_sunflower(Instance(sunflower_gadget(), 2, DIAMOND)) is None


def test_sunflower_at_zero_budget_marks_decided_no():
    inst = Instance(diamond_graph(), 0, DIAMOND)
    # the diamond's middle edge has a size-1 non-matching in its common neighborhood
    assert rule_sunflower(inst) == (1, 2)
    assert inst.k == -1
    assert rule_sunflower(inst) is None  # never fires below zero


def test_vertex_split_bowtie():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    inst = Instance(g, 1, DIAMOND)
    v, pieces = rule_vertex_split(inst)
    assert v == 0
    assert inst.graph.connected_components() == [{1, 2, 5}, {3, 4, 6}]
    assert pieces == ((5, frozenset({1, 2})), (6, frozenset({3, 4})))


def test_vertex_split_star_center():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    inst = Instance(g, 1, DIAMOND)
    assert rule_vertex_split(inst)[0] == 0
    assert inst.graph.m == 3 and len(inst.graph.connected_components()) == 3


def test_vertex_split_none_on_diamond():
    assert rule_vertex_split(Instance(diamond_graph(), 1, DIAMOND)) is None


def test_vertex_split_sibling_distance():
    g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (1, 5), (3, 6)])
    inst = Instance(g, 1, DIAMOND)
    _, pieces = rule_vertex_split(inst)
    siblings = [new for new, _ in pieces]
    g = inst.graph
    for a, b in combinations(siblings, 2):
        # distance >= 4: no path of one, two or three edges joins a and b
        assert not g.has_edge(a, b)
        assert not g.neighbors(a) & g.neighbors(b)
        assert not any(g.has_edge(x, y) for x in g.neighbors(a) for y in g.neighbors(b))


def test_irrelevant_component_cases():
    tri_dia = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2),
                                   (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)])
    inst = Instance(tri_dia, 1, DIAMOND)
    assert rule_irrelevant_component(inst) == {0, 1, 2}
    assert rule_irrelevant_component(Instance(diamond_graph(), 1, DIAMOND)) is None
    k4_dia = Graph.from_edges(8, list(combinations(range(4), 2))
                              + [(4, 5), (4, 6), (5, 6), (5, 7), (6, 7)])
    assert rule_irrelevant_component(Instance(k4_dia, 1, DIAMOND)) == {0, 1, 2, 3}


# -- the driver --------------------------------------------------------------------

def test_phase1_diamond_unchanged():
    inst = Instance(diamond_graph(), 1, DIAMOND)
    run_phase1(inst)
    assert inst.graph == diamond_graph() and inst.k == 1


def test_phase1_triangle_to_empty():
    inst = Instance(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]), 0, DIAMOND)
    run_phase1(inst)
    assert inst.graph.n == 0 and inst.k == 0


def test_phase1_hard_structure_fixed():
    inst = gen_hard_structure(3)
    graph_before = inst.graph.copy()
    run_phase1(inst)
    assert inst.graph == graph_before and inst.k == 3


def test_rules_table_uses_patched_rules(monkeypatch):
    # a tracer or an injected fault replaces phase1.rule_* after import
    calls = []
    real = phase1.rule_sunflower
    monkeypatch.setattr(phase1, "rule_sunflower", lambda inst: calls.append(inst.k) or real(inst))
    _, log = run_phase1(Instance(sunflower_gadget(), 1, DIAMOND))
    assert calls and log.counts()["sunflower"] == 1


def test_rule_log_replays():
    g = Graph.from_edges(8, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                             (5, 6), (6, 7)])
    inst = Instance(g.copy(), 2, DIAMOND)
    _, log = run_phase1(inst)
    assert len(log) > 0
    assert replay(log, g) == inst.graph


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_single_rules_preserve_decisions(inst):
    fam, k = inst.family, inst.k
    before = oracle_feasible(inst.graph, fam, k)
    for rule in (rule_irrelevant_edge, rule_sunflower,
                 rule_vertex_split,
                 rule_irrelevant_component):
        probe = inst.copy()
        if rule(probe) is None:
            assert probe.graph == inst.graph and probe.k == k
        else:
            assert oracle_feasible(probe.graph, fam, probe.k) == before


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_phase1_fixpoint_and_size_laws(inst):
    n0, m0, k0 = inst.graph.n, inst.graph.m, inst.k
    before = oracle_feasible(inst.graph, inst.family, k0)
    out, log = run_phase1(inst)
    assert not phase1_fixpoint_properties(out)
    assert out.graph.m <= m0
    assert out.graph.n <= 2 * m0
    assert out.k <= k0
    assert oracle_feasible(out.graph, out.family, out.k) == before
    # the driver terminates after polynomially many firings
    assert len(log) <= 6 * (n0 + m0 + 1) ** 2
    # split provenance: new ids unique, components of one origin disjoint
    by_origin = {}
    new_ids = []
    for ev in log.events:
        if ev.rule != "vertex_split":
            continue
        orig, pieces = ev.data
        for new_id, comp in pieces:
            new_ids.append(new_id)
            for other in by_origin.get(orig, []):
                assert not (comp & other)
            by_origin.setdefault(orig, []).append(comp)
    assert len(new_ids) == len(set(new_ids))


@settings(max_examples=40, deadline=None)
@given(small_instances())
def test_vertex_split_monotone_progress(inst):
    g = inst.graph

    def disconnected_count(graph):
        return sum(1 for v in graph.vertices if len(graph.neighborhood_components(v)) > 1)

    before = disconnected_count(g)
    if rule_vertex_split(inst) is not None:
        assert disconnected_count(inst.graph) < before
