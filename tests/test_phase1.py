from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from diamondkernel import checks, matching, patterns, phase1
from diamondkernel.family import FamilySpec
from diamondkernel.graph import Graph
from diamondkernel.instances import clique_layout, gen_gnp, gen_hard_structure, gen_planted_yes
from diamondkernel.phase1 import (Instance, RuleEvent, RuleLog, replay, rules,
                                  phase1_fixpoint_properties, rule_irrelevant_component,
                                  rule_irrelevant_edge, rule_sunflower, rule_vertex_split,
                                  run_phase1)
from diamondkernel.matching import maximum_non_matching_size
from diamondkernel.patterns import centre_edges, is_core_member_edge, is_family_free
from diamondkernel.phase2 import kernelize
from diamondkernel.solver import brute_force_min_deletion

from conftest import apex_gadgets, complete_graph, diamond_graph, path_graph
from test_patterns import blow_ups

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
    # one sweep deletes every edge: a path has no edge in a pattern
    inst = Instance(path_graph(3), 1, DIAMOND)
    assert rule_irrelevant_edge(inst) == ((0, 1), (1, 2))
    assert inst.graph.m == 0 and inst.graph.n == 3
    assert rule_irrelevant_edge(inst) is None


def test_irrelevant_edge_untouched_diamond():
    inst = Instance(diamond_graph(), 1, DIAMOND)
    assert rule_irrelevant_edge(inst) is None


def test_irrelevant_edge_k4_pendant():
    g = complete_graph(4)
    g.add_vertex_with_id(4)
    g.add_edge(3, 4)
    inst = Instance(g, 1, DIAMOND)
    assert rule_irrelevant_edge(inst) == ((3, 4),)
    assert inst.graph.m == 6 and inst.graph.degree(4) == 0
    assert rule_irrelevant_edge(inst) is None


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


def test_rule_events_are_immutable():
    event = RuleEvent("sunflower", (0, 1), 0, -1)
    for name in RuleEvent._fields:
        with pytest.raises(AttributeError):
            setattr(event, name, None)
    assert event == RuleEvent("sunflower", (0, 1), 0, -1) and event.k_after == -1


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
    assert rule_vertex_split(inst) == ((0, ((5, frozenset({1, 2})), (6, frozenset({3, 4})))),)
    assert inst.graph.connected_components() == [{1, 2, 5}, {3, 4, 6}]
    assert rule_vertex_split(inst) is None


def test_vertex_split_star_center():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    inst = Instance(g, 1, DIAMOND)
    assert rule_vertex_split(inst) == (
        (0, ((4, frozenset({1})), (5, frozenset({2})), (6, frozenset({3})))),)
    assert inst.graph.m == 3 and len(inst.graph.connected_components()) == 3


def test_vertex_split_none_on_diamond():
    assert rule_vertex_split(Instance(diamond_graph(), 1, DIAMOND)) is None


def test_vertex_split_sibling_distance():
    g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (1, 5), (3, 6)])
    inst = Instance(g, 1, DIAMOND)
    # 0 first; 1 and 3 then see 0's copies, one of which joins each triangle
    splits = rule_vertex_split(inst)
    assert splits == ((0, ((7, frozenset({1, 2})), (8, frozenset({3, 4})))),
                      (1, ((9, frozenset({2, 7})), (10, frozenset({5})))),
                      (3, ((11, frozenset({4, 8})), (12, frozenset({6})))))
    g = inst.graph
    for _, pieces in splits:
        for (a, _), (b, _) in combinations(pieces, 2):
            # distance >= 4: no path of one, two or three edges joins a and b
            assert not g.has_edge(a, b)
            assert not g.neighbors(a) & g.neighbors(b)
            assert not any(g.has_edge(x, y) for x in g.neighbors(a) for y in g.neighbors(b))


def test_irrelevant_component_cases():
    tri_dia = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2),
                                   (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)])
    inst = Instance(tri_dia, 1, DIAMOND)
    assert rule_irrelevant_component(inst) == ({0, 1, 2},)
    assert inst.graph.vertices == [3, 4, 5, 6]
    assert rule_irrelevant_component(Instance(diamond_graph(), 1, DIAMOND)) is None
    # a K4 (free of induced diamonds), a diamond, an edge and an isolated vertex
    k4_dia = Graph.from_edges(11, list(combinations(range(4), 2))
                              + [(4, 5), (4, 6), (5, 6), (5, 7), (6, 7), (8, 9)])
    inst = Instance(k4_dia, 1, DIAMOND)
    assert rule_irrelevant_component(inst) == ({0, 1, 2, 3}, {8, 9}, {10})
    assert inst.graph.vertices == [4, 5, 6, 7] and inst.graph.m == 5
    assert rule_irrelevant_component(inst) is None


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


# -- the sweep driver against the restart-from-top loop --------------------------
#
# Test-local references that fire once, on the first item of a scan over
# every edge, vertex or component.

def irrelevant_edge_per_edge(inst):
    g = inst.graph
    e = next((e for e in g.edges() if not is_core_member_edge(g, e, inst.family)), None)
    if e is not None:
        g.remove_edge(*e)
    return e


def split_vertex_per_vertex(inst):
    g = inst.graph
    v = next((v for v in g.vertices if len(g.neighborhood_components(v)) > 1), None)
    if v is None:
        return None
    pieces = []
    for component in g.neighborhood_components(v):
        new_id = g.add_vertex()
        for u in component:
            g.add_edge(new_id, u)
        pieces.append((new_id, frozenset(component)))
    g.remove_vertex(v)
    return v, tuple(pieces)


def irrelevant_component_per_component(inst):
    # each component tested on a graph of its own, which keeps no centres
    g = inst.graph
    c = next((c for c in g.connected_components()
              if is_family_free(g.induced_subgraph(c), inst.family)), None)
    if c is not None:
        g.remove_vertices(c)
    return None if c is None else frozenset(c)


PER_ITEM_RULES = (("irrelevant_edge", irrelevant_edge_per_edge),
                  ("sunflower", rule_sunflower),
                  ("vertex_split", split_vertex_per_vertex),
                  ("irrelevant_component", irrelevant_component_per_component))


def restart_from_top(inst):
    """Reference driver: after every firing, scan all rules again from the
    top, each through its per-item reference."""
    log = RuleLog()
    while True:
        k_before = inst.k
        for name, rule in PER_ITEM_RULES:
            data = rule(inst)
            if data is not None:
                log.append(name, data, k_before, inst.k)
                break
        else:
            return inst, log


PHASE1_FAMILIES = (FamilySpec.diamond(), FamilySpec.diamond_kt(4), FamilySpec.diamond_kt(5))


@st.composite
def phase1_inputs(draw, max_n=10):
    """Random graphs of three densities, sometimes with a sunflower gadget
    on fresh vertices linked to them, so that k drops mid-run."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    density = draw(st.integers(1, 3))
    mask = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    edges = {e for e, r in zip(pairs, mask) if r < density}
    if draw(st.booleans()):
        edges |= {(u + n, v + n) for u, v in sunflower_gadget().edges()}
        if n:
            edges |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(n, n + 5)),
                                       max_size=3)))
        n += 6
    k = draw(st.integers(0, 4))
    return Instance(Graph.from_edges(n, edges), k, draw(st.sampled_from(PHASE1_FAMILIES)))


def assert_same_as_restart_from_top(inst):
    expected, expected_log = restart_from_top(inst.copy())
    out, log = run_phase1(inst)
    assert log.events == expected_log.events
    assert out.graph == expected.graph and out.k == expected.k


@settings(max_examples=300, deadline=None)
@given(phase1_inputs())
def test_worklist_driver_matches_restart_from_top(inst):
    assert_same_as_restart_from_top(inst)


def rule_calls_and_firings(monkeypatch, inst):
    """(calls, fired) of each rule in one run_phase1."""
    calls = {name: 0 for name, _ in rules()}
    for name, rule in rules():
        def counted(*args, name=name, rule=rule):
            calls[name] += 1
            return rule(*args)
        monkeypatch.setattr(phase1, rule.__name__, counted)
    _, log = run_phase1(inst)
    monkeypatch.undo()
    fired = log.counts()
    return {name: (n, fired.get(name, 0)) for name, n in calls.items()}


def test_worklist_driver_matches_after_k_drops(monkeypatch):
    # two disjoint gadgets: at k = 1 the sunflower fires on each, and the
    # irrelevant edges and components it leaves fire between and after
    gadget = list(sunflower_gadget().edges())
    g = Graph.from_edges(12, gadget + [(u + 6, v + 6) for u, v in gadget])
    for k in range(5):
        assert_same_as_restart_from_top(Instance(g.copy(), k, DIAMOND))
    _, log = run_phase1(Instance(g, 1, DIAMOND))
    assert [ev.k_after for ev in log.events if ev.rule == "sunflower"] == [0, -1]
    assert log.events[-1].rule == "irrelevant_component"
    # sizes past Hypothesis's reach where all four rules fire: the sunflower
    # rule fires twice on each G(30, 0.2), taking k to -1
    for fam in (DIAMOND, FamilySpec.diamond_kt(4)):
        for seed in (1, 2, 3):
            assert_same_as_restart_from_top(Instance(gen_gnp(30, 0.2, seed), 1, fam))
    chain = gen_planted_yes(clique_layout([6] * 40, "chain"), 2, 1)
    assert chain.graph.n == 201
    assert_same_as_restart_from_top(chain.copy())
    # one sweep per stage, and one edge sweep after each sunflower firing
    assert rule_calls_and_firings(monkeypatch, Instance(gen_gnp(30, 0.2, 1), 1, DIAMOND)) == {
        "irrelevant_edge": (3, 32), "sunflower": (3, 2),
        "vertex_split": (1, 5), "irrelevant_component": (1, 9)}
    assert rule_calls_and_firings(monkeypatch, chain) == {
        "irrelevant_edge": (1, 2), "sunflower": (1, 0),
        "vertex_split": (1, 39), "irrelevant_component": (1, 40)}


def sunflower_by_full_scan(inst):
    """The sunflower rule's verdict from every edge in order, unfiltered."""
    if inst.k < 0:
        return None
    g = inst.graph
    for x, y in list(g.edges()):
        common = g.neighbors(x) & g.neighbors(y)
        if len(common) >= 2 and maximum_non_matching_size(g, common) >= inst.k + 1:
            return (x, y)
    return None


def assert_sunflower_fires_like_full_scan(inst):
    while True:
        expected, k_after = sunflower_by_full_scan(inst), inst.k
        if expected is not None:
            k_after -= 1
        assert rule_sunflower(inst) == expected and inst.k == k_after
        if expected is None:
            return


@settings(max_examples=200, deadline=None)
@given(phase1_inputs())
def test_sunflower_fires_like_full_scan(inst):
    assert_sunflower_fires_like_full_scan(inst)


def test_sunflower_fires_like_full_scan_on_gadget():
    for k in range(-1, 4):
        assert_sunflower_fires_like_full_scan(Instance(sunflower_gadget(), k, DIAMOND))


def test_sunflower_examines_only_centre_edges_on_apex_gadget(monkeypatch):
    g, centres = apex_gadgets(3, 16)
    assert g.m == 471 and centre_edges(g) == centres
    calls = []
    monkeypatch.setattr(phase1, "maximum_non_matching_size",
                        lambda g, vs: calls.append(vs) or maximum_non_matching_size(g, vs))
    # every common neighbourhood has a non-matching of at most 1, so at
    # k = 3 the rule scans every edge it examines and fires on none
    assert rule_sunflower(Instance(g, 3, DIAMOND)) is None
    assert 0 < len(calls) <= 3 * 3


def test_sunflower_on_apex_gadget_settles_every_count_without_edmonds(monkeypatch):
    # under debug assertions each settled count is cross-checked by Edmonds' algorithm
    checks.set_debug_assertions(False)
    calls = []
    real = matching.maximum_matching
    monkeypatch.setattr(matching, "maximum_matching", lambda g: calls.append(g) or real(g))
    g, _ = apex_gadgets(3, 16)
    # each common neighbourhood is a clique plus at most one vertex outside it
    assert rule_sunflower(Instance(g, 3, DIAMOND)) is None
    assert calls == []


def test_component_rule_reads_the_centres_the_sunflower_rule_kept(monkeypatch):
    # one test per class of each copy, made by the sunflower rule; every
    # component then reads the kept centre vertices instead of testing again.
    # Under debug assertions each read recomputes what it reads
    checks.set_debug_assertions(False)
    calls = []
    real = patterns._clusters_neighbourhood
    monkeypatch.setattr(patterns, "_clusters_neighbourhood",
                        lambda g, x, twin_key: calls.append(x) or real(g, x, twin_key))
    g, _ = apex_gadgets(3, 16)
    _, log = run_phase1(Instance(g, 3, DIAMOND))
    assert len(log) == 0 and len(calls) == 12


def test_component_sweep_decides_every_component_on_the_kept_centres(monkeypatch):
    # apex gadgets on ids 8 and up, a K4 on 0-3 and a path 4-5-6-7: the
    # sunflower rule tests one class of the K4 and twelve of the gadgets;
    # the component sweep then decides the K4, the path's four isolated
    # vertices and the gadgets on those kept centres, before deleting any
    checks.set_debug_assertions(False)
    calls = []
    real = patterns._clusters_neighbourhood
    monkeypatch.setattr(patterns, "_clusters_neighbourhood",
                        lambda g, x, twin_key: calls.append(x) or real(g, x, twin_key))
    gadgets, _ = apex_gadgets(3, 16)
    g = Graph.from_vertices_and_edges(
        range(8 + gadgets.n),
        [(u + 8, v + 8) for u, v in gadgets.edges()]
        + list(combinations(range(4), 2)) + [(4, 5), (5, 6), (6, 7)])
    _, log = run_phase1(Instance(g, 3, DIAMOND))
    assert log.counts() == {"irrelevant_edge": 3, "irrelevant_component": 5}
    assert len(calls) == 13


@settings(max_examples=300, deadline=None)
@given(st.one_of(phase1_inputs(),
                 st.builds(lambda g, fam: Instance(g, 0, fam), blow_ups(),
                           st.sampled_from(PHASE1_FAMILIES + (FamilySpec.s_diamond(2),)))))
def test_component_test_with_kept_centres_equals_a_fresh_copy(inst):
    g, fam = inst.graph, inst.family
    centre_edges(g)
    for component in g.connected_components():
        assert is_family_free(g, fam, component) == is_family_free(g.copy(), fam, component)
    assert is_family_free(g, fam) == is_family_free(g.copy(), fam)


def test_phase1_work_grows_linearly_on_clique_chains(monkeypatch):
    calls = []
    real = phase1.is_core_member_edge
    monkeypatch.setattr(phase1, "is_core_member_edge",
                        lambda g, e, fam: calls.append(e) or real(g, e, fam))
    counts = {}
    for n in (201, 401, 801):
        inst = gen_planted_yes(clique_layout([6] * ((n - 1) // 5), "chain"), n // 100, 1)
        assert inst.graph.n == n
        calls.clear()
        run_phase1(inst)
        counts[n] = len(calls)
        assert counts[n] <= 25 * n
    assert counts[801] <= 2.5 * counts[401]


def test_phase1_queues_each_scope_once_on_clique_chains(monkeypatch):
    # the items handed to the edge rule: every edge for a full sweep (scope
    # None), the listed edges otherwise
    items = []
    real = phase1.rule_irrelevant_edge

    def counted(inst, scope=None):
        items.append(inst.graph.m if scope is None else len(scope))
        return real(inst, scope)

    monkeypatch.setattr(phase1, "rule_irrelevant_edge", counted)
    counts = {}
    for n in (201, 401, 801):
        inst = gen_planted_yes(clique_layout([6] * ((n - 1) // 5), "chain"), n // 100, 1)
        items.clear()
        run_phase1(inst)
        counts[n] = sum(items)
        assert 0 < counts[n] <= 6 * n
    assert counts[401] <= 2.5 * counts[201] and counts[801] <= 2.5 * counts[401]


# -- full sweeps decide once per class of true twins ---------------------------------

@settings(max_examples=200, deadline=None)
@given(blow_ups(), st.sampled_from([DIAMOND, FamilySpec.diamond_kt(4)]))
def test_class_shared_full_scans_fire_like_per_item_scans(g, fam):
    # one sweep makes every firing of its per-item reference run to that
    # reference's own fixpoint, in the same order, and leaves the same graph
    for sweep, per_item in ((rule_irrelevant_edge, irrelevant_edge_per_edge),
                            (rule_vertex_split, split_vertex_per_vertex),
                            (rule_irrelevant_component, irrelevant_component_per_component)):
        expected = Instance(g.copy(), 0, fam)
        firings = tuple(iter(lambda: per_item(expected), None))
        inst = Instance(g.copy(), 0, fam)
        assert sweep(inst) == (firings or None)
        assert inst.graph == expected.graph
        assert sweep(inst) is None


def test_full_split_scan_walks_only_singleton_twin_classes(monkeypatch):
    walks = []
    real = Graph.neighborhood_components
    monkeypatch.setattr(Graph, "neighborhood_components",
                        lambda g, v: walks.append(v) or real(g, v))
    g, _ = apex_gadgets(3, 16)
    assert rule_vertex_split(Instance(g, 3, DIAMOND)) is None
    # per copy a, b, p and q; the 16 clique vertices are true twins
    assert len(walks) == 12


@settings(max_examples=200, deadline=None)
@given(blow_ups())
def test_a_vertex_with_a_true_twin_has_a_connected_neighbourhood(g):
    closed = {v: g.neighbors(v) | {v} for v in g.vertices}
    for v in g.vertices:
        if any(closed[u] == closed[v] for u in g.vertices if u != v):
            assert len(g.neighborhood_components(v)) == 1


def test_phase1_work_on_apex_gadgets_is_per_twin_class(monkeypatch):
    # the debug checks alone would cost a clique's size squared per edge
    checks.set_debug_assertions(False)
    core, splits = [], []
    real_core, real_split = phase1.is_core_member_edge, Graph.neighborhood_components
    monkeypatch.setattr(phase1, "is_core_member_edge",
                        lambda g, e, fam: core.append(e) or real_core(g, e, fam))
    monkeypatch.setattr(Graph, "neighborhood_components",
                        lambda g, v: splits.append(v) or real_split(g, v))
    for c, q in ((5, 24), (10, 48), (20, 96)):
        g, _ = apex_gadgets(c, q)
        core.clear()
        splits.clear()
        _, log = run_phase1(Instance(g, c, DIAMOND))
        # per copy: five classes (the clique, a, b, p, q), eight adjacent pairs
        assert len(log) == 0
        assert len(core) <= 10 * c and len(splits) <= 6 * c
