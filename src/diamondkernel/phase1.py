"""First reduction phase: irrelevant-edge, sunflower, vertex-split, and
irrelevant-component rules, plus the fixpoint driver.

rules() is the one table of the rules and their priority order.  Each
rule is individually decision-preserving, so the order only pins down
reproducibility.  The edge, split and component rules each make every
firing over their scope in one call, a sweep, and return the data of
their firings in firing order; the sunflower rule fires once per call,
since lowering k reopens its verdicts.  The driver fires what rescanning
the table from its top after every firing would fire, in the same order,
in three stages (the edge rules, vertex splits, irrelevant components);
run_phase1 says why.

A full sweep of the edge or split rule decides once per pair of twin
classes or per class (Graph.twin_classes()): swapping two true twins is
an automorphism, so the edges between two classes share their core
membership and twins' neighbourhoods have as many components.  The split
sweep walks only the singleton classes: a true twin t of v sees every
other vertex of N(v), so N(v) is connected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .checks import debug_assertions_enabled, debug_check
from .family import FamilySpec
from .graph import Graph, edge_key
from .matching import maximum_non_matching_size
from .patterns import centre_edges, is_core_member_edge, is_family_free


@dataclass
class Instance:
    """A budgeted edge-deletion instance.

    k is the remaining deletion budget.  The sunflower rule firing at k=0
    leaves k=-1, which marks a decided-no instance; no rule ever fires at
    k<0 in a way that decrements further, and every consumer treats k<0 as
    infeasible.
    """

    graph: Graph
    k: int
    family: FamilySpec

    def copy(self) -> "Instance":
        return Instance(self.graph.copy(), self.k, self.family)


class RuleEvent(NamedTuple):
    """One firing.  data is what the rule returned for it: the deleted
    edge (irrelevant_edge, sunflower), (v, pieces) (vertex_split), or the
    deleted vertex set (irrelevant_component)."""

    rule: str
    data: object
    k_before: int
    k_after: int


@dataclass
class RuleLog:
    events: list[RuleEvent] = field(default_factory=list)

    def append(self, rule: str, data: object, k_before: int, k_after: int) -> None:
        self.events.append(RuleEvent(rule, data, k_before, k_after))

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.rule] = out.get(ev.rule, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.events)


def replay(log: RuleLog, graph: Graph) -> Graph:
    """Re-apply a rule log to a copy of the input graph it was recorded on."""
    g = graph.copy()
    for ev in log.events:
        if ev.rule == "irrelevant_edge" or ev.rule == "sunflower":
            g.remove_edge(*ev.data)
        elif ev.rule == "vertex_split":
            v, pieces = ev.data
            for new_id, component in pieces:
                made = g.add_vertex()
                if made != new_id:
                    raise ValueError(f"replay drift: expected id {new_id}, got {made}")
                for u in component:
                    g.add_edge(new_id, u)
            g.remove_vertex(v)
        elif ev.rule == "irrelevant_component":
            g.remove_vertices(ev.data)
        else:
            raise ValueError(f"unknown rule {ev.rule}")
    return g


# -- the four rules ----------------------------------------------------------
#
# Each sweep takes every verdict on the graph as given; run_phase1 gives
# the locality facts that make this exact.  Under debug assertions each
# sweep checks afterwards that it left nothing to fire on in its scope.

def _class_edges(g: Graph) -> list[tuple[int, int]]:
    """The smallest edge of each pair of twin classes, ascending: (a, b) for
    classes named a < b, (a, a') inside a class a whose next member is a'."""
    twin = g.twin_classes()
    inside = {rep: v for v, rep in reversed(twin.items()) if v != rep}
    return sorted([(v, u) for v, rep in twin.items() if v == rep
                   for u in g.neighbors(v) if u > v and twin[u] == u] + list(inside.items()))


def rule_irrelevant_edge(inst: Instance, scope: list[tuple[int, int]] | None = None
                         ) -> tuple[tuple[int, int], ...] | None:
    """Delete every edge of scope, an ascending list of edges, or of the
    graph when scope is None, that lies in no family pattern as a
    subgraph; returns them, ascending.

    A full sweep tests the smallest edge of each pair of twin classes and
    expands only a non-core one to every edge between or inside its classes.
    """
    g, fam = inst.graph, inst.family
    irrelevant = [e for e in (_class_edges(g) if scope is None else scope)
                  if not is_core_member_edge(g, e, fam)]
    if scope is None and irrelevant:
        twin = g.twin_classes()
        members: dict[int, list[int]] = {}
        for v, rep in twin.items():
            members.setdefault(rep, []).append(v)
        if len(members) < len(twin):  # else every class edge is the one edge of its pair
            irrelevant = sorted({edge_key(u, w) for x, y in irrelevant
                                 for u in members[twin[x]] for w in members[twin[y]] if u != w})
    for e in irrelevant:
        g.remove_edge(*e)
    if debug_assertions_enabled():
        debug_check(all(is_core_member_edge(g, e, fam) for e in (g.edges() if scope is None else scope)
                        if g.has_edge(*e)), "an irrelevant-edge sweep left a non-core edge")
    return tuple(irrelevant) or None


def rule_sunflower(inst: Instance) -> tuple[int, int] | None:
    """Delete the first edge whose common neighborhood has a non-matching of
    size at least k+1, and decrement k.

    Evaluated against the current k.  Requires k >= 0 to fire, so k bottoms
    out at -1 (the decided-no marker).  Only patterns.centre_edges are
    examined: every other edge has a clique as its common neighborhood, so
    its non-matching is 0 < k+1.
    """
    if inst.k < 0:
        return None
    g = inst.graph
    for x, y in centre_edges(g):
        common = g.neighbors(x) & g.neighbors(y)
        if len(common) < 2:
            continue
        if maximum_non_matching_size(g, common) >= inst.k + 1:
            g.remove_edge(x, y)
            inst.k -= 1
            return (x, y)
    return None


def rule_vertex_split(inst: Instance
                      ) -> tuple[tuple[int, tuple[tuple[int, frozenset[int]], ...]], ...] | None:
    """Split every vertex whose neighborhood is disconnected, ascending.

    One fresh vertex per neighborhood component, adjacent exactly to that
    component; fresh ids are handed out in component order (component with
    the smallest member first).  Returns one (v, pieces) per split vertex:
    v and its provenance, one (new id, component it serves) pair per fresh
    vertex, the data of the vertex_split event that replay re-applies.
    """
    g = inst.graph
    # a twin t of v sees every other neighbour of v, so N(v) is connected
    twin = g.twin_classes()
    shared = {rep for v, rep in twin.items() if v != rep}
    splits = []
    for v in [v for v, rep in twin.items() if v == rep and v not in shared]:
        # fewer than two neighbours make a connected neighbourhood, no walk needed
        if g.degree(v) < 2 or len(components := g.neighborhood_components(v)) < 2:
            continue
        pieces = []
        for component in components:
            new_id = g.add_vertex()
            for u in component:
                g.add_edge(new_id, u)
            pieces.append((new_id, frozenset(component)))
        g.remove_vertex(v)
        splits.append((v, tuple(pieces)))
    if debug_assertions_enabled():
        debug_check(all(len(g.connected_components(g.neighbors(v))) < 2 for v in g.vertices),
                    "a vertex-split sweep left a disconnected neighbourhood")
    return tuple(splits) or None


def rule_irrelevant_component(inst: Instance) -> tuple[frozenset[int], ...] | None:
    """Delete every component that is family-free, by smallest member.

    Every component is decided before any is deleted, so each test reads
    the centre vertices kept for the graph as given (is_family_free).
    """
    g, fam = inst.graph, inst.family
    free = tuple(frozenset(c) for c in g.connected_components() if is_family_free(g, fam, c))
    g.remove_vertices(set().union(*free))
    if debug_assertions_enabled():
        debug_check(not any(is_family_free(g, fam, c) for c in g.connected_components()),
                    "an irrelevant-component sweep left a family-free component")
    return free or None


def rules() -> tuple[tuple[str, Callable[..., object]], ...]:
    """The four rules as (name, rule) pairs in priority order.

    Built at each call from this module's names, so a rule replaced on the
    module (a tracing wrapper, an injected fault) is the one that runs.
    """
    return (("irrelevant_edge", rule_irrelevant_edge),
            ("sunflower", rule_sunflower),
            ("vertex_split", rule_vertex_split),
            ("irrelevant_component", rule_irrelevant_component))


# -- fixpoint driver ---------------------------------------------------------

def _edges_near(g: Graph, u: int, v: int) -> set[tuple[int, int]]:
    """The edges at u or v and those with both ends in N(u) or both in N(v)."""
    near = set()
    for w in (u, v):
        nw = g.neighbors(w)
        near |= {edge_key(w, x) for x in nw}
        near |= {(x, y) for x in nw for y in g.neighbors(x) & nw if x < y}
    return near


def run_phase1(inst: Instance) -> tuple[Instance, RuleLog]:
    """Exhaustively apply the four rules; mutates and returns inst with the
    log of every firing, split provenance included.

    Every firing is the one that rescanning all rules from the top after
    each firing would make: the smallest non-core edge, else the first
    sunflower edge, else the smallest vertex with a disconnected
    neighbourhood, else the first family-free component.  The driver gets
    there without the rescans, in three stages: (1) an irrelevant-edge
    sweep, then one sunflower call, and after a sunflower firing a sweep
    of the edges near the deleted one, and so on until the sunflower rule
    is quiet; (2) one vertex-split sweep; (3) one irrelevant-component
    sweep.  These locality facts show that no stage reopens an earlier one
    and that a sweep may take every verdict on the graph it is given:

    - An irrelevant edge lies in no pattern, so deleting it changes no other
      edge's core membership.  It raises no sunflower value either: an edge
      inside N(u) & N(v) would span a K4 with uv, and every other common
      neighbourhood only loses vertices.
    - Deleting a sunflower edge uv can change core membership only for
      edges at u or v and edges with both ends in N(u) or both in N(v).
      It lowers k, so the sunflower rule scans every edge again; that
      happens at most k + 1 times.
    - A vertex split leaves every other vertex's neighbourhood isomorphic,
      the copy standing in for the split vertex, and each copy's
      neighbourhood is one connected component.  Core memberships and
      sunflower values carry over, the copies' edges inheriting those of
      the edges they replace.  Removing a component changes nothing
      outside it.
    """
    inst.family.require_kernelizable()
    log = RuleLog()
    g = inst.graph
    debug = debug_assertions_enabled()
    edges_in = g.m if debug else None
    rule = dict(rules())

    def sweep(name: str, *scope: list) -> None:
        if debug:
            g.validate()
        for data in rule[name](inst, *scope) or ():
            log.append(name, data, inst.k, inst.k)

    edges = None
    while True:
        sweep("irrelevant_edge", edges)
        k_before = inst.k
        fired = rule["sunflower"](inst)
        if fired is None:
            break
        log.append("sunflower", fired, k_before, inst.k)
        edges = sorted(_edges_near(g, *fired))
    sweep("vertex_split")
    sweep("irrelevant_component")
    if debug:
        g.validate()
        debug_check(g.m <= edges_in, "phase 1 increased the edge count")
    return inst, log


def phase1_fixpoint_properties(inst: Instance) -> list[str]:
    """Violations of the fixpoint guarantees; empty when inst is a fixpoint.

    At a fixpoint every edge and vertex is a core member and every vertex
    has a connected neighborhood.
    """
    problems = []
    g = inst.graph
    for e in g.edges():
        if not is_core_member_edge(g, e, inst.family):
            problems.append(f"edge {e} is not a core member")
    for v in g.vertices:
        if len(g.neighborhood_components(v)) > 1:
            problems.append(f"vertex {v} has a disconnected neighborhood")
    return problems
