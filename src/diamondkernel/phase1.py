"""First reduction phase: irrelevant-edge, sunflower, vertex-split, and
irrelevant-component rules, plus the fixpoint driver.

rules() is the one table of the rules and their priority order.  Each
rule is individually decision-preserving, so the order only pins down
reproducibility.  The driver fires what rescanning the table from its top
after every firing would fire, in the same order, in three stages (the
edge rules, vertex splits, irrelevant components) in which each rule
resumes after the item it last fired on; run_phase1 says why.

A full scan of the edge or split rule decides once per pair of twin
classes or per class (Graph.twin_classes()): swapping two true twins is
an automorphism, so the edges between two classes share their core
membership and twins' neighbourhoods have as many components; the first
item of each fires exactly when all would.  Scans of a driver's deque
stay per item: they follow a firing, which clears the classes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

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


@dataclass(frozen=True)
class RuleEvent:
    """One firing.  data is what the rule returned: the deleted edge
    (irrelevant_edge, sunflower), (v, pieces) (vertex_split), or the
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
# The edge, split and component rules take an optional scope.  None is a
# sorted full scan (per twin class, see above).  A deque, which only the
# driver makes, holds the items not examined yet in ascending order; the
# rule takes each off the front as it examines it.  Either way the rule
# fires on the first match in ascending order.  The sunflower rule has no
# scope: lowering k reopens all of its verdicts, and nothing else raises a
# sunflower value (see run_phase1).

def _take(scope: deque) -> Iterator:
    while scope:
        yield scope.popleft()


def _class_edges(g: Graph) -> list[tuple[int, int]]:
    """The smallest edge of each pair of twin classes, ascending: (a, b) for
    classes named a < b, (a, a') inside a class a whose next member is a'."""
    twin = g.twin_classes()
    inside = {rep: v for v, rep in reversed(twin.items()) if v != rep}
    return sorted([(v, u) for v, rep in twin.items() if v == rep
                   for u in g.neighbors(v) if u > v and twin[u] == u] + list(inside.items()))


def rule_irrelevant_edge(inst: Instance,
                         scope: deque[tuple[int, int]] | None = None) -> tuple[int, int] | None:
    """Delete the smallest edge that lies in no family pattern as a subgraph."""
    g = inst.graph
    for e in _class_edges(g) if scope is None else _take(scope):
        if not is_core_member_edge(g, e, inst.family):
            g.remove_edge(*e)
            return e
    return None


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


def rule_vertex_split(inst: Instance, scope: deque[int] | None = None
                      ) -> tuple[int, tuple[tuple[int, frozenset[int]], ...]] | None:
    """Split the smallest vertex whose neighborhood is disconnected.

    One fresh vertex per neighborhood component, adjacent exactly to that
    component; fresh ids are handed out in component order (component with
    the smallest member first).  Returns the split vertex and its provenance,
    one (new id, component it serves) pair per fresh vertex: the data of
    the vertex_split event that replay re-applies.
    """
    g = inst.graph
    candidates = ([v for v, rep in g.twin_classes().items() if v == rep] if scope is None
                  else _take(scope))
    for v in candidates:
        components = g.neighborhood_components(v)
        if len(components) < 2:
            continue
        pieces = []
        for component in components:
            new_id = g.add_vertex()
            for u in component:
                g.add_edge(new_id, u)
            pieces.append((new_id, frozenset(component)))
        g.remove_vertex(v)
        return v, tuple(pieces)
    return None


def rule_irrelevant_component(inst: Instance,
                              scope: deque[set[int]] | None = None) -> frozenset[int] | None:
    """Delete the first component that is family-free, by smallest member;
    a scope holds whole components, in that order."""
    g = inst.graph
    for component in g.connected_components() if scope is None else _take(scope):
        if is_family_free(g, inst.family, component):
            g.remove_vertices(component)
            return frozenset(component)
    return None


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


def _exhaust(inst: Instance, log: RuleLog, name: str, scope: deque | None,
             rest: Callable[[object], Iterable]) -> object:
    """Call the rule name until it returns None or its scope is empty;
    returns the data of its last call.  After a firing from a full scan
    (scope None) the scope becomes deque(rest(data)), the items after the
    one it fired on, ascending."""
    rule = dict(rules())[name]
    data = None
    while scope is None or scope:
        if debug_assertions_enabled():
            inst.graph.validate()
        k_before = inst.k
        data = rule(inst) if scope is None else rule(inst, scope)
        if data is None:
            break
        log.append(name, data, k_before, inst.k)
        if scope is None:
            scope = deque(rest(data))
    return data


def run_phase1(inst: Instance) -> tuple[Instance, RuleLog]:
    """Exhaustively apply the four rules; mutates and returns inst with the
    log of every firing, split provenance included.

    Every firing is the one that rescanning all rules from the top after
    each firing would make: the smallest non-core edge, else the first
    sunflower edge, else the smallest vertex with a disconnected
    neighbourhood, else the first family-free component.  The driver gets
    there without the rescans, in three stages: (1) the irrelevant-edge
    rule until quiet, then one sunflower call, and after a sunflower
    firing the edge rule on the edges near the deleted one, and so on
    until the sunflower rule is quiet; (2) vertex splits until quiet;
    (3) irrelevant components until quiet.  These locality facts show
    that no stage reopens an earlier one and that a rule need not look
    back at the items it has passed:

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

    Within a stage only its rules change the graph.  A rule removes only
    the item it fired on, already taken off its deque, and a sunflower
    firing replaces the edge deque, so no deque holds a removed item.  If
    one did, the rule would raise (is_core_member_edge ValueError,
    neighbors UnknownVertexError), not skip it.
    """
    inst.family.require_kernelizable()
    log = RuleLog()
    g = inst.graph
    edges_in = g.m if debug_assertions_enabled() else None
    edges = None
    while True:
        _exhaust(inst, log, "irrelevant_edge", edges, lambda e: (f for f in g.edges() if f > e))
        # at most one sunflower firing per turn: its rest is empty
        fired = _exhaust(inst, log, "sunflower", None, lambda e: ())
        if fired is None:
            break
        edges = deque(sorted(_edges_near(g, *fired)))
    _exhaust(inst, log, "vertex_split", None, lambda data: (v for v in g.vertices if v > data[0]))
    _exhaust(inst, log, "irrelevant_component", None,
             lambda data: (c for c in g.connected_components() if min(c) > min(data)))
    if edges_in is not None:
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
