"""First reduction phase: irrelevant-edge, sunflower, vertex-split, and
irrelevant-component rules, plus the fixpoint driver.

rules() is the one table of the rules and their priority order.  Each
rule is individually decision-preserving, so the order only pins down
reproducibility.  The driver fires what rescanning the table from its top
after every firing would fire, in the same order, but a firing changes
verdicts only near what it touched, so each rule rescans just the items
whose verdict may have changed; run_phase1 states the locality facts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop
from typing import Callable, Iterator

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
# The edge, split and component rules take an optional scope.  None examines
# every edge or vertex.  A set is a worklist: the rule takes its items out in
# ascending order as it examines them, skipping those no longer in the
# graph, so after a firing the set holds exactly what the rule has not
# looked at.  Either way the rule fires on the first match in ascending
# order.  The driver's scopes are _Worklists, which keep their heap between
# calls, so a rule that resumes pays only for the items it pops, and a
# whole phase 1 heapifies each item once per scope that holds it; a plain
# set is heapified afresh on each call.  The sunflower rule has no scope:
# lowering k reopens all of its verdicts, and nothing else raises a
# sunflower value (see run_phase1).

class _Worklist(set):
    """A driver scope: the set plus a heap of its items, built once.

    Items only ever leave the set; the heap may still hold them, and
    _drain skips them.
    """

    def __init__(self, items) -> None:
        super().__init__(items)
        self.heap = list(self)
        heapify(self.heap)


def _drain(scope: set, present: Callable[[object], bool]) -> Iterator:
    # a _Worklist brings its heap; a plain set from a caller gets a fresh one
    heap = getattr(scope, "heap", None)
    if heap is None:
        heap = list(scope)
        heapify(heap)  # linear, and only the items examined are popped
    while heap:
        item = heappop(heap)
        if item in scope:  # the component rule takes out whole components
            scope.discard(item)
            if present(item):
                yield item


def rule_irrelevant_edge(inst: Instance,
                         scope: set[tuple[int, int]] | None = None) -> tuple[int, int] | None:
    """Delete the smallest edge that lies in no family pattern as a subgraph."""
    g = inst.graph
    edges = list(g.edges()) if scope is None else _drain(scope, lambda e: g.has_edge(*e))
    for e in edges:
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


def rule_vertex_split(inst: Instance, scope: set[int] | None = None
                      ) -> tuple[int, tuple[tuple[int, frozenset[int]], ...]] | None:
    """Split the smallest vertex whose neighborhood is disconnected.

    One fresh vertex per neighborhood component, adjacent exactly to that
    component; fresh ids are handed out in component order (component with
    the smallest member first).  Returns the split vertex and its provenance,
    one (new id, component it serves) pair per fresh vertex: the data of
    the vertex_split event that replay re-applies.
    """
    g = inst.graph
    candidates = g.vertices if scope is None else _drain(scope, g.has_vertex)
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
                              scope: set[int] | None = None) -> frozenset[int] | None:
    """Delete the first component that is family-free, by smallest member.

    With a scope, only the components that meet it are examined, in the
    order of their smallest vertex in it, and each leaves the scope whole.
    That is the order by smallest member when the scope is a union of
    components, as the driver's always is.
    """
    g = inst.graph
    if scope is None:
        components = g.connected_components()
    else:
        components = (g.component(v) for v in _drain(scope, g.has_vertex))
    for component in components:
        if scope is not None:
            scope -= component
        if is_family_free(g.induced_subgraph(component), inst.family):
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


def _record_firing(scopes: dict[str, set | None], name: str, data, g: Graph) -> None:
    """Update the scopes after a firing (see run_phase1).

    A set scope of the rule that fired already holds what it did not
    examine; a None scope becomes the items after the one it fired on.
    """
    if name == "sunflower":
        # its own scope stays None: it fires only from a full scan, and
        # lowering k reopens every verdict
        scopes["irrelevant_edge"] = _Worklist(_edges_near(g, *data))
    elif scopes[name] is None:
        if name == "irrelevant_edge":
            scopes[name] = _Worklist(e for e in g.edges() if e > data)
        elif name == "vertex_split":
            scopes[name] = _Worklist(v for v in g.vertex_set() if v > data[0])
        else:
            first = min(data)
            scopes[name] = _Worklist(v for c in g.connected_components()
                                     if min(c) > first for v in c)


def run_phase1(inst: Instance) -> tuple[Instance, RuleLog]:
    """Exhaustively apply the four rules; mutates and returns inst with the
    log of every firing, split provenance included.

    Every firing is the one that rescanning all rules from the top after
    each firing would make: the smallest non-core edge, else the first
    sunflower edge, else the smallest vertex with a disconnected
    neighbourhood, else the first family-free component.  The driver gets
    there without the rescans.  Each rule keeps a scope, None (everything)
    at the start: the items it has not examined since its verdict on them
    could last have changed.  Every item outside the scope is known not to
    fire, so the rule, which scans its scope in ascending order, fires on
    the same item as a full scan would.  These locality facts say which
    firings put items back into which scopes:

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

    So once the two edge rules are quiet they stay quiet, and the split
    and component rules, which run only then, see no edge deletion after
    their first call: each resumes after the item it last fired on.
    """
    inst.family.require_kernelizable()
    log = RuleLog()
    edges_in = inst.graph.m
    table = rules()
    scopes: dict[str, set | None] = {name: None for name, _ in table}
    while True:
        if debug_assertions_enabled():
            inst.graph.validate()
        k_before = inst.k
        for name, rule in table:
            scope = scopes[name]
            if scope is not None and not scope:
                continue
            data = rule(inst) if scope is None else rule(inst, scope)
            if data is None:
                scopes[name] = set()
                continue
            log.append(name, data, k_before, inst.k)
            _record_firing(scopes, name, data, inst.graph)
            break
        else:
            break
    debug_check(inst.graph.m <= edges_in, "phase 1 increased the edge count")
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
