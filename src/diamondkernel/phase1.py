"""First reduction phase: irrelevant-edge, sunflower, vertex-split, and
irrelevant-component rules, plus the fixpoint driver.

rules() is the one table of the rules and their priority order; the
driver restarts from its top after any firing.  Each rule is individually
decision-preserving, so the order only pins down reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .checks import debug_assertions_enabled, debug_check
from .family import FamilySpec
from .graph import Graph
from .matching import maximum_non_matching_size
from .patterns import is_core_member_edge, is_family_free


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

def rule_irrelevant_edge(inst: Instance) -> tuple[int, int] | None:
    """Delete the smallest edge that lies in no family pattern as a subgraph."""
    for e in list(inst.graph.edges()):
        if not is_core_member_edge(inst.graph, e, inst.family):
            inst.graph.remove_edge(*e)
            return e
    return None


def rule_sunflower(inst: Instance) -> tuple[int, int] | None:
    """Delete the first edge whose common neighborhood has a non-matching of
    size at least k+1, and decrement k.

    Evaluated against the current k.  Requires k >= 0 to fire, so k bottoms
    out at -1 (the decided-no marker).
    """
    if inst.k < 0:
        return None
    g = inst.graph
    for x, y in list(g.edges()):
        common = g.neighbors(x) & g.neighbors(y)
        if len(common) < 2:
            continue
        if maximum_non_matching_size(g, common) >= inst.k + 1:
            g.remove_edge(x, y)
            inst.k -= 1
            return (x, y)
    return None


def rule_vertex_split(inst: Instance) -> tuple[int, tuple[tuple[int, frozenset[int]], ...]] | None:
    """Split the smallest vertex whose neighborhood is disconnected.

    One fresh vertex per neighborhood component, adjacent exactly to that
    component; fresh ids are handed out in component order (component with
    the smallest member first).  Returns the split vertex and its provenance,
    one (new id, component it serves) pair per fresh vertex: the data of
    the vertex_split event that replay re-applies.
    """
    g = inst.graph
    for v in g.vertices:
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


def rule_irrelevant_component(inst: Instance) -> frozenset[int] | None:
    """Delete the first component that is family-free."""
    g = inst.graph
    for component in g.connected_components():
        if is_family_free(g.induced_subgraph(component), inst.family):
            g.remove_vertices(component)
            return frozenset(component)
    return None


def rules() -> tuple[tuple[str, Callable[[Instance], object]], ...]:
    """The four rules as (name, rule) pairs in priority order.

    Built at each call from this module's names, so a rule replaced on the
    module (a tracing wrapper, an injected fault) is the one that runs.
    """
    return (("irrelevant_edge", rule_irrelevant_edge),
            ("sunflower", rule_sunflower),
            ("vertex_split", rule_vertex_split),
            ("irrelevant_component", rule_irrelevant_component))


# -- fixpoint driver ---------------------------------------------------------

def run_phase1(inst: Instance) -> tuple[Instance, RuleLog]:
    """Exhaustively apply the four rules; mutates and returns inst with the
    log of every firing, split provenance included."""
    inst.family.require_kernelizable()
    log = RuleLog()
    edges_in = inst.graph.m
    while True:
        if debug_assertions_enabled():
            inst.graph.validate()
        k_before = inst.k
        for name, rule in rules():
            data = rule(inst)
            if data is not None:
                log.append(name, data, k_before, inst.k)
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
