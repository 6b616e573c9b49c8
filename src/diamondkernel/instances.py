"""Instance generators: random graphs, planted yes-instances, the
clique-flower structure no reduction rule can shrink, and the vertex-cover
reduction pipeline with solution lift-back.

The pipeline turns a vertex-cover instance (g, k) into an s-diamond
deletion instance in three stages: subdivide every edge twice (making the
graph triangle-free, budget k + |E|), attach s pendant leaves to every
vertex (turning vertex cover into star-free vertex deletion), and join a
universal vertex (turning vertex deletion into edge deletion, since every
induced s-diamond of the result passes through the new vertex).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .errors import DescriptorError, DiamondKernelError
from .family import FamilySpec
from .graph import Graph, edge_key
from .patterns import is_family_free
from .phase1 import Instance
from .solver import EditSolution, Solution


# -- random and planted instances ---------------------------------------------

def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi sample; pairs are drawn in canonical ascending order so a
    seed pins the graph down exactly."""
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    g = Graph.from_edges(n, ())
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def clique_layout(sizes: list[int], glue: str = "disjoint") -> list[list[int]]:
    """Vertex sets for a diamond-free base: disjoint cliques, or a chain of
    cliques where consecutive ones share a single cut vertex."""
    if glue not in ("disjoint", "chain"):
        raise DescriptorError(f"unknown glue {glue!r}")
    cliques: list[list[int]] = []
    nxt = 0
    for i, size in enumerate(sizes):
        if size < 1:
            raise DescriptorError(f"clique size {size} < 1")
        if glue == "chain" and i > 0:
            members = [cliques[-1][-1]] + list(range(nxt, nxt + size - 1))
            nxt += size - 1
        else:
            members = list(range(nxt, nxt + size))
            nxt += size
        cliques.append(members)
    return cliques


def gen_planted_yes(cliques: list[list[int]], extra_edges: int, seed: int) -> Instance:
    """A guaranteed yes-instance: a diamond-free union of cliques plus
    extra_edges random absent pairs, with budget extra_edges (deleting the
    added pairs restores the base)."""
    sets = [set(c) for c in cliques]
    for a, b in combinations(sets, 2):
        if len(a & b) > 1:
            raise DescriptorError(f"cliques share {sorted(a & b)}; at most one vertex allowed")
    g = Graph.from_vertices_and_edges(sorted(set().union(*sets)) if sets else [], ())
    for c in sets:
        for u, v in combinations(sorted(c), 2):
            g.add_edge(u, v)
    if not is_family_free(g, FamilySpec.diamond()):
        raise DescriptorError("clique layout is not diamond-free "
                              "(a shared vertex has cross edges between its cliques)")
    absent = [edge_key(u, v) for u, v in combinations(g.vertices, 2) if not g.has_edge(u, v)]
    if extra_edges > len(absent):
        raise DescriptorError(f"asked for {extra_edges} extra edges, only {len(absent)} absent pairs")
    rng = random.Random(seed)
    for u, v in rng.sample(absent, extra_edges):
        g.add_edge(u, v)
    return Instance(g, extra_edges, FamilySpec.diamond())


def gen_hard_structure(k: int) -> Instance:
    """k disjoint k-cliques hanging off a diamond: one middle-edge vertex is
    adjacent to every clique vertex, the other to one representative per
    clique.  k*k + 4 vertices, budget k, and no reduction rule fires."""
    if k < 2:
        raise ValueError(f"hard structure needs k >= 2, got {k}")
    g = Graph.from_edges(4 + k * k, ())
    w1, w2, w3, w4 = 0, 1, 2, 3
    for u, v in ((w1, w2), (w1, w3), (w1, w4), (w2, w3), (w2, w4)):
        g.add_edge(u, v)
    for i in range(k):
        members = list(range(4 + i * k, 4 + (i + 1) * k))
        for u, v in combinations(members, 2):
            g.add_edge(u, v)
        for u in members:
            g.add_edge(w1, u)
        g.add_edge(w2, members[0])  # representative: smallest id in the clique
    return Instance(g, k, FamilySpec.diamond())


# -- reduction pipeline ---------------------------------------------------------

@dataclass
class Stage:
    kind: str
    data: dict = field(default_factory=dict)


@dataclass
class ReductionTrace:
    """Per-stage bookkeeping sufficient to pull a solution of the final
    instance back to a vertex cover of the original graph.

    Each stage keeps one graph copy, the one a reader needs: subdivide its
    input (the original graph lift_solution covers), stars its output, and
    universal its output (the reduced graph a solution is checked on).  The
    other copies would repeat the neighbouring stage's graph."""

    stages: list[Stage] = field(default_factory=list)

    def stage(self, kind: str) -> Stage:
        for st in self.stages:
            if st.kind == kind:
                return st
        raise KeyError(f"trace has no stage {kind!r}")

    def as_dict(self) -> dict:
        out = []
        for st in self.stages:
            entry = {"kind": st.kind}
            for key, value in st.data.items():
                if key in ("graph_before", "graph_after"):
                    entry[key] = {"n": value.n, "edges": sorted(value.edges())}
                elif key == "interior":
                    entry[key] = {f"{u},{v}": list(pair) for (u, v), pair in sorted(value.items())}
                elif key == "leaves":
                    entry[key] = {str(v): sorted(leaves) for v, leaves in sorted(value.items())}
                else:
                    entry[key] = value
            out.append(entry)
        return {"stages": out}


def subdivide_twice(g: Graph, k: int) -> tuple[Graph, int, ReductionTrace]:
    """Replace every edge u-v by a path u-x1-x2-v; the vertex-cover budget
    becomes k + |E|, and the output is triangle-free."""
    out = Graph.from_vertices_and_edges(g.vertices, ())
    interior: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v in g.edges():
        x1 = out.add_vertex()
        x2 = out.add_vertex()
        out.add_edge(u, x1)
        out.add_edge(x1, x2)
        out.add_edge(x2, v)
        interior[(u, v)] = (x1, x2)
    trace = ReductionTrace([Stage("subdivide", {
        "graph_before": g.copy(), "interior": interior, "k_offset": g.m})])
    return out, k + g.m, trace


def attach_stars(g: Graph, leaves_per_vertex: int) -> tuple[Graph, ReductionTrace]:
    """Give every vertex leaves_per_vertex fresh pendant leaves.  Preserves
    triangle-freeness; with leaves_per_vertex = s this turns vertex cover
    into induced-K_{1,s+1}-free vertex deletion."""
    if leaves_per_vertex < 1:
        raise ValueError("need at least one leaf per vertex")
    out = g.copy()
    leaves: dict[int, tuple[int, ...]] = {}
    for v in g.vertices:
        added = []
        for _ in range(leaves_per_vertex):
            leaf = out.add_vertex()
            out.add_edge(v, leaf)
            added.append(leaf)
        leaves[v] = tuple(added)
    trace = ReductionTrace([Stage("stars", {"graph_after": out.copy(), "leaves": leaves})])
    return out, trace


def add_universal(g: Graph) -> tuple[Graph, ReductionTrace]:
    """Join a fresh vertex to everything.  Requires a triangle-free input so
    the output stays K4-free."""
    for x, y in g.edges():
        common = g.neighbors(x) & g.neighbors(y)
        if common:
            raise DiamondKernelError(
                f"input has a triangle {x},{y},{min(common)}; universal join needs triangle-free")
    out = g.copy()
    w = out.add_vertex()
    for v in g.vertices:
        out.add_edge(w, v)
    trace = ReductionTrace([Stage("universal", {"graph_after": out.copy(), "w": w})])
    return out, trace


def reduce_vc_to_sdfed(g: Graph, k: int, s: int = 1) -> tuple[Instance, ReductionTrace]:
    """Vertex cover (g, k) to s-diamond-free edge deletion at budget k + |E|.

    Feasibility is preserved in both directions, for deletion and for the
    editing variant at the same budget.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    subdivided, k1, t1 = subdivide_twice(g, k)
    starred, t2 = attach_stars(subdivided, s)
    final, t3 = add_universal(starred)
    trace = ReductionTrace(t1.stages + t2.stages + t3.stages)
    trace.stages.append(Stage("instance", {"s": s, "k_original": k, "k_final": k1}))
    return Instance(final, k1, FamilySpec.s_diamond(s)), trace


# -- lifting solutions back -------------------------------------------------------

def lift_solution(trace: ReductionTrace, sol: Solution | EditSolution) -> set[int]:
    """Pull a solution of the reduced instance back to a vertex cover of the
    original vertex-cover instance, of size at most its original budget.

    Every toggled pair not touching the universal vertex w is replaced by
    the deletion of the w-edge at its smaller endpoint; the endpoints of the
    resulting w-edges form a star-free deletion set, leaves are swapped for
    their centers, and the subdivision is undone by keeping original
    vertices and covering any leftover original edge at its smaller
    endpoint.
    """
    if not sol.feasible:
        raise ValueError("cannot lift an infeasible solution")
    info = trace.stage("instance").data
    universal = trace.stage("universal").data
    stars = trace.stage("stars").data
    subdiv = trace.stage("subdivide").data
    w = universal["w"]
    final = universal["graph_after"]
    s = info["s"]

    toggles = set(sol.delete_set)
    if isinstance(sol, EditSolution):
        toggles |= set(sol.add_set)
    if len(toggles) > info["k_final"]:
        raise ValueError("solution exceeds the reduced budget")
    check = final.copy()
    for u, v in sol.delete_set:
        if not check.has_edge(u, v):
            raise ValueError(f"deletion {u}-{v} is not an edge of the reduced graph")
        check.remove_edge(u, v)
    if isinstance(sol, EditSolution):
        for u, v in sol.add_set:
            check.add_edge(u, v)
    if not is_family_free(check, FamilySpec.s_diamond(s)):
        raise ValueError("solution does not solve the reduced instance")

    rewritten = set()
    for u, v in toggles:
        if w in (u, v):
            rewritten.add(edge_key(u, v))
        else:
            rewritten.add(edge_key(w, min(u, v)))
    star_deletions = {v for e in rewritten for v in e if v != w}

    # Undo star attachment: a deleted leaf works exactly like its center.
    leaf_owner = {leaf: v for v, leaves in stars["leaves"].items() for leaf in leaves}
    cover_subdivided = {leaf_owner.get(v, v) for v in star_deletions}

    # Undo subdivision: interior path vertices are traded for the cheaper
    # endpoint of any original edge left uncovered.
    original: Graph = subdiv["graph_before"]
    cover = cover_subdivided & original.vertex_set()
    for u, v in original.edges():
        if u not in cover and v not in cover:
            cover.add(min(u, v))

    budget = info["k_original"]
    if len(cover) > budget:
        raise ValueError(f"lifted cover has {len(cover)} vertices, budget {budget}")
    uncovered = [(u, v) for u, v in original.edges() if u not in cover and v not in cover]
    if uncovered:
        raise ValueError(f"lifted set misses edges {uncovered}")
    return cover
