"""Instance generators: random graphs, planted yes-instances, the
clique-flower structure no reduction rule can shrink, and the vertex-cover
reduction pipeline with solution lift-back.

The pipeline turns a vertex-cover instance (g, k) into an s-diamond
deletion instance in three stages: subdivide every edge twice (making the
graph triangle-free, budget k + |E|), attach s pendant leaves to every
vertex (turning vertex cover into star-free vertex deletion), and join a
universal vertex (turning vertex deletion into edge deletion, since every
induced s-diamond of the result passes through the new vertex).  Each
stage returns what it made, and ReductionTrace keeps it in named fields.
lift_solution accepts only a set that solver.check_solution passes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .errors import DescriptorError, DiamondKernelError
from .family import FamilySpec
from .graph import Graph, edge_key
from .patterns import is_family_free
from .phase1 import Instance
from .solver import Solution, check_solution


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
class ReductionTrace:
    """What lift_solution and the trace file need: the original graph and
    the interior path of each edge, the starred graph and each vertex's
    leaves, the reduced graph and its universal vertex w.  Only the trace
    holds the starred graph; the other two graphs are copies."""

    original: Graph
    interior: dict[tuple[int, int], tuple[int, int]]
    starred: Graph
    leaves: dict[int, tuple[int, ...]]
    reduced: Graph
    w: int
    s: int
    k_original: int
    k_final: int

    def as_dict(self) -> dict:
        def graph(g: Graph) -> dict:
            return {"n": g.n, "edges": sorted(g.edges())}

        return {"stages": [
            {"kind": "subdivide", "graph_before": graph(self.original),
             "interior": {f"{u},{v}": list(pair) for (u, v), pair in sorted(self.interior.items())},
             "k_offset": self.k_final - self.k_original},
            {"kind": "stars", "graph_after": graph(self.starred),
             "leaves": {str(v): sorted(leaves) for v, leaves in sorted(self.leaves.items())}},
            {"kind": "universal", "graph_after": graph(self.reduced), "w": self.w},
            {"kind": "instance", "s": self.s, "k_original": self.k_original,
             "k_final": self.k_final},
        ]}


def subdivide_twice(g: Graph, k: int
                    ) -> tuple[Graph, int, dict[tuple[int, int], tuple[int, int]]]:
    """Replace every edge u-v by a path u-x1-x2-v; the vertex-cover budget
    becomes k + |E|, and the output is triangle-free.  Returns the new
    graph, the budget, and the interior (x1, x2) of each edge's path."""
    out = Graph.from_vertices_and_edges(g.vertices, ())
    interior: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v in g.edges():
        x1 = out.add_vertex()
        x2 = out.add_vertex()
        out.add_edge(u, x1)
        out.add_edge(x1, x2)
        out.add_edge(x2, v)
        interior[(u, v)] = (x1, x2)
    return out, k + g.m, interior


def attach_stars(g: Graph, leaves_per_vertex: int) -> tuple[Graph, dict[int, tuple[int, ...]]]:
    """Give every vertex leaves_per_vertex fresh pendant leaves.  Preserves
    triangle-freeness; with leaves_per_vertex = s this turns vertex cover
    into induced-K_{1,s+1}-free vertex deletion.  Returns the new graph and
    the leaves of each vertex."""
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
    return out, leaves


def add_universal(g: Graph) -> tuple[Graph, int]:
    """Join a fresh vertex to everything.  Requires a triangle-free input so
    the output stays K4-free.  Returns the new graph and the fresh vertex."""
    for x, y in g.edges():
        common = g.neighbors(x) & g.neighbors(y)
        if common:
            raise DiamondKernelError(
                f"input has a triangle {x},{y},{min(common)}; universal join needs triangle-free")
    out = g.copy()
    w = out.add_vertex()
    for v in g.vertices:
        out.add_edge(w, v)
    return out, w


def reduce_vc_to_sdfed(g: Graph, k: int, s: int = 1) -> tuple[Instance, ReductionTrace]:
    """Vertex cover (g, k) to s-diamond-free edge deletion at budget k + |E|.

    Feasibility is preserved in both directions, for deletion and for the
    editing variant at the same budget.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    subdivided, k1, interior = subdivide_twice(g, k)
    starred, leaves = attach_stars(subdivided, s)
    final, w = add_universal(starred)
    trace = ReductionTrace(g.copy(), interior, starred, leaves, final.copy(), w, s, k, k1)
    return Instance(final, k1, FamilySpec.s_diamond(s)), trace


# -- lifting solutions back -------------------------------------------------------

def lift_solution(trace: ReductionTrace, sol: Solution) -> set[int]:
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
    verdict = check_solution(trace.reduced, FamilySpec.s_diamond(trace.s), trace.k_final, sol)
    if verdict != {"verified_family_free": True}:
        raise ValueError(f"solution does not solve the reduced instance: {verdict}")
    w = trace.w
    toggles = sol.delete_set | sol.add_set
    star_deletions = {u if v == w else v if u == w else min(u, v) for u, v in toggles}

    # Undo star attachment: a deleted leaf works exactly like its center.
    leaf_owner = {leaf: v for v, leaves in trace.leaves.items() for leaf in leaves}
    cover_subdivided = {leaf_owner.get(v, v) for v in star_deletions}

    # Undo subdivision: interior path vertices are traded for the cheaper
    # endpoint of any original edge left uncovered.
    original = trace.original
    cover = cover_subdivided & original.vertex_set()
    for u, v in original.edges():
        if u not in cover and v not in cover:
            cover.add(min(u, v))

    budget = trace.k_original
    if len(cover) > budget:
        raise ValueError(f"lifted cover has {len(cover)} vertices, budget {budget}")
    return cover
