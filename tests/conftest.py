"""Shared fixtures and test-local oracles.

The oracles here are deliberately naive and separate from the library
paths they certify: a recursive matching maximizer, a permutation-based
subgraph containment check, and an exact editing search that branches on
the vertex pairs of a surviving occurrence.
"""

from __future__ import annotations

from itertools import combinations, permutations

import pytest

from diamondkernel import checks
from diamondkernel.family import FamilySpec
from diamondkernel.graph import Graph, edge_key
from diamondkernel.patterns import find_induced_occurrence


@pytest.fixture(autouse=True)
def debug_assertions():
    checks.set_debug_assertions(True)
    yield
    checks.set_debug_assertions(False)


# -- named small graphs --------------------------------------------------------

def diamond_graph() -> Graph:
    # middle edge 1-2, missing pair 0-3
    return Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def bowtie_graph() -> Graph:
    # two triangles sharing vertex 0
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def apex_gadgets(copies: int, clique: int) -> tuple[Graph, list[tuple[int, int]]]:
    """Disjoint copies of a clique joined to an adjacent apex pair a, b,
    plus pendants p, q with edges ap, aq, bp, pq; also the edges ab, ap, bp
    of every copy, whose ends are the only vertices of degree > 2 whose
    neighbourhood is not a disjoint union of cliques."""
    g = Graph()
    centres = []
    for _ in range(copies):
        members = [g.add_vertex() for _ in range(clique)]
        a, b, p, q = (g.add_vertex() for _ in range(4))
        for u, v in combinations(members, 2):
            g.add_edge(u, v)
        for v in members:
            g.add_edge(v, a)
            g.add_edge(v, b)
        for u, v in ((a, b), (a, p), (a, q), (b, p), (p, q)):
            g.add_edge(u, v)
        centres += [(a, b), (a, p), (b, p)]
    return g, centres


# -- test-local oracles ----------------------------------------------------------

def brute_force_matching_size(g: Graph) -> int:
    """Maximum matching by exhaustive branching over the edge list."""
    edges = list(g.edges())

    def best(from_index: int, used: set[int]) -> int:
        top = 0
        for i in range(from_index, len(edges)):
            u, v = edges[i]
            if u not in used and v not in used:
                top = max(top, 1 + best(i + 1, used | {u, v}))
        return top

    return best(0, set())


DIAMOND_PATTERN_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))  # middle 0-1


def edge_in_diamond_subgraph(g: Graph, e: tuple[int, int]) -> bool:
    """Brute-force not-necessarily-induced containment via vertex maps."""
    for quad in permutations(g.vertices, 4):
        if all(g.has_edge(quad[a], quad[b]) for a, b in DIAMOND_PATTERN_EDGES):
            image = {edge_key(quad[a], quad[b]) for a, b in DIAMOND_PATTERN_EDGES}
            if e in image:
                return True
    return False


def editing_feasible(g: Graph, fam: FamilySpec, budget: int) -> bool:
    """Exact editing decision: branch on toggling any vertex pair of the
    first surviving occurrence.  Complete because a solution that touches
    no pair inside an occurrence's vertex set leaves it induced."""
    if budget < 0:
        return False
    work = g.copy()
    failed: set[frozenset] = set()

    def dfs(remaining: int, toggled: frozenset) -> bool:
        # never re-toggle a pair: solutions are simple toggle sets, so the
        # memo key (the toggled set) pins down the remaining budget too
        occ = find_induced_occurrence(work, fam)
        if occ is None:
            return True
        if remaining == 0 or toggled in failed:
            return False
        for u, v in combinations(occ.vertices, 2):
            e = edge_key(u, v)
            if e in toggled:
                continue
            had = work.has_edge(u, v)
            (work.remove_edge if had else work.add_edge)(u, v)
            if dfs(remaining - 1, toggled | {e}):
                return True
            (work.add_edge if had else work.remove_edge)(u, v)
        failed.add(toggled)
        return False

    return dfs(budget, frozenset())
