"""Exact solvers and brute-force oracles.

The branching solver is the practical exact engine: a bounded search tree
(Cai 1996) that branches on the most conflicted occurrence (after Boecker,
Briesemeister, Bui and Truss 2009) and marks the edges of failed branches
as forbidden (Gramm, Guo, Hueffner and Niedermeier 2005).  A packing lower
bound that respects the marked edges and packs the occurrence with the
fewest conflicts first prunes the tree without changing the deletion set
it returns; see solve_branching.  The
brute-force functions are the ground truth everything else is measured
against.  The oracles never call the pattern detector: they share one
table that holds, for every vertex subset that could host a pattern,
bitmasks over vertex-pair indices, and decide feasibility by mask
arithmetic alone (deletion is editing restricted to the present pairs).
That keeps them independent of the detection code they are used to
certify, and fast enough to sweep thousands of desk-scale instances.
check_solution is not an oracle: it checks one given set against one
instance, so it can confirm a "yes" but never show a "no" or a minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .checks import debug_assertions_enabled, debug_check
from .errors import GuardError
from .family import FamilySpec
from .graph import Graph, edge_key
from .patterns import (OccurrenceIndex, _first_centred, fewest_conflicts_packing,
                       find_induced_occurrence, is_family_free, max_edges_per_occurrence)
from .phase1 import Instance

DEFAULT_ORACLE_CAP = 10_000_000


def _check_guard(universe: int, kmax: int, cap: int | None) -> None:
    # sizes past the universe add comb(universe, size) = 0
    total = sum(comb(universe, size) for size in range(min(max(kmax, 0), universe) + 1))
    limit = DEFAULT_ORACLE_CAP if cap is None else cap
    if total > limit:
        raise GuardError(
            f"enumeration of {total} subsets (universe {universe}, sizes <= {kmax}) "
            f"exceeds the cap {limit}; raise it with --cap or the cap argument")


# -- solutions ----------------------------------------------------------------

@dataclass(frozen=True)
class Solution:
    """A deletion set, or None when infeasible, and the pairs an editing
    solution adds; nodes counts the search nodes that produced it and
    takes no part in equality."""

    delete_set: frozenset[tuple[int, int]] | None
    add_set: frozenset[tuple[int, int]] = frozenset()
    nodes: int = field(default=0, compare=False)

    @property
    def feasible(self) -> bool:
        return self.delete_set is not None

    @classmethod
    def infeasible(cls, nodes: int = 0) -> "Solution":
        return cls(None, nodes=nodes)

    @classmethod
    def of(cls, edges, nodes: int = 0) -> "Solution":
        return cls(frozenset(edges), nodes=nodes)


def check_solution(g: Graph, fam: FamilySpec, k: int, sol: Solution) -> dict:
    """The one definition of a valid solution: the feasible sol deletes only
    edges of g, toggles at most k pairs (its additions included) and
    leaves g free of fam.  The result holds verified_family_free, plus
    non_edges and over_budget when they apply, so sol is valid exactly
    when it is {"verified_family_free": True}."""
    h = g.copy()
    non_edges = [[u, v] for u, v in sorted(sol.delete_set) if not h.has_edge(u, v)]
    for u, v in sol.delete_set:
        if h.has_edge(u, v):
            h.remove_edge(u, v)
    for u, v in sol.add_set:
        h.add_edge(u, v)
    verdict = {"verified_family_free": is_family_free(h, fam)}
    if non_edges:
        verdict["non_edges"] = non_edges
    if len(sol.delete_set) + len(sol.add_set) > k:
        verdict["over_budget"] = len(sol.delete_set) + len(sol.add_set) - k
    return verdict


# -- branching solver ---------------------------------------------------------

def solve_branching(inst: Instance) -> Solution:
    """Depth-first branching on the most conflicted occurrence, deleting
    each of its unfixed edges in turn.

    Complete because every solution removes at least one edge of every
    induced occurrence.

    * Forbidden-edge marking.  Once the branch deleting e has failed, e is
      fixed (never deleted) in the sibling branches after it and in their
      subtrees; the mark is lifted when the node returns.  A solution
      below a later sibling that deleted e would, without e, solve the
      failed branch within its budget, so marking keeps the search complete.
    * Branching rule: "branch on the most conflicted pair" (Boecker,
      Briesemeister, Bui and Truss, TCS 2009) over the node's index
      entries.  An edge's load is the number of entries holding it, which
      for an unfixed edge counts the entries whose unfixed edges hold it;
      the index keeps the loads current (OccurrenceIndex.loads), so no
      node recounts them.  Take the entry with the fewest unfixed edges,
      ties going to the highest load among them and then to the smallest
      vertex tuple, and try its unfixed edges by descending load, then in
      canonical order.  With no entry, the K_t occurrence of first() is
      branched on in canonical order.  The rule reads the fixed edges, so
      marking is part of it.
    * Packing bound, at every node with budget > 0 and for every family.
      A solution must delete an unfixed edge of every induced occurrence,
      so a node fails when an occurrence has only fixed edges, or when
      budget + 1 occurrences have pairwise disjoint unfixed edges.  Any
      such packing will do, so fewest_conflicts_packing takes the order
      that tends to pack more.  A failed node holds no solution outside
      its fixed edges, so the bound changes the node count, never the
      returned set.

    No node rescans the graph.  Each node asks its own OccurrenceIndex for
    the first occurrence exactly once, through this module's
    find_induced_occurrence, and the packing masks a copy of it.  A branch
    deletes its edge in another copy, which carries the loads, and recurses
    with that; once the branch fails, every deletion below it is undone,
    so re-adding the edge to the graph makes the node's index current
    again.  The returned Solution carries the node count.
    """
    if inst.k < 0:
        return Solution.infeasible()
    g = inst.graph.copy()
    fam = inst.family
    branch_cap = max_edges_per_occurrence(fam)
    deleted: list[tuple[int, int]] = []
    fixed: set[tuple[int, int]] = set()
    nodes = 0

    def dfs(index: OccurrenceIndex, budget: int) -> bool:
        nonlocal nodes
        nodes += 1
        occ = find_induced_occurrence(g, fam, index=index)
        if occ is None:
            return True
        if budget == 0:
            return False
        if fewest_conflicts_packing(index, budget, fixed).budget_exceeded:
            return False
        at = index._at
        if at:
            # the packing passed, so every entry has an unfixed edge
            unfixed = {key: entry.edges - fixed for key, entry in at.items()}
            load = index.loads()
            key = min(unfixed, key=lambda p: (len(unfixed[p]),
                                              -max(map(load.__getitem__, unfixed[p])),
                                              at[p].vertices))
            if debug_assertions_enabled():
                debug_check(at[key] == _first_centred(g, *key, fam.sdiamond, ()),
                            f"the index entry at {key} disagrees with a fresh search")
            edges = sorted(unfixed[key], key=lambda e: (-load[e], e))
        else:
            edges = sorted(occ.edges - fixed)
        debug_check(len(edges) <= branch_cap, "branching factor above the family bound")
        for e in edges:
            child = index.copy()
            child.remove_edge(*e)
            deleted.append(e)
            if dfs(child, budget - 1):
                return True
            g.add_edge(*e)
            deleted.pop()
            fixed.add(e)
        fixed.difference_update(edges)
        return False

    if dfs(OccurrenceIndex(g, fam), inst.k):
        return Solution.of(deleted, nodes)
    return Solution.infeasible(nodes)


# -- pattern windows: one bitmask table for the brute-force oracles ---------

def _is_sdiamond_edge_set(vertices: tuple[int, ...], edges: set[tuple[int, int]], s: int) -> bool:
    """Exact shape test: edges on vertices form an edge joined to an
    independent (s+1)-set."""
    degree = {v: 0 for v in vertices}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    highs = sorted(v for v in vertices if degree[v] == s + 2)
    lows = [v for v in vertices if degree[v] == 2]
    if len(highs) != 2 or len(lows) != s + 1:
        return False
    expected = {edge_key(*highs)}
    for h in highs:
        for l in lows:
            expected.add(edge_key(h, l))
    return edges == expected


def _pattern_windows(g: Graph, fam: FamilySpec, bit_of: dict[tuple[int, int], int],
                     toggleable: int) -> list[tuple]:
    """(pair_mask, present_mask, kind, param, pairs, subset) for every vertex
    subset that could host a pattern once the pairs whose bits are set in
    toggleable may flip: those whose present pairs plus toggleable pairs
    are enough to form the pattern.  bit_of indexes every vertex pair.
    Deletion passes the edges as toggleable, editing every pair, and a
    plain detector none."""
    windows = []
    verts = g.vertices
    specs = []
    if fam.sdiamond is not None:
        s = fam.sdiamond
        specs.append((s + 3, "diamond" if s == 1 else "sdiamond", s, 2 * (s + 1) + 1))
    if fam.clique is not None:
        t = fam.clique
        specs.append((t, "clique", t, t * (t - 1) // 2))
    for size, kind, param, need in specs:
        for subset in combinations(verts, size):
            pair_mask = 0
            present_mask = 0
            pairs = []
            for u, v in combinations(subset, 2):
                p = edge_key(u, v)
                bit = bit_of[p]
                pair_mask |= 1 << bit
                pairs.append((p, bit))
                if g.has_edge(u, v):
                    present_mask |= 1 << bit
            if (present_mask | (pair_mask & toggleable)).bit_count() >= need:
                windows.append((pair_mask, present_mask, kind, param, tuple(pairs), subset))
    return windows


def _leaves_pattern(toggle_mask: int, windows: list[tuple]) -> bool:
    """True iff toggling the pairs in toggle_mask leaves some window
    holding its pattern as an induced subgraph."""
    for pair_mask, present_mask, kind, param, pairs, subset in windows:
        after = present_mask ^ (toggle_mask & pair_mask)
        count = after.bit_count()
        if kind == "clique":
            if after == pair_mask:
                return True
        elif kind == "diamond":
            if count == 5:
                return True
        else:
            if count == 2 * (param + 1) + 1:
                remaining = {p for p, bit in pairs if (after >> bit) & 1}
                if _is_sdiamond_edge_set(subset, remaining, param):
                    return True
    return False


def _pair_bits(g: Graph) -> dict[tuple[int, int], int]:
    """Bit index of every vertex pair, in combinations order."""
    return {edge_key(u, v): i for i, (u, v) in enumerate(combinations(g.vertices, 2))}


def _min_toggles(g: Graph, fam: FamilySpec, kmax: int, cap: int | None,
                 candidates: list[tuple[int, int]]):
    """Smallest set of candidate pairs (at most kmax of them) whose toggling
    leaves g family-free, as (size, pairs), or (None, None).  Sets of one
    size are tried in combinations order over candidates."""
    if kmax < 0:
        return None, None
    _check_guard(len(candidates), kmax, cap)
    bit_of = _pair_bits(g)
    indexed = [(1 << bit_of[p], p) for p in candidates]
    toggleable = 0
    for bit, _p in indexed:
        toggleable |= bit
    windows = _pattern_windows(g, fam, bit_of, toggleable)
    for size in range(0, kmax + 1):
        for combo in combinations(indexed, size):
            mask = 0
            for bit, _p in combo:
                mask |= bit
            if not _leaves_pattern(mask, windows):
                return size, [p for _bit, p in combo]
    return None, None


def brute_force_min_deletion(g: Graph, fam: FamilySpec, kmax: int,
                             cap: int | None = None) -> int | None:
    """Exact minimum number of edge deletions (<= kmax) to reach family
    freeness, or None if kmax does not suffice.  Deletion is editing
    restricted to the present pairs."""
    size, _ = _min_toggles(g, fam, kmax, cap, list(g.edges()))
    return size


# -- editing oracle: every vertex pair may be toggled --------------------------

def brute_force_min_editing(g: Graph, fam: FamilySpec, kmax: int,
                            cap: int | None = None) -> int | None:
    """Exact minimum number of edge toggles (<= kmax) to reach family freeness."""
    size, _ = _min_toggles(g, fam, kmax, cap, list(_pair_bits(g)))
    return size


# -- vertex-deletion oracle -----------------------------------------------------

def _has_induced_star(g: Graph, alive: set[int], s: int) -> bool:
    """True iff g[alive] contains an induced K_{1,s}."""
    for center in sorted(alive):
        nbrs = sorted(g.neighbors(center) & alive)
        if len(nbrs) < s:
            continue
        def extend(chosen: list[int], start: int) -> bool:
            if len(chosen) == s:
                return True
            for i in range(start, len(nbrs)):
                z = nbrs[i]
                if all(not g.has_edge(z, c) for c in chosen):
                    if extend(chosen + [z], i + 1):
                        return True
            return False
        if extend([], 0):
            return True
    return False


def brute_force_vertex_deletion(g: Graph, mode: str, kmax: int,
                                s: int | None = None, cap: int | None = None) -> int | None:
    """Minimum vertex set (<= kmax) whose removal leaves the graph edgeless
    (mode='vertex-cover') or induced-K_{1,s}-free (mode='star', with s)."""
    if mode not in ("vertex-cover", "star"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "star" and (s is None or s < 1):
        raise ValueError("star mode needs s >= 1")
    if kmax < 0:
        return None
    verts = g.vertices
    _check_guard(len(verts), kmax, cap)
    for size in range(0, kmax + 1):
        for removed in combinations(verts, size):
            alive = set(verts) - set(removed)
            if mode == "vertex-cover":
                if all(v not in alive or not (g.neighbors(v) & alive) for v in verts):
                    return size
            else:
                if not _has_induced_star(g, alive, s):
                    return size
    return None
