"""Exact solvers and brute-force oracles.

The branching solver is the practical exact engine: a bounded search tree
(Cai 1996) pruned by forbidden-edge marking (Gramm, Guo, Hueffner and
Niedermeier 2005) and by a packing lower bound that respects the marked
edges.  Neither pruning changes the deletion set it returns; see
solve_branching.  The brute-force functions are the ground truth
everything else is measured against.  The
oracles never call the pattern detector: they precompute, for every vertex
subset that could host a pattern, a bitmask over edge (or pair) indices,
and decide feasibility by mask arithmetic alone.  That keeps them
independent of the detection code they are used to certify, and fast
enough to sweep thousands of desk-scale instances.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .checks import debug_check
from .errors import GuardError
from .family import FamilySpec
from .graph import Graph, edge_key
from .patterns import find_induced_occurrence, greedy_packing, max_edges_per_occurrence
from .phase1 import Instance

DEFAULT_ORACLE_CAP = 10_000_000
ORACLE_CAP_ENV = "DIAMOND_KERNEL_ORACLE_CAP"


def oracle_cap(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get(ORACLE_CAP_ENV)
    return int(env) if env else DEFAULT_ORACLE_CAP


def _check_guard(universe: int, kmax: int, cap: int | None) -> None:
    total = sum(comb(universe, size) for size in range(0, max(kmax, 0) + 1))
    limit = oracle_cap(cap)
    if total > limit:
        raise GuardError(
            f"enumeration of {total} subsets (universe {universe}, sizes <= {kmax}) "
            f"exceeds the cap {limit}; raise it via {ORACLE_CAP_ENV} or the cap argument")


# -- solutions ----------------------------------------------------------------

@dataclass(frozen=True)
class Solution:
    """A deletion set, or None when infeasible; nodes counts the search
    nodes that produced it and takes no part in equality."""

    delete_set: frozenset[tuple[int, int]] | None
    nodes: int = field(default=0, compare=False)

    @property
    def feasible(self) -> bool:
        return self.delete_set is not None

    @classmethod
    def infeasible(cls, nodes: int = 0) -> "Solution":
        return cls(None, nodes)

    @classmethod
    def of(cls, edges, nodes: int = 0) -> "Solution":
        return cls(frozenset(edges), nodes)


@dataclass(frozen=True)
class EditSolution:
    delete_set: frozenset[tuple[int, int]] | None
    add_set: frozenset[tuple[int, int]] | None

    @property
    def feasible(self) -> bool:
        return self.delete_set is not None

    @classmethod
    def infeasible(cls) -> "EditSolution":
        return cls(None, None)


# -- branching solver ---------------------------------------------------------

def solve_branching(inst: Instance) -> Solution:
    """Depth-first branching: take the first induced occurrence and branch on
    deleting each of its unfixed edges, in canonical edge order.

    Complete because every solution removes at least one edge of every
    induced occurrence.  Two prunings cut the tree without changing the
    deletion set returned, which is the first solution in branch order:

    * Forbidden-edge marking.  Once the branch deleting e has failed, e is
      fixed (never deleted) in the sibling branches after it and in their
      subtrees; the mark is lifted when the node returns.  A solution
      below a later sibling that deleted e would, without e, solve the
      failed branch within its budget, so the earlier branch would have
      found it: marking prunes only subtrees whose solutions the search
      already ruled out, and it never prunes the first solution.
    * Packing bound, at every node with budget > 0 and for every family.
      A solution must delete an unfixed edge of every induced occurrence,
      so a node fails when an occurrence has only fixed edges, or when
      budget + 1 occurrences have pairwise disjoint unfixed edges
      (greedy_packing with fixed and first).  Such a node holds no
      solution, so the first solution is again untouched.

    Each node makes exactly one occurrence search through this module's
    find_induced_occurrence; the packing searches go through patterns.
    The returned Solution carries the node count.
    """
    if inst.k < 0:
        return Solution.infeasible()
    g = inst.graph.copy()
    fam = inst.family
    branch_cap = max_edges_per_occurrence(fam)
    deleted: list[tuple[int, int]] = []
    fixed: set[tuple[int, int]] = set()
    nodes = 0

    def dfs(budget: int) -> bool:
        nonlocal nodes
        nodes += 1
        occ = find_induced_occurrence(g, fam)
        if occ is None:
            return True
        if budget == 0:
            return False
        if greedy_packing(g, budget, fam, fixed=fixed, first=occ).budget_exceeded:
            return False
        edges = sorted(occ.edges - fixed)
        debug_check(len(edges) <= branch_cap, "branching factor above the family bound")
        for e in edges:
            g.remove_edge(*e)
            deleted.append(e)
            if dfs(budget - 1):
                return True
            g.add_edge(*e)
            deleted.pop()
            fixed.add(e)
        fixed.difference_update(edges)
        return False

    if dfs(inst.k):
        return Solution.of(deleted, nodes)
    return Solution.infeasible(nodes)


# -- pattern windows: bitmask tables for the brute-force oracles --------------

@dataclass
class _Window:
    mask: int                       # bits of this subset's pairs that exist/are indexed
    present_count: int
    kind: str                       # "diamond", "sdiamond", "clique"
    param: int
    pairs: tuple[tuple[tuple[int, int], int], ...]  # (pair, bit) for shape checks
    vertices: tuple[int, ...]


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


def _deletion_windows(g: Graph, fam: FamilySpec, bit_of: dict[tuple[int, int], int]) -> list[_Window]:
    """Vertex subsets that could still host a pattern after deletions only."""
    windows: list[_Window] = []
    verts = g.vertices
    if fam.sdiamond is not None:
        s = fam.sdiamond
        size, need = s + 3, 2 * (s + 1) + 1
        for subset in combinations(verts, size):
            pairs = [edge_key(u, v) for u, v in combinations(subset, 2) if g.has_edge(u, v)]
            if len(pairs) < need:
                continue
            mask = 0
            for p in pairs:
                mask |= 1 << bit_of[p]
            kind = "diamond" if s == 1 else "sdiamond"
            windows.append(_Window(mask, len(pairs), kind, s,
                                   tuple((p, bit_of[p]) for p in pairs), subset))
    if fam.clique is not None:
        t = fam.clique
        full = t * (t - 1) // 2
        for subset in combinations(verts, t):
            pairs = [edge_key(u, v) for u, v in combinations(subset, 2) if g.has_edge(u, v)]
            if len(pairs) != full:
                continue
            mask = 0
            for p in pairs:
                mask |= 1 << bit_of[p]
            windows.append(_Window(mask, full, "clique", t, (), subset))
    return windows


def _deletion_leaves_pattern(delete_mask: int, windows: list[_Window]) -> bool:
    for w in windows:
        hit = (w.mask & delete_mask).bit_count()
        survivors = w.present_count - hit
        if w.kind == "clique":
            if hit == 0:
                return True
        elif w.kind == "diamond":
            if survivors == 5:
                return True
        else:
            if survivors == 2 * (w.param + 1) + 1:
                remaining = {p for p, bit in w.pairs if not (delete_mask >> bit) & 1}
                if _is_sdiamond_edge_set(w.vertices, remaining, w.param):
                    return True
    return False


def brute_force_min_deletion(g: Graph, fam: FamilySpec, kmax: int,
                             cap: int | None = None) -> int | None:
    """Exact minimum number of edge deletions (<= kmax) to reach family
    freeness, or None if kmax does not suffice."""
    if kmax < 0:
        return None
    edges = list(g.edges())
    _check_guard(len(edges), kmax, cap)
    bit_of = {e: i for i, e in enumerate(edges)}
    windows = _deletion_windows(g, fam, bit_of)
    bits = [1 << i for i in range(len(edges))]
    for size in range(0, kmax + 1):
        for combo in combinations(bits, size):
            mask = 0
            for b in combo:
                mask |= b
            if not _deletion_leaves_pattern(mask, windows):
                return size
    return None


def has_induced_pattern_naive(g: Graph, fam: FamilySpec) -> bool:
    """Subset-enumeration detector, independent of the edge-scan search."""
    edges = list(g.edges())
    bit_of = {e: i for i, e in enumerate(edges)}
    return _deletion_leaves_pattern(0, _deletion_windows(g, fam, bit_of))


# -- editing oracle -----------------------------------------------------------

def _editing_windows(g: Graph, fam: FamilySpec,
                     bit_of: dict[tuple[int, int], int]) -> list[tuple]:
    """(pair_mask, present_mask, kind, param, pairs) over every subset that
    could host a pattern after toggles; toggles can also build patterns, so
    all subsets of the right size are kept."""
    windows = []
    verts = g.vertices
    specs = []
    if fam.sdiamond is not None:
        s = fam.sdiamond
        specs.append((s + 3, "diamond" if s == 1 else "sdiamond", s, 2 * (s + 1) + 1))
    if fam.clique is not None:
        t = fam.clique
        specs.append((t, "clique", t, t * (t - 1) // 2))
    for size, kind, param, _need in specs:
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
            windows.append((pair_mask, present_mask, kind, param, tuple(pairs), subset))
    return windows


def _editing_leaves_pattern(toggle_mask: int, windows: list[tuple]) -> bool:
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


def _min_editing(g: Graph, fam: FamilySpec, kmax: int, cap: int | None):
    if kmax < 0:
        return None, None
    all_pairs = [edge_key(u, v) for u, v in combinations(g.vertices, 2)]
    _check_guard(len(all_pairs), kmax, cap)
    bit_of = {p: i for i, p in enumerate(all_pairs)}
    windows = _editing_windows(g, fam, bit_of)
    indexed = list(enumerate(all_pairs))
    for size in range(0, kmax + 1):
        for combo in combinations(indexed, size):
            mask = 0
            for i, _p in combo:
                mask |= 1 << i
            if not _editing_leaves_pattern(mask, windows):
                return size, [p for _i, p in combo]
    return None, None


def brute_force_min_editing(g: Graph, fam: FamilySpec, kmax: int,
                            cap: int | None = None) -> int | None:
    """Exact minimum number of edge toggles (<= kmax) to reach family freeness."""
    size, _ = _min_editing(g, fam, kmax, cap)
    return size


def brute_force_editing_solution(g: Graph, fam: FamilySpec, kmax: int,
                                 cap: int | None = None) -> EditSolution:
    """Like brute_force_min_editing but returns the toggled pairs split into
    deletions and additions."""
    size, pairs = _min_editing(g, fam, kmax, cap)
    if size is None:
        return EditSolution.infeasible()
    deletes = frozenset(p for p in pairs if g.has_edge(*p))
    adds = frozenset(p for p in pairs if not g.has_edge(*p))
    return EditSolution(deletes, adds)


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
