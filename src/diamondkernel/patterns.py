"""Detection of forbidden induced subgraphs, core membership, greedy
edge-disjoint packing, and the maximal clique partitioning of diamond-free
graphs.

Search strategy: an s-diamond is an edge {x, y} plus s+1 pairwise
non-adjacent common neighbors, so every search walks the edges and inspects
N(x) & N(y) instead of enumerating vertex subsets.  Occurrence order is
fixed globally (smallest sorted vertex tuple, s-diamonds before cliques) so
the greedy packing and everything built on it are reproducible.

find_induced_occurrence returns that first occurrence without enumerating
the others, and gives exactly the answer of taking the minimum over the
iter_*_occurrences enumerators, which stay as the reference:

* Per edge xy only the lexicographically first independent (s+1)-subset of
  the common neighbourhood is built, by a depth-first search that narrows
  its candidates with set differences and stops at the first hit.  Adding
  the same vertices {x, y}, disjoint from both, to two equal-size sets
  keeps their order, so that subset gives the edge's smallest tuple.
* An edge is skipped when min(x, min(common)) already exceeds the first
  vertex of the best tuple found, since every occurrence it centres
  contains a vertex at least that large as its smallest.
* iter_clique_occurrences yields ascending tuples, so its first
  occurrence is the minimum.

Only centre_edges(g) are examined, by the scan, the index build and the
sunflower rule.  If G[N(x)] is a disjoint union of cliques, then for every
y in N(x) the set N(x) & N(y) is y's clique minus y, itself a clique, so no
edge at x is the middle edge of an s-diamond for any s >= 1 (the local
characterisation of Fellows, Guo, Komusiewicz, Niedermeier & Uhlmann,
Discrete Optimization 2011).  The ends of a middle edge are adjacent to
each other and to s + 1 >= 2 more vertices, so their degree is at least 3
and dropping edges at vertices of degree <= 2 is exact too.  In a graph
made of large cliques almost every edge drops out.  Those cliques are also
why the test runs once per class of true twins (equal closed neighbourhood
N[v]) rather than once per vertex: the vertices of a clique C whose only
outside neighbours are the common set A_C, the local vertices that clique
reduction deletes, all have N[v] = C | A_C, and twins get the same verdict
since swapping them is an isomorphism of the graph (as in the critical
cliques of Guo's cluster-editing kernel, TCS 2009).  The index's toggle and
mask refreshes are local already and stay unfiltered, and so does
iter_sdiamond_occurrences, the reference the tests compare with.

OccurrenceIndex stores that per-edge first occurrence for every edge, so
the minimum over its entries is the scan's answer.  Whether xy centres an
s-diamond, and which comes first, depends only on G[{x, y} | N(x) & N(y)].
Toggling uv changes that only for uv, for the edges from u or v into
C = N(u) & N(v) (their common neighbourhood gains or loses v or u), and
for the edges inside C (u and v turn adjacent or not in theirs).
Re-adding the edge removed last puts back the entries its removal
replaced.  A growing mask A narrows each pool to the z with xz, yz outside
A: an entry whose edges miss the new edges is still in the narrower pool,
hence still first, so only entries that meet them are recomputed, and
masked answers equal the scan's under A.  K_t items have no index:
first() falls back to iter_clique_occurrences when no s-diamond is left.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from itertools import combinations
from operator import attrgetter
from typing import Iterator

from .checks import debug_check, debug_assertions_enabled
from .errors import FamilyError, NotDiamondFreeError
from .family import FamilySpec
from .graph import Graph, edge_key


@dataclass(frozen=True)
class PatternOccurrence:
    """An induced copy of a family pattern inside a host graph."""

    kind: str                      # "sdiamond" or "clique"
    param: int                     # s for sdiamond, t for clique
    vertices: tuple[int, ...]      # sorted
    edges: frozenset[tuple[int, int]]


def _sdiamond_occurrence(x: int, y: int, independent: tuple[int, ...], s: int) -> PatternOccurrence:
    edges = {edge_key(x, y)}
    for z in independent:
        edges.add(edge_key(x, z))
        edges.add(edge_key(y, z))
    return PatternOccurrence("sdiamond", s, tuple(sorted((x, y) + independent)),
                             frozenset(edges))


def _clique_occurrence(vertices: tuple[int, ...], t: int) -> PatternOccurrence:
    edges = frozenset(edge_key(u, v) for u, v in combinations(vertices, 2))
    return PatternOccurrence("clique", t, tuple(sorted(vertices)), edges)


def _independent_subsets(g: Graph, pool: list[int], size: int) -> Iterator[tuple[int, ...]]:
    """All size-subsets of pool that are pairwise non-adjacent, ascending."""
    def extend(chosen: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        if len(chosen) == size:
            yield chosen
            return
        for i in range(start, len(pool)):
            z = pool[i]
            if all(z not in g.neighbors(c) for c in chosen):
                yield from extend(chosen + (z,), i + 1)
    yield from extend((), 0)


def _first_independent_subset(g: Graph, pool: set[int], size: int) -> tuple[int, ...] | None:
    """Lexicographically first pairwise non-adjacent size-subset of pool, ascending."""
    if size == 1:
        return (min(pool),) if pool else None
    rest = set(pool)
    for z in sorted(pool):
        rest.discard(z)
        if len(rest) < size - 1:
            return None
        tail = _first_independent_subset(g, rest - g.neighbors(z), size - 1)
        if tail is not None:
            return (z,) + tail
    return None


def _first_centred(g: Graph, x: int, y: int, s: int, avoid: frozenset | set | tuple,
                   bound: int | None = None) -> PatternOccurrence | None:
    """The first induced s-diamond with middle edge xy and no edge in avoid,
    or None; also None when its smallest vertex would exceed bound."""
    common = g.neighbors(x) & g.neighbors(y)
    if avoid:
        if (x, y) in avoid:
            return None
        common = {z for z in common
                  if edge_key(x, z) not in avoid and edge_key(y, z) not in avoid}
    if len(common) <= s or (bound is not None and min(x, min(common)) > bound):
        return None
    group = _first_independent_subset(g, common, s + 1)
    return None if group is None else _sdiamond_occurrence(x, y, group, s)


def _clusters_neighbourhood(g: Graph, x: int) -> bool:
    """True iff G[N(x)] is a disjoint union of cliques."""
    nx = g.neighbors(x)
    rest = set(nx)
    while rest:
        y = rest.pop()
        others = g.neighbors(y) & nx
        block = others | {y}
        if any((g.neighbors(z) & nx) | {z} != block for z in others):
            return False
        rest -= others
    return True


def centre_edges(g: Graph) -> list[tuple[int, int]]:
    """The edges of g, in g.edges() order, that may be the middle edge of
    an s-diamond: both ends have degree > 2 and an unclustered neighbourhood.

    The neighbourhood test runs once per class of true twins, keyed by the
    closed neighbourhood N[v]: if N[x] = N[x'], swapping x and x' maps
    G[N(x)] onto G[N(x')], so both get the same verdict.  Keying by the
    open neighbourhood N(v) would be exact as well, but the vertices of a
    clique all have different open neighbourhoods, and clique vertices are
    the ones worth sharing (see the module docstring).
    """
    verdicts: dict[frozenset[int], bool] = {}
    centres = set()
    for v in g.vertex_set():
        if g.degree(v) > 2:
            closed = frozenset(g.neighbors(v)) | {v}
            if closed not in verdicts:
                verdicts[closed] = not _clusters_neighbourhood(g, v)
            if verdicts[closed]:
                centres.add(v)
    kept = sorted((x, y) for x in centres for y in g.neighbors(x) & centres if x < y)
    if debug_assertions_enabled():
        for x, y in g.edge_set().difference(kept):
            common = g.neighbors(x) & g.neighbors(y)
            debug_check(all(common - {z} <= g.neighbors(z) for z in common),
                        f"edge {x}-{y} left out, but its common neighbourhood has a non-edge")
    return kept


def _first_sdiamond_occurrence(g: Graph, s: int,
                               avoid_edges: frozenset | set | None) -> PatternOccurrence | None:
    """min(iter_sdiamond_occurrences(g, s, avoid_edges), key=vertices), found directly."""
    avoid = avoid_edges or ()
    best: PatternOccurrence | None = None
    for x, y in centre_edges(g):
        occ = _first_centred(g, x, y, s, avoid, best.vertices[0] if best is not None else None)
        if occ is not None and (best is None or occ.vertices < best.vertices):
            best = occ
    return best


def iter_sdiamond_occurrences(g: Graph, s: int,
                              avoid_edges: frozenset | set | None = None) -> Iterator[PatternOccurrence]:
    """All induced s-diamonds of g, optionally only those edge-disjoint from avoid_edges."""
    avoid = avoid_edges or ()
    for x, y in g.edges():
        if (x, y) in avoid:
            continue
        common = sorted(g.neighbors(x) & g.neighbors(y))
        if avoid:
            common = [z for z in common
                      if edge_key(x, z) not in avoid and edge_key(y, z) not in avoid]
        if len(common) < s + 1:
            continue
        for group in _independent_subsets(g, common, s + 1):
            yield _sdiamond_occurrence(x, y, group, s)


def iter_clique_occurrences(g: Graph, t: int,
                            avoid_edges: frozenset | set | None = None) -> Iterator[PatternOccurrence]:
    """All induced K_t of g (edge-disjoint from avoid_edges when given), ascending tuples."""
    avoid = avoid_edges or ()
    verts = g.vertices

    def extend(chosen: tuple[int, ...], candidates: list[int]) -> Iterator[tuple[int, ...]]:
        if len(chosen) == t:
            yield chosen
            return
        for i, v in enumerate(candidates):
            if avoid and any(edge_key(v, c) in avoid for c in chosen):
                continue
            nxt = [w for w in candidates[i + 1:] if w in g.neighbors(v)]
            if len(chosen) + 1 + len(nxt) >= t:
                yield from extend(chosen + (v,), nxt)

    yield from (_clique_occurrence(c, t) for c in extend((), verts))


def _iter_occurrences(g: Graph, fam: FamilySpec,
                      avoid_edges: frozenset | set | None = None) -> Iterator[PatternOccurrence]:
    if fam.sdiamond is not None:
        yield from iter_sdiamond_occurrences(g, fam.sdiamond, avoid_edges)
    if fam.clique is not None:
        yield from iter_clique_occurrences(g, fam.clique, avoid_edges)


def find_induced_occurrence(g: Graph, fam: FamilySpec,
                            avoid_edges: frozenset | set | None = None,
                            index: "OccurrenceIndex | None" = None) -> PatternOccurrence | None:
    """Lexicographically first induced occurrence of any pattern in fam.

    s-diamond items are searched before clique items; within an item the
    occurrence with the smallest sorted vertex tuple wins.  avoid_edges
    restricts the search to occurrences edge-disjoint from that set.  The
    answer equals the minimum over the iter_*_occurrences enumerators; see
    the module docstring for why the shortcuts taken here are exact.
    index, an OccurrenceIndex of g and fam, gives the same answer without
    the scan, under its own mask in place of avoid_edges.
    """
    if index is not None:
        if avoid_edges:
            raise ValueError("an indexed search takes its mask from the index")
        return index.first()
    if fam.sdiamond is not None:
        best = _first_sdiamond_occurrence(g, fam.sdiamond, avoid_edges)
        if best is not None:
            return best
    if fam.clique is not None:
        return next(iter_clique_occurrences(g, fam.clique, avoid_edges), None)
    return None


class OccurrenceIndex:
    """The first induced s-diamond centred on each edge of g, kept current
    while g changes through remove_edge and add_edge and while the avoid
    mask grows through mask.  first() is find_induced_occurrence(g, fam,
    avoid) at every moment; the module docstring says why.

    A copy shares g and owns its entries and mask; only one of the two may
    change g afterwards.
    """

    def __init__(self, g: Graph, fam: FamilySpec) -> None:
        self.g = g
        self.fam = fam
        self.avoid: set[tuple[int, int]] = set()
        self._at: dict[tuple[int, int], PatternOccurrence] = {}
        self._undo: list[tuple[tuple[int, int], dict]] = []
        if fam.sdiamond is not None:
            self._refresh(centre_edges(g), {})

    def _refresh(self, pairs, saved: dict) -> None:
        at, g, s, avoid = self._at, self.g, self.fam.sdiamond, self.avoid
        for p in pairs:
            saved.setdefault(p, at.get(p))
            occ = _first_centred(g, *p, s, avoid) if g.has_edge(*p) else None
            if occ is None:
                at.pop(p, None)
            else:
                at[p] = occ

    def _toggled(self, u: int, v: int) -> dict:
        """Refresh the entries pair uv can change; returns their old values."""
        saved: dict = {}
        if self.fam.sdiamond is not None:
            common = sorted(self.g.neighbors(u) & self.g.neighbors(v))
            self._refresh([edge_key(u, v)]
                          + [edge_key(w, c) for w in (u, v) for c in common]
                          + list(combinations(common, 2)), saved)
        return saved

    def remove_edge(self, u: int, v: int) -> None:
        if not self.g.has_edge(u, v):
            raise ValueError(f"no edge {u}-{v} to remove")
        self.g.remove_edge(u, v)
        self._undo.append((edge_key(u, v), self._toggled(u, v)))

    def add_edge(self, u: int, v: int) -> None:
        self.g.add_edge(u, v)
        if not self._undo or self._undo[-1][0] != edge_key(u, v):
            self._undo.clear()
            self._toggled(u, v)
            return
        # the last change was removing uv: put back the entries it replaced
        for p, occ in self._undo.pop()[1].items():
            if occ is None:
                self._at.pop(p, None)
            else:
                self._at[p] = occ

    def mask(self, edges: set[tuple[int, int]]) -> None:
        """Add edges to the avoid mask; only entries that meet them change."""
        self.avoid |= edges
        self._undo.clear()
        self._refresh([key for key, occ in self._at.items()
                       if not occ.edges.isdisjoint(edges)], {})

    def copy(self) -> "OccurrenceIndex":
        twin = copy(self)
        twin.avoid = set(self.avoid)
        twin._at = dict(self._at)
        twin._undo = []
        return twin

    def first(self) -> PatternOccurrence | None:
        occ = min(self._at.values(), key=attrgetter("vertices"), default=None)
        if occ is None and self.fam.clique is not None:
            occ = next(iter_clique_occurrences(self.g, self.fam.clique, self.avoid), None)
        if debug_assertions_enabled():
            debug_check(occ == find_induced_occurrence(self.g, self.fam, self.avoid),
                        "the occurrence index disagrees with the scan")
        return occ


def is_family_free(g: Graph, fam: FamilySpec) -> bool:
    return find_induced_occurrence(g, fam) is None


# -- core membership (not-necessarily-induced containment) ------------------

def _has_clique_within(g: Graph, pool: list[int], size: int) -> bool:
    """True iff g[pool] contains a clique on `size` vertices."""
    if size <= 0:
        return True

    def extend(chosen_last: int, candidates: list[int], need: int) -> bool:
        if need == 0:
            return True
        for i, v in enumerate(candidates):
            nxt = [w for w in candidates[i + 1:] if w in g.neighbors(v)]
            if len(nxt) >= need - 1 and extend(v, nxt, need - 1):
                return True
        return False

    return extend(-1, pool, size)


def is_core_member_edge(g: Graph, e: tuple[int, int], fam: FamilySpec) -> bool:
    """True iff e lies in a diamond subgraph (or a K_t when the family has one).

    A 4-vertex span with at least 5 edges is a diamond or a K4, and either
    way every one of its edges lies in a diamond subgraph, so the diamond
    test asks whether some {x, y, a, b} spans at least 5 edges.  Only one
    of xa, xb, ya, yb, ab may be missing, and a vertex outside
    C = N(x) & N(y) misses one of x, y.  So such a pair exists iff
    |C| >= 2 (take a, b in C), or C = {a} and a has a neighbour b in
    (N(x) | N(y)) - {x, y, a}.  That is an O(deg) test instead of a walk
    over all pairs of the neighbourhood.
    """
    if fam.sdiamond != 1:
        raise FamilyError(
            f"core membership is implemented for the plain diamond families, got {fam.token()}")
    x, y = e
    if not g.has_edge(x, y):
        raise ValueError(f"edge {e} not in graph")
    nx, ny = g.neighbors(x), g.neighbors(y)
    common = nx & ny
    if len(common) >= 2:
        return True
    if common:
        (a,) = common
        if not g.neighbors(a).isdisjoint((nx | ny) - {x, y, a}):
            return True
    if fam.clique is not None:
        if _has_clique_within(g, sorted(common), fam.clique - 2):
            return True
    return False


# -- greedy edge-disjoint packing -------------------------------------------

@dataclass
class PackingResult:
    """Either budget_exceeded (k+1 occurrences with disjoint unfixed edges
    found, or one with no unfixed edge), or a maximal packing."""

    budget_exceeded: bool
    packing_edges: set[tuple[int, int]] = field(default_factory=set)
    occurrences: list[PatternOccurrence] = field(default_factory=list)


def max_edges_per_occurrence(fam: FamilySpec) -> int:
    worst = 0
    if fam.sdiamond is not None:
        worst = max(worst, 2 * (fam.sdiamond + 1) + 1)
    if fam.clique is not None:
        worst = max(worst, fam.clique * (fam.clique - 1) // 2)
    return worst


def greedy_packing(g: Graph, k: int, fam: FamilySpec,
                   fixed: frozenset | set | None = None,
                   index: OccurrenceIndex | None = None) -> PackingResult:
    """Pack induced occurrences of fam in g with pairwise disjoint unfixed edges.

    fixed is a set of edges that may not be deleted; occurrences may share
    fixed edges, and only unfixed edges enter packing_edges, the avoid set
    of the next search.  An occurrence with only fixed edges can never be
    hit, so finding one stops with budget_exceeded.  index, when given, is
    an OccurrenceIndex of g and fam with an empty mask; the packing masks a
    copy of it, so the caller's index is left as it was.  Without it the
    packing builds its own.  With no fixed edges the packing is
    edge-disjoint.

    Each iteration takes the lexicographically first induced occurrence of
    g that shares no edge with packing_edges.  Stops with budget_exceeded
    as soon as k+1 occurrences are packed; otherwise the packing is
    maximal, so every induced occurrence of g intersects packing_edges.

    Note the candidates are induced occurrences of g itself, not of the
    edge-deleted remainder: an induced diamond of g - X whose missing pair
    is an edge of g sitting in X is a K4 of g, and a solution need not
    touch it, so counting it toward the k+1 threshold would flip yes
    instances to no.
    """
    fixed = fixed or ()
    work = index.copy() if index is not None else OccurrenceIndex(g, fam)
    packing_edges: set[tuple[int, int]] = set()
    occurrences: list[PatternOccurrence] = []
    occ = work.first()
    while occ is not None:
        occurrences.append(occ)
        unfixed = occ.edges.difference(fixed)
        if not unfixed or len(occurrences) >= k + 1:
            return PackingResult(True, packing_edges | unfixed, occurrences)
        packing_edges |= unfixed
        work.mask(unfixed)
        occ = work.first()
    result = PackingResult(False, packing_edges, occurrences)
    debug_check(len(packing_edges) <= max_edges_per_occurrence(fam) * max(k, 0),
                "packing edge count exceeds the per-occurrence bound")
    if debug_assertions_enabled():
        for occ in _iter_occurrences(g, fam):
            debug_check(bool(occ.edges & packing_edges),
                        f"occurrence {occ.vertices} is edge-disjoint from a maximal packing")
    return result


# -- maximal clique partitioning --------------------------------------------

def clique_partition(g: Graph) -> list[set[int]]:
    """The unique maximal-clique partitioning of a diamond-free graph.

    Every edge lies in exactly one returned set; isolated vertices appear
    as singletons.  Sets are ordered by their sorted vertex tuples.
    """
    witness = find_induced_occurrence(g, FamilySpec.diamond())
    if witness is not None:
        raise NotDiamondFreeError(witness)
    cliques: list[set[int]] = []
    covered: set[tuple[int, int]] = set()
    for u, v in g.edges():
        if (u, v) in covered:
            continue
        # In a diamond-free graph the common neighborhood of an edge is a
        # clique, and together with the endpoints it is the unique maximal
        # clique containing the edge.
        clique = {u, v} | (g.neighbors(u) & g.neighbors(v))
        for a, b in combinations(sorted(clique), 2):
            debug_check(g.has_edge(a, b), f"non-edge {a}-{b} inside a computed clique")
            covered.add((a, b))
        cliques.append(clique)
    for v in g.vertices:
        if g.degree(v) == 0:
            cliques.append({v})
    cliques.sort(key=lambda c: tuple(sorted(c)))
    if debug_assertions_enabled():
        _validate_partition(g, cliques)
    return cliques


def _validate_partition(g: Graph, cliques: list[set[int]]) -> None:
    seen: set[tuple[int, int]] = set()
    for clique in cliques:
        for a, b in combinations(sorted(clique), 2):
            debug_check((a, b) not in seen, f"edge {a}-{b} in two cliques")
            seen.add((a, b))
    debug_check(seen == g.edge_set(), "clique partitioning does not cover the edge set")
    for c1, c2 in combinations(cliques, 2):
        shared = c1 & c2
        debug_check(len(shared) <= 1, f"cliques intersect in {sorted(shared)}")
        if len(shared) == 1:
            (v,) = shared
            debug_check(
                not any(g.has_edge(a, b) for a in c1 - {v} for b in c2 - {v}),
                "edge between two cliques outside their shared vertex")
