"""Detection of forbidden induced subgraphs, core membership, greedy
occurrence packings, and the maximal clique partitioning of diamond-free
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
cliques of Guo's cluster-editing kernel, TCS 2009; keying by the open
neighbourhood would split every clique).  Graph.twin_classes() and
centre_edges(g) are kept in g.memo, computed once per graph state: every
mutation of g clears them.  The index's toggle and mask refreshes are local
already and stay unfiltered, and so does iter_sdiamond_occurrences, the
reference the tests compare with.  is_family_free tests g, or a union C
of its components, in place: every neighbourhood in C lies in C, so C's
centre edges and s-diamonds are those of g[C], and a K_t search from C
stays in C.  It reads the centre vertices inside C from the memo of
centre_edges(g), which computes them for all of g when nothing is kept,
so a sweep over the components of one graph state tests each twin class
once.  greedy_packing's debug maximality check is one scan.

OccurrenceIndex stores that per-edge first occurrence for every edge, so
the minimum over its entries is the scan's answer.  Whether xy centres an
s-diamond, and which comes first, depends only on G[{x, y} | N(x) & N(y)].
Toggling uv changes that only for uv, for the edges from u or v into
C = N(u) & N(v) (their common neighbourhood gains or loses v or u), and
for the edges inside C (u and v turn adjacent or not in theirs).  The
entries depend only on g and the mask, so an index is current while g is
as it last saw it, however g left that state and came back.  A growing
mask A narrows each pool to the z with xz, yz outside A: an entry whose
edges miss the new edges is still in the narrower pool, hence still
first, so only entries that meet them are recomputed, and masked answers
equal the scan's under A.  K_t items have no index: first() falls back to
iter_clique_occurrences when no s-diamond is left.  Every entry change goes
through one refresh, which from the first loads() call on also keeps each
edge's load, the number of entries holding it: the solver's packing bound
and branching rule read the loads, and greedy_packing's index never asks.
"""

from __future__ import annotations

from collections import Counter
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
        # z is neither x nor y, so edge_key's self-loop check is inlined away
        common = {z for z in common if ((x, z) if x < z else (z, x)) not in avoid
                  and ((y, z) if y < z else (z, y)) not in avoid}
    if len(common) <= s or (bound is not None and min(x, min(common)) > bound):
        return None
    group = _first_independent_subset(g, common, s + 1)
    return None if group is None else _sdiamond_occurrence(x, y, group, s)


def _clusters_neighbourhood(g: Graph, x: int, twin_key) -> bool:
    """True iff G[N(x)] is a disjoint union of cliques.

    A block member z passes when (N(z) & N(x)) | {z} = N[z] & N(x) is the
    block, so one member per twin_key (equal keys, equal N[z]) is tested,
    and members twinned with the popped y pass by definition."""
    nx = g.neighbors(x)
    rest = set(nx)
    while rest:
        y = rest.pop()
        others = g.neighbors(y) & nx
        if not others:  # y alone is a block
            continue
        block = others | {y}
        tested = {twin_key(y)}
        for z in others:
            key = twin_key(z)
            if key not in tested:
                if (g.neighbors(z) & nx) | {z} != block:
                    return False
                tested.add(key)
        rest -= others
    return True


def _edges_among(g: Graph, centres: set[int] | frozenset[int], vertices) -> list[tuple[int, int]]:
    """The edges between centres, ascending: the centre edges inside
    vertices, a union of components that holds centres."""
    edges = sorted((x, y) for x in centres for y in g.neighbors(x) & centres if x < y)
    if debug_assertions_enabled():
        for x, y in {(x, y) for x in vertices for y in g.neighbors(x) if x < y}.difference(edges):
            common = g.neighbors(x) & g.neighbors(y)
            debug_check(all(common - {z} <= g.neighbors(z) for z in common),
                        f"edge {x}-{y} left out, but its common neighbourhood has a non-edge")
    return edges


def _kept_centres(g: Graph) -> tuple[frozenset[int], tuple[tuple[int, int], ...]]:
    """The centre vertices of g and the edges among them: the vertices of
    degree > 2 with an unclustered neighbourhood, one test per twin class
    (twins share N[v], and so their degree)."""
    classes = g.twin_classes()
    centres: set[int] = set()
    for v, twin in classes.items():   # ascending, so a class's smallest vertex comes first
        if twin in centres or (twin == v and g.degree(v) > 2
                               and not _clusters_neighbourhood(g, v, classes.__getitem__)):
            centres.add(v)
    return frozenset(centres), tuple(_edges_among(g, centres, classes))


def centre_edges(g: Graph) -> list[tuple[int, int]]:
    """The edges of g, in g.edges() order, that may be the middle edge of
    an s-diamond: both ends have degree > 2 and an unclustered neighbourhood.

    The neighbourhood test runs once per class of g.twin_classes(), and
    the centre vertices and edges are kept until g changes; each call
    returns a fresh list.
    """
    return list(g.memo("centre_edges", _kept_centres)[1])


def is_family_free(g: Graph, fam: FamilySpec, within: set[int] | None = None) -> bool:
    """True iff g, or g[within] for a union within of components of g, has
    no induced occurrence of fam; tested in place (see the module docstring).
    Fewer vertices than fam.smallest_pattern decide it at once."""
    if (g.n if within is None else len(within)) < fam.smallest_pattern:
        return True
    if fam.sdiamond is not None:
        vertices = g.vertex_set() if within is None else within
        centres = g.memo("centre_edges", _kept_centres)[0] & vertices
        if any(_first_centred(g, x, y, fam.sdiamond, ()) is not None
               for x, y in _edges_among(g, centres, vertices)):
            return False
    return fam.clique is None or next(
        iter_clique_occurrences(g, fam.clique, within=within), None) is None


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


def iter_clique_occurrences(g: Graph, t: int, avoid_edges: frozenset | set | None = None,
                            within: set[int] | None = None) -> Iterator[PatternOccurrence]:
    """All induced K_t of g (avoiding avoid_edges, inside within, if given), ascending tuples."""
    avoid = avoid_edges or ()
    verts = g.vertices if within is None else sorted(within)

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
        avoid = avoid_edges or ()
        best: PatternOccurrence | None = None
        for x, y in centre_edges(g):
            occ = _first_centred(g, x, y, fam.sdiamond, avoid,
                                 best.vertices[0] if best is not None else None)
            if occ is not None and (best is None or occ.vertices < best.vertices):
                best = occ
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

    loads() maps each edge to the number of entries holding it.  The map is
    built on its first call and kept current from then on by every entry
    change, so an index that never asks for it pays no upkeep.

    A copy shares g and owns its entries, mask and loads.  Once a copy
    changes g, the original is stale until g is back as it last saw it,
    which is how solve_branching uses copies.
    """

    def __init__(self, g: Graph, fam: FamilySpec) -> None:
        self.g = g
        self.fam = fam
        self.avoid: set[tuple[int, int]] = set()
        self._at: dict[tuple[int, int], PatternOccurrence] = {}
        self._loads: dict[tuple[int, int], int] | None = None
        if fam.sdiamond is not None:
            self._refresh(centre_edges(g))

    def _refresh(self, pairs) -> None:
        """Recompute the entries at pairs; a masked centre edge has none."""
        at, g, s, avoid, loads = self._at, self.g, self.fam.sdiamond, self.avoid, self._loads
        for p in pairs:
            occ = _first_centred(g, *p, s, avoid) if p not in avoid and g.has_edge(*p) else None
            old = at.get(p)
            if occ is None:
                at.pop(p, None)
            else:
                at[p] = occ
            if loads is not None:
                if old is not None:
                    for e in old.edges:
                        loads[e] -= 1
                if occ is not None:
                    for e in occ.edges:
                        loads[e] = loads.get(e, 0) + 1

    def _toggled(self, u: int, v: int) -> None:
        """Refresh the entries pair uv can change."""
        if self.fam.sdiamond is not None:
            common = sorted(self.g.neighbors(u) & self.g.neighbors(v))
            self._refresh([edge_key(u, v)]
                          + [edge_key(w, c) for w in (u, v) for c in common]
                          + list(combinations(common, 2)))

    def remove_edge(self, u: int, v: int) -> None:
        if not self.g.has_edge(u, v):
            raise ValueError(f"no edge {u}-{v} to remove")
        self.g.remove_edge(u, v)
        self._toggled(u, v)

    def add_edge(self, u: int, v: int) -> None:
        self.g.add_edge(u, v)
        self._toggled(u, v)

    def mask(self, edges: set[tuple[int, int]]) -> None:
        """Add edges to the avoid mask; only entries that meet them change."""
        self.avoid |= edges
        self._refresh([key for key, occ in self._at.items()
                       if not occ.edges.isdisjoint(edges)])

    def copy(self) -> "OccurrenceIndex":
        twin = OccurrenceIndex.__new__(OccurrenceIndex)
        twin.g, twin.fam = self.g, self.fam
        twin.avoid = set(self.avoid)
        twin._at = dict(self._at)
        twin._loads = None if self._loads is None else dict(self._loads)
        return twin

    def loads(self) -> dict[tuple[int, int], int]:
        """Per edge, the number of entries holding it (the caller must not
        change the map).  An edge that no entry holds may read 0 or be
        missing."""
        if self._loads is None:
            self._loads = dict(self._recount())
        elif debug_assertions_enabled():
            # Counter equality treats a missing edge as a count of 0
            debug_check(Counter(self._loads) == self._recount(),
                        "the kept loads disagree with a recount of the entries")
        return self._loads

    def _recount(self) -> Counter:
        return Counter(e for occ in self._at.values() for e in occ.edges)

    def first(self) -> PatternOccurrence | None:
        occ = min(self._at.values(), key=attrgetter("vertices"), default=None)
        if occ is None and self.fam.clique is not None:
            occ = next(iter_clique_occurrences(self.g, self.fam.clique, self.avoid), None)
        if debug_assertions_enabled():
            debug_check(occ == find_induced_occurrence(self.g, self.fam, self.avoid),
                        "the occurrence index disagrees with the scan")
        return occ


# -- core membership (not-necessarily-induced containment) ------------------

def is_core_member_edge(g: Graph, e: tuple[int, int], fam: FamilySpec) -> bool:
    """True iff e lies in a diamond subgraph (or a K_t when the family has one)."""
    return not non_core_edges(g, (e,), fam)


def non_core_edges(g: Graph, edges, fam: FamilySpec) -> list[tuple[int, int]]:
    """The edges of edges, in their order, that lie in no diamond subgraph
    (nor in a K_t when the family has one): one call for a whole sweep.

    A 4-vertex span with at least 5 edges is a diamond or a K4, and either
    way every one of its edges lies in a diamond subgraph, so the diamond
    test asks whether some {x, y, a, b} spans at least 5 edges.  Only one
    of xa, xb, ya, yb, ab may be missing, and a vertex outside
    C = N(x) & N(y) misses one of x, y.  So such a pair exists iff
    |C| >= 2 (take a, b in C), or C = {a} and a has a neighbour b in
    (N(x) | N(y)) - {x, y, a}.  That is an O(deg) test instead of a walk
    over all pairs of the neighbourhood.  A K_t through xy needs t - 2
    common neighbours, so once |C| <= 1 only t = 3 with |C| = 1 is left;
    for t >= 4 a K_t contains a K4 and the diamond test already decides.
    """
    if fam.sdiamond != 1:
        raise FamilyError(
            f"core membership is implemented for the plain diamond families, got {fam.token()}")
    triangles = fam.clique == 3
    neighbors, out = g.neighbors, []
    for e in edges:
        x, y = e
        nx, ny = neighbors(x), neighbors(y)
        if y not in nx:
            raise ValueError(f"edge {e} not in graph")
        common = nx & ny
        if len(common) == 1 and not triangles:
            (a,) = common
            core = not neighbors(a).isdisjoint((nx | ny) - {x, y, a})
        else:   # a K_3 through xy needs one common neighbour
            core = bool(common)
        if not core:
            out.append(e)
    return out


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


def _pack(work: OccurrenceIndex, k: int, fixed, choose) -> PackingResult:
    """Pack choose(work) until k+1 occurrences are packed, one has no edge
    outside fixed, or none is left, masking each one's unfixed edges in work."""
    packing_edges: set[tuple[int, int]] = set()
    occurrences: list[PatternOccurrence] = []
    while (occ := choose(work)) is not None:
        occurrences.append(occ)
        unfixed = occ.edges.difference(fixed)
        if not unfixed or len(occurrences) >= k + 1:
            return PackingResult(True, packing_edges | unfixed, occurrences)
        packing_edges |= unfixed
        work.mask(unfixed)
    return PackingResult(False, packing_edges, occurrences)


def greedy_packing(g: Graph, k: int, fam: FamilySpec) -> PackingResult:
    """Pack edge-disjoint induced occurrences of fam in g.

    Each iteration takes the lexicographically first induced occurrence of
    g that shares no edge with packing_edges.  Stops with budget_exceeded
    as soon as k+1 occurrences are packed; otherwise the packing is
    maximal, so every induced occurrence of g intersects packing_edges.
    The modulator, and so every kernel, depends on this order.

    Note the candidates are induced occurrences of g itself, not of the
    edge-deleted remainder: an induced diamond of g - X whose missing pair
    is an edge of g sitting in X is a K4 of g, and a solution need not
    touch it, so counting it toward the k+1 threshold would flip yes
    instances to no.
    """
    result = _pack(OccurrenceIndex(g, fam), k, (), OccurrenceIndex.first)
    if not result.budget_exceeded:
        packing_edges = result.packing_edges
        debug_check(len(packing_edges) <= max_edges_per_occurrence(fam) * max(k, 0),
                    "packing edge count exceeds the per-occurrence bound")
        if debug_assertions_enabled():
            debug_check(find_induced_occurrence(g, fam, packing_edges) is None,
                        "an occurrence is edge-disjoint from a maximal packing")
    return result


def fewest_conflicts_packing(index: OccurrenceIndex, k: int,
                             fixed: frozenset | set) -> PackingResult:
    """Pack index entries with pairwise disjoint unfixed edges, fewest
    conflicts first: the min-degree greedy for independent sets on their
    conflict graph (Halldorsson & Radhakrishnan, Algorithmica 1997).

    An entry's count sums index.loads() over its edges outside fixed: an
    unfixed edge's load is the number of entries holding it; ties go to
    the smaller vertex tuple.  The pick's unfixed edges are masked in a
    copy of index, which leaves the caller's index as it was (its loads
    are kept from this call on), and the copy's mask keeps its loads
    current, so no pick recounts them.  An entry with only fixed edges
    counts 0, so it is taken first and stops with budget_exceeded, as do
    k+1 picks.  K_t items fall back to first() once no entry is left.
    """
    def choose(work: OccurrenceIndex) -> PatternOccurrence | None:
        if not work._at:
            return work.first()
        load = work.loads().__getitem__
        if fixed:
            return min(work._at.values(), key=lambda occ: (
                sum(map(load, occ.edges.difference(fixed))), occ.vertices))
        return min(work._at.values(), key=lambda occ: (sum(map(load, occ.edges)), occ.vertices))

    index.loads()
    return _pack(index.copy(), k, fixed, choose)


# -- maximal clique partitioning --------------------------------------------

def clique_partition(g: Graph) -> list[set[int]]:
    """The unique maximal-clique partitioning of a diamond-free graph.

    Every edge lies in exactly one returned set; isolated vertices appear
    as singletons.  Sets are ordered by their sorted vertex tuples.
    """
    witness = find_induced_occurrence(g, FamilySpec.diamond())
    if witness is not None:
        raise NotDiamondFreeError(witness)
    # In a diamond-free graph the cliques of a vertex partition its
    # neighbourhood, and the one through an edge uv is {u, v} with their
    # common neighbourhood; each is kept at its smallest vertex.
    cliques: list[set[int]] = []
    for v in g.vertices:
        nbrs = g.neighbors(v)
        if not nbrs:
            cliques.append({v})
        rest = {w for w in nbrs if w > v}
        while rest:
            u = min(rest)
            clique = {v, u} | (nbrs & g.neighbors(u))
            rest -= clique
            if min(clique) == v:
                cliques.append(clique)
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
