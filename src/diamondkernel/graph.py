"""Undirected simple graph over stable integer vertex ids.

Adjacency sets are used throughout: the reduction rules repeatedly delete
vertices and edges, which must stay cheap, and iteration is always in
ascending id order so every run of the toolkit is reproducible.  Vertex ids
are never recycled; fresh vertices (vertex-split) come from a monotone
counter.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .checks import debug_assertions_enabled, debug_check
from .errors import UnknownVertexError


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered edge: smaller endpoint first."""
    if u == v:
        raise ValueError(f"self-loop {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    def __init__(self, adj: dict[int, set[int]] | None = None, next_id: int = 0) -> None:
        """N(v) is adj[v], not copied: symmetric, no self-loops, ids < next_id."""
        self._adj: dict[int, set[int]] = {} if adj is None else adj
        self._next_id = next_id
        self._memo: dict[str, object] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on vertices 0..n-1 with the given edges."""
        return cls.from_vertices_and_edges(range(n), edges)

    @classmethod
    def from_vertices_and_edges(cls, vertices: Iterable[int],
                                edges: Iterable[tuple[int, int]]) -> "Graph":
        g = cls()
        for v in vertices:
            g.add_vertex_with_id(v)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def copy(self) -> "Graph":
        return Graph({v: set(nbrs) for v, nbrs in self._adj.items()}, self._next_id)

    # -- mutation ----------------------------------------------------------

    def add_vertex(self) -> int:
        """Create a fresh vertex with an id never used before."""
        v = self._next_id
        self._adj[v] = set()
        self._next_id += 1
        self._memo.clear()
        return v

    def add_vertex_with_id(self, v: int) -> int:
        if v < 0:
            raise ValueError(f"negative vertex id {v}")
        if v in self._adj:
            raise ValueError(f"duplicate vertex id {v}")
        self._adj[v] = set()
        if v >= self._next_id:
            self._next_id = v + 1
        self._memo.clear()
        return v

    # Mutations check their vertices first; a bulk removal of nothing keeps the memo.
    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop {u}")
        adj = self._adj
        if u not in adj or v not in adj:
            raise UnknownVertexError(v if u in adj else u)
        adj[u].add(v)
        adj[v].add(u)
        if self._memo:
            self._memo.clear()

    def remove_edge(self, u: int, v: int) -> None:
        adj = self._adj
        if u not in adj or v not in adj:
            raise UnknownVertexError(v if u in adj else u)
        adj[u].discard(v)
        adj[v].discard(u)
        self._memo.clear()

    def remove_vertex(self, v: int) -> None:
        self.remove_vertices((v,))

    def remove_edges(self, edges: Iterable[tuple[int, int]]) -> None:
        adj, edges = self._adj, list(edges)
        if unknown := set().union(*edges) - adj.keys():
            raise UnknownVertexError(min(unknown))
        for u, v in edges:
            adj[u].discard(v)
            adj[v].discard(u)
        if edges and self._memo:
            self._memo.clear()

    def remove_vertices(self, vs: Iterable[int]) -> None:
        adj, gone = self._adj, set(vs)
        if unknown := gone - adj.keys():
            raise UnknownVertexError(min(unknown))
        for v in gone:
            for u in adj.pop(v) - gone:
                adj[u].discard(v)
        if gone and self._memo:
            self._memo.clear()

    # -- queries -----------------------------------------------------------

    def _require(self, v: int) -> None:
        if v not in self._adj:
            raise UnknownVertexError(v)

    @property
    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def vertex_set(self) -> set[int]:
        return set(self._adj)

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def neighbors(self, v: int) -> set[int]:
        if v not in self._adj:
            raise UnknownVertexError(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        if v not in self._adj:
            raise UnknownVertexError(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Canonical edge iteration: ascending (u, v) with u < v."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def edge_set(self) -> set[tuple[int, int]]:
        return set(self.edges())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def memo(self, key: str, compute: Callable[["Graph"], object]) -> object:
        """compute(self), a value no caller can edit, kept until the next
        mutation; under debug assertions a kept value is checked afresh.
        Keys: "twin_classes", and "centre_edges" (patterns), the one source
        of centre vertices for the scan, the index and is_family_free."""
        if key not in self._memo:
            self._memo[key] = compute(self)
        elif debug_assertions_enabled():
            debug_check(self._memo[key] == compute(self), f"kept {key} is stale")
        return self._memo[key]

    def twin_classes(self) -> Mapping[int, int]:
        """Each vertex, ascending, mapped to the smallest vertex with the
        same closed neighbourhood N[v]: its class of true twins."""
        first: dict[frozenset[int], int] = {}
        return self.memo("twin_classes", lambda g: MappingProxyType(
            {v: first.setdefault(frozenset(g._adj[v]) | {v}, v) for v in sorted(g._adj)}))

    # -- derived graphs ----------------------------------------------------

    def induced_subgraph(self, vs: Iterable[int]) -> "Graph":
        """g[vs], preserving ids; edge kept iff both endpoints lie in vs."""
        keep = set(vs)
        for v in keep:
            self._require(v)
        return Graph({v: self._adj[v] & keep for v in keep}, self._next_id)

    def complement_restricted(self, vs: Iterable[int]) -> "Graph":
        """Graph on vs whose edges are exactly the non-edges of g[vs]."""
        keep = set(vs)
        for v in sorted(keep):
            self._require(v)
        return Graph({v: keep - self._adj[v] - {v} for v in keep}, self._next_id)

    # -- connectivity ------------------------------------------------------

    def connected_components(self, within: set[int] | None = None) -> list[set[int]]:
        """Partition of the vertices, or of within, into the maximal
        connected sets of g or g[within], ordered by smallest member id."""
        unseen = set(self._adj if within is None else within)
        components = []
        for start in sorted(unseen):
            if start in unseen:   # an isolated vertex needs no walk; the walk refuses an unknown one
                components.append(self.component(start, unseen) if self._adj.get(start, True)
                                  else {start})
        return components

    def component(self, v: int, within: set[int]) -> set[int]:
        """The vertices connected to v, v included, in g[within].  The walk
        takes the vertices it reaches out of within, so the components of
        one set cost one pass over it and its edges."""
        self._require(v)
        comp = {v}
        stack = [v]
        within.discard(v)
        while stack:
            found = self._adj[stack.pop()] & within
            within -= found
            comp |= found
            stack.extend(found)
        return comp

    def neighborhood_components(self, v: int) -> list[set[int]]:
        """Connected components of g[N(v)], ordered by smallest member id."""
        self._require(v)
        return self.connected_components(self._adj[v])

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check adjacency symmetry, no self-loops, closed endpoint sets."""
        for v, nbrs in self._adj.items():
            if v in nbrs:
                raise AssertionError(f"self-loop at {v}")
            if v >= self._next_id:
                raise AssertionError(f"vertex {v} beyond id counter {self._next_id}")
            for u in nbrs:
                if u not in self._adj:
                    raise AssertionError(f"edge endpoint {u} is not a vertex")
                if v not in self._adj[u]:
                    raise AssertionError(f"asymmetric edge {v}-{u}")
