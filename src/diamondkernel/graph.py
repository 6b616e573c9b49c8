"""Undirected simple graph over stable integer vertex ids.

Adjacency sets are used throughout: the reduction rules repeatedly delete
vertices and edges, which must stay cheap, and iteration is always in
ascending id order so every run of the toolkit is reproducible.  Vertex ids
are never recycled; fresh vertices (vertex-split) come from a monotone
counter.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import UnknownVertexError


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered edge: smaller endpoint first."""
    if u == v:
        raise ValueError(f"self-loop {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    def __init__(self) -> None:
        self._adj: dict[int, set[int]] = {}
        self._next_id = 0

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
        g = Graph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._next_id = self._next_id
        return g

    # -- mutation ----------------------------------------------------------

    def add_vertex(self) -> int:
        """Create a fresh vertex with an id never used before."""
        v = self._next_id
        self._adj[v] = set()
        self._next_id += 1
        return v

    def add_vertex_with_id(self, v: int) -> int:
        if v < 0:
            raise ValueError(f"negative vertex id {v}")
        if v in self._adj:
            raise ValueError(f"duplicate vertex id {v}")
        self._adj[v] = set()
        if v >= self._next_id:
            self._next_id = v + 1
        return v

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop {u}")
        self._require(u)
        self._require(v)
        self._adj[u].add(v)
        self._adj[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        self._require(u)
        self._require(v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def remove_vertex(self, v: int) -> None:
        self._require(v)
        for u in self._adj[v]:
            self._adj[u].discard(v)
        del self._adj[v]

    def remove_vertices(self, vs: Iterable[int]) -> None:
        for v in sorted(vs):
            self.remove_vertex(v)

    # -- queries -----------------------------------------------------------

    def _require(self, v: int) -> None:
        if v not in self._adj:
            raise UnknownVertexError(v)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

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
        self._require(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._require(v)
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

    # -- derived graphs ----------------------------------------------------

    def induced_subgraph(self, vs: Iterable[int]) -> "Graph":
        """g[vs], preserving ids; edge kept iff both endpoints lie in vs."""
        keep = set(vs)
        for v in keep:
            self._require(v)
        g = Graph()
        g._adj = {v: self._adj[v] & keep for v in keep}
        g._next_id = self._next_id
        return g

    def complement_restricted(self, vs: Iterable[int]) -> "Graph":
        """Graph on vs whose edges are exactly the non-edges of g[vs]."""
        keep = sorted(set(vs))
        for v in keep:
            self._require(v)
        g = Graph()
        for v in keep:
            g.add_vertex_with_id(v)
        g._next_id = self._next_id
        for i, u in enumerate(keep):
            for v in keep[i + 1:]:
                if v not in self._adj[u]:
                    g.add_edge(u, v)
        return g

    # -- connectivity ------------------------------------------------------

    def connected_components(self) -> list[set[int]]:
        """Partition of the vertices into maximal connected sets.

        Components are ordered by their smallest member id.
        """
        seen: set[int] = set()
        components = []
        for start in sorted(self._adj):
            if start not in seen:
                comp = self.component(start)
                seen |= comp
                components.append(comp)
        return components

    def component(self, v: int) -> set[int]:
        """The vertices connected to v, v included."""
        self._require(v)
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in self._adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        return comp

    def neighborhood_components(self, v: int) -> list[set[int]]:
        """Connected components of g[N(v)], ordered by smallest member id."""
        self._require(v)
        return self.induced_subgraph(self._adj[v]).connected_components()

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
