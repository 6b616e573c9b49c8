"""Exact maximum-cardinality matching in general graphs.

Blossom contraction over a BFS alternating forest, O(V^3).  A greedy
2-approximation is not enough here: the sunflower rule's threshold compares
an exact maximum non-matching against k+1, and the kernel-size constants
assume the rule fires exactly when stated.  maximum_non_matching_size runs
a greedy non-matching first and returns it only where it is provably
maximum; Edmonds' algorithm still decides every other case.
"""

from __future__ import annotations

from collections import deque

from .graph import Graph, edge_key


def maximum_matching(g: Graph) -> set[tuple[int, int]]:
    """Return a maximum matching as a set of canonical edges.

    Deterministic: vertices are processed in ascending id order, so the
    same graph always yields the same matching.
    """
    verts = g.vertices
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    adj = [[idx[w] for w in sorted(g.neighbors(v))] for v in verts]
    match = [-1] * n

    def lca(a: int, b: int, base: list[int], p: list[int]) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, base: list[int], p: list[int],
                  in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def augment_from(root: int) -> bool:
        """BFS from an exposed root; on success flip the path and return True."""
        used = [False] * n
        p = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # Odd cycle through two even vertices: contract the blossom.
                    curbase = lca(v, to, base, p)
                    in_blossom = [False] * n
                    mark_path(v, curbase, to, base, p, in_blossom)
                    mark_path(to, curbase, v, base, p, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        # Exposed far end: alternate the matching back to root.
                        while to != -1:
                            prev = p[to]
                            before = match[prev]
                            match[to] = prev
                            match[prev] = to
                            to = before
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    for root in range(n):
        if match[root] == -1:
            augment_from(root)

    return {edge_key(verts[v], verts[match[v]]) for v in range(n) if match[v] > v}


def maximum_non_matching_size(g: Graph, vs: set[int] | None = None) -> int:
    """Largest set of pairwise vertex-disjoint non-edges of g[vs].

    Equals the maximum matching of the complement restricted to vs, which is
    how the sunflower rule's threshold is evaluated.  A greedy non-matching
    (each vertex in ascending order paired with the smallest free
    non-neighbour) settles two cases exactly: size 0 means g[vs] has no
    non-edge at all, since every vertex was tried against all later ones,
    and size |vs| // 2 is perfect, so nothing larger exists.  Only the cases
    in between need Edmonds' algorithm on the complement, and it is what
    keeps the threshold exact there.
    """
    if vs is None:
        vs = g.vertex_set()
    free = set(vs)
    greedy = 0
    for u in sorted(vs):
        if u not in free:
            continue
        free.discard(u)
        partners = free - g.neighbors(u)
        if partners:
            free.discard(min(partners))
            greedy += 1
    if greedy == 0 or greedy == len(vs) // 2:
        return greedy
    return len(maximum_matching(g.complement_restricted(vs)))
