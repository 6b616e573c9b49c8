"""Instance file format.

DIMACS-flavored, UTF-8, LF:

    c optional comment lines
    p dfed <n> <m> <k> <family>
    e <u> <v>

Vertex ids are 0-based and must be smaller than n; m must match the number
of edge lines, and n may not exceed MAX_VERTICES.  The family token is a
comma-separated list of items: "diamond", "<s>-diamond", or "k<t>" (e.g.
"diamond,k4").
"""

from __future__ import annotations

from .errors import FamilyError, ParseError
from .family import FamilySpec
from .graph import Graph, edge_key
from .phase1 import Instance

# The graph holds one adjacency set per vertex named in the header, about
# 250 bytes each before any edge is read, so the header's n is capped.
MAX_VERTICES = 1_000_000


def parse_instance(text: str) -> Instance:
    header = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ParseError("duplicate header line", lineno)
            if len(fields) != 6 or fields[1] != "dfed":
                raise ParseError("header must be 'p dfed <n> <m> <k> <family>'", lineno)
            try:
                n, m, k = int(fields[2]), int(fields[3]), int(fields[4])
            except ValueError:
                raise ParseError("n, m, k must be integers", lineno)
            if n < 0 or m < 0 or k < 0:
                raise ParseError("n, m, k must be non-negative", lineno)
            if n > MAX_VERTICES:
                raise ParseError(f"n = {n} exceeds the limit of {MAX_VERTICES} vertices", lineno)
            try:
                family = FamilySpec.parse_token(fields[5])
            except FamilyError as exc:
                raise ParseError(str(exc), lineno)
            header = (n, m, k, family)
        elif fields[0] == "e":
            if header is None:
                raise ParseError("edge line before header", lineno)
            if len(fields) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno)
            n = header[0]
            if u == v:
                raise ParseError(f"self-loop at {u}", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"endpoint out of range [0, {n})", lineno)
            e = edge_key(u, v)
            if e in seen:
                raise ParseError(f"duplicate edge {e[0]} {e[1]}", lineno)
            seen.add(e)
            edges.append(e)
        else:
            raise ParseError(f"unrecognized line type {fields[0]!r}", lineno)
    if header is None:
        raise ParseError("missing header line")
    n, m, k, family = header
    if len(edges) != m:
        raise ParseError(f"header claims {m} edges, found {len(edges)}")
    return Instance(Graph.from_edges(n, edges), k, family)


def serialize_instance(inst: Instance) -> str:
    """Canonical text form; vertex ids are normalized to 0..n-1 in ascending
    order of the original ids, so parse(serialize(x)) round-trips exactly
    for normalized instances."""
    relabel = {v: i for i, v in enumerate(inst.graph.vertices)}
    edges = sorted(edge_key(relabel[u], relabel[v]) for u, v in inst.graph.edges())
    lines = [f"p dfed {inst.graph.n} {len(edges)} {inst.k} {inst.family.token()}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
