"""Instance file format.

DIMACS-flavored, UTF-8, lines ended by LF alone (CRLF works too):

    c optional comment lines (first token exactly "c")
    p dfed <n> <m> <k> <family>
    e <u> <v>

n, m, k and the endpoints are ASCII decimal integers; a leading "-" is read
and then refused.  Vertex ids are 0-based and must be smaller than n; m must
match the number of edge lines, and the first edge line past m is refused
without reading on; n and m may not exceed MAX_VERTICES and MAX_EDGES.
The family token is a comma-separated list of items: "diamond",
"<s>-diamond", or "k<t>" (e.g. "diamond,k4").

A file in the canonical form that serialize_instance writes (the header on
line 1, then "e <u> <v>" lines with single spaces, every line ended by LF)
is read in one sweep: each slice of edge lines is checked by one regular
expression and converted in bulk.  Every other file, and every file with
an error, goes through the line reader, the only source of a ParseError.
"""

from __future__ import annotations

import re

from .errors import FamilyError, ParseError
from .family import FamilySpec
from .graph import Graph
from .phase1 import Instance

# The graph holds one adjacency set per vertex named in the header, about
# 250 bytes each before any edge is read, so the header's n is capped.
# Kernelizing peaks at about 630 bytes per edge, so m is capped too.
MAX_VERTICES = 1_000_000
MAX_EDGES = 2_000_000

_CANONICAL_HEADER = re.compile(r"p dfed ([0-9]+) ([0-9]+) ([0-9]+) ([0-9a-z,-]+)")
_CANONICAL_EDGES = re.compile(r"(?:e [0-9]+ [0-9]+\n)*")
# The sweep converts the edge lines in slices of at most this many
# characters, cut at line ends, so its token lists never cover the file.
_SLICE = 1 << 16


def _integer(token: str) -> int:
    """int(token) for ASCII digits after an optional "-", else ValueError."""
    if not (token.removeprefix("-").isdigit() and token.isascii()):
        raise ValueError(token)
    return int(token)


def parse_instance(text: str) -> Instance:
    inst = _parse_canonical(text)
    return _parse_lines(text) if inst is None else inst


def _parse_canonical(text: str) -> Instance | None:
    """The instance of a valid file in the canonical form, read in one
    sweep; None for any other text.  Edges go into the adjacency sets in
    line order, as the line reader puts them, so every set iterates alike."""
    if not text.endswith("\n"):
        return None
    head_end = text.find("\n")
    if (header := _CANONICAL_HEADER.fullmatch(text, 0, head_end)) is None:
        return None
    try:
        n, m, k = map(int, header.group(1, 2, 3))
        family = FamilySpec.parse_token(header[4])
    except (ValueError, FamilyError):   # int() refuses over 4,300 digits
        return None
    if n > MAX_VERTICES or m > MAX_EDGES or text.count("\n", head_end + 1) != m:
        return None
    adj: list[set[int]] = [set() for _ in range(n)]
    start = head_end + 1
    while start < len(text):
        end = text.rfind("\n", start, start + _SLICE) + 1
        if end <= start or _CANONICAL_EDGES.fullmatch(text, start, end) is None:
            return None
        tokens = text[start:end].split()
        del tokens[::3]   # the "e" tokens
        try:
            ends = list(map(int, tokens))
        except ValueError:
            return None
        if max(ends) >= n or any(map(int.__eq__, ends[::2], ends[1::2])):
            return None
        pairs = iter(ends)
        for u, v in zip(pairs, pairs):
            adj[u].add(v)
            adj[v].add(u)
        start = end
    if sum(map(len, adj)) != 2 * m:   # a duplicate edge
        return None
    return Instance(Graph(dict(enumerate(adj)), n), k, family)


def _parse_lines(text: str) -> Instance:
    """The line reader: any valid file, and every ParseError."""
    header = None
    adj: list[set[int]] = []   # N(v) for v in 0..n-1, filled as edges are read
    read = 0   # edge lines so far, each a new edge
    for lineno, raw in enumerate(text.split("\n"), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            if header is not None:
                raise ParseError("duplicate header line", lineno)
            if len(fields) != 6 or fields[1] != "dfed":
                raise ParseError("header must be 'p dfed <n> <m> <k> <family>'", lineno)
            try:
                n, m, k = _integer(fields[2]), _integer(fields[3]), _integer(fields[4])
            except ValueError:
                raise ParseError("n, m, k must be integers", lineno)
            if n < 0 or m < 0 or k < 0:
                raise ParseError("n, m, k must be non-negative", lineno)
            if n > MAX_VERTICES:
                raise ParseError(f"n = {n} exceeds the limit of {MAX_VERTICES} vertices", lineno)
            if m > MAX_EDGES:
                raise ParseError(f"m = {m} exceeds the limit of {MAX_EDGES} edges", lineno)
            try:
                family = FamilySpec.parse_token(fields[5])
            except FamilyError as exc:
                raise ParseError(str(exc), lineno)
            header = (m, k, family)
            adj = [set() for _ in range(n)]
        elif fields[0] == "e":
            if header is None:
                raise ParseError("edge line before header", lineno)
            if read == m:
                raise ParseError(f"header claims {m} edges, found more", lineno)
            if len(fields) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", lineno)
            try:
                u, v = _integer(fields[1]), _integer(fields[2])
            except ValueError:
                raise ParseError("edge endpoints must be integers", lineno)
            if u == v:
                raise ParseError(f"self-loop at {u}", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"endpoint out of range [0, {n})", lineno)
            if v in adj[u]:
                raise ParseError(f"duplicate edge {min(u, v)} {max(u, v)}", lineno)
            adj[u].add(v)
            adj[v].add(u)
            read += 1
        else:
            raise ParseError(f"unrecognized line type {fields[0]!r}", lineno)
    if header is None:
        raise ParseError("missing header line")
    m, k, family = header
    if read != m:
        raise ParseError(f"header claims {m} edges, found {read}")
    return Instance(Graph(dict(enumerate(adj)), len(adj)), k, family)


def serialize_instance(inst: Instance) -> str:
    """Canonical text form; vertex ids are normalized to 0..n-1 in ascending
    order of the original ids, so parse(serialize(x)) round-trips exactly
    for normalized instances."""
    g = inst.graph
    relabel = {v: i for i, v in enumerate(g.vertices)}   # monotone, so edges() stays ascending
    lines = [f"p dfed {g.n} {g.m} {inst.k} {inst.family.token()}"]
    lines.extend(f"e {relabel[u]} {relabel[v]}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
