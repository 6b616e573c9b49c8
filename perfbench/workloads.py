"""The benchmark's workloads: seeded inputs, reference answers, the timed
operation, and the output check.

Every input is generated from the run's seed at set-up.  Each case carries
a reference answer that the code under test does not produce: a yes/no
answer known by construction, a deletion set found by this file's own
diamond search, or a vertex-cover optimum from the brute-force oracle.
The library is driven only through its public functions, looked up on
the package at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import diamondkernel as dk

@dataclass
class Case:
    label: str
    payload: object    # what the timed operation receives
    expected: bool     # kernel workloads: decided no; solve-vc: feasible
    vertices: int      # input size, for kernel_ratio


# -- reference answers computed without the code under test -------------------

def _adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _diamond_middle_edge(adj: dict[int, set[int]]) -> tuple[int, int] | None:
    """An edge xy with two non-adjacent common neighbours, or None."""
    for x in sorted(adj):
        for y in sorted(adj[x]):
            if y < x:
                continue
            common = sorted(adj[x] & adj[y])
            for a, b in combinations(common, 2):
                if b not in adj[a]:
                    return x, y
    return None


def greedy_deletion_count(edges) -> int:
    """Size of a diamond-free deletion set: delete a diamond's middle edge
    until no induced diamond is left.  Any deletion set's size is a budget
    at which the instance is a yes-instance."""
    adj = _adjacency(edges)
    count = 0
    while (e := _diamond_middle_edge(adj)) is not None:
        x, y = e
        adj[x].discard(y)
        adj[y].discard(x)
        count += 1
    return count


def paper_vertex_bound(k: int) -> int:
    """The paper's kernel bound for the diamond family, 152k^3 + 70k^2 + 7k."""
    return 0 if k <= 0 else 152 * k ** 3 + 70 * k ** 2 + 7 * k


def _relabelled(g, rng: random.Random):
    """A copy of g on vertices 0..n-1 under a seeded random permutation."""
    verts = g.vertices
    perm = list(range(len(verts)))
    rng.shuffle(perm)
    new = {v: perm[i] for i, v in enumerate(verts)}
    return dk.Graph.from_edges(len(verts), [(new[u], new[v]) for u, v in g.edges()])


# -- kernel workloads ---------------------------------------------------------

def _kernel_case(label: str, g, k: int, decided_no: bool) -> Case:
    text = dk.serialize_instance(dk.Instance(g, k, dk.FamilySpec.diamond()))
    return Case(label, text, decided_no, g.n)


def build_kernel_sparse(seed: int, params: dict) -> list[Case]:
    """Planted chains of cliques (yes by construction at the planted budget)
    and sparse G(n, d/n) graphs at the budget of a greedy deletion set."""
    rng = random.Random(seed)
    size = params["clique_size"]
    cases = []
    for count in params["chain_cliques"]:
        layout = dk.clique_layout([size] * count, "chain")
        n = size + (size - 1) * (count - 1)
        extra = max(1, n // params["vertices_per_extra_edge"])
        inst = dk.gen_planted_yes(layout, extra, rng.getrandbits(32))
        cases.append(_kernel_case(f"chain{count}x{size}", inst.graph, inst.k, False))
    for n, copies in params["gnp"]:
        for _ in range(copies):
            g = dk.gen_gnp(n, params["gnp_degree"] / n, rng.getrandbits(32))
            k = greedy_deletion_count(g.edges())
            cases.append(_kernel_case(f"gnp{n}", g, k, False))
    rng.shuffle(cases)
    return cases


def apex_gadgets(copies: int, clique: int):
    """`copies` disjoint gadgets: a clique joined to an adjacent apex pair
    a, b, plus pendant vertices p, q with edges ap, aq, bp, pq.

    Every induced diamond of a gadget contains the edge ap, and the gadgets
    are vertex-disjoint, so the minimum deletion set has exactly `copies`
    edges: budget `copies` is a yes-instance and `copies - 1` a no-instance.
    """
    g = dk.Graph()
    for _ in range(copies):
        members = [g.add_vertex() for _ in range(clique)]
        for u, v in combinations(members, 2):
            g.add_edge(u, v)
        a, b, p, q = (g.add_vertex() for _ in range(4))
        for v in members:
            g.add_edge(v, a)
            g.add_edge(v, b)
        for u, v in ((a, b), (a, p), (a, q), (b, p), (p, q)):
            g.add_edge(u, v)
    return g


def build_kernel_dense(seed: int, params: dict) -> list[Case]:
    """Apex gadgets with cliques above 4k (yes at k = copies, decided no at
    copies - 1) and the hard structures, where no rule fires (yes: deleting
    the middle edge of the hub diamond leaves the graph diamond-free)."""
    rng = random.Random(seed)
    cases = []
    for copies, clique, draws in params["gadgets"]:
        if clique - 1 <= 4 * copies:
            raise ValueError(f"gadget clique {clique} too small for clique reduction at k={copies}")
        g = apex_gadgets(copies, clique)
        label = f"gadget{copies}x{clique}"
        for _ in range(draws):
            cases.append(_kernel_case(f"{label}/yes", _relabelled(g, rng), copies, False))
            cases.append(_kernel_case(f"{label}/no", _relabelled(g, rng), copies - 1, True))
    for k in params["hard_k"]:
        inst = dk.gen_hard_structure(k)
        cases.append(_kernel_case(f"hard{k}", _relabelled(inst.graph, rng), inst.k, False))
    rng.shuffle(cases)
    return cases


def run_kernel(text: str):
    """The timed operation: parse, kernelize, serialize the kernel."""
    outcome = dk.kernelize(dk.parse_instance(text))
    kernel = None if outcome.decided_no else dk.serialize_instance(outcome.kernel)
    return outcome.decided_no, kernel, outcome.report.rule_firings


def _header(text: str) -> tuple[int, int, int]:
    fields = text.split("\n", 1)[0].split()
    if len(fields) != 6 or fields[:2] != ["p", "dfed"] or fields[5] != "diamond":
        raise ValueError(f"bad instance header {fields}")
    return int(fields[2]), int(fields[3]), int(fields[4])


def check_kernel(case: Case, output) -> str | None:
    decided_no, kernel, _ = output
    if decided_no != case.expected:
        return f"decided_no={decided_no}, expected {case.expected}"
    if kernel is None:
        return None
    n, m, k = _header(kernel)
    _, _, k_in = _header(case.payload)
    if k > k_in:
        return f"kernel budget {k} above input budget {k_in}"
    if sum(1 for line in kernel.splitlines() if line.startswith("e ")) != m:
        return "kernel edge count disagrees with its header"
    if n > paper_vertex_bound(k):
        return f"kernel has {n} vertices, bound {paper_vertex_bound(k)} at k={k}"
    return None


def kernel_facts(case: Case, output) -> list:
    decided_no, kernel, firings = output
    shape = list(_header(kernel)) if kernel is not None else None
    return [case.label, decided_no, shape, sorted(firings.items())]


def kernel_vertices(output) -> int | None:
    """Vertices of the emitted kernel, or None when the instance was decided no."""
    return None if output[1] is None else _header(output[1])[0]


# -- solve-vc -----------------------------------------------------------------

def build_solve_vc(seed: int, params: dict) -> list[Case]:
    """Small G(n, p) base graphs with a prescribed edge count and vertex
    cover number; each gives a yes case at k0 = VC and a no case at VC - 1,
    so the reduced budget is m0 + k0."""
    rng = random.Random(seed)
    cases = []
    for n0, m0, vc, copies in params["base_graphs"]:
        p = m0 / (n0 * (n0 - 1) / 2)
        for _ in range(copies):
            for _ in range(params["max_draws"]):
                g0 = dk.gen_gnp(n0, p, rng.getrandbits(32))
                if g0.m == m0 and dk.brute_force_vertex_deletion(g0, "vertex-cover", vc) == vc:
                    break
            else:
                raise ValueError(f"no G({n0}, p) draw with {m0} edges and vertex cover {vc}")
            label = f"vc{n0}/{m0}/{vc}"
            cases.append(Case(f"{label}/yes", (g0, vc), True, g0.n))
            cases.append(Case(f"{label}/no", (g0, vc - 1), False, g0.n))
    rng.shuffle(cases)
    return cases


def run_solve_vc(payload):
    """The timed operation: reduce, branch, lift the solution back."""
    g0, k0 = payload
    inst, trace = dk.reduce_vc_to_sdfed(g0, k0, s=1)
    sol = dk.solve_branching(inst)
    cover = dk.lift_solution(trace, sol) if sol.feasible else None
    return sol.feasible, cover, None if sol.delete_set is None else len(sol.delete_set)


def check_solve_vc(case: Case, output) -> str | None:
    feasible, cover, _ = output
    if feasible != case.expected:
        return f"feasible={feasible}, expected {case.expected}"
    if cover is None:
        return None
    g0, k0 = case.payload
    if len(cover) > k0 or not cover <= g0.vertex_set():
        return f"lifted cover {sorted(cover)} is not a vertex set of size <= {k0}"
    missed = [(u, v) for u, v in g0.edges() if u not in cover and v not in cover]
    return f"lifted cover misses edges {missed}" if missed else None


def solve_vc_facts(case: Case, output) -> list:
    feasible, cover, deletions = output
    return [case.label, feasible, deletions, None if cover is None else sorted(cover)]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, dict], list[Case]]       # (seed, params) -> cases
    run: Callable[[object], tuple]                 # the timed operation
    check: Callable[[Case, tuple], str | None]     # a problem, or None
    facts: Callable[[Case, tuple], list]           # deterministic output record
    kernel_vertices: Callable[[tuple], int | None] | None  # None: emits no kernels


WORKLOADS = {
    "kernel-sparse": Workload("kernel-sparse", build_kernel_sparse, run_kernel,
                              check_kernel, kernel_facts, kernel_vertices),
    "kernel-dense": Workload("kernel-dense", build_kernel_dense, run_kernel,
                             check_kernel, kernel_facts, kernel_vertices),
    "solve-vc": Workload("solve-vc", build_solve_vc, run_solve_vc,
                         check_solve_vc, solve_vc_facts, None),
}
