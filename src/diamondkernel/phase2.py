"""Second reduction phase: packing-based modulator, clique-context
classification, the clique-reduction rule, and the kernelization pipeline
shared by both kernelizable families (kernelize).

Kernel-size constants, written out from the counting arguments over the
modulator (packing of at most k occurrences, sunflower threshold 2k+1,
cliques capped at 4k vertices after reduction):

  singleton cliques   <= 5k(2k+1) + C(4k,2)
  larger cliques      <= [5k(2k+1) + C(4k,2)] + 10k(2k+1), each of size <= 4k
  modulator vertices  <= 4k

giving |V| <= 152k^3 + 70k^2 + 7k for the pure diamond family.  For the
mixed family the packing has at most t(t-1)k/2 edges on tk vertices and
every residual clique has fewer than t vertices, giving

  |V| <= tk + [t(t-1)k/2 (2k+1) + C(tk,2)] t + t(t-1)k (2k+1)(t-1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import comb

from .checks import debug_check, debug_assertions_enabled
from .errors import FamilyError, InvariantError
from .family import FamilySpec
from .graph import Graph
from .patterns import clique_partition, greedy_packing, max_edges_per_occurrence
from .phase1 import Instance, RuleLog, run_phase1


# -- size bounds ---------------------------------------------------------------

def dfed_vertex_bound(k: int) -> int:
    """Kernel vertex bound for the pure diamond family: 152k^3 + 70k^2 + 7k."""
    if k <= 0:
        return 0
    return 152 * k ** 3 + 70 * k ** 2 + 7 * k


def dkt_vertex_bound(k: int, t: int) -> int:
    """Kernel vertex bound for the mixed family, O(k^2) for fixed t."""
    if k <= 0:
        return 0
    clique_hosts = t * (t - 1) * k // 2 * (2 * k + 1) + comb(t * k, 2)
    return t * k + clique_hosts * t + t * (t - 1) * k * (2 * k + 1) * (t - 1)


def kernel_vertex_bound(k: int, fam: FamilySpec) -> int:
    if fam.clique is None:
        return dfed_vertex_bound(k)
    return dkt_vertex_bound(k, fam.clique)


# -- modulator -----------------------------------------------------------------

@dataclass
class Modulator:
    """Edge-disjoint packing X, its endpoint set, and the maximal clique
    partitioning of the graph with those endpoints removed."""

    packing_edges: set[tuple[int, int]]
    vertices: set[int]
    cliques: list[set[int]]


def compute_modulator(inst: Instance) -> Modulator | None:
    """Build the modulator, or return None when the packing already shows
    the instance is a no-instance (more than k disjoint occurrences)."""
    inst.family.require_kernelizable()
    result = greedy_packing(inst.graph, inst.k, inst.family)
    if result.budget_exceeded:
        return None
    modulator_vertices = {v for e in result.packing_edges for v in e}
    remainder = inst.graph.copy()
    remainder.remove_vertices(modulator_vertices)
    cliques = clique_partition(remainder)
    mod = Modulator(result.packing_edges, modulator_vertices, cliques)
    if debug_assertions_enabled():
        validate_modulator(inst.graph, mod, inst.k, inst.family)
    return mod


def validate_modulator(g: Graph, mod: Modulator, k: int, fam: FamilySpec) -> None:
    if {v for e in mod.packing_edges for v in e} != mod.vertices:
        raise InvariantError("modulator vertices are not the packing endpoints")
    per_occ_edges = max_edges_per_occurrence(fam)
    per_occ_vertices = max(4, fam.clique or 0)
    if len(mod.packing_edges) > per_occ_edges * max(k, 0):
        raise InvariantError("packing edge set larger than its bound")
    if len(mod.vertices) > per_occ_vertices * max(k, 0):
        raise InvariantError("modulator larger than its bound")


# -- clique contexts -----------------------------------------------------------

@dataclass
class CliqueContext:
    """Outside structure of one clique C of the partitioning.

    full_modulator (A_C): modulator vertices adjacent to all of C.
    single_modulator (D_C): modulator vertices adjacent to exactly one vertex.
    single_outside (B_C): non-modulator outside vertices (each adjacent to
    exactly one vertex of C).
    """

    clique: set[int]
    full_modulator: set[int]
    single_outside: set[int]
    single_modulator: set[int]
    outside_of: dict[int, set[int]] = field(default_factory=dict)    # B_v
    modulator_of: dict[int, set[int]] = field(default_factory=dict)  # D_v


def classify_clique(g: Graph, modulator_vertices: set[int], clique: set[int]) -> CliqueContext:
    """Split the outside neighborhood of a clique into A_C, B_C, D_C.

    Raises InvariantError when vertices straddle the dichotomies the
    modulator guarantees (a modulator vertex adjacent to two but not all
    vertices of C, or an outside non-modulator vertex adjacent to two).
    """
    size = len(clique)
    full_modulator: set[int] = set()
    single_modulator: set[int] = set()
    single_outside: set[int] = set()
    for v in sorted(modulator_vertices):
        cnt = len(g.neighbors(v) & clique)
        if cnt == 0:
            continue
        if cnt == size:
            full_modulator.add(v)
        elif cnt == 1:
            single_modulator.add(v)
        else:
            raise InvariantError(
                f"modulator vertex {v} adjacent to {cnt} of {size} clique vertices")
    for w in g.vertices:
        if w in modulator_vertices or w in clique:
            continue
        cnt = len(g.neighbors(w) & clique)
        if cnt == 0:
            continue
        if cnt > 1:
            raise InvariantError(
                f"outside vertex {w} adjacent to {cnt} clique vertices")
        single_outside.add(w)
    ctx = CliqueContext(set(clique), full_modulator, single_outside, single_modulator)
    for v in clique:
        ctx.outside_of[v] = {w for w in single_outside if g.has_edge(v, w)}
        ctx.modulator_of[v] = {w for w in single_modulator if g.has_edge(v, w)}
    if debug_assertions_enabled() and size > 1:
        for a in full_modulator:
            for b in full_modulator:
                debug_check(a == b or g.has_edge(a, b),
                            "vertices adjacent to all of a clique must form a clique")
    return ctx


def _fixpoint_context_checks(ctx: CliqueContext, g: Graph) -> None:
    """Structure every clique has at a phase-1 fixpoint with a maximal packing."""
    anchored = any(
        g.has_edge(x, y)
        for x in ctx.full_modulator
        for y in (ctx.full_modulator | ctx.single_modulator)
        if x != y)
    debug_check(anchored,
                f"clique {sorted(ctx.clique)} lacks an adjacent modulator anchor pair")
    for v in ctx.clique:
        debug_check(not ctx.outside_of[v] or bool(ctx.modulator_of[v]),
                    f"clique vertex {v} has outside neighbors but no modulator neighbor")


# -- clique reduction ------------------------------------------------------------

def rule_clique_reduction(inst: Instance, mod: Modulator) -> tuple[set[int], set[int]] | None:
    """Shrink the first clique larger than 4k down to its non-local vertices
    plus one retained local representative.

    Local means the whole neighborhood lies inside the clique together with
    A_C.  Deleted vertices belong to no other clique and no pattern can use
    two of them, so the partitioning is patched in place.  Returns the
    clique (pre-deletion copy) and the deleted vertices.
    """
    if inst.family.clique is not None or inst.family.sdiamond != 1:
        raise FamilyError("clique reduction applies only to the pure diamond family")
    k = inst.k
    if k < 0:
        return None
    for clique in mod.cliques:
        if len(clique) < 3 or len(clique) <= 4 * k:
            continue
        ctx = classify_clique(inst.graph, mod.vertices, clique)
        closure = clique | ctx.full_modulator
        local = {v for v in clique if inst.graph.neighbors(v) <= closure}
        if len(local) <= 1:
            debug_check(False,
                        f"clique of size {len(clique)} > 4k has at most one local vertex")
            continue
        keep = min(local)
        doomed = local - {keep}
        before = set(clique)
        inst.graph.remove_vertices(doomed)
        clique -= doomed
        debug_check(len(clique) <= 4 * k, "clique still above 4k after reduction")
        return before, doomed
    return None


def _quota_respected(before: set[int], doomed: set[int], k: int) -> bool:
    """The safety lemma covers deleting up to |C| - (2k+2) vertices; the rule
    as stated can exceed that when every clique vertex is local.  Surfaced in
    reports; decision preservation is enforced by the test suite either way."""
    return len(doomed) <= len(before) - (2 * k + 2)


# -- kernel outcome --------------------------------------------------------------

@dataclass
class StageStat:
    label: str
    n: int
    m: int
    k: int


@dataclass
class KernelReport:
    rule_firings: dict[str, int] = field(default_factory=dict)
    stages: list[StageStat] = field(default_factory=list)
    packing_edge_count: int | None = None
    modulator_size: int | None = None
    clique_count: int | None = None
    clique_reductions: int = 0
    quota_warnings: int = 0
    wall_times: dict[str, float] = field(default_factory=dict)
    vertex_bound: int | None = None
    bound_ok: bool | None = None

    def record_stage(self, label: str, inst: Instance) -> None:
        self.stages.append(StageStat(label, inst.graph.n, inst.graph.m, inst.k))

    def as_dict(self) -> dict:
        return {
            "rule_firings": dict(sorted(self.rule_firings.items())),
            "stages": [{"label": s.label, "n": s.n, "m": s.m, "k": s.k} for s in self.stages],
            "packing_edge_count": self.packing_edge_count,
            "modulator_size": self.modulator_size,
            "clique_count": self.clique_count,
            "clique_reductions": self.clique_reductions,
            "quota_warnings": self.quota_warnings,
            "wall_times": {k: round(v, 6) for k, v in self.wall_times.items()},
            "vertex_bound": self.vertex_bound,
            "bound_ok": self.bound_ok,
        }


@dataclass
class KernelOutcome:
    decided_no: bool
    instance: Instance | None
    report: KernelReport
    log: RuleLog | None = None

    @property
    def kernel(self) -> Instance:
        if self.instance is None:
            raise ValueError("no kernel: the instance was decided no")
        return self.instance


def kernelize(inst: Instance) -> KernelOutcome:
    """Full kernelization, one pipeline for both kernelizable families.

    Phase 1 to a fixpoint, then the packing-based modulator (declaring no
    when the packing exceeds the budget).  The pure diamond family then
    runs clique reduction to exhaustion, which caps every clique at 4k
    vertices and gives the 152k^3 + 70k^2 + 7k bound.  The mixed family
    skips it: its residual cliques already have fewer than t vertices,
    which is what makes its bound quadratic in k.  Either kernel has an
    unchanged or smaller budget and is checked against kernel_vertex_bound.
    """
    inst.family.require_kernelizable()
    report = KernelReport()
    report.record_stage("input", inst)
    if inst.k < 0:
        return KernelOutcome(True, None, report)
    t0 = time.perf_counter()
    inst, log = run_phase1(inst)
    report.wall_times["phase1"] = time.perf_counter() - t0
    report.rule_firings = log.counts()
    report.record_stage("phase1", inst)
    if inst.k < 0:
        return KernelOutcome(True, None, report)

    t0 = time.perf_counter()
    mod = compute_modulator(inst)
    report.wall_times["modulator"] = time.perf_counter() - t0
    if mod is None:
        return KernelOutcome(True, None, report)
    report.packing_edge_count = len(mod.packing_edges)
    report.modulator_size = len(mod.vertices)
    report.clique_count = len(mod.cliques)
    if inst.family.clique is None:
        if debug_assertions_enabled():
            for clique in mod.cliques:
                _fixpoint_context_checks(classify_clique(inst.graph, mod.vertices, clique),
                                         inst.graph)
        t0 = time.perf_counter()
        while True:
            fired = rule_clique_reduction(inst, mod)
            if fired is None:
                break
            before, doomed = fired
            report.clique_reductions += 1
            report.rule_firings["clique_reduction"] = report.rule_firings.get("clique_reduction", 0) + 1
            if not _quota_respected(before, doomed, inst.k):
                report.quota_warnings += 1
            if debug_assertions_enabled():
                remainder = inst.graph.copy()
                remainder.remove_vertices(mod.vertices & inst.graph.vertex_set())
                recomputed = {frozenset(c) for c in clique_partition(remainder)}
                debug_check(recomputed == {frozenset(c) for c in mod.cliques},
                            "in-place clique update disagrees with a recompute")
        report.wall_times["clique_reduction"] = time.perf_counter() - t0
    report.record_stage("kernel", inst)
    report.vertex_bound = kernel_vertex_bound(inst.k, inst.family)
    report.bound_ok = inst.graph.n <= report.vertex_bound
    debug_check(report.bound_ok, "kernel exceeds its vertex bound")
    return KernelOutcome(False, inst, report, log)

