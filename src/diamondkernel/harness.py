"""Seeded rule-safety verification and kernel benchmarking.

The verifier is the executable form of the safety claims: on a seeded
random corpus it applies every reduction rule once, runs the full
kernelization, and compares decisions against the brute-force deletion
oracle.  The bench harness times the pipeline stages and certifies the
kernel-size bounds on every processed instance.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .family import FamilySpec
from .instances import clique_layout, gen_gnp, gen_hard_structure, gen_planted_yes
from .phase1 import (Instance, rule_irrelevant_component, rule_irrelevant_edge,
                     rule_sunflower, rule_vertex_split, run_phase1,
                     phase1_fixpoint_properties)
from .phase2 import kernelize
from .solver import brute_force_min_deletion, solve_branching

RULES = (
    ("irrelevant_edge", rule_irrelevant_edge),
    ("sunflower", rule_sunflower),
    ("vertex_split", rule_vertex_split),
    ("irrelevant_component", rule_irrelevant_component),
)


@dataclass
class CheckCounts:
    applied: int = 0
    passed: int = 0
    failures: list[dict] = field(default_factory=list)

    def record(self, ok: bool, context: dict) -> None:
        self.applied += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(context)


def sample_instance(rng: random.Random, max_n: int, family: FamilySpec,
                    p_values=(0.3, 0.5, 0.7), k_max: int = 3) -> Instance:
    n = rng.randint(min(5, max_n), max_n)
    p = rng.choice(list(p_values))
    g = gen_gnp(n, p, rng.getrandbits(32))
    return Instance(g, rng.randint(0, k_max), family)


def verify_rule_safety(trials: int, max_n: int, seed: int, family: FamilySpec,
                       check_solver: bool = False, check_fixpoint: bool = True,
                       k_max: int = 3, oracle_cap: int | None = None) -> dict:
    """Run the seeded safety corpus; the result is fully deterministic in
    (trials, max_n, seed, family, flags)."""
    rng = random.Random(seed)
    rules = {name: CheckCounts() for name, _ in RULES}
    kernel_checks = CheckCounts()
    fixpoint_checks = CheckCounts()
    solver_checks = CheckCounts()
    bound_checks = CheckCounts()
    for trial in range(trials):
        inst = sample_instance(rng, max_n, family, k_max=k_max)
        g, k = inst.graph, inst.k
        before = brute_force_min_deletion(g, family, k, cap=oracle_cap) is not None
        context = {"trial": trial, "n": g.n, "edges": sorted(g.edges()), "k": k,
                   "family": family.token()}
        for name, rule in RULES:
            probe = inst.copy()
            outcome = rule(probe)
            if outcome is None:
                continue
            after = brute_force_min_deletion(probe.graph, family, probe.k,
                                             cap=oracle_cap) is not None
            rules[name].record(after == before, {**context, "rule": name})

        probe = inst.copy()
        run_phase1(probe)
        if check_fixpoint:
            problems = phase1_fixpoint_properties(probe)
            shape_ok = (not problems and probe.graph.m <= g.m
                        and probe.graph.n <= 2 * g.m)
            fixpoint_checks.record(shape_ok, {**context, "problems": problems})

        outcome = kernelize(inst.copy())
        if outcome.decided_no:
            after = False
        else:
            kernel = outcome.kernel
            after = brute_force_min_deletion(kernel.graph, family, kernel.k,
                                             cap=oracle_cap) is not None
            bound_checks.record(bool(outcome.report.bound_ok), context)
        kernel_checks.record(after == before, context)

        if check_solver:
            for budget in range(0, k_max + 1):
                sol = solve_branching(Instance(g.copy(), budget, family))
                expected = brute_force_min_deletion(g, family, budget,
                                                    cap=oracle_cap) is not None
                solver_checks.record(sol.feasible == expected, {**context, "k": budget})

    sections = {"rules": {name: vars_of(c) for name, c in rules.items()},
                "kernelization": vars_of(kernel_checks),
                "phase1_fixpoint": vars_of(fixpoint_checks),
                "kernel_bounds": vars_of(bound_checks)}
    if check_solver:
        sections["solver_cross_check"] = vars_of(solver_checks)
    all_counts = list(rules.values()) + [kernel_checks, fixpoint_checks, bound_checks, solver_checks]
    sections["pass"] = all(not c.failures for c in all_counts)
    sections["trials"] = trials
    return sections


def vars_of(c: CheckCounts) -> dict:
    return {"applied": c.applied, "passed": c.passed,
            "failures": c.failures[:10], "failure_count": len(c.failures)}


# -- benchmarking -------------------------------------------------------------

def bench_corpus(seed: int, hard_ks=(2, 3, 4, 5, 6),
                 planted=(((4, 4, 4, 4), 2), ((5, 5, 5, 5, 5, 5, 5, 5), 3),
                          ((5,) * 40, 5)),
                 gnp=((12, 0.3), (16, 0.25))) -> list[tuple[str, Instance]]:
    """Deterministic benchmark instances: hard structures, planted
    yes-instances (clique sizes, extra edges), and sparse random graphs."""
    rng = random.Random(seed)
    corpus: list[tuple[str, Instance]] = []
    for k in hard_ks:
        corpus.append((f"hard(k={k})", gen_hard_structure(k)))
    for sizes, extra in planted:
        layout = clique_layout(list(sizes), "disjoint")
        if len(set(sizes)) == 1:
            tag = f"{len(sizes)}x{sizes[0]}"
        else:
            tag = ",".join(map(str, sizes))
        corpus.append((f"planted(sizes={tag},k={extra})",
                       gen_planted_yes(layout, extra, rng.getrandbits(32))))
    for n, p in gnp:
        g = gen_gnp(n, p, rng.getrandbits(32))
        corpus.append((f"gnp(n={n},p={p})", Instance(g, 3, FamilySpec.diamond())))
    return corpus


def run_bench(seed: int, **corpus_kwargs) -> dict:
    rows = []
    violations = 0
    for label, inst in bench_corpus(seed, **corpus_kwargs):
        t0 = time.perf_counter()
        outcome = kernelize(inst.copy())
        elapsed = time.perf_counter() - t0
        row = {
            "label": label,
            "family": inst.family.token(),
            "input_n": inst.graph.n, "input_m": inst.graph.m, "k": inst.k,
            "decided_no": outcome.decided_no,
        }
        if not outcome.decided_no:
            kern = outcome.kernel
            row.update(kernel_n=kern.graph.n, kernel_m=kern.graph.m, kernel_k=kern.k,
                       vertex_bound=outcome.report.vertex_bound,
                       bound_ok=bool(outcome.report.bound_ok))
            if not outcome.report.bound_ok:
                violations += 1
        row["timings"] = {"total": round(elapsed, 6),
                          **{k: round(v, 6) for k, v in outcome.report.wall_times.items()}}
        rows.append(row)
    return {"rows": rows, "bound_violations": violations}
