"""Seeded rule-safety verification and the kernel-bound check.

The verifier is the executable form of the safety claims: on a seeded
random corpus it calls every reduction rule once (a whole sweep of the
edge, split and component rules, one sunflower firing), runs phase 1 to a
fixpoint that its rule log must replay to, runs the full kernelization,
and compares decisions against the brute-force deletion oracle.  It also
runs the branching solver at every budget from 0 to K_MAX and passes every
deletion set it gets to check_solution.  The bench harness kernelizes a
fixed corpus and certifies the kernel-size bound of every kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .family import FamilySpec
from .instances import clique_layout, gen_gnp, gen_hard_structure, gen_planted_yes
from .phase1 import Instance, phase1_fixpoint_properties, replay, rules, run_phase1
from .phase2 import kernelize
from .solver import brute_force_min_deletion, check_solution, solve_branching

# Largest budget a sampled instance gets; the solver check tries every
# budget from 0 to it.
K_MAX = 3


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


def sample_instance(rng: random.Random, max_n: int, family: FamilySpec) -> Instance:
    n = rng.randint(min(5, max_n), max_n)
    p = rng.choice([0.3, 0.5, 0.7])
    g = gen_gnp(n, p, rng.getrandbits(32))
    return Instance(g, rng.randint(0, K_MAX), family)


def verify_rule_safety(trials: int, max_n: int, seed: int, family: FamilySpec,
                       oracle_cap: int | None = None) -> dict:
    """Run the seeded safety corpus; the result is fully deterministic in
    (trials, max_n, seed, family, oracle_cap)."""
    family.require_kernelizable()
    rng = random.Random(seed)
    rule_checks = {name: CheckCounts() for name, _ in rules()}
    kernel_checks = CheckCounts()
    fixpoint_checks = CheckCounts()
    solver_checks = CheckCounts()
    bound_checks = CheckCounts()
    answers: dict[tuple[frozenset, int], int | None] = {}

    def oracle(h, budget: int) -> int | None:
        # asked once per (edge set, budget): isolated vertices lie in no
        # pattern, and the oracle's guard counts only edges
        key = (frozenset(h.edges()), budget)
        if key not in answers:
            answers[key] = brute_force_min_deletion(h, family, budget, cap=oracle_cap)
        return answers[key]

    for trial in range(trials):
        inst = sample_instance(rng, max_n, family)
        g, k = inst.graph, inst.k
        # one oracle call answers every budget up to the largest one checked
        minimum = oracle(g, K_MAX)
        before = minimum is not None and minimum <= k
        context = {"trial": trial, "n": g.n, "edges": sorted(g.edges()), "k": k,
                   "family": family.token()}
        for name, rule in rules():
            probe = inst.copy()
            outcome = rule(probe)
            if outcome is None:
                continue
            after = oracle(probe.graph, probe.k) is not None
            rule_checks[name].record(after == before, {**context, "rule": name})

        probe = inst.copy()
        _, log = run_phase1(probe)
        problems = phase1_fixpoint_properties(probe)
        if replay(log, g) != probe.graph:
            problems.append("replaying the rule log does not give the fixpoint")
        shape_ok = (not problems and probe.graph.m <= g.m
                    and probe.graph.n <= 2 * g.m)
        fixpoint_checks.record(shape_ok, {**context, "problems": problems})

        outcome = kernelize(inst.copy())
        if outcome.decided_no:
            after = False
        else:
            kernel = outcome.kernel
            after = oracle(kernel.graph, kernel.k) is not None
            bound_checks.record(bool(outcome.report.bound_ok), context)
        kernel_checks.record(after == before, context)

        for budget in range(0, K_MAX + 1):
            sol = solve_branching(Instance(g.copy(), budget, family))
            expected = minimum is not None and minimum <= budget
            valid = not sol.feasible or (check_solution(g, family, budget, sol)
                                         == {"verified_family_free": True})
            solver_checks.record(sol.feasible == expected and valid, {**context, "k": budget})

    sections = {"rules": {name: vars_of(c) for name, c in rule_checks.items()},
                "kernelization": vars_of(kernel_checks),
                "phase1_fixpoint": vars_of(fixpoint_checks),
                "kernel_bounds": vars_of(bound_checks),
                "solver_cross_check": vars_of(solver_checks)}
    all_counts = list(rule_checks.values()) + [kernel_checks, fixpoint_checks, bound_checks, solver_checks]
    sections["pass"] = all(not c.failures for c in all_counts)
    sections["trials"] = trials
    return sections


def vars_of(c: CheckCounts) -> dict:
    return {"applied": c.applied, "passed": c.passed,
            "failures": c.failures[:10], "failure_count": len(c.failures)}


# -- benchmarking -------------------------------------------------------------

def bench_corpus(seed: int) -> list[tuple[str, Instance]]:
    """Deterministic benchmark instances: hard structures, planted
    yes-instances (clique count and size, extra edges), and sparse random graphs."""
    rng = random.Random(seed)
    corpus: list[tuple[str, Instance]] = []
    for k in (2, 3, 4, 5, 6):
        corpus.append((f"hard(k={k})", gen_hard_structure(k)))
    for count, size, extra in ((4, 4, 2), (8, 5, 3), (40, 5, 5)):
        layout = clique_layout([size] * count, "disjoint")
        corpus.append((f"planted(sizes={count}x{size},k={extra})",
                       gen_planted_yes(layout, extra, rng.getrandbits(32))))
    for n, p in ((12, 0.3), (16, 0.25)):
        g = gen_gnp(n, p, rng.getrandbits(32))
        corpus.append((f"gnp(n={n},p={p})", Instance(g, 3, FamilySpec.diamond())))
    return corpus


def run_bench(seed: int) -> dict:
    rows = []
    violations = 0
    for label, inst in bench_corpus(seed):
        outcome = kernelize(inst.copy())
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
        rows.append(row)
    return {"rows": rows, "bound_violations": violations}
