"""Self-check of the benchmark on tiny inputs, in one process.

    python3 perfbench/selfcheck.py

Checks that:
- BENCHMARK.json names exactly the workloads and metrics that run.py reports;
- an untraced and a traced run of every workload emit every named metric,
  with no failed output;
- the exact counts of the current code hold: no phase-1 or phase-2 call on
  solve-vc, no solver node on the kernel workloads, and at least one
  clique-reduction firing on kernel-dense;
- two traced runs give identical counts and counts_digest;
- a deliberately flipped reference answer is caught as a failure.

Prints one line per failed check and exits 1 if there is any.
"""

from __future__ import annotations

import json
import sys

import run

TINY = {
    "kernel-sparse": {"clique_size": 6, "chain_cliques": [3, 5], "vertices_per_extra_edge": 100,
                      "gnp": [[30, 2], [60, 1]], "gnp_degree": 4},
    "kernel-dense": {"gadgets": [[2, 10, 1]], "hard_k": [2, 3]},
    "solve-vc": {"base_graphs": [[4, 2, 1, 1], [5, 2, 2, 1]], "max_draws": 10000},
}
SEED = 3


def main() -> int:
    run.import_library()
    from workloads import WORKLOADS

    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in declared["workloads"]] == list(run.SPEC["workloads"]),
           "BENCHMARK.json workloads differ from spec.json")
    expect([(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per_layer differs from run.PER_LAYER")

    run.SPEC.update(min_samples=1, min_passes=1, setup_repeats=1)
    for name, params in TINY.items():
        run.SPEC["workloads"][name]["params"] = params
        workload = WORKLOADS[name]

        plain = run.run_untraced(workload, SEED, seconds=0)
        expect(set(plain["metrics"]) == {n for n, _ in run.END_TO_END},
               f"{name}: untraced metrics {sorted(plain['metrics'])}")
        (first, record), (second, again) = (run.run_traced(workload, SEED) for _ in range(2))
        expect(set(first["metrics"]) == {n for n, _ in run.PER_LAYER},
               f"{name}: traced metrics {sorted(first['metrics'])}")
        for res in (plain, first, second):
            expect(res["failed"] == 0 and res["attempted"] > 0,
                   f"{name}: {res['failed']} of {res['attempted']} outputs failed")
        counts = record["counts"]
        expect(counts == again["counts"], f"{name}: counts differ between traced runs")
        expect(record["counts_digest"] == again["counts_digest"],
               f"{name}: counts_digest differs between traced runs")

        if name == "solve-vc":
            busy = {k: v for k, v in counts.items()
                    if k.startswith(("phase1.", "phase2.")) and k.endswith(".calls") and v}
            expect(not busy, f"solve-vc: phase-1/phase-2 calls {busy}")
            expect(counts.get("solver.nodes", 0) > 0, "solve-vc: no solver nodes")
        else:
            expect(counts.get("solver.nodes", 0) == 0,
                   f"{name}: solver.nodes = {counts.get('solver.nodes')}")
        if name == "kernel-dense":
            expect(counts.get("phase2.rule_clique_reduction.fired", 0) > 0,
                   "kernel-dense: clique reduction never fired")

        cases = workload.build(SEED, params)
        cases[0].expected = not cases[0].expected
        print(f"selfcheck: {name}: flipped the reference answer of {cases[0].label}; "
              "exactly one failure should be reported", file=sys.stderr)
        runner = run.Runner(workload, cases)
        runner.one_pass()
        expect(runner.failed == 1, f"{name}: flipped reference gave {runner.failed} failures")

    for problem in problems:
        print(f"selfcheck: {problem}")
    print(f"selfcheck: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
