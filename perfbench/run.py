"""Benchmark of the diamondkernel library: one workload per run.

    python3 perfbench/run.py --workload kernel-sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

A run generates its inputs from the seed, times a closed loop (one client,
one process, no threads: the next instance starts when the previous one
has finished) over whole passes of the inputs for at least --seconds,
checks every output against its reference answer outside the timed
section, and prints one JSON object as the last line of stdout.

--trace 0 reports the end-to-end metrics.  --trace 1 times one untraced
pass and one traced pass over the same inputs, reports the per-layer
metrics, and writes them with the full span table to
perfbench/out/trace-<workload>-seed<seed>.json.

--workload all runs every workload untraced and traced in child
processes, prints every metric by name with its unit, and exits 1 when
any output failed its check.

The library is imported from src/ next to this directory; without it the
run exits with status 1 before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import REQUEST_SPAN, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((HERE / "spec.json").read_text())

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("kernel_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

_RULES = ("rule_irrelevant_edge", "rule_sunflower", "rule_vertex_split",
          "rule_irrelevant_component")
PER_LAYER = (
    ("io.parse_instance.self_s", "s"),
    ("io.serialize_instance.self_s", "s"),
    ("phase1.run_phase1.self_s", "s"),
    *((f"phase1.{rule}.{what}", unit) for rule in _RULES
      for what, unit in (("calls", "count"), ("fired", "count"), ("self_s", "s"))),
    ("phase1.rule_yield", "ratio"),
    *((f"patterns.{fn}.{what}", unit)
      for fn in ("is_core_member_edge", "find_induced_occurrence", "is_family_free",
                 "greedy_packing", "clique_partition")
      for what, unit in (("calls", "count"), ("self_s", "s"))),
    *((f"matching.{fn}.{what}", unit)
      for fn in ("maximum_non_matching_size", "maximum_matching")
      for what, unit in (("calls", "count"), ("self_s", "s"))),
    *((f"graph.Graph.{fn}.{what}", unit)
      for fn in ("copy", "complement_restricted", "induced_subgraph",
                 "neighborhood_components", "connected_components")
      for what, unit in (("calls", "count"), ("self_s", "s"))),
    ("phase2.kernelize.self_s", "s"),
    ("phase2.compute_modulator.self_s", "s"),
    ("phase2.rule_clique_reduction.calls", "count"),
    ("phase2.rule_clique_reduction.fired", "count"),
    ("phase2.rule_clique_reduction.self_s", "s"),
    ("phase2.classify_clique.calls", "count"),
    ("phase2.classify_clique.self_s", "s"),
    ("solver.solve_branching.self_s", "s"),
    ("solver.nodes", "count"),
    ("instances.reduce_vc_to_sdfed.self_s", "s"),
    ("instances.lift_solution.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Top-level stages whose share of the traced request time `--workload all`
# prints, to show which layer each workload's time goes to.
STAGES = ("io.parse_instance", "phase1.run_phase1", "phase2.compute_modulator",
          "io.serialize_instance", "instances.reduce_vc_to_sdfed",
          "solver.solve_branching", "instances.lift_solution")


def import_library():
    """Import diamondkernel from this checkout's src/, or exit with status 1."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    try:
        import diamondkernel
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import diamondkernel from {SRC}: {exc}")
    if SRC not in Path(diamondkernel.__file__).resolve().parents:
        sys.exit(f"perfbench: diamondkernel resolved outside {SRC}: {diamondkernel.__file__}")
    from diamondkernel import checks
    checks.set_debug_assertions(False)


class Runner:
    """Runs one workload's cases and checks every output outside the timing."""

    def __init__(self, workload, cases) -> None:
        self.workload = workload
        self.cases = cases
        self.attempted = 0
        self.failed = 0

    def one(self, case, call):
        """Time one case; returns (seconds, output, or None when it raised)."""
        t0 = time.perf_counter()
        try:
            output = call(self.workload.run, case.payload)
        except Exception as exc:  # a raising case is a failed output, not a crash
            elapsed = time.perf_counter() - t0
            problem, output = f"raised {type(exc).__name__}: {exc}", None
        else:
            elapsed = time.perf_counter() - t0
            problem = self.workload.check(case, output)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"perfbench: {self.workload.name} {case.label}: {problem}", file=sys.stderr)
        return elapsed, output

    def one_pass(self, call=lambda run, payload: run(payload)):
        """Every case once, in order; returns (per-case seconds, outputs)."""
        times, outputs = [], []
        for case in self.cases:
            elapsed, output = self.one(case, call)
            times.append(elapsed)
            outputs.append(output)
        return times, outputs


def timed_build(workload, seed: int):
    """Generate the inputs and their reference answers; returns (seconds, cases)."""
    params = SPEC["workloads"][workload.name]["params"]
    t0 = time.perf_counter()
    cases = workload.build(seed, params)
    return time.perf_counter() - t0, cases


def kernel_ratio(workload, cases, outputs) -> float:
    """Kernel vertices over input vertices, summed over the kernels emitted.

    solve-vc emits no kernel: its solver branches on the whole reduced
    instance, a ratio of 1 by definition."""
    if workload.kernel_vertices is None:
        return 1.0
    emitted = [(kernel, case.vertices) for case, out in zip(cases, outputs)
               if out is not None and (kernel := workload.kernel_vertices(out)) is not None]
    return sum(k for k, _ in emitted) / max(1, sum(n for _, n in emitted))


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    VmHWM starts afresh at exec, unlike getrusage's ru_maxrss, which keeps
    the high-water mark of the process that forked this one."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_untraced(workload, seed: int, seconds: float) -> dict:
    """Set up, then the timed closed loop; returns the end-to-end result.

    The set-up is timed again after every pass (the copies are discarded),
    so its samples are spread over the run instead of falling into one
    slow or fast moment of a shared machine; setup_s is their median."""
    first_s, cases = timed_build(workload, seed)
    setup_times = [first_s]
    runner = Runner(workload, cases)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.one_pass())
        setup_times.append(timed_build(workload, seed)[0])
        wall = time.perf_counter() - start
        samples = len(passes) * len(cases)
        if wall >= seconds * SPEC["deadline_factor"]:
            break
        if (wall >= seconds and samples >= SPEC["min_samples"]
                and len(passes) >= SPEC["min_passes"]):
            break
    while len(setup_times) < SPEC["setup_repeats"]:
        setup_times.append(timed_build(workload, seed)[0])
    outputs = passes[0][1]
    latencies = [t for times, _ in passes for t in times]
    metrics = {
        "setup_s": statistics.median(setup_times),
        # Median over passes of identical work: a slow spell on a shared
        # machine during one pass does not move it.
        "instances_per_s": statistics.median(len(times) / sum(times) for times, _ in passes),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "kernel_ratio": kernel_ratio(workload, cases, outputs),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"perfbench: {workload.name} seed={seed}: {len(latencies)} instances timed "
          f"({len(passes)} passes of {len(cases)}), "
          f"{runner.failed} failed", file=sys.stderr)
    return result(runner, metrics, END_TO_END)


def run_traced(workload, seed: int) -> tuple[dict, dict]:
    """One untraced and one traced pass; returns (result, trace record)."""
    _, cases = timed_build(workload, seed)
    runner = Runner(workload, cases)
    untraced_s = sum(runner.one_pass()[0])
    tracer = LayerTracer()
    with tracer:
        times, outputs = runner.one_pass(call=tracer.request)
    traced_s = sum(times)

    counts = tracer.counts()
    metrics = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s"):
            metrics[name] = tracer.self_s.get(name[:-len(".self_s")], 0.0)
        elif unit == "count":
            metrics[name] = counts.get(name, 0)
    rule_calls = sum(counts.get(f"phase1.{r}.calls", 0) for r in _RULES)
    rule_fired = sum(counts.get(f"phase1.{r}.fired", 0) for r in _RULES)
    metrics["phase1.rule_yield"] = rule_fired / rule_calls if rule_calls else 0.0
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1

    facts = [workload.facts(case, out) for case, out in zip(cases, outputs) if out is not None]
    digest = hashlib.sha256(json.dumps({"counts": counts, "outputs": facts},
                                       sort_keys=True).encode()).hexdigest()
    record = {
        "workload": workload.name, "seed": seed, "cases": len(cases),
        "untraced_s": untraced_s, "traced_s": traced_s,
        "counts_digest": digest, "metrics": metrics, "counts": counts,
        "self_s": dict(sorted(tracer.self_s.items())),
        "inclusive_s": dict(sorted(tracer.inclusive_s.items())),
        "spans": tracer.span_table(),
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"perfbench: {workload.name} seed={seed}: counts_digest {digest}; "
          f"trace written to {path.relative_to(ROOT)}", file=sys.stderr)
    return result(runner, metrics, PER_LAYER), record


def result(runner: Runner, metrics: dict, names) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in its own process."""
    status = 0
    for name in SPEC["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name:14s} trace={trace}: run failed with status {proc.returncode}")
                status = 1
                continue
            res = json.loads(lines[-1])
            if trace == 0:
                frac = res["failed"] / res["attempted"]
                print(f"{name:14s} {'failed_frac':38s} {frac:<14.6g} ratio"
                      f"  ({res['failed']} of {res['attempted']})")
            for metric, entry in res["metrics"].items():
                print(f"{name:14s} {metric:38s} {entry['value']:<14.6g} {entry['unit']}")
            if trace == 1:
                traced = json.loads((OUT / f"trace-{name}-seed{seed}.json").read_text())
                print(f"{name:14s} {'counts_digest':38s} {traced['counts_digest']}")
                inclusive = traced["inclusive_s"]
                for stage in STAGES:
                    share = inclusive.get(stage, 0.0) / inclusive[REQUEST_SPAN]
                    print(f"{name:14s} {'share.' + stage:38s} {share:<14.6g} ratio")
            if res["failed"]:
                status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*SPEC["workloads"], "all"])
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--seconds", type=float, default=SPEC["default_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_library()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        res, _ = run_traced(workload, args.seed)
    else:
        res = run_untraced(workload, args.seed, args.seconds)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
