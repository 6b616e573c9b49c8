"""Command-line front end.

Subcommands: kernelize, solve, generate, verify, bench.  Reports are JSON
with a schema_version and a digest over the deterministic fields (timings
are excluded), so a command repeated with the same flags and seed produces
byte-identical instance files and the same digest.

Exit codes: 0 success / feasible / kernelized, 10 decided-no / infeasible,
2 usage or parse error, 3 size-guard refusal, 1 when verify or solve
--verify finds a failed check or bench a kernel over its bound.  Arguments
are range-checked by argparse, so any other exception is a fault of the
program and ends the run with its traceback (also exit 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import checks
from .errors import (DescriptorError, DiamondKernelError, FamilyError, GuardError,
                     ParseError)
from .family import FamilySpec
from .harness import run_bench, verify_rule_safety
from .instances import (clique_layout, gen_gnp, gen_hard_structure, gen_planted_yes,
                        reduce_vc_to_sdfed)
from .io import parse_instance, serialize_instance
from .phase1 import Instance
from .phase2 import kernelize
from .solver import brute_force_min_deletion, brute_force_min_editing, solve_branching
from .patterns import is_family_free

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_NO = 10

_VOLATILE_KEYS = {"timings", "wall_times"}


def _strip_volatile(value):
    if isinstance(value, dict):
        return {k: _strip_volatile(v) for k, v in sorted(value.items())
                if k not in _VOLATILE_KEYS}
    if isinstance(value, list):
        return [_strip_volatile(v) for v in value]
    return value


def report_digest(report: dict) -> str:
    canonical = json.dumps(_strip_volatile(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _emit_report(report: dict, out_path: str | None) -> None:
    report["schema_version"] = SCHEMA_VERSION
    report["digest"] = report_digest(report)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_instance(path: str) -> tuple[Instance, str]:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    return parse_instance(text), text


def _input_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- subcommands ----------------------------------------------------------------

def cmd_kernelize(args) -> int:
    inst, text = _read_instance(args.input)
    t0 = time.perf_counter()
    outcome = kernelize(inst)
    elapsed = time.perf_counter() - t0
    report = {
        "command": "kernelize",
        "input_digest": _input_digest(text),
        "decided_no": outcome.decided_no,
        "kernelization": outcome.report.as_dict(),
        "timings": {"total": round(elapsed, 6)},
    }
    if not outcome.decided_no:
        kern = outcome.kernel
        report["kernel"] = {"n": kern.graph.n, "m": kern.graph.m, "k": kern.k,
                            "family": kern.family.token()}
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(serialize_instance(kern))
    _emit_report(report, args.report)
    return EXIT_NO if outcome.decided_no else EXIT_OK


def cmd_solve(args) -> int:
    inst, text = _read_instance(args.input)
    t0 = time.perf_counter()
    if args.engine == "branching":
        sol = solve_branching(inst)
        feasible = sol.feasible
    else:
        brute = brute_force_min_deletion if args.engine == "brute" else brute_force_min_editing
        best = brute(inst.graph, inst.family, inst.k, cap=args.cap)
        feasible = best is not None
    elapsed = time.perf_counter() - t0

    report = {
        "command": "solve",
        "engine": args.engine,
        "input_digest": _input_digest(text),
        "k": inst.k,
        "feasible": feasible,
        "timings": {"total": round(elapsed, 6)},
    }
    verified = True
    if args.engine == "branching":
        report["nodes"] = sol.nodes
        if feasible:
            edges = sorted(sol.delete_set)
            report["delete_edges"] = [[u, v] for u, v in edges]
            if args.verify:
                # a valid set names only edges of the input, at most k of
                # them, and leaves the graph family-free; a failed check
                # adds its key (non_edges, over_budget) to the report
                h = inst.graph.copy()
                non_edges = [[u, v] for u, v in edges if not h.has_edge(u, v)]
                for u, v in edges:
                    if h.has_edge(u, v):
                        h.remove_edge(u, v)
                report["verified_family_free"] = is_family_free(h, inst.family)
                if non_edges:
                    report["non_edges"] = non_edges
                if len(edges) > inst.k:
                    report["over_budget"] = len(edges) - inst.k
                verified = report["verified_family_free"] and not non_edges \
                    and len(edges) <= inst.k
    else:
        report["minimum"] = best
    _emit_report(report, args.report)
    if not verified:
        return 1
    return EXIT_OK if feasible else EXIT_NO


def cmd_generate(args) -> int:
    trace = None
    if args.generator == "gnp":
        g = gen_gnp(args.n, args.p, args.seed)
        inst = Instance(g, args.k, FamilySpec.parse_token(args.family))
    elif args.generator == "planted":
        inst = gen_planted_yes(clique_layout(args.sizes, args.glue), args.extra, args.seed)
    elif args.generator == "hard":
        inst = gen_hard_structure(args.k)
    else:  # reduce-vc
        vc_inst, _ = _read_instance(args.input)
        inst, trace = reduce_vc_to_sdfed(vc_inst.graph, vc_inst.k, args.s)
    text = serialize_instance(inst)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        if trace is not None:
            with open(args.out + ".trace.json", "w") as fh:
                json.dump(trace.as_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_n > 9 and not args.allow_large:
        raise GuardError(
            f"--max-n {args.max_n} above the desk-scale guard (9); pass --allow-large to override")
    family = FamilySpec.parse_token(args.family)
    t0 = time.perf_counter()
    result = verify_rule_safety(args.trials, args.max_n, args.seed, family,
                                check_solver=args.solver, oracle_cap=args.cap)
    elapsed = time.perf_counter() - t0
    report = {
        "command": "verify",
        "family": family.token(),
        "seed": args.seed,
        "trials": args.trials,
        "max_n": args.max_n,
        "result": result,
        "timings": {"total": round(elapsed, 6)},
    }
    _emit_report(report, args.report)
    return EXIT_OK if result["pass"] else 1


def cmd_bench(args) -> int:
    result = run_bench(args.seed)
    report = {"command": "bench", "seed": args.seed, "result": result,
              "timings": {"total": sum(r["timings"]["total"] for r in result["rows"])}}
    if args.csv:
        lines = ["label,family,input_n,input_m,k,decided_no,kernel_n,kernel_k,bound_ok,total_s"]
        for row in result["rows"]:
            lines.append(",".join(str(row.get(key, "")) for key in
                                  ("label", "family", "input_n", "input_m", "k", "decided_no",
                                   "kernel_n", "kernel_k", "bound_ok"))
                         + f",{row['timings']['total']}")
        with open(args.csv, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    _emit_report(report, args.report)
    return EXIT_OK if result["bound_violations"] == 0 else 1


# -- argument parsing -------------------------------------------------------------

# Argument types.  argparse turns an error raised in them, ValueError
# included, into a usage error (exit 2), so the commands see only valid
# values and a ValueError escaping a command is a fault of the program.

def _probability(text: str) -> float:
    p = float(text)
    if not 0 <= p <= 1:
        raise argparse.ArgumentTypeError(f"{text} is outside [0, 1]")
    return p


def _at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value
    return integer


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamondkernel",
        description="Kernelization and exact solving for diamond-free edge deletion")
    parser.add_argument("--debug-assert", action="store_true",
                        help="enable all structural debug assertions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernelize", help="kernelize an instance file")
    p.add_argument("--input", "-i", required=True, help="instance file, or - for stdin")
    p.add_argument("--out", "-o", help="write the kernel instance file here")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("solve", help="solve an instance exactly")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--engine", choices=("branching", "brute", "brute-edit"),
                   default="branching")
    p.add_argument("--verify", action="store_true",
                   help="re-check that the solution leaves a family-free graph")
    p.add_argument("--cap", type=_at_least(0), help="override the brute-force enumeration cap")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="generate instance files")
    gen = p.add_subparsers(dest="generator", required=True)

    q = gen.add_parser("gnp", help="Erdos-Renyi random instance")
    q.add_argument("--n", type=_at_least(0), required=True)
    q.add_argument("--p", type=_probability, required=True)
    q.add_argument("--k", type=_at_least(0), default=3)
    q.add_argument("--family", default="diamond")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", "-o")

    q = gen.add_parser("planted", help="diamond-free clique base plus k extra edges")
    q.add_argument("--sizes", type=_int_list, required=True,
                   help="comma-separated clique sizes, e.g. 4,4,4")
    q.add_argument("--glue", choices=("disjoint", "chain"), default="disjoint")
    q.add_argument("--extra", type=_at_least(0), required=True, help="extra edges = budget k")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", "-o")

    q = gen.add_parser("hard", help="the structure no reduction rule can shrink")
    q.add_argument("--k", type=_at_least(2), required=True)
    q.add_argument("--out", "-o")

    q = gen.add_parser("reduce-vc", help="reduce a vertex-cover instance file")
    q.add_argument("--input", "-i", required=True,
                   help="instance file whose graph and k form the vertex-cover instance")
    q.add_argument("--s", type=_at_least(1), default=1, help="target s-diamond family")
    q.add_argument("--out", "-o", help="also writes <out>.trace.json")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="seeded rule-safety verification against brute force")
    p.add_argument("--trials", type=_at_least(1), default=200)
    p.add_argument("--max-n", type=_at_least(0), default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family", default="diamond")
    p.add_argument("--solver", action="store_true",
                   help="also cross-check the branching solver at every budget")
    p.add_argument("--allow-large", action="store_true",
                   help="waive the max-n <= 9 desk-scale guard")
    p.add_argument("--cap", type=_at_least(0), help="override the brute-force enumeration cap")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time the pipeline and certify kernel bounds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="also write per-instance rows as CSV")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    checks.set_debug_assertions(args.debug_assert)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"guard refusal: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ParseError, DescriptorError, FamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DiamondKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
