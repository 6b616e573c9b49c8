import json
from itertools import combinations

import pytest

from diamondkernel import cli, phase1
from diamondkernel.cli import main, report_digest
from diamondkernel.errors import ParseError
from diamondkernel.family import FamilySpec
from diamondkernel.graph import Graph
from diamondkernel.harness import verify_rule_safety
from diamondkernel.io import MAX_VERTICES, parse_instance, serialize_instance
from diamondkernel.phase1 import Instance
from diamondkernel.solver import Solution

from conftest import diamond_graph

DIAMOND_FILE = """c a diamond instance
p dfed 4 5 1 diamond
e 0 1
e 0 2
e 1 2
e 1 3
e 2 3
"""


# -- file format -----------------------------------------------------------------

def test_parse_diamond_file():
    inst = parse_instance(DIAMOND_FILE)
    assert inst.graph == diamond_graph()
    assert inst.k == 1 and inst.family == FamilySpec.diamond()


def test_parse_family_tokens():
    inst = parse_instance("p dfed 1 0 2 diamond,k4\n")
    assert inst.family == FamilySpec.diamond_kt(4)
    inst = parse_instance("p dfed 1 0 2 2-diamond\n")
    assert inst.family == FamilySpec.s_diamond(2)


@pytest.mark.parametrize("text,fragment", [
    ("e 0 1\n", "before header"),
    ("p dfed 2 1 0 diamond\ne 0 0\n", "self-loop"),
    ("p dfed 2 2 0 diamond\ne 0 1\ne 1 0\n", "duplicate edge"),
    ("p dfed 2 1 0 diamond\ne 0 5\n", "out of range"),
    ("p dfed 2 2 0 diamond\ne 0 1\n", "claims 2 edges"),
    ("p dfed 2 1 -1 diamond\ne 0 1\n", "non-negative"),
    ("p dfed 2 0 0 paw\n", "unrecognized family"),
    ("p dfed 2 0 0 diamond\nx 1 2\n", "unrecognized line"),
    ("p dfed 3 1 0 diamond\ncorrupt line\ne 0 1\n", "unrecognized line"),
    ("", "missing header"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_instance(text)


def test_round_trip_identity():
    inst = parse_instance(DIAMOND_FILE)
    text = serialize_instance(inst)
    again = parse_instance(text)
    assert again.graph == inst.graph and again.k == inst.k and again.family == inst.family
    assert serialize_instance(again) == text


def test_serialize_normalizes_ids():
    g = Graph.from_vertices_and_edges([3, 7, 9], [(3, 7), (7, 9)])
    text = serialize_instance(Instance(g, 0, FamilySpec.diamond()))
    assert text.splitlines()[0] == "p dfed 3 2 0 diamond"
    assert "e 0 1" in text and "e 1 2" in text


# -- commands -------------------------------------------------------------------------

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_kernelize_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "d.txt", DIAMOND_FILE)
    assert main(["kernelize", "-i", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kernel"] == {"n": 4, "m": 5, "k": 1, "family": "diamond"}
    zero = DIAMOND_FILE.replace("4 5 1", "4 5 0")
    path = write(tmp_path, "d0.txt", zero)
    assert main(["kernelize", "-i", path]) == 10


def test_kernelize_writes_kernel_file(tmp_path, capsys):
    path = write(tmp_path, "d.txt", DIAMOND_FILE)
    out = str(tmp_path / "kernel.txt")
    assert main(["kernelize", "-i", path, "-o", out]) == 0
    capsys.readouterr()
    kern = parse_instance(open(out).read())
    assert kern.graph == diamond_graph()


def test_solve_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "d.txt", DIAMOND_FILE)
    assert main(["solve", "-i", path, "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] and len(report["delete_edges"]) == 1
    assert report["verified_family_free"]
    assert report["nodes"] == 2   # the diamond, then the graph left by one deletion

    zero = write(tmp_path, "d0.txt", DIAMOND_FILE.replace("4 5 1", "4 5 0"))
    assert main(["solve", "-i", zero]) == 10
    capsys.readouterr()

    c4 = write(tmp_path, "c4.txt", "p dfed 4 4 0 diamond\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n")
    assert main(["solve", "-i", c4]) == 0


def test_solve_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    # a "solution" deleting the non-edge 0-3 leaves the diamond in place
    monkeypatch.setattr(cli, "solve_branching", lambda inst: Solution.of([(0, 3)], 1))
    path = write(tmp_path, "d.txt", DIAMOND_FILE)
    assert main(["solve", "-i", path]) == 0
    capsys.readouterr()
    assert main(["solve", "-i", path, "--verify"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verified_family_free"] is False
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("k, edges, failed", [
    (2, [(1, 2), (0, 3)], {"non_edges": [[0, 3]]}),   # the middle edge and a non-edge
    (1, [(0, 1), (1, 2)], {"over_budget": 1}),        # k + 1 real edges
])
def test_solve_verify_rejects_invalid_sets(k, edges, failed, tmp_path, capsys, monkeypatch):
    # each set leaves the diamond family-free, yet is no solution at budget k
    monkeypatch.setattr(cli, "solve_branching", lambda inst: Solution.of(edges, 1))
    path = write(tmp_path, "d.txt", DIAMOND_FILE.replace("4 5 1", f"4 5 {k}"))
    assert main(["solve", "-i", path, "--verify"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["verified_family_free"] is True
    assert {key: report.get(key) for key in ("non_edges", "over_budget")} == \
        {"non_edges": None, "over_budget": None, **failed}
    assert "Traceback" not in captured.err


def test_solve_brute_engines(tmp_path, capsys):
    path = write(tmp_path, "d.txt", DIAMOND_FILE)
    assert main(["solve", "-i", path, "--engine", "brute"]) == 0
    assert json.loads(capsys.readouterr().out)["minimum"] == 1
    assert main(["solve", "-i", path, "--engine", "brute-edit"]) == 0
    assert json.loads(capsys.readouterr().out)["minimum"] == 1


def test_solve_guard_exit(tmp_path, capsys):
    k9 = Graph.from_edges(9, combinations(range(9), 2))
    text = serialize_instance(Instance(k9, 3, FamilySpec.diamond()))
    path = write(tmp_path, "k9.txt", text)
    assert main(["solve", "-i", path, "--engine", "brute", "--cap", "10"]) == 3
    capsys.readouterr()


def test_usage_error_exit(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "p dfed 2 1 0 diamond\ne 0 0\n")
    assert main(["kernelize", "-i", bad]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,fragment", [
    (["generate", "gnp", "--n", "5", "--p", "1.5"], "argument --p: 1.5 is outside [0, 1]"),
    (["generate", "gnp", "--n", "5", "--p", "0.5", "--k", "-1"], "argument --k: -1 is below 0"),
    (["generate", "gnp", "--n", "-2", "--p", "0.5"], "argument --n: -2 is below 0"),
    (["generate", "planted", "--sizes", "3", "--extra", "-1"], "argument --extra: -1 is below 0"),
    (["generate", "hard", "--k", "1"], "argument --k: 1 is below 2"),
    (["generate", "reduce-vc", "-i", "unused.txt", "--s", "0"], "argument --s: 0 is below 1"),
    (["verify", "--trials", "-3"], "argument --trials: -3 is below 1"),
    (["verify", "--max-n", "-1"], "argument --max-n: -1 is below 0"),
    (["verify", "--cap", "-5"], "argument --cap: -5 is below 0"),
    (["solve", "-i", "unused.txt", "--cap", "-5"], "argument --cap: -5 is below 0"),
])
def test_out_of_range_arguments_are_usage_errors(argv, fragment, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert fragment in capsys.readouterr().err


def test_oversized_header_is_rejected(tmp_path, capsys):
    # refused on the header line, before any vertex set is allocated
    text = f"p dfed {MAX_VERTICES + 1} 0 0 diamond\n"
    with pytest.raises(ParseError, match="exceeds the limit"):
        parse_instance(text)
    huge = write(tmp_path, "huge.txt", text)
    assert main(["kernelize", "-i", huge]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


def test_kernelize_rejects_unsupported_family(tmp_path, capsys):
    two = write(tmp_path, "s2.txt", "p dfed 2 1 1 2-diamond\ne 0 1\n")
    assert main(["kernelize", "-i", two]) == 2
    err = capsys.readouterr().err
    assert "not supported by the kernelizer" in err


def test_round_trip_over_generated_corpus(tmp_path, capsys):
    specs = [
        ["generate", "gnp", "--n", "9", "--p", "0.5", "--seed", "2", "--family", "diamond,k4"],
        ["generate", "hard", "--k", "4"],
        ["generate", "planted", "--sizes", "3,4,3", "--glue", "chain",
         "--extra", "2", "--seed", "9"],
    ]
    for i, argv in enumerate(specs):
        out = str(tmp_path / f"inst{i}.txt")
        assert main(argv + ["-o", out]) == 0
        text = open(out).read()
        inst = parse_instance(text)
        assert serialize_instance(inst) == text
    capsys.readouterr()


def test_generate_determinism(tmp_path, capsys):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for out in (a, b):
        assert main(["generate", "planted", "--sizes", "4,4", "--glue", "chain",
                     "--extra", "2", "--seed", "11", "-o", out]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    capsys.readouterr()


def test_generate_hard_structure_file(tmp_path, capsys):
    out = str(tmp_path / "hard.txt")
    assert main(["generate", "hard", "--k", "3", "-o", out]) == 0
    inst = parse_instance(open(out).read())
    assert inst.graph.n == 13 and inst.k == 3
    capsys.readouterr()


def test_generate_reduce_vc_with_trace(tmp_path, capsys):
    vc = write(tmp_path, "vc.txt", "p dfed 2 1 1 diamond\ne 0 1\n")
    out = str(tmp_path / "red.txt")
    assert main(["generate", "reduce-vc", "-i", vc, "--s", "1", "-o", out]) == 0
    inst = parse_instance(open(out).read())
    assert inst.graph.n == 9 and inst.k == 2 and inst.family == FamilySpec.diamond()
    trace = json.loads(open(out + ".trace.json").read())
    kinds = [st["kind"] for st in trace["stages"]]
    assert kinds == ["subdivide", "stars", "universal", "instance"]
    capsys.readouterr()


def test_verify_command_reports_and_digests(tmp_path, capsys):
    args = ["verify", "--trials", "12", "--max-n", "7", "--seed", "3"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["digest"] == second["digest"]
    assert first["result"]["pass"]


def test_verify_guard_on_large_n(capsys):
    assert main(["verify", "--max-n", "12", "--trials", "1"]) == 3
    capsys.readouterr()


def test_verify_catches_injected_bug(monkeypatch):
    # mutate the sunflower threshold by inflating the measured non-matching
    real = phase1.maximum_non_matching_size
    monkeypatch.setattr(phase1, "maximum_non_matching_size",
                        lambda g, vs=None: real(g, vs) + 1)
    result = verify_rule_safety(trials=60, max_n=8, seed=2, family=FamilySpec.diamond())
    assert not result["pass"]
    assert result["rules"]["sunflower"]["failure_count"] > 0


def test_bench_command(tmp_path, capsys):
    csv_path = str(tmp_path / "bench.csv")
    assert main(["bench", "--seed", "1", "--csv", csv_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["bound_violations"] == 0
    rows = {r["label"]: r for r in report["result"]["rows"]}
    for k in (2, 3, 4, 5, 6):
        row = rows[f"hard(k={k})"]
        assert row["kernel_n"] == k * k + 4 and row["bound_ok"]
    header = open(csv_path).readline()
    assert header.startswith("label,family")
    assert report["digest"] == "021314c4c348f683991db5b478248785587b5d148671d5410e30e3879098a94e"


@pytest.mark.parametrize("family,digest", [
    ("diamond", "396e922c7f4966f5d1ab3e2b21b52db395108bf11714ccdaacf69e205d8b434e"),
    ("diamond,k4", "84add75824b512a58c7a2d718ffe0f0e902e9b0cacb7779e03e7b3aba9089c43"),
], ids=["diamond", "diamond,k4"])
def test_verify_solver_digests_are_pinned(family, digest, capsys):
    argv = ["verify", "--trials", "150", "--max-n", "8", "--seed", "3", "--solver",
            "--family", family]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["pass"] and report["digest"] == digest


@pytest.mark.parametrize("gnp,exit_code,digest", [
    (("5", "0.3", "1", "2"), 0,
     "ae135a8d7c4ab0859abac362e60f812e1cf7c184c38eea7567de3d1f7b143895"),
    (("7", "0.4", "2", "2"), 10,
     "1108c6b11cd794faa6174374ed2df6438b5cafcabc13d6523c6fdeadd80f99f6"),
    (("7", "0.4", "3", "2"), 0,
     "ff7085ece36430c70adfd5a10296e1d9a1e940d647689175da8c6186658444a4"),
], ids=["yes-18-nodes", "no-519-nodes", "yes-3525-nodes"])
def test_solve_reduced_vc_digests_are_pinned(gnp, exit_code, digest, tmp_path, capsys):
    # the digest covers the node count and the deletion set, so the search
    # tree and the solution it returns are both pinned
    n, p, k, seed = gnp
    vc, red = str(tmp_path / "vc.txt"), str(tmp_path / "red.txt")
    assert main(["generate", "gnp", "--n", n, "--p", p, "--k", k, "--seed", seed,
                 "-o", vc]) == 0
    assert main(["generate", "reduce-vc", "-i", vc, "-o", red]) == 0
    assert main(["solve", "-i", red, "--verify"]) == exit_code
    assert json.loads(capsys.readouterr().out)["digest"] == digest


def test_report_digest_ignores_timings():
    a = {"x": 1, "timings": {"total": 0.5}}
    b = {"x": 1, "timings": {"total": 99.0}}
    assert report_digest(a) == report_digest(b)
    assert report_digest(a) != report_digest({"x": 2, "timings": {}})
