import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import diamondkernel
from diamondkernel import cli, harness, io as instance_io, phase1, phase2
from diamondkernel.cli import main, report_digest
from diamondkernel.errors import InvariantError, ParseError
from diamondkernel.family import FamilySpec
from diamondkernel.graph import Graph
from diamondkernel.harness import verify_rule_safety
from diamondkernel.io import MAX_EDGES, MAX_VERTICES, parse_instance, serialize_instance
from diamondkernel.phase1 import Instance
from diamondkernel.solver import Solution, solve_branching

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


PARSE_ERRORS = [   # text, message fragment, line the error names
    ("e 0 1\n", "before header", 1),
    ("p dfed 2 1 0 diamond\ne 0 0\n", "self-loop", 2),
    ("p dfed 2 2 0 diamond\ne 0 1\ne 1 0\n", "duplicate edge", 3),
    ("p dfed 2 1 0 diamond\ne 0 5\n", "out of range", 2),
    ("p dfed 2 2 0 diamond\ne 0 1\n", "claims 2 edges", None),
    ("p dfed 2 1 -1 diamond\ne 0 1\n", "non-negative", 1),
    ("p dfed 2 0 0 paw\n", "unrecognized family", 1),
    ("p dfed 2 0 0 diamond\nx 1 2\n", "unrecognized line", 2),
    ("p dfed 3 1 0 diamond\ncorrupt line\ne 0 1\n", "unrecognized line", 2),
    ("", "missing header", None),
    # int() reads these, the format does not
    ("p dfed 1_0 0 0 diamond\n", "n, m, k must be integers", 1),
    ("p dfed 3 1 0 diamond\ne +0 1\n", "endpoints must be integers", 2),
    ("p dfed 4 1 0 diamond\ne \u0663 1\n", "endpoints must be integers", 2),
    ("p dfed 2 0 0 k\u0664\n", "unrecognized family", 1),
    ("p dfed 2 0 0 \u0662-diamond\n", "unrecognized family", 1),
    # only LF ends a line: a form feed or U+2028 is whitespace inside one
    ("p dfed 3 2 0 diamond\ne 0 1\x0ce 1 2\n", "edge line must be", 2),
    ("c a\u2028b\np dfed 2 0 0 diamond\nx\n", "unrecognized line", 3),
    ("p dfed 3 2 0 diamond\ne 0 1\re 1 2\n", "edge line must be", 2),
]


# ids name a row by its text and fragment
@pytest.mark.parametrize("text,fragment,line", PARSE_ERRORS,
                         ids=[f"{text}-{fragment}" for text, fragment, _ in PARSE_ERRORS])
def test_parse_errors(text, fragment, line):
    with pytest.raises(ParseError, match=fragment) as info:
        parse_instance(text)
    assert info.value.line == line


@pytest.mark.parametrize("text,fragment,line", PARSE_ERRORS,
                         ids=[f"{text}-{fragment}" for text, fragment, _ in PARSE_ERRORS])
def test_cli_names_the_line_the_parser_names(text, fragment, line, tmp_path, capsys,
                                            monkeypatch):
    # a file and stdin are split into lines as parse_instance splits them
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode())
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    prefix = "error: " if line is None else f"error: line {line}: "
    for source in (str(path), "-"):
        assert main(["kernelize", "-i", source]) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and fragment in err


def test_parse_reads_crlf_and_any_comment():
    # a comment may hold what an integer may not; CR is whitespace
    inst = parse_instance("c gen_gnp +1 \u0663\r\np dfed 3 1 0 diamond\r\ne 02 0\r\n")
    assert inst.graph == Graph.from_edges(3, [(0, 2)]) and inst.k == 0


@st.composite
def edge_files(draw):
    """(n, edges, text): a random graph, often with isolated vertices,
    written with its edge lines in random order and some reversed."""
    n = draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    lines = [f"e {v} {u}" if flip else f"e {u} {v}" for (u, v), flip in zip(edges, flips)]
    return n, edges, "\n".join([f"p dfed {n} {len(edges)} 3 diamond,k4", *lines]) + "\n"


@settings(max_examples=150, deadline=None)
@given(edge_files())
def test_parse_builds_what_from_edges_builds(case):
    n, edges, text = case
    expected = Graph.from_edges(n, edges)
    for inst in (parse_instance(text),
                 parse_instance(serialize_instance(Instance(expected, 3, FamilySpec.diamond_kt(4))))):
        assert inst.graph == expected and inst.graph._next_id == n
        assert inst.k == 3 and inst.family == FamilySpec.diamond_kt(4)
        inst.graph.validate()


def read_outcome(read, text):
    """What a reader makes of text: the instance with each adjacency set
    in its iteration order, or the ParseError's message and line."""
    try:
        inst = read(text)
    except ParseError as exc:
        return str(exc), exc.line
    g = inst.graph
    return [(v, list(nbrs)) for v, nbrs in g._adj.items()], g._next_id, inst.k, inst.family


MUTATION_CHARS = "019 \t\r\nce-+_p\x0c\u0664"


@st.composite
def mutated_canonical_texts(draw):
    """A serialized random instance, often with one character inserted,
    deleted or replaced, or one line repeated."""
    n, edges, _ = draw(edge_files())
    fam = draw(st.sampled_from([FamilySpec.diamond(), FamilySpec.diamond_kt(4),
                                FamilySpec.s_diamond(2)]))
    text = serialize_instance(Instance(Graph.from_edges(n, edges), draw(st.integers(0, 3)), fam))
    op = draw(st.sampled_from(["none", "insert", "delete", "replace", "repeat line"]))
    i = draw(st.integers(0, len(text) - 1))
    char = draw(st.sampled_from(MUTATION_CHARS))
    if op == "insert":
        text = text[:i] + char + text[i:]
    elif op == "delete":
        text = text[:i] + text[i + 1:]
    elif op == "replace":
        text = text[:i] + char + text[i + 1:]
    elif op == "repeat line":
        lines = text.splitlines(keepends=True)
        j = i % len(lines)
        text = "".join(lines[:j + 1] + lines[j:])
    return text


@settings(max_examples=400, deadline=None)
@given(mutated_canonical_texts())
def test_sweep_reads_what_the_line_reader_reads(text):
    assert read_outcome(parse_instance, text) == read_outcome(instance_io._parse_lines, text)


CANONICAL = "p dfed 3 2 1 diamond\ne 0 1\ne 1 2\n"
READER_ROWS = [   # id, text, whether the sweep reads it
    ("canonical", CANONICAL, True),
    ("no final LF", CANONICAL[:-1], False),
    ("CRLF", CANONICAL.replace("\n", "\r\n"), False),
    ("leading c line", "c x\n" + CANONICAL, False),
    ("tab", CANONICAL.replace("e 0 1", "e 0\t1"), False),
    ("leading zero", CANONICAL.replace("e 1 2", "e 01 2"), True),
    ("reversed duplicate", CANONICAL.replace("e 1 2", "e 1 0"), False),
    ("self-loop", CANONICAL.replace("e 1 2", "e 2 2"), False),
    ("endpoint = n", CANONICAL.replace("e 1 2", "e 1 3"), False),
    ("negative endpoint", CANONICAL.replace("e 1 2", "e -1 2"), False),
    ("5,000-digit endpoint", CANONICAL.replace("e 1 2", "e 1 " + "1" * 5000), False),
    ("m one too many", CANONICAL.replace("3 2 1", "3 3 1"), False),
    ("m one too few", CANONICAL.replace("3 2 1", "3 1 1"), False),
    ("n over the limit", f"p dfed {MAX_VERTICES + 1} 0 0 diamond\n", False),
    ("header only", "p dfed 3 0 1 diamond\n", True),
    ("non-ASCII family digit", "p dfed 2 0 0 k\u0664\n", False),
]


@pytest.mark.parametrize("text,swept", [row[1:] for row in READER_ROWS],
                         ids=[row[0] for row in READER_ROWS])
def test_reader_rows_take_the_same_path(text, swept):
    assert (instance_io._parse_canonical(text) is not None) == swept
    assert read_outcome(parse_instance, text) == read_outcome(instance_io._parse_lines, text)


def sparse_gnp(n, p, seed):
    """A G(n, p) sample in O(n + m): geometric skips over the pairs w < v
    (Batagelj & Brandes, Phys. Rev. E 2005)."""
    rng, log_q, edges = random.Random(seed), math.log(1 - p), []
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1 - rng.random()) / log_q)
        while w >= v and v < n:
            w, v = w - v, v + 1
        if v < n:
            edges.append((w, v))
    return Graph.from_edges(n, edges)


def test_sweep_peaks_no_higher_than_the_line_reader():
    text = serialize_instance(Instance(sparse_gnp(20000, 0.001, 1), 5, FamilySpec.diamond()))
    assert text.count("\n") == 199_515
    peaks = []
    for read in (instance_io._parse_lines, parse_instance):
        tracemalloc.start()
        read(text)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0]


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


def test_kernel_over_its_bound_exits_1(tmp_path, capsys, monkeypatch):
    # without --debug-assert the kernel is still reported, and the exit
    # code says that it broke its bound
    monkeypatch.setattr(phase2, "kernel_vertex_bound", lambda k, fam: 0)
    path, out = str(tmp_path / "hard.txt"), str(tmp_path / "report.json")
    assert main(["generate", "hard", "--k", "3", "-o", path]) == 0
    assert main(["kernelize", "-i", path, "--report", out]) == 1
    report = json.loads(open(out).read())
    assert report["kernel"]["n"] == 13
    assert report["kernelization"]["bound_ok"] is False
    assert capsys.readouterr().err == ""


def test_kernelize_writes_kernel_file(tmp_path, capsys):
    path = write(tmp_path, "d.txt", DIAMOND_FILE)
    out = str(tmp_path / "kernel.txt")
    assert main(["kernelize", "-i", path, "-o", out]) == 0
    capsys.readouterr()
    kern = parse_instance(open(out).read())
    assert kern.graph == diamond_graph()


def test_kernelize_from_stdin_to_a_report_file(tmp_path, capsys, monkeypatch):
    # -i - reads the instance from stdin, and --report writes the report
    # that stdout would show: both give the digest of a file input
    path = str(tmp_path / "hard.txt")
    assert main(["generate", "hard", "--k", "2", "-o", path]) == 0
    assert main(["kernelize", "-i", path]) == 0
    from_file = json.loads(capsys.readouterr().out)
    report = str(tmp_path / "report.json")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(Path(path).read_bytes())))
    assert main(["kernelize", "-i", "-", "--report", report]) == 0
    assert capsys.readouterr().out == ""
    from_stdin = json.loads(open(report).read())
    assert from_stdin["digest"] == from_file["digest"] == \
        "720af35ef09f2229de6b9e207682bc2fedde5cc2f4ad7e3281e057512204ea58"


@pytest.mark.parametrize("seed,digest", [
    ("1", "1712c1d9512efa0a668f83cbe5426f4aefb8261b20ab33189e0a53d2133bde7c"),
    ("2", "6975bbf195ad73ecc7cbf201e08d3c58b0a6a8ec3f7bfada95b525063d5c0ec6"),
    ("3", "6ed83af53bc6bff4d85e9516effe951192849a9d85f3a80077c65b46aa70e9f6"),
])
def test_kernelize_twin_rich_digests_are_pinned(seed, digest, tmp_path, capsys):
    # chains of four 30-cliques with 3 extra edges: the irrelevant-edge,
    # vertex-split and component rules and clique reduction all fire, so
    # the digest pins the firings, stages and kernel shape
    path = str(tmp_path / "planted.txt")
    assert main(["generate", "planted", "--sizes", "30,30,30,30", "--glue", "chain",
                 "--extra", "3", "--seed", seed, "-o", path]) == 0
    assert main(["kernelize", "-i", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kernelization"]["clique_reductions"] == 2
    assert report["digest"] == digest


def test_solve_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "d.txt", DIAMOND_FILE)
    assert main(["solve", "-i", path]) == 0
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
    assert main(["solve", "-i", path]) == 1
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
    assert main(["solve", "-i", path]) == 1
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


def test_solve_brute_engines_report_no_verification(tmp_path, capsys):
    # the brute engines return a minimum, not a set that could be checked
    path = write(tmp_path, "d.txt", DIAMOND_FILE)
    for engine in ("brute", "brute-edit"):
        assert main(["solve", "-i", path, "--engine", engine]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["minimum"] == 1
        assert not {"delete_edges", "verified_family_free", "non_edges",
                    "over_budget"} & report.keys()


def _refuse_open(*args, **kwargs):
    raise PermissionError(13, "Permission denied", args[0])


@pytest.mark.parametrize("case", ["directory", "permission", "not-utf-8"])
def test_unreadable_input_is_a_usage_error(case, tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "d.txt", DIAMOND_FILE)
    if case == "directory":
        path = str(tmp_path)
    elif case == "permission":
        # a patched open, since a privileged user may read any file
        monkeypatch.setattr(cli, "open", _refuse_open, raising=False)
    else:
        Path(path).write_bytes(b"c \xff\xfe\n" + DIAMOND_FILE.encode())
    for argv in (["kernelize", "-i", path], ["solve", "-i", path],
                 ["generate", "reduce-vc", "-i", path]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def _refuse_writing(path, mode="r", *args, **kwargs):
    if "w" in mode:
        raise PermissionError(13, "Permission denied", path)
    return open(path, mode, *args, **kwargs)


@pytest.mark.parametrize("case", ["directory", "permission"])
def test_unwritable_output_is_a_usage_error(case, tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "d.txt", DIAMOND_FILE)
    out = str(tmp_path)
    if case == "permission":
        # a patched open, since a privileged user may write anywhere
        out = str(tmp_path / "out.txt")
        monkeypatch.setattr(cli, "open", _refuse_writing, raising=False)
    for argv in (["generate", "hard", "--k", "2", "-o", out],
                 ["generate", "reduce-vc", "-i", path, "-o", out],
                 ["kernelize", "-i", path, "--out", out],
                 ["kernelize", "-i", path, "--report", out],
                 ["solve", "-i", path, "--report", out],
                 ["verify", "--trials", "1", "--max-n", "4", "--report", out]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err and err.count("\n") == 1


def test_failed_debug_assertion_is_a_program_fault(tmp_path, capsys, monkeypatch):
    # a failed invariant is not a usage error: it escapes main, and the
    # interpreter ends the run with exit 1 and a traceback
    def fail(*args):
        raise InvariantError("injected modulator fault")

    path = write(tmp_path, "d.txt", DIAMOND_FILE)
    monkeypatch.setattr(phase2, "validate_modulator", fail)
    with pytest.raises(InvariantError, match="injected modulator fault"):
        main(["--debug-assert", "kernelize", "-i", path])
    assert capsys.readouterr().err == ""

    script = ("import runpy\n"
              "from diamondkernel import errors, phase2\n"
              "def fail(*args):\n"
              "    raise errors.InvariantError('injected modulator fault')\n"
              "phase2.validate_modulator = fail\n"
              "runpy.run_module('diamondkernel.cli', run_name='__main__', alter_sys=True)\n")
    src = str(Path(diamondkernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script, "--debug-assert", "kernelize", "-i", path],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 1
    assert "Traceback" in run.stderr and "InvariantError: injected modulator fault" in run.stderr


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


def test_generate_without_out_prints_the_file(tmp_path, capsys):
    out = str(tmp_path / "hard.txt")
    assert main(["generate", "hard", "--k", "2", "-o", out]) == 0
    assert capsys.readouterr().out == ""
    assert main(["generate", "hard", "--k", "2"]) == 0
    assert capsys.readouterr().out.encode() == open(out, "rb").read()


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


@pytest.mark.parametrize("s,digest", [
    ("1", "fb53b126e6260d5427250d0bdc0d47e146be214e829d83aee34bd9a77e2f2b78"),
    ("2", "db3164965eaff602df3969ee4b3dc6d209fa81f018a018d5125ad24b7975ad41"),
], ids=["s1", "s2"])
def test_reduce_vc_trace_file_is_pinned(s, digest, tmp_path, capsys):
    # the trace file's bytes: every stage's graph, paths, leaves and budgets
    vc, red = str(tmp_path / "vc.txt"), str(tmp_path / "red.txt")
    assert main(["generate", "gnp", "--n", "5", "--p", "0.4", "--k", "2", "--seed", "1",
                 "-o", vc]) == 0
    assert main(["generate", "reduce-vc", "-i", vc, "--s", s, "-o", red]) == 0
    with open(red + ".trace.json", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest
    capsys.readouterr()


def test_verify_command_reports_and_digests(tmp_path, capsys):
    args = ["verify", "--trials", "12", "--max-n", "7", "--seed", "3"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["digest"] == second["digest"]
    assert first["result"]["pass"]


def test_verify_always_cross_checks_the_solver(capsys):
    assert main(["verify", "--trials", "20", "--max-n", "7", "--seed", "3"]) == 0
    cross = json.loads(capsys.readouterr().out)["result"]["solver_cross_check"]
    assert cross["applied"] == 20 * (harness.K_MAX + 1) and cross["failure_count"] == 0


def test_verify_asks_the_oracle_once_per_edge_set_and_budget(capsys, monkeypatch):
    # at the defaults the run has 777 oracle questions, 461 of them distinct;
    # the report, and so its digest, is the one that asking all 777 gave
    asked = []
    real = harness.brute_force_min_deletion

    def counted(g, fam, k, cap=None):
        asked.append((frozenset(g.edges()), k))
        return real(g, fam, k, cap=cap)

    monkeypatch.setattr(harness, "brute_force_min_deletion", counted)
    assert main(["verify"]) == 0
    assert len(asked) == len(set(asked)) == 461
    assert json.loads(capsys.readouterr().out)["digest"] == \
        "9ed0b4d6783b9957fa2729a5bdc1fbc6f1ede511d6177c9b04177e8e5ce3fd7e"


@pytest.mark.parametrize("family", ["2-diamond", "k4"])
def test_verify_refuses_a_family_the_kernelizer_does_not_support(family, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "brute_force_min_deletion",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["verify", "--trials", "3", "--max-n", "6", "--family", family]) == 2
    assert "is not supported by the kernelizer" in capsys.readouterr().err
    assert calls == []


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


def test_verify_checks_the_solver_deletion_sets(monkeypatch):
    # a solver that drops one edge from every set it returns keeps its
    # feasibility answers, so only a check of the returned sets catches it
    def drop_one(inst):
        sol = solve_branching(inst)
        if not sol.delete_set:
            return sol
        return Solution.of(sorted(sol.delete_set)[1:], sol.nodes)

    monkeypatch.setattr(harness, "solve_branching", drop_one)
    result = verify_rule_safety(trials=60, max_n=8, seed=3, family=FamilySpec.diamond())
    assert not result["pass"]
    assert result["solver_cross_check"]["failure_count"] > 0


def test_bench_command(capsys):
    assert main(["bench", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["bound_violations"] == 0
    rows = {r["label"]: r for r in report["result"]["rows"]}
    for k in (2, 3, 4, 5, 6):
        row = rows[f"hard(k={k})"]
        assert row["kernel_n"] == k * k + 4 and row["bound_ok"]
    assert report["digest"] == "021314c4c348f683991db5b478248785587b5d148671d5410e30e3879098a94e"


@pytest.mark.parametrize("family,digest", [
    ("diamond", "396e922c7f4966f5d1ab3e2b21b52db395108bf11714ccdaacf69e205d8b434e"),
    ("diamond,k4", "84add75824b512a58c7a2d718ffe0f0e902e9b0cacb7779e03e7b3aba9089c43"),
], ids=["diamond", "diamond,k4"])
def test_verify_solver_digests_are_pinned(family, digest, capsys):
    argv = ["verify", "--trials", "150", "--max-n", "8", "--seed", "3", "--family", family]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["pass"] and report["digest"] == digest


@pytest.mark.parametrize("gnp,exit_code,digest", [
    (("5", "0.3", "1", "2"), 0,
     "638f43b2eba8152811e373afaa9271eea0049ef9b6c3724f527c613fa60a0bb3"),
    (("7", "0.4", "2", "2"), 10,
     "12335cac6c8388d97f7c58b925abce849fa044f4c110469b5805299e66ba57a9"),
    (("7", "0.4", "3", "2"), 0,
     "df0a0fe7d97bb3935a304639e021fbe7de98dda6290721566b58136193843533"),
], ids=["yes-4-nodes", "no-1-node", "yes-14-nodes"])
def test_solve_reduced_vc_digests_are_pinned(gnp, exit_code, digest, tmp_path, capsys):
    # the digest covers the node count and the deletion set, so the search
    # tree and the solution it returns are both pinned
    n, p, k, seed = gnp
    vc, red = str(tmp_path / "vc.txt"), str(tmp_path / "red.txt")
    assert main(["generate", "gnp", "--n", n, "--p", p, "--k", k, "--seed", seed,
                 "-o", vc]) == 0
    assert main(["generate", "reduce-vc", "-i", vc, "-o", red]) == 0
    assert main(["solve", "-i", red]) == exit_code
    assert json.loads(capsys.readouterr().out)["digest"] == digest


def test_solve_checks_the_deletion_set_it_reports(tmp_path, capsys):
    vc, red = str(tmp_path / "vc.txt"), str(tmp_path / "red.txt")
    assert main(["generate", "gnp", "--n", "5", "--p", "0.3", "--k", "1", "--seed", "2",
                 "-o", vc]) == 0
    assert main(["generate", "reduce-vc", "-i", vc, "-o", red]) == 0
    assert main(["solve", "-i", red]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] and report["verified_family_free"] is True


def test_report_digest_ignores_timings():
    a = {"x": 1, "timings": {"total": 0.5}}
    b = {"x": 1, "timings": {"total": 99.0}}
    assert report_digest(a) == report_digest(b)
    assert report_digest(a) != report_digest({"x": 2, "timings": {}})


def test_header_over_the_edge_cap_is_refused_on_line_1(tmp_path, capsys):
    # both readers refuse it on the header line, before the body is read:
    # a self-loop on line 2 is never reached
    text = f"p dfed 2 {MAX_EDGES + 1} 0 diamond\ne 0 0\n"
    assert instance_io._parse_canonical(text) is None
    for read in (parse_instance, instance_io._parse_lines):
        with pytest.raises(ParseError, match=f"exceeds the limit of {MAX_EDGES} edges") as info:
            read(text)
        assert info.value.line == 1
    huge = write(tmp_path, "huge.txt", text)
    assert main(["kernelize", "-i", huge]) == 2
    assert "line 1: m = " in capsys.readouterr().err
    # m at the cap passes the header check
    with pytest.raises(ParseError, match=f"header claims {MAX_EDGES} edges, found 0"):
        parse_instance(f"p dfed 2 {MAX_EDGES} 0 diamond\n")


def test_body_past_the_header_m_is_refused_at_its_first_extra_edge_line(tmp_path, capsys):
    # the line reader stops there: the self-loop on line 4 is never reached
    text = "p dfed 3 1 0 diamond\ne 0 1\ne 1 2\ne 2 2\n"
    for read in (parse_instance, instance_io._parse_lines):
        with pytest.raises(ParseError, match="header claims 1 edges, found more") as info:
            read(text)
        assert info.value.line == 3
    assert main(["kernelize", "-i", write(tmp_path, "long.txt", text)]) == 2
    assert "line 3: header claims 1 edges" in capsys.readouterr().err
