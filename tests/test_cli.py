import contextlib
import io
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdecomp.cli import main
from hdecomp.graphs import MAX_GRAPH_VERTICES, Graph, connected_components, write_family, write_gr
from hdecomp.decomposition import (
    TreeHDecomposition,
    build_ed_forest,
    build_tree_h_decomposition,
    from_json,
    make_nice,
    to_json,
)
from hdecomp.graphs import GraphClassSpec

from .test_solvers import long_path

BIP = GraphClassSpec.bipartite()


@pytest.fixture
def files(tmp_path):
    def put(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return tmp_path, put


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_bipartite_depth0(files, capsys):
    tmp, put = files
    g = put("c4.gr", write_gr(Graph.cycle(4)))
    code, out, _ = run(capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "0", g)
    assert code == 0 and out.strip() == "DEPTH 0"


def test_decompose_writes_valid_json(files, capsys):
    tmp, put = files
    g = put("k3.gr", write_gr(Graph.complete(3)))
    out_path = str(tmp / "dec.json")
    code, out, _ = run(
        capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "1", g,
        "--out", out_path,
    )
    assert code == 0
    depth = int(out.split()[1])
    assert depth <= (1 + 1) * (2 * 1 + 1)
    obj = from_json((tmp / "dec.json").read_text())
    assert obj.depth == depth
    code, out, _ = run(capsys, "verify", out_path, g)
    assert code == 0 and out.strip() == "VALID"


def test_decompose_tw_mode(files, capsys):
    tmp, put = files
    g = put("k3.gr", write_gr(Graph.complete(3)))
    out_path = str(tmp / "dec.json")
    code, out, _ = run(
        capsys, "decompose", "--class", "bip", "--mode", "tw", "--k", "1", g,
        "--out", out_path,
    )
    assert code == 0 and out.startswith("WIDTH ")
    code, out, _ = run(capsys, "verify", out_path, g)
    assert code == 0


def test_decompose_promise_violation_exit_2(files, capsys):
    tmp, put = files
    g = put("k5.gr", write_gr(Graph.complete(5)))
    out_path = str(tmp / "dec.json")
    code, out, err = run(
        capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "0", g,
        "--out", out_path,
    )
    assert code == 2
    assert out.startswith("DEPTH")
    # output still written and structurally valid
    code, out, _ = run(capsys, "verify", out_path, g)
    assert code == 0


def test_decompose_forbidden_family(files, capsys):
    tmp, put = files
    g = put("k4.gr", write_gr(Graph.complete(4)))
    fam = put("fam.txt", write_family([Graph.complete(3)]))
    code, out, _ = run(
        capsys, "decompose", "--class", f"forbid:{fam}", "--mode", "ed", "--k", "2", g
    )
    assert code == 0 and out.startswith("DEPTH")


def test_family_comment_may_contain_the_separator(files, capsys):
    tmp, put = files
    g = put("k4.gr", write_gr(Graph.complete(4)))
    fam = put("fam.txt", "c triangle --- first member\np hd 3 3\n1 2\n2 3\n1 3\n")
    code, out, err = run(capsys, "decompose", "--class", f"forbid:{fam}", "--mode", "ed", "--k", "2", g)
    assert (code, err) == (0, "") and out.startswith("DEPTH")


def test_family_errors_report_file_lines(files, capsys):
    tmp, put = files
    g = put("k4.gr", write_gr(Graph.complete(4)))
    fam = put("fam.gr", "p hd 3 3\n1 2\n2 3\n1 3\n---\np hd 2 1\n1 1\n")
    code, out, err = run(capsys, "decompose", "--class", f"forbid:{fam}", "--mode", "ed", "--k", "1", g)
    assert code == 1 and out == ""
    assert err == f"error: cannot read family {fam}: line 7: self-loop at vertex 1\n"


def test_decompose_malformed_graph_exit_1(files, capsys):
    tmp, put = files
    g = put("bad.gr", "p hd 2 1\n1 5\n")
    code, _, err = run(capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "0", g)
    assert code == 1 and "error" in err


def test_malformed_graph_reports_self_loop_with_file_ids(files, capsys):
    tmp, put = files
    g = put("loop.gr", "p hd 2 1\n1 1\n")
    code, _, err = run(capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "0", g)
    assert code == 1
    assert err == f"error: cannot read graph {g}: line 2: self-loop at vertex 1\n"


def test_malformed_graph_reports_out_of_range_with_file_ids(files, capsys):
    tmp, put = files
    g = put("range.gr", "p hd 2 1\n1 3\n")
    code, _, err = run(capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "0", g)
    assert code == 1
    assert err == f"error: cannot read graph {g}: line 2: vertex 3 out of range for n=2\n"


def test_verify_rejects_wrong_graph(files, capsys):
    tmp, put = files
    k3 = put("k3.gr", write_gr(Graph.complete(3)))
    c5 = put("c5.gr", write_gr(Graph.cycle(5)))
    out_path = str(tmp / "dec.json")
    run(capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "1", k3, "--out", out_path)
    code, out, _ = run(capsys, "verify", out_path, c5)
    assert code == 1 and out.strip()


def test_verify_rejects_planted_violation(files, capsys):
    tmp, put = files
    g = put("k3.gr", write_gr(Graph.complete(3)))
    forest = build_ed_forest(Graph.complete(3), 1, GraphClassSpec.bipartite()).forest
    doc = json.loads(to_json(forest))
    for node in doc["nodes"]:
        if node["leaf"] and node["bag"]:
            node["bag"] = [0, 1, 2]  # duplicate vertices across bags
    doc["depth"] = forest.depth
    bad = put("bad.json", json.dumps(doc))
    code, out, _ = run(capsys, "verify", bad, g)
    assert code == 1


def test_malformed_decomposition_json_exit_1(files, capsys):
    tmp, put = files
    g = put("k3.gr", write_gr(Graph.complete(3)))
    run(capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "1", g, "--out", str(tmp / "dec.json"))
    doc = json.loads((tmp / "dec.json").read_text())
    doc["nodes"][-1]["parent"] = "0"
    bad = {"kind": put("kind.json", '{"kind":"nice"}'), "parent": put("parent.json", json.dumps(doc))}
    for name, path in bad.items():
        for argv in (["verify", path, g], ["solve", "--problem", "oct", "--decomp", path, g]):
            code, _, err = run(capsys, *argv)
            assert code == 1, (name, argv)
            assert err.startswith("error: cannot read decomposition"), (name, err)


def test_decomposition_json_fields_are_read_strictly(files, capsys):
    """The writer only produces JSON booleans as leaf flags, bags and an L
    without a repeated vertex, parents of at least -1, and integers as node
    ids, depth and width; a document with anything else is refused by the
    reader, not read loosely and verified.  C5's forest has depth 1 and its
    tree decomposition width 0, so a float or boolean there equals the
    integer."""
    tmp, put = files
    g = put("c5.gr", write_gr(Graph.cycle(5)))

    def leaf_flags(doc):
        for d in doc["nodes"]:
            if doc["kind"] != "elimination-forest":
                d["leaf"] = "x"
            elif d["leaf"]:
                d["leaf"] = "no"

    def repeated_vertex(doc):
        d = next(d for d in doc["nodes"] if d["bag"])
        d["bag"].append(d["bag"][0])

    def parent(doc):
        next(d for d in doc["nodes"] if d["parent"] == -1)["parent"] = -7

    def float_number(doc):
        key = "depth" if "depth" in doc else "width"
        doc[key] = float(doc[key])

    def bool_number(doc):
        key = "depth" if "depth" in doc else "width"
        doc[key] = bool(doc[key])

    def bool_ids(doc):
        for d in doc["nodes"]:
            if d["id"] < 2:
                d["id"] = bool(d["id"])

    def repeated_base_vertex(doc):
        doc["L"].append(doc["L"][0])

    common = [leaf_flags, repeated_vertex, parent, float_number, bool_number, bool_ids]
    for mode, via, mutators in (("ed", "elim", common), ("tw", "dp", common + [repeated_base_vertex])):
        dec = tmp / f"{mode}.json"
        code, _, _ = run(capsys, "decompose", "--class", "bip", "--mode", mode, "--k", "1", g, "--out", str(dec))
        assert code == 0
        for mutate in mutators:
            doc = json.loads(dec.read_text())
            mutate(doc)
            path = put(f"{mode}-{mutate.__name__}.json", json.dumps(doc))
            solve = ["solve", "--problem", "oct", "--via", via, "--decomp", path, g]
            for argv in (["verify", path, g], solve):
                code, out, err = run(capsys, *argv)
                assert code == 1 and out == "", (mode, mutate.__name__, argv, out)
                assert re.fullmatch(f"error: cannot read decomposition {re.escape(path)}: .+\n", err), err


def test_verify_rejects_negative_bag_vertex(files, capsys):
    tmp, put = files
    g = put("k3.gr", write_gr(Graph.complete(3)))
    dec = build_tree_h_decomposition(Graph.complete(3), 1, GraphClassSpec.bipartite()).decomposition
    doc = json.loads(to_json(dec))
    doc["nodes"][0]["bag"] = [-1] + doc["nodes"][0]["bag"][1:]
    bad = put("bad.json", json.dumps(doc))
    code, out, _ = run(capsys, "verify", bad, g)
    assert code == 1 and "out of range" in out
    code, _, err = run(capsys, "solve", "--problem", "oct", "--via", "dp", "--decomp", bad, g)
    assert code == 1 and "out of range" in err


def test_deeply_nested_decomposition_is_an_error(files, capsys):
    """json.loads raises RecursionError on deep nesting; it exits 1."""
    tmp, put = files
    g = put("k2.gr", write_gr(Graph.complete(2)))
    deep = put("deep.json", "[" * 200_000 + "]" * 200_000)
    for argv in (["verify", deep, g], ["solve", "--problem", "oct", "--decomp", deep, g]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith(f"error: cannot read decomposition {deep}: maximum recursion depth"), err


def test_graph_too_large_to_hold_is_an_error(files, capsys):
    """A graph's p-line over MAX_GRAPH_VERTICES, and a family member's over
    the member cap, are refused at that line before any allocation: n =
    2^62, which no list could hold, and n = 2^20 + 1, which the oracle used
    to allocate and answer TOO LARGE.  In a JSON's class, a member's n is
    refused by the member cap."""
    tmp, put = files
    g = put("k2.gr", write_gr(Graph.complete(2)))
    huge = put("huge.gr", f"p hd {1 << 62} 0\n")
    over = put("over.gr", f"c one past the cap\np hd {MAX_GRAPH_VERTICES + 1} 0\n")
    forest = build_ed_forest(Graph.complete(2), 0, GraphClassSpec.forbidden(Graph.complete(3))).forest
    doc = json.loads(to_json(forest))
    doc["class"]["family"][0]["n"] = 1 << 62
    dec = put("dec.json", json.dumps(doc))
    too_big = f"error: cannot read graph {huge}: line 1: n = {1 << 62} exceeds the cap of {MAX_GRAPH_VERTICES}\n"
    cases = [
        (["verify", dec, huge], too_big),
        (["oracle", "--what", "ed", "--class", "bip", huge], too_big),
        (["decompose", "--class", "bip", "--mode", "ed", "--k", "1", huge], too_big),
        (
            ["oracle", "--what", "ed", "--class", "bip", over],
            f"error: cannot read graph {over}: line 2: n = {MAX_GRAPH_VERTICES + 1} exceeds the cap of 1048576\n",
        ),
        (
            ["decompose", "--class", f"forbid:{huge}", "--mode", "ed", "--k", "1", g],
            f"error: cannot read family {huge}: line 1: n = {1 << 62} exceeds the cap of 6\n",
        ),
        (
            ["verify", dec, g],
            f"error: cannot read decomposition {dec}: family member on {1 << 62} vertices exceeds the cap of 6\n",
        ),
    ]
    for argv, want in cases:
        assert run(capsys, *argv) == (1, "", want), argv


def test_solve_examples(files, capsys):
    tmp, put = files
    c5 = put("c5.gr", write_gr(Graph.cycle(5)))
    code, out, _ = run(capsys, "solve", "--problem", "oct", c5)
    assert code == 0 and out.splitlines()[0] == "SOLUTION oct 1"
    k4 = put("k4.gr", write_gr(Graph.complete(4)))
    code, out, _ = run(capsys, "solve", "--problem", "klfree", "--l", "3", k4)
    assert code == 0 and out.splitlines()[0] == "SOLUTION klfree 2"
    code, out, _ = run(capsys, "solve", "--problem", "vc", k4)
    assert code == 0 and out.splitlines()[0] == "SOLUTION vc 3"


def test_solve_via_routes_agree(files, capsys):
    tmp, put = files
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    path = put("g.gr", write_gr(g))
    results = {}
    for problem in ("oct", "vc"):
        for via in ("elim", "dp"):
            code, out, _ = run(capsys, "solve", "--problem", problem, "--via", via, path)
            assert code == 0
            results[(problem, via)] = int(out.splitlines()[0].split()[-1])
    assert results[("oct", "elim")] == results[("oct", "dp")]
    assert results[("vc", "elim")] == results[("vc", "dp")]


def test_solve_with_explicit_decomposition(files, capsys):
    tmp, put = files
    k3 = put("k3.gr", write_gr(Graph.complete(3)))
    dec_path = str(tmp / "dec.json")
    run(capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "1", k3, "--out", dec_path)
    code, out, _ = run(capsys, "solve", "--problem", "oct", "--decomp", dec_path, k3)
    assert code == 0 and out.splitlines()[0] == "SOLUTION oct 1"


def test_solve_rejects_decomposition_of_another_graph(files, capsys):
    tmp, put = files
    c5 = put("c5.gr", write_gr(Graph.cycle(5)))
    for other in (Graph.path(5), Graph.cycle(7)):
        forest = build_ed_forest(other, 1, BIP).forest
        nice = make_nice(build_tree_h_decomposition(other, 1, BIP).decomposition)
        for via, doc in (("elim", forest), ("dp", nice)):
            path = put(f"{via}.json", to_json(doc))
            argv = ("solve", "--problem", "oct", "--via", via, "--decomp", path, c5)
            code, out, err = run(capsys, *argv)
            assert code == 1 and not out, (other, via)
            assert err.startswith("error: invalid "), (other, via, err)


def test_solve_via_dp_validates_a_stored_decomposition_once(files, capsys, monkeypatch):
    """A decomposition read by `solve --via dp` is validated once, by the
    DP's one `validate` call: a tree decomposition by its own, whose bags
    the DP then reads as they are, and a nice one by the nice `validate`,
    which runs the tree checks through `super()`."""
    from hdecomp.decomposition import NiceTreeHDecomposition

    from .test_golden import triangle_chain

    tmp, put = files
    g = triangle_chain(5)
    path = put("g.gr", write_gr(g))
    dec = build_tree_h_decomposition(g, 1, BIP).decomposition
    calls = []
    for cls, name in ((TreeHDecomposition, "tree"), (NiceTreeHDecomposition, "nice")):
        orig = cls.validate
        monkeypatch.setattr(cls, "validate", lambda self, g, orig=orig, name=name: calls.append(name) or orig(self, g))
    for doc, want in ((dec, ["tree"]), (make_nice(dec), ["nice", "tree"])):
        calls.clear()
        argv = ("solve", "--problem", "oct", "--via", "dp", "--decomp", put("dec.json", to_json(doc)), path)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.splitlines()[0] == "SOLUTION oct 5"
        assert calls == want


def test_solve_vc_on_long_augmenting_path(files, capsys):
    tmp, put = files
    path = put("path.gr", write_gr(long_path(1200)))
    code, out, _ = run(capsys, "solve", "--problem", "vc", path)
    assert code == 0 and out.splitlines()[0] == "SOLUTION vc 1201"


def test_solve_via_dp_refuses_tables_over_the_budget(files, capsys):
    """One bag holding all of C20: the OCT tables would take 3^20 cells at
    the top, so the DP stops before it allocates them."""
    tmp, put = files
    g = put("c20.gr", write_gr(Graph.cycle(20)))
    dec = put("c20.json", to_json(TreeHDecomposition([-1], [frozenset(range(20))], frozenset(), BIP)))
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", "--problem", "oct", "--via", "dp", "--decomp", dec, g)
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    need = re.fullmatch(r"error: DP tables need (\d+) MiB, over the 256 MiB budget\n", err)
    assert need and int(need[1]) >= 3**20 * 8 >> 20


def test_solve_via_elim_refuses_a_forest_too_deep_to_branch(files, capsys):
    """A 700-node path forest on P700 is valid, but branching on it would
    make 2^699 leaf solves; solve stops with an error, not a RecursionError."""
    from hdecomp.decomposition import EliminationForest, ForestNode

    tmp, put = files
    n = 700
    g = put("p700.gr", write_gr(Graph.path(n)))
    nodes = [ForestNode(frozenset({v}), v - 1, v == n - 1) for v in range(n)]
    dec = put("p700.json", to_json(EliminationForest(nodes, BIP)))
    code, out, _ = run(capsys, "verify", dec, g)
    assert code == 0 and out.strip() == "VALID"
    code, out, err = run(capsys, "solve", "--problem", "vc", "--via", "elim", "--decomp", dec, g)
    assert code == 1 and out == ""
    assert err == "error: branching needs at least 2^699 leaf solves, over the 2^40 budget\n"


def test_tw_mode_at_k2_decomposes_and_solves_a_triangle_chain(files, capsys):
    from .test_golden import triangle_chain

    tmp, put = files
    chain = put("chain.gr", write_gr(triangle_chain(10)))
    dec = str(tmp / "chain.json")
    code, out, _ = run(capsys, "decompose", "--class", "bip", "--mode", "tw", "--k", "2", chain, "--out", dec)
    assert code == 0 and out == "WIDTH 8\n"
    for argv in (["--decomp", dec], []):
        code, out, _ = run(capsys, "solve", "--problem", "oct", "--via", "dp", *argv, chain)
        assert code == 0 and out.startswith("SOLUTION oct 10\n")


def test_solve_rejects_class_mismatch(files, capsys):
    tmp, put = files
    k4 = put("k4.gr", write_gr(Graph.complete(4)))
    dec_path = str(tmp / "dec.json")
    fam = put("fam.txt", write_family([Graph.complete(3)]))
    run(capsys, "decompose", "--class", f"forbid:{fam}", "--mode", "ed", "--k", "2", k4, "--out", dec_path)
    code, _, err = run(capsys, "solve", "--problem", "oct", "--decomp", dec_path, k4)
    assert code == 1 and "class" in err


def test_solve_via_dp_rejects_forest_input(files, capsys):
    tmp, put = files
    k3 = put("k3.gr", write_gr(Graph.complete(3)))
    dec_path = str(tmp / "dec.json")
    run(capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "1", k3, "--out", dec_path)
    code, _, err = run(capsys, "solve", "--problem", "oct", "--via", "dp", "--decomp", dec_path, k3)
    assert code == 1 and "tree decomposition" in err


def test_solve_klfree_dp_unsupported(files, capsys):
    tmp, put = files
    k4 = put("k4.gr", write_gr(Graph.complete(4)))
    code, _, err = run(capsys, "solve", "--problem", "klfree", "--via", "dp", k4)
    assert code == 1 and "elim" in err


def test_oracle_outputs(files, capsys):
    tmp, put = files
    k3 = put("k3.gr", write_gr(Graph.complete(3)))
    code, out, _ = run(capsys, "oracle", "--what", "ed", "--class", "bip", k3)
    assert code == 0 and out.strip() == "ED 1"
    c5 = put("c5.gr", write_gr(Graph.cycle(5)))
    code, out, _ = run(capsys, "oracle", "--what", "deletion", "--class", "bip", c5)
    assert code == 0 and out.splitlines()[0] == "SOLUTION deletion 1"
    broom = put("broom.gr", write_gr(Graph(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])))
    code, out, _ = run(capsys, "oracle", "--what", "impsep", "--x", "1", "--y", "5", "--k", "2", broom)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "IMPSEP 2" and set(lines[1:]) == {"2", "3 4"}
    e = put("e.gr", write_gr(Graph(2, [(0, 1)])))
    code, out, _ = run(capsys, "oracle", "--what", "abc", "--b1", "1,2", "--k", "1", e)
    assert code == 0 and out.splitlines()[0] == "SOLUTION abc 1"


@pytest.mark.parametrize(
    "argv",
    [
        ("--what", "impsep", "--x", "9", "--y", "1"),
        ("--what", "abc", "--b1", "9", "--b2", "1", "--k", "2"),
        ("--what", "abc", "--k", "-3"),
    ],
    ids=["impsep-vertex-out-of-range", "abc-vertex-out-of-range", "abc-negative-k"],
)
def test_oracle_rejects_invalid_queries(files, capsys, argv):
    tmp, put = files
    p4 = put("p4.gr", write_gr(Graph.path(4)))
    code, out, err = run(capsys, "oracle", *argv, p4)
    assert code == 1 and out == "" and err.startswith("error: ")


def test_oracle_guard_too_large(files, capsys):
    tmp, put = files
    big = put("big.gr", write_gr(Graph(14)))
    code, _, err = run(capsys, "oracle", "--what", "ed", "--class", "bip", big)
    assert code == 1 and "TOO LARGE" in err


@pytest.mark.parametrize(
    "argv, want",
    [
        (("--what", "ed", "--class", "forbid:{tmp}/no_guard_here.txt"), "error: cannot read family"),
        (("--what", "abc", "--b1", "guard"), "error: malformed vertex list"),
    ],
    ids=["missing-family-file", "malformed-vertex-list"],
)
def test_oracle_input_errors_are_not_size_guards(files, capsys, argv, want):
    """Only the oracles' own size guards answer TOO LARGE, even when a bad
    input's message happens to hold the word `guard`."""
    tmp, put = files
    p4 = put("p4.gr", write_gr(Graph.path(4)))
    code, out, err = run(capsys, "oracle", *(a.format(tmp=tmp) for a in argv), p4)
    assert code == 1 and out == "" and err.splitlines()[0].startswith(want), err


def test_batch_mode(files, capsys):
    tmp, put = files
    put("a.gr", write_gr(Graph.cycle(4)))
    put("b.gr", write_gr(Graph.complete(3)))
    code, out, _ = run(
        capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "1",
        "--batch", str(tmp),
    )
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["a.gr"] == "DEPTH 0"
    assert lines["b.gr"].startswith("DEPTH")


def test_batch_mode_reports_an_internal_error_per_file(files, capsys, monkeypatch):
    # the builder fails on the 5-vertex graph only; threads instead of
    # worker processes see the patched builder under any start method
    import concurrent.futures

    from hdecomp import cli

    build = cli.build_tree_h_decomposition

    def failing(g, k, cls):
        if g.n == 5:
            raise AssertionError("planted failure")
        return build(g, k, cls)

    monkeypatch.setattr(cli, "build_tree_h_decomposition", failing)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", concurrent.futures.ThreadPoolExecutor)
    tmp, put = files
    put("a.gr", write_gr(Graph.cycle(5)))
    put("b.gr", write_gr(Graph.cycle(4)))
    code, out, _ = run(
        capsys, "decompose", "--class", "bip", "--mode", "tw", "--k", "2",
        "--batch", str(tmp),
    )
    assert code == 1
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["a.gr"] == "ERROR internal: AssertionError: planted failure"
    assert lines["b.gr"].startswith("WIDTH")


def test_batch_mode_reports_a_value_error_by_its_message(files, capsys, monkeypatch):
    import concurrent.futures

    from hdecomp import cli

    build = cli.build_ed_forest

    def failing(g, k, cls):
        if g.n == 5:
            raise ValueError("planted failure")
        return build(g, k, cls)

    monkeypatch.setattr(cli, "build_ed_forest", failing)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", concurrent.futures.ThreadPoolExecutor)
    tmp, put = files
    put("a.gr", write_gr(Graph.cycle(5)))
    put("b.gr", write_gr(Graph.cycle(4)))
    code, out, _ = run(
        capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "1",
        "--batch", str(tmp),
    )
    assert code == 1
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["a.gr"] == "ERROR planted failure"
    assert lines["b.gr"] == "DEPTH 0"


@pytest.mark.parametrize("flag", ["--out", "--dot", "graph"])
def test_batch_mode_rejects_single_graph_arguments(files, capsys, flag):
    tmp, put = files
    g = put("a.gr", write_gr(Graph.cycle(4)))
    extra = [g] if flag == "graph" else [flag, str(tmp / "written")]
    code, out, err = run(
        capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "1",
        "--batch", str(tmp), *extra,
    )
    what = "a graph file" if flag == "graph" else flag
    assert code == 1 and out == "" and err == f"error: {what} cannot be combined with --batch\n"
    assert not (tmp / "written").exists()


#: recorded before auto mode skipped k = 0 on inputs outside the class; the
#: DP's vertex cover since it reads the decomposition's own bags
CHAIN2_SOLUTIONS = {
    ("dp", "oct"): "SOLUTION oct 2\n1\n5\n",
    ("dp", "vc"): "SOLUTION vc 4\n1\n3\n5\n6\n",
    ("elim", "oct"): "SOLUTION oct 2\n2\n4\n",
    ("elim", "vc"): "SOLUTION vc 4\n2\n3\n4\n6\n",
    ("elim", "klfree"): "SOLUTION klfree 2\n3\n4\n",
}


@pytest.mark.parametrize("via,problem", sorted(CHAIN2_SOLUTIONS))
def test_auto_mode_builds_once(files, capsys, monkeypatch, via, problem):
    """Off the class auto mode starts at k = 1, inside it at k = 0."""
    from hdecomp import cli

    from .test_golden import triangle_chain

    tmp, put = files
    ks = []
    for name in ("build_ed_forest", "build_tree_h_decomposition"):
        build = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda g, k, cls, build=build: ks.append(k) or build(g, k, cls))
    chain = put("chain.gr", write_gr(triangle_chain(2)))
    code, out, _ = run(capsys, "solve", "--problem", problem, "--via", via, chain)
    assert code == 0 and out == CHAIN2_SOLUTIONS[via, problem] and ks == [1]
    ks.clear()
    c6 = put("c6.gr", write_gr(Graph.cycle(6)))
    code, out, _ = run(capsys, "solve", "--problem", problem, "--via", via, c6)
    assert code == 0 and ks == [0]
    assert out == ("SOLUTION vc 3\n1\n3\n5\n" if problem == "vc" else f"SOLUTION {problem} 0\n")


@pytest.mark.parametrize("via", ["elim", "dp"])
def test_auto_mode_builds_structures_only_at_the_passing_k(files, capsys, monkeypatch, via):
    """Builds that fail the promise stop at the verdict, and no conversion
    runs for them.  The failing ed build at k = 1 stops at its first
    star-forest certificate: it runs no quotient search and makes fewer
    nodes than a full build.  The other failing builds run their quotient
    searches capped at k + 1, which return no structure.  The answer is
    the one a direct build at the passing k gives."""
    import random

    from hdecomp import cli, decomposition
    from hdecomp.solvers import solution_block, solve_oct_dp, solve_oct_elim

    from .conftest import random_graph

    g = random_graph(random.Random(5), 12, 0.3)  # fails at k = 1 and 2 in both modes
    tmp, put = files
    path = put("g.gr", write_gr(g))
    name = "build_ed_forest" if via == "elim" else "build_tree_h_decomposition"
    ks, reached, searched, made = [], [], [], []
    build = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda g, k, cls: ks.append(k) or build(g, k, cls))
    for fn in ("ed_forest_from_sepdecomp", "tree_decomp_from_sepdecomp"):
        inner = getattr(decomposition, fn)
        monkeypatch.setattr(decomposition, fn, lambda *a, inner=inner, fn=fn: reached.append((fn, ks[-1])) or inner(*a))
    for fn, field in (("exact_treedepth", "forest"), ("exact_treewidth", "decomposition")):
        inner = getattr(decomposition, fn)

        def search(q, *cap, inner=inner, field=field):
            res = inner(q, *cap)
            searched.append((ks[-1], cap, getattr(res, field)))
            return res

        monkeypatch.setattr(decomposition, fn, search)
    sepdec = decomposition.build_separation_decomposition

    def counted(*a, **kw):
        dec = sepdec(*a, **kw)
        made.append((ks[-1], len(dec.nodes)))
        return dec

    monkeypatch.setattr(decomposition, "build_separation_decomposition", counted)
    code, out, _ = run(capsys, "solve", "--problem", "oct", "--via", via, path)
    assert code == 0 and ks == [1, 2, 3]
    assert reached and {k for _, k in reached} == {3}
    failing = [(k, cap, structure) for k, cap, structure in searched if k < 3]
    assert {k for k, _, _ in failing} == ({2} if via == "elim" else {1, 2})
    assert all(cap == (k + 1,) and structure is None for k, cap, structure in failing)
    if via == "elim":
        full = sum(len(sepdec(g.induced(comp)[0], 1, BIP).nodes) for comp in connected_components(g))
        assert 0 < sum(n for k, n in made if k == 1) < full
        x = solve_oct_elim(g, build_ed_forest(g, 3, BIP).forest)
    else:
        x = solve_oct_dp(g, make_nice(build_tree_h_decomposition(g, 3, BIP).decomposition))[1]
    assert out == solution_block("oct", x)


def test_cached_parser_answers_as_a_fresh_one(files, capsys, monkeypatch):
    """main reuses one parser across calls; a failed parse, an option left
    out after a call that gave it, and a refusal after parsing read the
    same as with a parser built for the call."""
    from hdecomp import cli

    tmp, put = files
    k4 = put("k4.gr", write_gr(Graph.complete(4)))
    calls = [
        ("solve", "--problem", "nope", k4),
        ("solve", "--problem", "klfree", "--l", "4", k4),
        ("solve", "--problem", "klfree", k4),
        ("decompose", "--class", "bip", "--mode", "ed", "--k", "1", "--batch", str(tmp), k4),
    ]
    cli._parser.cache_clear()
    cached = [run(capsys, *argv) for argv in calls]
    assert cli._parser.cache_info()[:2] == (len(calls) - 1, 1)  # hits, misses
    monkeypatch.setattr(cli, "_parser", cli._build_parser)
    assert cached == [run(capsys, *argv) for argv in calls]
    assert cached[0][0] == 1 and "invalid choice" in cached[0][2]
    assert cached[1][0] == 0 and cached[1][1].startswith("SOLUTION klfree 1\n")
    assert cached[2][0] == 0 and cached[2][1].startswith("SOLUTION klfree 2\n")  # l = 3, the default
    assert cached[3] == (1, "", "error: a graph file cannot be combined with --batch\n")


def test_dot_export(files, capsys):
    tmp, put = files
    k3 = put("k3.gr", write_gr(Graph.complete(3)))
    dot_path = tmp / "out.dot"
    code, _, _ = run(
        capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "1", k3,
        "--dot", str(dot_path),
    )
    assert code == 0
    text = dot_path.read_text()
    assert text.startswith("digraph") and "box" in text


@pytest.mark.parametrize("flag, what", [("--out", "decomposition"), ("--dot", "dot")])
def test_unwritable_output_is_an_error(files, capsys, flag, what):
    """An output path in a missing directory exits 1 with one error line."""
    tmp, put = files
    k3 = put("k3.gr", write_gr(Graph.complete(3)))
    path = str(tmp / "missing" / "out")
    code, out, err = run(capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "1", k3, flag, path)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {what} {path}: ") and err.count("\n") == 1, err


def test_bad_usage_exits_1(capsys):
    code, _, _ = run(capsys, "decompose", "--mode", "ed")
    assert code == 1


@pytest.mark.parametrize("ell", ["1", "7"])
def test_solve_klfree_rejects_clique_size_out_of_range(files, capsys, ell):
    tmp, put = files
    k4 = put("k4.gr", write_gr(Graph.complete(4)))
    code, out, err = run(capsys, "solve", "--problem", "klfree", "--l", ell, k4)
    assert code == 1 and out == "" and err.startswith("error:") and "--l" in err


@pytest.mark.parametrize("mode,k", [("tw", "-2"), ("ed", "-1")])
def test_decompose_rejects_negative_k(files, capsys, mode, k):
    tmp, put = files
    k3 = put("k3.gr", write_gr(Graph.complete(3)))
    code, out, err = run(capsys, "decompose", "--class", "bip", "--mode", mode, "--k", k, k3)
    assert code == 1 and out == "" and err.startswith("error:") and "--k" in err


@pytest.mark.parametrize("what", ["deletion", "ed"])
def test_oracle_class_required(files, capsys, what):
    tmp, put = files
    k3 = put("k3.gr", write_gr(Graph.complete(3)))
    code, out, err = run(capsys, "oracle", "--what", what, k3)
    assert code == 1 and out == "" and err.startswith("error:") and "--class" in err


# -- fuzzing ---------------------------------------------------------------------

CLAW = Graph(4, [(0, 1), (0, 2), (0, 3)])
FAMILY_MEMBERS = (Graph.complete(2), Graph.complete(3), Graph.path(3), Graph.cycle(4), CLAW)
NUMBERS = (-1, 0, 1, 2, 3, 8, 9, 1 << 62)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def mutated(draw, text):
    """`text` with a few lines dropped, duplicated or replaced, or a number
    in a line changed."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "duplicate", "replace", "number")))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "replace":
            lines[i] = draw(st.sampled_from(lines + ["", "p hd 2 1", "---", "1 2", "x", "{", "]", "null"]))
        elif numbers := list(re.finditer(r"-?\d+", lines[i])):
            m = draw(st.sampled_from(numbers))
            lines[i] = lines[i][: m.start()] + str(draw(st.sampled_from(NUMBERS))) + lines[i][m.end() :]
    return "\n".join(lines) + "\n"


@st.composite
def input_files(draw):
    """(graph, family, decomposition) texts: valid ones of a graph on at most
    8 vertices, then mutated; the decomposition JSON may be nested."""
    g = draw(small_graphs())
    family = draw(st.lists(st.sampled_from(FAMILY_MEMBERS), min_size=1, max_size=2))
    kind = draw(st.sampled_from(("ed-bip", "ed-k3", "tw", "nice")))
    if kind == "ed-bip":
        dec = build_ed_forest(g, 1, BIP).forest
    elif kind == "ed-k3":
        dec = build_ed_forest(g, 1, GraphClassSpec.kl_free(3)).forest
    else:
        dec = build_tree_h_decomposition(g, 1, BIP).decomposition
        dec = make_nice(dec) if kind == "nice" else dec
    depth = draw(st.sampled_from((0, 0, 1, 2, 200_000)))
    doc = "[" * depth + json.dumps(json.loads(to_json(dec)), indent=1) + "]" * depth
    return draw(mutated(write_gr(g))), draw(mutated(write_family(family))), draw(mutated(doc))


@settings(max_examples=200, deadline=None)
@given(input_files(), st.data())
def test_mutated_inputs_never_end_in_a_traceback(tmp_path_factory, texts, data):
    """Every command exits 0, 1 or 2 on mutated small input files; none lets
    an exception escape."""
    tmp = tmp_path_factory.getbasetemp()
    paths = [str(tmp / name) for name in ("fuzz.gr", "fuzz-family.gr", "fuzz.json")]
    for path, text in zip(paths, texts):
        with open(path, "w") as f:
            f.write(text)
    g, fam, dec = paths
    cls = data.draw(st.sampled_from(("bip", f"forbid:{fam}")))
    problem = data.draw(st.sampled_from(("oct", "vc", "klfree")))
    via = data.draw(st.sampled_from(("elim", "dp")))
    for argv in (
        ["verify", dec, g],
        ["decompose", "--class", cls, "--mode", "ed", "--k", "1", g],
        ["decompose", "--class", cls, "--mode", "tw", "--k", "1", g],
        ["solve", "--problem", problem, "--via", via, "--decomp", dec, g],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv
