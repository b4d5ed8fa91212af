import json

import pytest

from hdecomp.cli import main
from hdecomp.graphs import Graph, write_family, write_gr
from hdecomp.decomposition import build_ed_forest, build_tree_h_decomposition, from_json, to_json
from hdecomp.graphs import GraphClassSpec


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


def test_decompose_malformed_graph_exit_1(files, capsys):
    tmp, put = files
    g = put("bad.gr", "p hd 2 1\n1 5\n")
    code, _, err = run(capsys, "decompose", "--class", "bip", "--mode", "ed", "--k", "0", g)
    assert code == 1 and "error" in err


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


def test_oracle_guard_too_large(files, capsys):
    tmp, put = files
    big = put("big.gr", write_gr(Graph(14)))
    code, _, err = run(capsys, "oracle", "--what", "ed", "--class", "bip", big)
    assert code == 1 and "TOO LARGE" in err


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


def test_bad_usage_exits_1(capsys):
    code, _, _ = run(capsys, "decompose", "--mode", "ed")
    assert code == 1
