"""Tests of the benchmark's own generators and metric helpers.

    python3 -m pytest bench -q      (from the root of the checkout)
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import families as F  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402
from hdecomp.decomposition import from_json  # noqa: E402
from hdecomp.graphs import Graph, GraphClassSpec  # noqa: E402
from hdecomp.oracles import brute_min_deletion, brute_min_vertex_cover  # noqa: E402


def _tree(tmp_path, workload, seed):
    files = W.Files(tmp_path / f"{workload}-{seed}")
    W.Schedule(W.cycle_maker(workload, seed, files), 2)
    W.build_probes(workload, seed, files)
    return {p.name: p.read_bytes() for p in sorted(files.root.iterdir())}


@pytest.mark.parametrize("workload", sorted(W.TEMPLATES))
def test_same_seed_same_files(tmp_path, workload):
    a = _tree(tmp_path / "a", workload, 5)
    b = _tree(tmp_path / "b", workload, 5)
    c = _tree(tmp_path / "c", workload, 6)
    assert a == b
    assert a.keys() == c.keys()
    gr = [name for name in a if name.endswith(".gr")]
    assert gr and all(a[name] != c[name] for name in gr)


def _small(rng):
    for _ in range(200):
        yield F.chain(rng, rng.randint(1, 3))
        yield F.pendant(rng, rng.randint(0, 2), tree=rng.randint(1, 4))
        yield F.planted(rng, rng.randint(10, 12), rng.randint(1, 2), avg_deg=rng.choice((1.6, 2.5)))
        yield F.planted(rng, rng.randint(8, 12), rng.randint(1, 2), triangles=True)


def test_closed_form_optima_match_brute_force():
    seen = 0
    for inst in _small(random.Random(11)):
        if inst.n > 12:
            continue
        g = Graph(inst.n, inst.edges)
        assert inst.oct == brute_min_deletion(g, GraphClassSpec.bipartite())[0], inst
        if inst.vc is not None:
            assert inst.vc == brute_min_vertex_cover(g)[0], inst
        if inst.k3 is not None:
            assert inst.k3 == brute_min_deletion(g, GraphClassSpec.kl_free(3))[0], inst
        seen += 1
    assert seen > 300


@pytest.mark.parametrize("p", [1, 2, 7, 30])
def test_chain_tree_decomposition_validates(p):
    inst = F.chain(random.Random(p), p)
    dec = from_json(F.chain_tree_decomposition(inst))
    assert dec.validate(Graph(inst.n, inst.edges)) == []


def test_relabel_keeps_decompositions_valid():
    rng = random.Random(3)
    inst = F.chain(rng, 6)
    doc = json.loads(F.chain_tree_decomposition(inst))
    perm = list(range(inst.n))
    rng.shuffle(perm)
    new, newdoc = W.relabel(inst, doc, perm)
    assert new.edges != inst.edges and new.oct == inst.oct and new.vc == inst.vc
    assert from_json(json.dumps(newdoc)).validate(Graph(new.n, new.edges)) == []


def test_tail_keeps_ten_ops_beyond_it():
    xs = list(range(1, 201))
    assert R.tail(xs, 90) == (180, 90)
    assert R.tail(xs[:95], 90) == (85, 89)  # p90 of 95 ops has only 9 beyond it
    assert R.tail(xs[:5], 90) == (5, 100)


def test_scale_to_reference_speed_and_charge_failures_the_cap():
    recs = [{"seconds": 1.0, "error": None, "wrong": None}, {"seconds": 1.0, "error": "Timeout", "wrong": None}]
    R.scale(recs, [2 * R.REF_S] * 3)
    assert recs[0]["charged_s"] == 0.5 and recs[1]["scaled_s"] == 0.5
    assert recs[1]["charged_s"] == R.OP_CAP_S
