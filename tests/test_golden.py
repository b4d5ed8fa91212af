"""Byte-for-byte pin of the decomposition builders, the conversions and the
solvers.

Refactors must reproduce every decomposition and every solution set exactly
(smallest-id tie-breaks, unique farthest cuts).  This hashes the canonical
JSON of the builders and conversions, and the solvers' solution sets, on
seeded corpora; the first digest was recorded before the tree walks became
iterative.  When a change alters an output on purpose, record the new digest
in the same change and say why.
"""

import hashlib
import random

from hdecomp.graphs import Graph, GraphClassSpec
from hdecomp.decomposition import (
    build_ed_forest,
    build_tree_h_decomposition,
    ed_to_tree_decomposition,
    make_nice,
    to_json,
)
from hdecomp.solvers import (
    solve_klfree_elim,
    solve_oct_dp,
    solve_oct_elim,
    solve_vc_dp,
    solve_vc_elim,
)

from .conftest import random_graph

BIP = GraphClassSpec.bipartite()
TRI = GraphClassSpec.triangle_free()
K3FREE = GraphClassSpec.kl_free(3)
CLAW_FREE = GraphClassSpec.forbidden(Graph(4, [(0, 1), (0, 2), (0, 3)]))

GOLDEN = "269f55ba8497fabc08a2ee819a64964044aa68a54f3193b94b3e4ee91fc009ea"

#: recorded before the restricted separation search moved onto vertex masks
GOLDEN_BENCH_SHAPES = "b4666c8869faf39ae2c4f738c65799c99885a56bd32b509f31227160edf758f1"

#: recorded before the Koenig cover became an anchored flow cut
GOLDEN_SOLVERS = "c9056c227d1e0323ecb3e1658053b916104778fae9835990d01276fd195dc772"

#: recorded before the forbidden-class finder moved onto vertex masks
GOLDEN_FORBIDDEN_SHAPES = "bf1c5319de541680437d6ea9532ced69e9ac5ec54c717ea7104f779e7055cee2"

#: recorded when bipartite tw mode first ran at k = 2 (it raised before)
GOLDEN_CHAINS_K2 = "3792e4bbab24d755a9646c4ea8c6e487cf3c16e649ec225edf52fe785e7942cf"


def triangle_chain(p):
    """p triangles, triangle i+1 hanging off a bridge from triangle i."""
    edges = []
    for i in range(p):
        a = 3 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2)]
        if i:
            edges.append((a - 1, a))
    return Graph(3 * p, edges)


def pendant_triangles(p):
    """A central triangle on 0, 1, 2 with p triangles hung off vertex 0."""
    edges = [(0, 1), (0, 2), (1, 2)]
    for i in range(p):
        a = 3 + 3 * i
        edges += [(a, a + 1), (a, a + 2), (a + 1, a + 2), (0, a)]
    return Graph(3 + 3 * p, edges)


def cycle_tree(rng, lengths, pendant):
    """Odd cycles of the given lengths; cycle i > 0 is bridged from hub
    vertex 0 (pendant) or from a seeded vertex of cycle i - 1 (chain)."""
    edges, cycles, n = [], [], 0
    for i, ln in enumerate(lengths):
        cyc = list(range(n, n + ln))
        n += ln
        edges += [(cyc[j], cyc[(j + 1) % ln]) for j in range(ln)]
        if i:
            edges.append((0, cyc[0]) if pendant else (rng.choice(cycles[-1]), rng.choice(cyc)))
        cycles.append(cyc)
    return Graph(n, edges)


def planted(rng, n, t, avg_deg=2.5, triangles=False):
    """A random bipartite graph with about avg_deg * n / 2 edges plus t
    vertex-disjoint planted triangles or 5-cycles, each closed by one
    same-side edge (the shape of the benchmark's planted family)."""
    verts = rng.sample(range(n), n)
    left, right = verts[0::2], verts[1::2]
    edges = set()
    while len(edges) < int(avg_deg * n / 2):
        edges.add((rng.choice(left), rng.choice(right)))
    pool_l, pool_r = rng.sample(left, len(left)), rng.sample(right, len(right))
    for _ in range(t):
        x, a = pool_l.pop(), pool_l.pop()
        if triangles or rng.random() < 0.5 or len(pool_l) < 1 or len(pool_r) < 2:
            cycle = [x, a, pool_r.pop()]
        else:
            b, d = pool_r.pop(), pool_r.pop()
            cycle = [x, a, b, pool_l.pop(), d]
        edges |= set(zip(cycle, cycle[1:] + cycle[:1]))
    return Graph(n, [(min(e), max(e)) for e in edges])


def bench_shapes():
    """Chains and pendant graphs of 3- and 5-cycles at the benchmark's sizes."""
    rng = random.Random(7)
    for p in (12, 20, 28):
        g = cycle_tree(rng, [rng.choice((3, 5)) for _ in range(p)], False)
        for k in (0, 1):
            yield g, k
    for p in (6, 12):
        yield cycle_tree(rng, [rng.choice((3, 5)) for _ in range(p + 1)], True), 2


def corpus():
    rng = random.Random(2024)
    for i in range(300):
        g = random_graph(rng, rng.randint(1, 10), rng.choice((0.15, 0.25, 0.4, 0.6)))
        yield g, rng.randint(0, 3), TRI if i % 5 == 0 else BIP
    for p in (2, 5, 9, 14, 20):
        yield triangle_chain(p), 1, BIP
    for p in (1, 3, 5, 8):
        yield pendant_triangles(p), 2, BIP


def test_builders_and_conversions_are_byte_identical():
    h = hashlib.sha256()
    for g, k, cls in corpus():
        forest = build_ed_forest(g, k, cls).forest
        dec = build_tree_h_decomposition(g, k, cls).decomposition
        td = ed_to_tree_decomposition(forest)
        for obj in (forest, dec, make_nice(dec), td, make_nice(td)):
            h.update(to_json(obj).encode())
    assert h.hexdigest() == GOLDEN, h.hexdigest()


def test_builders_are_byte_identical_at_benchmark_shapes():
    h = hashlib.sha256()
    for g, k in bench_shapes():
        tree = build_tree_h_decomposition(g, k, BIP)
        ed = build_ed_forest(g, k, BIP)
        for obj, ok in ((tree.decomposition, tree.promise_ok), (ed.forest, ed.promise_ok)):
            h.update(to_json(obj).encode())
            h.update(b"1" if ok else b"0")
    assert h.hexdigest() == GOLDEN_BENCH_SHAPES, h.hexdigest()


def solver_shapes():
    """Chains, pendant graphs and planted graphs with the k of their forest;
    chains also carry a tree H-decomposition at k = 1."""
    rng = random.Random(91)
    for p in (3, 4, 5, 6, 7, 8):
        yield cycle_tree(rng, [rng.choice((3, 5)) for _ in range(p)], False), 1, True
    for p in (3, 6, 10):
        yield cycle_tree(rng, [rng.choice((3, 5)) for _ in range(p + 1)], True), 2, False
    for n in (10, 10, 12, 12, 14, 14):
        yield planted(rng, n, n // 5), 2, False


def test_solver_outputs_are_byte_identical():
    h = hashlib.sha256()
    for g, k, chain in solver_shapes():
        forest = build_ed_forest(g, k, BIP).forest
        nices = [make_nice(ed_to_tree_decomposition(forest))]
        if chain:
            nices.append(make_nice(build_tree_h_decomposition(g, 1, BIP).decomposition))
        sols = [solve_oct_elim(g, forest), solve_vc_elim(g, forest)]
        for nice in nices:
            sols += [solve_oct_dp(g, nice)[1], solve_vc_dp(g, nice)[1]]
        sols.append(solve_klfree_elim(g, build_ed_forest(g, k, K3FREE).forest, 3))
        for x in sols:
            h.update(repr(sorted(x)).encode())
    assert h.hexdigest() == GOLDEN_SOLVERS, h.hexdigest()


def test_forbidden_class_forests_are_byte_identical_at_benchmark_shapes():
    """K3-free and claw-free ed forests on the klfree benchmark's planted
    triangle graphs."""
    rng = random.Random(5)
    h = hashlib.sha256()
    for n in (10, 12, 14):
        for _ in range(8):
            g = planted(rng, n, n // 5, avg_deg=2.0, triangles=True)
            for cls in (K3FREE, CLAW_FREE):
                for k in (1, 2):
                    res = build_ed_forest(g, k, cls)
                    h.update(to_json(res.forest).encode())
                    h.update(b"1" if res.promise_ok else b"0")
    assert h.hexdigest() == GOLDEN_FORBIDDEN_SHAPES, h.hexdigest()


def test_chains_at_k2_are_byte_identical():
    """Tree H-decompositions of triangle chains and 3-/5-cycle chains at
    k = 2, their nice forms, and the DP solutions on them (widths 7-9)."""
    rng = random.Random(13)
    h = hashlib.sha256()
    for p in (6, 10, 14, 20, 28):
        for g in (triangle_chain(p), cycle_tree(rng, [rng.choice((3, 5)) for _ in range(p)], False)):
            res = build_tree_h_decomposition(g, 2, BIP)
            nice = make_nice(res.decomposition)
            h.update(to_json(res.decomposition).encode())
            h.update(b"1" if res.promise_ok else b"0")
            h.update(to_json(nice).encode())
            for solve in (solve_oct_dp, solve_vc_dp):
                size, x = solve(g, nice)
                h.update(repr((size, sorted(x))).encode())
    assert h.hexdigest() == GOLDEN_CHAINS_K2, h.hexdigest()
