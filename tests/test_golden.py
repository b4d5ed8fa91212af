"""Byte-for-byte pin of the decomposition builders and conversions.

Refactors must reproduce every decomposition exactly (smallest-id
tie-breaks, unique farthest cuts).  This hashes the canonical JSON of the
builders and conversions on a seeded corpus; the digest was recorded before
the tree walks became iterative.  When a change alters an output on purpose,
record the new digest in the same change and say why.
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

from .conftest import random_graph

BIP = GraphClassSpec.bipartite()
TRI = GraphClassSpec.triangle_free()

GOLDEN = "269f55ba8497fabc08a2ee819a64964044aa68a54f3193b94b3e4ee91fc009ea"

#: recorded before the restricted separation search moved onto vertex masks
GOLDEN_BENCH_SHAPES = "b4666c8869faf39ae2c4f738c65799c99885a56bd32b509f31227160edf758f1"


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
