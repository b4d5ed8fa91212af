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
