import random

import pytest
from hypothesis import given, settings

from hdecomp.graphs import Graph, GraphClassSpec, is_member
from hdecomp.decomposition import (
    TreeHDecomposition,
    build_ed_forest,
    build_tree_h_decomposition,
    ed_to_tree_decomposition,
    make_nice,
)
from hdecomp.oracles import (
    brute_abc,
    brute_ed,
    brute_min_deletion,
    brute_min_vertex_cover,
)
from hdecomp.solvers import (
    AbcInstance,
    solution_block,
    solve_abc,
    solve_klfree_elim,
    solve_klfree_fdfv,
    solve_oct_dp,
    solve_oct_elim,
    solve_vc_dp,
    solve_vc_elim,
    vc_bipartite,
)
from hdecomp.solvers import _assign_edges

from .conftest import connected_graphs_st, random_graph

BIP = GraphClassSpec.bipartite()
TRI = GraphClassSpec.triangle_free()


def bip_forest(g, k=None):
    k = brute_ed(g, BIP) if k is None else k
    return build_ed_forest(g, k, BIP).forest


def bip_nice(g, k=None):
    k = brute_ed(g, BIP) if k is None else k
    return make_nice(build_tree_h_decomposition(g, k, BIP).decomposition)


# -- ABC ----------------------------------------------------------------------


def test_abc_examples():
    e = Graph(2, [(0, 1)])
    assert solve_abc(AbcInstance(e, frozenset({0}), frozenset({1}), 0)) == frozenset()
    out = solve_abc(AbcInstance(e, frozenset({0, 1}), frozenset(), 1))
    assert out is not None and len(out) == 1
    assert solve_abc(AbcInstance(e, frozenset({0, 1}), frozenset(), 0)) is None


def test_abc_rejects_non_bipartite():
    with pytest.raises(ValueError):
        AbcInstance(Graph.complete(3), frozenset(), frozenset(), 1)


def test_abc_matches_brute_force():
    rng = random.Random(77)
    done = 0
    while done < 60:
        g = random_graph(rng, rng.randint(1, 9), 0.3)
        if not is_member(g, BIP):
            continue
        done += 1
        b1 = frozenset(v for v in range(g.n) if rng.random() < 0.3)
        b2 = frozenset(v for v in range(g.n) if rng.random() < 0.3)
        k = rng.randint(0, 3)
        got = solve_abc(AbcInstance(g, b1, b2, k))
        want = brute_abc(g, b1, b2, k)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == len(want)


# -- Koenig --------------------------------------------------------------------


def test_vc_bipartite_examples():
    matching = Graph(6, [(0, 1), (2, 3), (4, 5)])
    assert len(vc_bipartite(matching)) == 3
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert vc_bipartite(star) == {0}
    with pytest.raises(ValueError):
        vc_bipartite(Graph.complete(3))


def test_vc_bipartite_matches_brute():
    rng = random.Random(13)
    done = 0
    while done < 50:
        g = random_graph(rng, rng.randint(1, 10), 0.3)
        if not is_member(g, BIP):
            continue
        done += 1
        got = vc_bipartite(g)
        assert all(u in got or v in got for u, v in g.edges)
        assert len(got) == brute_min_vertex_cover(g)[0]


# -- OCT -----------------------------------------------------------------------


def test_oct_examples():
    c4 = Graph.cycle(4)
    assert solve_oct_elim(c4, bip_forest(c4)) == frozenset()
    c5 = Graph.cycle(5)
    assert len(solve_oct_elim(c5, bip_forest(c5))) == 1
    k5 = Graph.complete(5)
    assert len(solve_oct_elim(k5, bip_forest(k5))) == 3


def test_oct_dp_examples():
    c4 = Graph.cycle(4)
    assert solve_oct_dp(c4, bip_nice(c4))[0] == 0
    c5 = Graph.cycle(5)
    nice = make_nice(ed_to_tree_decomposition(bip_forest(c5)))
    assert solve_oct_dp(c5, nice)[0] == 1


def test_oct_rejects_invalid_forest():
    c5 = Graph.cycle(5)
    forest = bip_forest(Graph.cycle(4))
    with pytest.raises(ValueError):
        solve_oct_elim(c5, forest)


@settings(max_examples=40, deadline=None)
@given(connected_graphs_st(max_n=7))
def test_oct_routes_agree_with_brute(g):
    want = brute_min_deletion(g, BIP)[0]
    forest = bip_forest(g)
    x = solve_oct_elim(g, forest)
    assert len(x) == want
    assert is_member(g, BIP, frozenset(range(g.n)) - x)
    depths = forest.depths()
    for i, node in enumerate(forest.nodes):
        if node.leaf:
            assert len(x & node.bag) <= depths[i]
    size, xdp = solve_oct_dp(g, bip_nice(g))
    assert size == want
    assert is_member(g, BIP, frozenset(range(g.n)) - xdp)


# -- VC ------------------------------------------------------------------------


def test_vc_examples():
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert solve_vc_elim(star, bip_forest(star)) == {0}
    p3 = Graph.path(3)
    assert len(solve_vc_elim(p3, bip_forest(p3))) == 1
    k4 = Graph.complete(4)
    assert solve_vc_dp(k4, bip_nice(k4))[0] == 3
    assert solve_vc_dp(Graph(4), bip_nice(Graph(4)))[0] == 0


@settings(max_examples=40, deadline=None)
@given(connected_graphs_st(max_n=7))
def test_vc_routes_agree_with_brute(g):
    want = brute_min_vertex_cover(g)[0]
    x = solve_vc_elim(g, bip_forest(g))
    assert len(x) == want and all(u in x or v in x for u, v in g.edges)
    size, xdp = solve_vc_dp(g, bip_nice(g))
    assert size == want and all(u in xdp or v in xdp for u, v in g.edges)


# -- K_l-free -------------------------------------------------------------------


def test_fdfv_examples():
    k3 = Graph.complete(3)
    out = solve_klfree_fdfv(k3, frozenset({0}), 1, 3)
    assert out is not None and len(out) == 1 and 0 not in out
    assert solve_klfree_fdfv(k3, frozenset({0, 1, 2}), 3, 3) is None
    assert solve_klfree_fdfv(Graph.cycle(5), frozenset(), 2, 3) == frozenset()


def test_fdfv_rejects_bad_ell():
    with pytest.raises(ValueError):
        solve_klfree_fdfv(Graph(3), frozenset(), 1, 7)


def test_klfree_examples():
    c5 = Graph.cycle(5)
    forest = build_ed_forest(c5, brute_ed(c5, TRI), TRI).forest
    assert solve_klfree_elim(c5, forest, 3) == frozenset()
    k4 = Graph.complete(4)
    forest = build_ed_forest(k4, brute_ed(k4, TRI), TRI).forest
    assert len(solve_klfree_elim(k4, forest, 3)) == 2


@settings(max_examples=40, deadline=None)
@given(connected_graphs_st(max_n=7))
def test_klfree_agrees_with_brute(g):
    want = brute_min_deletion(g, TRI)[0]
    forest = build_ed_forest(g, brute_ed(g, TRI), TRI).forest
    x = solve_klfree_elim(g, forest, 3)
    assert len(x) == want
    assert is_member(g, TRI, frozenset(range(g.n)) - x)
    depths = forest.depths()
    for i, node in enumerate(forest.nodes):
        if node.leaf:
            assert len(x & node.bag) <= depths[i]


def test_klfree_k4_deletion():
    # K_4-free deletion on K_5 needs 2 deletions (K_5 - 2 = K_3)
    k5 = Graph.complete(5)
    cls = GraphClassSpec.kl_free(4)
    forest = build_ed_forest(k5, brute_ed(k5, cls), cls).forest
    assert len(solve_klfree_elim(k5, forest, 4)) == 2


# -- decomposition independence ---------------------------------------------------


def test_solvers_agree_across_decompositions():
    rng = random.Random(55)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 8), 0.4)
        want = brute_min_deletion(g, BIP)[0]
        k = brute_ed(g, BIP)
        routes = [
            len(solve_oct_elim(g, bip_forest(g, k))),
            len(solve_oct_elim(g, bip_forest(g, k + 1))),
            solve_oct_dp(g, bip_nice(g, k))[0],
            solve_oct_dp(g, make_nice(ed_to_tree_decomposition(bip_forest(g, k))))[0],
        ]
        assert all(r == want for r in routes)


def triangle_chain(p):
    """p triangles {3i, 3i+1, 3i+2} joined by the bridges (3i+2, 3i+3), with a
    tree H-decomposition (bipartite base): path node P_i holds the bridge
    ends of triangles i and i+1, and a leaf under P_i adds the rest of
    triangle i."""
    edges = []
    for i in range(p):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c), (a, c)]
        if i + 1 < p:
            edges.append((c, c + 1))
    keep = [{3 * i, 3 * i + 2} if i + 1 < p else {3 * i} for i in range(p)]
    parents, bags, base = [], [], set()
    for i in range(p):
        rest = set(range(3 * i, 3 * i + 3)) - keep[i]
        base |= rest
        parents += [2 * i - 2 if i else -1, 2 * i]
        bags += [keep[i] | (keep[i + 1] if i + 1 < p else set()), keep[i] | rest]
    return Graph(3 * p, edges), TreeHDecomposition(parents, bags, frozenset(base), BIP)


def test_dp_on_deep_nice_decomposition():
    g, dec = triangle_chain(200)
    assert not dec.validate(g)
    nice = make_nice(dec)
    assert len(nice.parents) > 1000
    size, x = solve_oct_dp(g, nice)
    assert size == len(x) == 200
    assert is_member(g, BIP, frozenset(range(g.n)) - x)
    size, x = solve_vc_dp(g, nice)
    assert size == len(x) == 400
    assert all(u in x or v in x for u, v in g.edges)


def assign_edges_reference(g, dec):
    depth = [0] * len(dec.parents)
    for i, p in enumerate(dec.parents):
        if p >= 0:
            depth[i] = depth[p] + 1
    assigned = [[] for _ in dec.parents]
    for u, v in sorted(g.edges):
        best = -1
        for i in range(len(dec.parents)):
            if u in dec.bags[i] and v in dec.bags[i]:
                if best < 0 or depth[i] > depth[best]:
                    best = i
        assigned[best].append((u, v))
    return assigned


def test_assign_edges_matches_reference():
    rng = random.Random(29)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.4, 0.6)))
        k = rng.randint(0, 2)
        nice = make_nice(ed_to_tree_decomposition(bip_forest(g, k)))
        assert _assign_edges(g, nice) == assign_edges_reference(g, nice)


def test_solution_block_format():
    assert solution_block("oct", frozenset({0, 4})) == "SOLUTION oct 2\n1\n5\n"
    assert solution_block("vc", frozenset()) == "SOLUTION vc 0\n"
