import random
from collections import namedtuple

import pytest
from hypothesis import given, settings

import numpy as np

from hdecomp.graphs import Graph, GraphClassSpec, bits, coloring_mask, is_member, mask_of, proper_2_coloring, set_of
from hdecomp import solvers
from hdecomp.decomposition import (
    EliminationForest,
    ForestNode,
    TreeHDecomposition,
    _td_from_elimination_order,
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
)
from hdecomp.separators import _vertex_flow
from hdecomp.solvers import (
    INF,
    _abc_within,
    _independent_join,
    _tree_dp,
    _oct_finish,
    _vc_bipartite_within,
    _vc_finish,
)

from .conftest import connected_graphs_st, exact_oct_size, exact_vertex_cover_size, random_graph

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


def abc_reference(g, within, B1, B2, k):
    """The anchor-graph construction _abc_within replaced: G[within] plus two
    anchor vertices n and n + 1 as a new Graph."""
    f = proper_2_coloring(g, within)
    t1 = {v for v in B1 if f[v] == 2} | {v for v in B2 if f[v] == 1}
    t2 = {v for v in B1 if f[v] == 1} | {v for v in B2 if f[v] == 2}
    if not t1 or not t2:
        return frozenset()
    s, t = g.n, g.n + 1
    edges = [(u, v) for u, v in g.edges if u in within and v in within]
    edges += [(s, v) for v in t1] + [(t, v) for v in t2]
    anchored = Graph(g.n + 2, edges)
    res = _vertex_flow(anchored._adj_masks, anchored.full_mask(), 1 << s, 1 << t, k)
    return None if res is None else set_of(res[1])


def test_abc_within_matches_the_anchor_graph_reference():
    rng = random.Random(31)
    done = found = 0
    while done < 600:
        g = random_graph(rng, rng.randint(1, 11), rng.choice([0.2, 0.35, 0.5]))
        within = frozenset(v for v in range(g.n) if rng.random() < 0.8)
        if not is_member(g, BIP, within):
            continue
        done += 1
        b1 = frozenset(v for v in within if rng.random() < 0.3)
        b2 = frozenset(v for v in within if rng.random() < 0.3)
        for k in range(5):
            got = _abc_within(g, mask_of(within), mask_of(b1), mask_of(b2), k)
            got = None if got is None else set_of(got)
            assert got == abc_reference(g, within, b1, b2, k), (g.edges, within, b1, b2, k)
            found += bool(got)
    assert found > 200


# -- Koenig --------------------------------------------------------------------


def test_vc_bipartite_examples():
    matching = Graph(6, [(0, 1), (2, 3), (4, 5)])
    assert _vc_bipartite_within(matching, matching.full_mask()).bit_count() == 3
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert _vc_bipartite_within(star, star.full_mask()) == 0b1
    with pytest.raises(ValueError):
        _vc_bipartite_within(Graph.complete(3), 0b111)


def test_vc_bipartite_matches_brute():
    rng = random.Random(13)
    done = 0
    while done < 50:
        g = random_graph(rng, rng.randint(1, 10), 0.3)
        if not is_member(g, BIP):
            continue
        done += 1
        got = set_of(_vc_bipartite_within(g, g.full_mask()))
        assert all(u in got or v in got for u, v in g.edges)
        assert len(got) == brute_min_vertex_cover(g)[0]


def koenig_reference(g, within):
    """The Koenig cover _vc_bipartite_within replaced: a depth-first
    augmenting-path matching from colour 1 to colour 2, then the
    alternating reachability from the unmatched colour-1 vertices."""
    coloring = proper_2_coloring(g, within)
    left = sorted(v for v in within if coloring[v] == 1)
    right = {v for v in within if coloring[v] == 2}
    match: dict[int, int] = {}  # right -> left
    match_left: dict[int, int] = {}
    for root in left:
        if root in match_left:
            continue
        seen: set[int] = set()
        stack = [(root, iter(g.neighbors(root)))]
        path: list[int] = []
        while stack:
            for w in stack[-1][1]:
                if w in right and w not in seen:
                    seen.add(w)
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            path.append(w)
            if w in match:
                stack.append((match[w], iter(g.neighbors(match[w]))))
                continue
            for (u, _), w in zip(stack, path):
                match[w] = u
                match_left[u] = w
            break
    z: set[int] = {u for u in left if u not in match_left}
    frontier = list(z)
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w in right and w not in z:
                    z.add(w)
                    m = match.get(w)
                    if m is not None and m not in z:
                        z.add(m)
                        nxt.append(m)
        frontier = nxt
    return frozenset(u for u in left if u not in z) | frozenset(w for w in right if w in z)


def random_bipartite(rng, n, p):
    side = [rng.random() < 0.5 for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v] and rng.random() < p]
    return Graph(n, edges)


def test_vc_bipartite_within_is_the_koenig_cover():
    """The anchored cut is the very cover Koenig's construction grows from
    the unmatched colour-1 vertices, not just one of the same size."""
    rng = random.Random(41)
    nontrivial = 0
    for i in range(10_000):
        g = random_bipartite(rng, rng.randint(1, 30), rng.choice([0.05, 0.1, 0.2, 0.35]))
        if i % 4:
            within = frozenset(v for v in range(g.n) if rng.random() < 0.8)
        else:
            within = frozenset(range(g.n))
        got = set_of(_vc_bipartite_within(g, mask_of(within)))
        assert got == koenig_reference(g, within), (g.n, g.edges, sorted(within))
        nontrivial += len(got) > 1
    assert nontrivial > 5000


def test_vc_bipartite_within_matches_networkx_matching_sizes():
    """Seeded bipartite graphs of up to 200 vertices, past the brute-force
    guards: the cover hits every edge of G[within], and by Koenig's theorem
    its size equals networkx's maximum matching."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(2103)
    sizes = []
    for i in range(60):
        g = random_bipartite(rng, rng.randint(40, 200), rng.choice((0.01, 0.03, 0.08)))
        within = g.full_mask() if i % 2 else mask_of(v for v in range(g.n) if rng.random() < 0.8)
        cover = _vc_bipartite_within(g, within)
        assert not cover & ~within
        edges = [(u, v) for u, v in g.edges if within >> u & within >> v & 1]
        assert all(cover >> u & 1 or cover >> v & 1 for u, v in edges)
        h = nx.Graph(edges)
        h.add_nodes_from(bits(within))
        top = set_of(coloring_mask(g, within))
        assert cover.bit_count() == len(nx.bipartite.maximum_matching(h, top_nodes=top)) // 2
        sizes.append(cover.bit_count())
    assert max(sizes) >= 50, sizes


def long_path(n):
    """The path R0-L1-R1-...-Ln-Rn-L(n+1), with L_i = i-1 and R_i = 2n+1-i: each
    L_i first tries R_i, so L(n+1) needs an augmenting path through all n."""
    same = [(i - 1, 2 * n + 1 - i) for i in range(1, n + 1)]  # L_i-R_i
    prev = [(i - 1, 2 * n + 2 - i) for i in range(1, n + 2)]  # L_i-R_(i-1)
    return Graph(2 * n + 2, same + prev)


def test_vc_bipartite_long_augmenting_path():
    g = long_path(1200)
    got = set_of(_vc_bipartite_within(g, g.full_mask()))
    assert len(got) == 1201
    assert all(u in got or v in got for u, v in g.edges)


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


def test_dp_validates_a_decomposition_that_is_not_nice():
    """The DP solvers take any tree H-decomposition: one of another graph is
    refused by validate, and a valid one is solved on its own bags, to the
    answer of its nice form."""
    c5 = Graph.cycle(5)
    for other in (Graph.path(5), Graph.cycle(7)):
        dec = build_tree_h_decomposition(other, 1, BIP).decomposition
        assert not dec.validate(other) and dec.validate(c5)
        for solve in (solve_oct_dp, solve_vc_dp):
            with pytest.raises(ValueError, match="^invalid decomposition: "):
                solve(c5, dec)
    dec = build_tree_h_decomposition(c5, 1, BIP).decomposition
    assert solve_oct_dp(c5, dec) == solve_oct_dp(c5, make_nice(dec))
    assert solve_vc_dp(c5, dec)[0] == 3


def test_branch_stops_at_the_first_infeasible_child(monkeypatch):
    """Two triangles on the edge 0-1, forest 0 -> 1 -> leaves {2}, {3}.
    A side refuses 1 when 0 is already on it, so no leaf below either
    conflicting branch is finished: 3 root branches x 3 branches at 1 x 2
    leaves, less both leaves of each of the two conflicting branches."""
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    forest = EliminationForest(
        [
            ForestNode(frozenset({0}), -1, False),
            ForestNode(frozenset({1}), 0, False),
            ForestNode(frozenset({2}), 1, True),
            ForestNode(frozenset({3}), 1, True),
        ],
        BIP,
    )
    assert forest.validate(g) == []
    calls = []
    branch = solvers._branch

    def counted(g, forest, sides, join, finish):
        return branch(g, forest, sides, join, lambda *a: calls.append(a) or finish(*a))

    monkeypatch.setattr(solvers, "_branch", counted)
    x = solve_oct_elim(g, forest)
    assert len(calls) == 3 * 3 * 2 - 2 * 2
    assert len(x) == brute_min_deletion(g, BIP)[0] == 1
    assert is_member(g, BIP, frozenset(range(g.n)) - x)


def test_oct_branching_finishes_each_leaf_annotation_once(monkeypatch):
    """solve_oct_elim memoizes its ABC finish on (base, side masks within
    the base): on a depth-5 forest of a planted graph it runs ABC on fewer
    annotations than the unmemoized branching, with the same set."""
    from .test_golden import planted

    g = planted(random.Random(3), 16, 2)
    forest = bip_forest(g, 2)
    assert forest.depth == 5
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return _abc_within(*args)

    monkeypatch.setattr(solvers, "_abc_within", counted)
    x = solve_oct_elim(g, forest)
    memo_calls, calls = calls, 0
    want = set_of(solvers._branch(g, forest, 2, _independent_join, _oct_finish))
    assert x == want and len(x) == exact_oct_size(g)
    assert 0 < memo_calls < calls


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


def test_fdfv_packing_starts_from_the_branching_clique(monkeypatch):
    """The packing bound starts from the triangle that the branching step
    has just found instead of searching for it again: 131 pattern searches
    on this graph, where searching again made 171."""
    calls = 0
    search = solvers._find_embedding_image

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(solvers, "_find_embedding_image", counted)
    g = random_graph(random.Random(0), 12, 0.5)
    out = solve_klfree_fdfv(g, frozenset(), 4, 3)
    assert out == frozenset({0, 6, 7, 11})
    assert calls == 131
    assert len(out) == brute_min_deletion(g, TRI)[0]
    assert solve_klfree_fdfv(g, frozenset(), 3, 3) is None


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


def test_klfree_rejects_a_forest_of_another_class():
    """The leaf budget is sound only when every leaf bag is K_ell-free."""
    forest = EliminationForest([ForestNode(frozenset({0, 1, 2}), -1, True)], BIP)
    with pytest.raises(ValueError):
        solve_klfree_elim(Graph.path(3), forest, 2)


def test_klfree_join_refuses_a_kept_triangle(monkeypatch):
    """A kept ancestor that closes a triangle is refused at the join, so no
    finish sees a kept set with a triangle, and the leaves under a refused
    join are never finished: 61 finishes where the forest has 80 leaf
    branches (2^depth summed over its leaves)."""
    g = random_graph(random.Random(2), 9, 0.5)
    forest = build_ed_forest(g, 3, TRI).forest
    assert sum(2**d for d, node in zip(forest.depths(), forest.nodes) if node.leaf) == 80
    kept_sets = []
    branch = solvers._branch

    def counted(g, forest, sides, join, finish):
        return branch(g, forest, sides, join, lambda *a: kept_sets.append(a[2][0]) or finish(*a))

    monkeypatch.setattr(solvers, "_branch", counted)
    x = solve_klfree_elim(g, forest, 3)
    assert len(kept_sets) == 61
    assert all(is_member(g, TRI, set_of(kept)) for kept in kept_sets)
    assert len(x) == brute_min_deletion(g, TRI)[0] == 3
    assert is_member(g, TRI, frozenset(range(g.n)) - x)


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


def pendant_cycle_graph(rng, n_min, bridges):
    """A random tree on 5-10 vertices with odd cycles of length 3, 5 or 7 hung
    off random tree vertices until there are at least n_min vertices: each
    cycle shares its tree vertex, or hangs from it by a bridge."""
    t = rng.randint(5, 10)
    edges = [(v, rng.randrange(v)) for v in range(1, t)]
    n = t
    while n < n_min:
        length, at = rng.choice((3, 3, 5, 7)), rng.randrange(t)
        if bridges:
            cyc = list(range(n, n + length))
            edges.append((at, n))
        else:
            cyc = [at] + list(range(n, n + length - 1))
        edges += [(cyc[i - 1], cyc[i]) for i in range(length)]
        n += length - (not bridges)
    return Graph(n, edges)


def test_exact_vertex_cover_reference_matches_brute():
    rng = random.Random(61)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 12), rng.choice((0.15, 0.3, 0.5)))
        assert exact_vertex_cover_size(g) == brute_min_vertex_cover(g)[0], g.edges


def test_exact_oct_reference_matches_brute():
    rng = random.Random(63)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 12), rng.choice((0.15, 0.3, 0.5)))
        assert exact_oct_size(g) == brute_min_deletion(g, BIP)[0], g.edges


def test_routes_agree_past_the_brute_force_guard():
    """Graphs on 20-40 vertices, out of the oracles' reach, with bipartite
    forests of depth at most 6: every VC and OCT route equals its exact
    reference, and every answer is feasible."""
    rng = random.Random(62)
    for i in range(60):
        g = pendant_cycle_graph(rng, rng.randint(20, 33), bridges=i % 2 == 1)
        assert 20 <= g.n <= 40
        forest = bip_forest(g, 1)
        assert forest.depth <= 6
        nices = [bip_nice(g, 1), make_nice(ed_to_tree_decomposition(forest))]
        rest = frozenset(range(g.n))
        octs = [solve_oct_elim(g, forest)] + [solve_oct_dp(g, nice)[1] for nice in nices]
        assert {len(x) for x in octs} == {exact_oct_size(g)}, g.edges
        assert all(is_member(g, BIP, rest - x) for x in octs)
        want = exact_vertex_cover_size(g)
        for x in [solve_vc_elim(g, forest)] + [solve_vc_dp(g, nice)[1] for nice in nices]:
            assert len(x) == want, g.edges
            assert all(u in x or v in x for u, v in g.edges)


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
    g, dec = triangle_chain(1000)
    assert not dec.validate(g)
    nice = make_nice(dec)
    assert len(nice.parents) > 6000
    size, x = solve_oct_dp(g, nice)
    assert size == len(x) == 1000
    assert is_member(g, BIP, frozenset(range(g.n)) - x)
    size, x = solve_vc_dp(g, nice)
    assert size == len(x) == 2000
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


def test_steps_match_the_plan_reference():
    """steps() classifies every node as the DP's old planner did, and each
    edge outside L first meets at a leaf or an introduce node: the deepest
    cover is one, and every other cover has a covering child."""
    rng = random.Random(29)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.4, 0.6)))
        k = rng.randint(0, 2)
        nice = make_nice(ed_to_tree_decomposition(bip_forest(g, k)))
        ch = nice.children()
        steps = nice.steps()
        for t, ((kind, v), plan) in enumerate(zip(steps, plan_nodes_reference(nice, ch))):
            assert kind == plan.kind
            if kind in ("introduce", "forget"):
                bag = nice.bags[t] if kind == "introduce" else nice.bags[ch[t][0]]
                assert sorted(bag - nice.L).index(v) == plan.child_pos
        for t, edges in enumerate(assign_edges_reference(g, nice)):
            for u, v in edges:
                if u in nice.L or v in nice.L:
                    continue
                covers = [i for i, b in enumerate(nice.bags) if u in b and v in b]
                meets = [i for i in covers if steps[i][0] == "leaf" or steps[i] in (("introduce", u), ("introduce", v))]
                assert t in meets
                assert all(any(c in covers for c in ch[i]) for i in covers if i not in meets)


def _drop_index(idx, pos, base):
    """Index with digit `pos` removed (ints or arrays)."""
    return idx % base**pos + idx // base ** (pos + 1) * base**pos


def _insert_indices(idx, pos, base):
    """The indices with each digit 0..base-1 inserted at `pos`."""
    low = idx % base**pos
    high = idx // base**pos * base ** (pos + 1)
    return [low + d * base**pos + high for d in range(base)]


_NodePlan = namedtuple("_NodePlan", "bagvars kind child_pos", defaults=(None,))


def plan_nodes_reference(dec, ch):
    """_plan_nodes before it read bag masks."""
    plans = []
    for t in range(len(dec.parents)):
        bagvars = sorted(dec.bags[t] - dec.L)
        kids = ch[t]
        if not kids:
            plans.append(_NodePlan(bagvars, "leaf"))
        elif len(kids) == 2:
            plans.append(_NodePlan(bagvars, "join"))
        else:
            c = kids[0]
            cvars = sorted(dec.bags[c] - dec.L)
            if cvars == bagvars:
                plans.append(_NodePlan(bagvars, "identity"))
            elif len(bagvars) == len(cvars) + 1:
                (v,) = set(bagvars) - set(cvars)
                plans.append(_NodePlan(bagvars, "introduce", bagvars.index(v)))
            else:
                (v,) = set(cvars) - set(bagvars)
                plans.append(_NodePlan(bagvars, "forget", cvars.index(v)))
    return plans


def nice_dp_reference(g, dec, sides, finish):
    """The per-step DP on nice decompositions, as it ran before the shared
    layouts: digit arrays rebuilt at every node, every live leaf cell
    finished one by one, and finishes memoized per node."""
    errs = dec.validate(g)
    if errs:
        raise ValueError("invalid nice tree decomposition: " + "; ".join(errs))
    base = sides + 1
    ch = dec.children()
    plans = plan_nodes_reference(dec, ch)
    assigned = assign_edges_reference(g, dec)
    tables = [None] * len(plans)
    nbr = {}
    memo = {}

    def solve_leaf(t, idx):
        masks = [0] * sides
        for p, m in enumerate(nbr[t]):
            d = idx // base**p % base
            if d < sides:
                masks[d] |= m
        key = (t, tuple(masks))
        if key not in memo:
            basemask = mask_of(dec.bags[t] & dec.L)
            memo[key] = finish(g, basemask, key[1], basemask.bit_count())
        return memo[key]

    for t in range(len(plans) - 1, -1, -1):
        plan = plans[t]
        size = base ** len(plan.bagvars)
        idx = np.arange(size)
        digits = idx[:, None] // base ** np.arange(len(plan.bagvars)) % base
        deleted = (digits == sides).sum(axis=1)
        pos = {v: i for i, v in enumerate(plan.bagvars)}
        bad = np.zeros(size, dtype=bool)
        for u, v in assigned[t]:
            if u in pos and v in pos:
                du = digits[:, pos[u]]
                bad |= (du == digits[:, pos[v]]) & (du != sides)
        kids = ch[t]
        if plan.kind == "leaf":
            basemask = mask_of(dec.bags[t] & dec.L)
            nbr[t] = [g.adj_mask(v) & basemask for v in plan.bagvars]
            f = np.full(size, INF, dtype=np.int64)
            for i in range(size):
                if not bad[i]:
                    sol = solve_leaf(t, i)
                    if sol is not None:
                        f[i] = deleted[i] + len(sol)
        elif plan.kind == "join":
            f = tables[kids[0]] + tables[kids[1]] - deleted
        elif plan.kind == "identity":
            f = tables[kids[0]]
        elif plan.kind == "introduce":
            cpos = plan.child_pos
            f = tables[kids[0]][_drop_index(idx, cpos, base)] + (digits[:, cpos] == sides)
        else:
            cf = tables[kids[0]]
            f = np.min([cf[i] for i in _insert_indices(idx, plan.child_pos, base)], axis=0)
        tables[t] = np.minimum(np.where(bad, INF, f), INF)

    root = dec.root()
    best_idx = int(np.argmin(tables[root]))
    best = int(tables[root][best_idx])
    assert best < INF
    solution = set()
    stack = [(root, best_idx)]
    while stack:
        t, idx = stack.pop()
        plan = plans[t]
        solution.update(v for p, v in enumerate(plan.bagvars) if idx // base**p % base == sides)
        kids = ch[t]
        if plan.kind == "leaf":
            sol = solve_leaf(t, idx)
            assert sol is not None
            solution |= sol
        elif plan.kind == "join":
            stack += [(kids[0], idx), (kids[1], idx)]
        elif plan.kind == "identity":
            stack.append((kids[0], idx))
        elif plan.kind == "introduce":
            stack.append((kids[0], _drop_index(idx, plan.child_pos, base)))
        else:
            cf = tables[kids[0]]
            stack.append((kids[0], min(_insert_indices(idx, plan.child_pos, base), key=cf.__getitem__)))
    assert len(solution) == best
    return best, frozenset(solution)


def dp_engine_cases():
    """Seeded nice decompositions: tree H-decompositions of chains and random
    graphs, and plain tree decompositions (L empty) from random elimination
    orders."""
    from .test_golden import cycle_tree

    rng = random.Random(47)
    for _ in range(12):
        g = cycle_tree(rng, [rng.choice((3, 5)) for _ in range(rng.randint(2, 9))], rng.random() < 0.3)
        yield g, make_nice(build_tree_h_decomposition(g, 1, BIP).decomposition)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.35, 0.5)))
        yield g, make_nice(build_tree_h_decomposition(g, rng.randint(0, 2), BIP).decomposition)
    for _ in range(60):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice((0.0, 0.2, 0.4, 0.6)))
        order = rng.sample(range(n), n)
        dec = _td_from_elimination_order(g, order)
        if dec.width <= 7:
            yield g, make_nice(dec)


def test_dp_engine_matches_the_per_node_reference():
    """Same optimum, same solution and the same set of finish calls, with the
    OCT and VC finishes and with a finish that refuses some side masks."""
    widths = set()

    def picky_finish(g, base, masks, budget):
        vs = sorted(bits(base))
        h = hash((base, masks))
        return None if any(masks) and h % 3 == 0 else mask_of(vs[: h % (len(vs) + 1)])

    def as_set(finish):
        return lambda *a: None if (sol := finish(*a)) is None else set_of(sol)

    for g, nice in dp_engine_cases():
        widths.add(nice.width)
        for sides, finish in ((2, _oct_finish), (1, _vc_finish), (2, picky_finish), (1, picky_finish)):
            got_calls, want_calls = [], []
            got = _tree_dp(g, nice, sides, lambda *a: got_calls.append(a) or finish(*a))
            want = nice_dp_reference(g, nice, sides, lambda *a: want_calls.append(a) or as_set(finish)(*a))
            assert got == want, (g.edges, sides, finish.__name__)
            assert len(got_calls) == len(set(got_calls))
            assert set(got_calls) == set(want_calls), (g.edges, sides, finish.__name__)
    assert widths == set(range(8))


def test_dp_budget_covers_the_traced_peak(monkeypatch):
    """The budget counts the largest node's working arrays and the
    Python-side data as well as the tables: with DP_TABLE_BUDGET one byte
    below the tracemalloc peak of a width-8 OCT or VC DP, on a plain tree
    decomposition or its nice form, the same DP is refused before it
    allocates."""
    import tracemalloc

    rng = random.Random(5)
    cases = []
    while len(cases) < 3:
        n = rng.randint(8, 14)
        g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        dec = _td_from_elimination_order(g, rng.sample(range(n), n))
        if dec.width == 8:
            cases.append((g, dec))
    for g, dec in cases:
        for d in (dec, make_nice(dec)):
            for sides, finish in ((2, _oct_finish), (1, _vc_finish)):
                tracemalloc.start()
                try:
                    _tree_dp(g, d, sides, finish)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                monkeypatch.setattr(solvers, "DP_TABLE_BUDGET", peak - 1)
                with pytest.raises(ValueError, match="over the .* MiB budget"):
                    _tree_dp(g, d, sides, finish)
                monkeypatch.undo()


def test_dp_on_raw_decompositions_matches_their_nice_form():
    """The engine reads any valid decomposition as it is.  On tree
    decompositions from elimination orders (nodes with three or more
    children, L empty) and on tree H-decompositions with several base
    leaves, its OCT and VC sizes equal those on the nice form, its sets are
    feasible, and for n <= 12 the sizes are the brute-force optima."""
    from .test_golden import cycle_tree

    rng = random.Random(61)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5)))
        dec = _td_from_elimination_order(g, rng.sample(range(n), n))
        if dec.width <= 6:
            cases.append((g, dec))
    for _ in range(20):
        if rng.random() < 0.5:
            g = cycle_tree(rng, [rng.choice((3, 5)) for _ in range(rng.randint(2, 6))], rng.random() < 0.5)
        else:
            g = random_graph(rng, rng.randint(4, 12), rng.choice((0.2, 0.35)))
        cases.append((g, build_tree_h_decomposition(g, rng.randint(1, 2), BIP).decomposition))
    assert max(len(kids) for _, dec in cases for kids in dec.children()) >= 3
    assert max(sum(1 for b in dec.bags if b & dec.L) for _, dec in cases) >= 2
    for g, dec in cases:
        full = frozenset(range(g.n))
        for sides, finish in ((2, _oct_finish), (1, _vc_finish)):
            size, x = _tree_dp(g, dec, sides, finish)
            assert size == len(x) == _tree_dp(g, make_nice(dec), sides, finish)[0], (g.edges, sides)
            if sides == 2:
                assert is_member(g, BIP, full - x)
            else:
                assert all(u in x or v in x for u, v in g.edges)
            if g.n <= 12:
                want = brute_min_deletion(g, BIP)[0] if sides == 2 else brute_min_vertex_cover(g)[0]
                assert size == want, (g.edges, sides)


def test_solution_block_format():
    assert solution_block("oct", frozenset({0, 4})) == "SOLUTION oct 2\n1\n5\n"
    assert solution_block("vc", frozenset()) == "SOLUTION vc 0\n"
