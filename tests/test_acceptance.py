"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with headline numbers (visible under
pytest -s); pytest's own pass/fail status is the verdict.  All expected
values are oracle-computed or exact constants; every tolerance is exact.
"""

import math
import random
import time

from hdecomp.graphs import Graph, GraphClassSpec, is_member
from hdecomp.decomposition import (
    ALPHA,
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
    brute_separable,
)
from hdecomp.separation import (
    find_separation_bip,
    find_separation_forbidden,
    find_separation_restricted,
)
from hdecomp.separators import (
    ImportantSeparatorQuery,
    SearchStats,
    enumerate_important_separators,
)
from hdecomp.solvers import (
    AbcInstance,
    solve_abc,
    solve_klfree_elim,
    solve_oct_dp,
    solve_oct_elim,
    solve_vc_dp,
    solve_vc_elim,
)

from .conftest import brute_important_separators, random_graph

BIP = GraphClassSpec.bipartite()
TRI = GraphClassSpec.triangle_free()


def test_criterion_1_important_separator_exactness(corpus8):
    t0 = time.time()
    queries = 0
    for g in corpus8:
        for x in range(g.n):
            for y in range(g.n):
                if x == y:
                    continue
                brute3 = brute_important_separators(g, {x}, {y}, 3)
                for k in (1, 2, 3):
                    queries += 1
                    out = []
                    cnt = enumerate_important_separators(
                        ImportantSeparatorQuery(frozenset({x}), frozenset({y}), k),
                        g,
                        out.append,
                    )
                    got = frozenset(out)
                    # S_k is the size-filtered S_3 by definition (importance
                    # does not depend on k)
                    want = frozenset(s for s in brute3 if len(s) <= k)
                    assert got == want, (g.edges, x, y, k)
                    assert cnt == len(out) == len(set(out))
                    assert sum(4.0 ** -len(s) for s in got) <= 1.0 + 1e-12
                    assert cnt <= 4**k
    print(
        f"\nCRITERION 1 PASS: {len(corpus8)} graphs, {queries} queries, "
        f"{time.time()-t0:.0f}s"
    )


def _connected_zs(g: Graph):
    zs = [frozenset({v}) for v in range(g.n)]
    zs += [frozenset(e) for e in sorted(g.edges)]
    return zs


def test_criterion_2_separation_finder_soundness_completeness(corpus7):
    t0 = time.time()
    queries = 0
    for g in corpus7:
        for Z in _connected_zs(g):
            for k in (0, 1, 2):
                queries += 1
                truth = brute_separable(g, Z, k, BIP) is not None
                out = find_separation_bip(g, Z, k)
                if out is None:
                    assert not truth, (g.edges, sorted(Z), k)
                else:
                    assert not out.validate(g)
                    assert out.weakly_covers(Z) and len(out.S) <= 2 * k
                if truth:
                    assert out is not None
                truth = brute_separable(g, Z, k, TRI) is not None
                out = find_separation_forbidden(g, Z, k, TRI)
                assert (out is not None) == truth, (g.edges, sorted(Z), k)
                if out is not None:
                    assert not out.validate(g)
                    assert out.covers(Z) and len(out.S) <= k
    print(
        f"\nCRITERION 2 PASS: {len(corpus7)} graphs, {queries} (Z,k) queries "
        f"x 2 classes, {time.time()-t0:.0f}s"
    )


def test_criterion_3_decomposition_validity_and_bounds(corpus7):
    t0 = time.time()
    pipelines = 0
    for g in corpus7:
        for cls in (BIP, TRI):
            k = brute_ed(g, cls)
            h = cls.h_value(k)
            res = build_ed_forest(g, k, cls)
            assert not res.forest.validate(g)
            assert res.promise_ok
            assert res.forest.depth <= (k + 1) * (h + 1)

            res2 = build_tree_h_decomposition(g, k, cls)
            dec = res2.decomposition
            assert not dec.validate(g)
            assert res2.promise_ok
            k2 = 2 * h + k + 1
            assert dec.width <= (k + 2) * k2 * (k + k2 + 1)

            td = ed_to_tree_decomposition(res.forest)
            assert not td.validate(g)
            assert td.width <= max(res.forest.depth, 0)

            for source in (dec, td):
                nice = make_nice(source)
                assert not nice.validate(g)
                assert nice.width <= source.width
                assert nice.L == source.L
                kk = max(1, source.width + 1)
                assert len(nice.parents) <= ALPHA * kk * max(1, g.n)
            pipelines += 2
    print(
        f"\nCRITERION 3 PASS: {len(corpus7)} graphs x 2 classes, "
        f"{pipelines} pipelines, {time.time()-t0:.0f}s"
    )


def test_criterion_4_solver_optimality(corpus7):
    t0 = time.time()
    rng = random.Random(20260810)
    randoms = []
    while len(randoms) < 200:
        n = rng.choice([8, 9, 10])
        p = rng.choice([0.3, 0.5])
        randoms.append(random_graph(rng, n, p))
    graphs = list(corpus7) + randoms
    for g in graphs:
        full = frozenset(range(g.n))
        oct_want = brute_min_deletion(g, BIP)[0]
        kb = brute_ed(g, BIP)
        forest = build_ed_forest(g, kb, BIP).forest
        x = solve_oct_elim(g, forest)
        assert len(x) == oct_want and is_member(g, BIP, full - x)
        nice = make_nice(build_tree_h_decomposition(g, kb, BIP).decomposition)
        size, xdp = solve_oct_dp(g, nice)
        assert size == oct_want and is_member(g, BIP, full - xdp)

        vc_want = brute_min_vertex_cover(g)[0]
        xv = solve_vc_elim(g, forest)
        assert len(xv) == vc_want
        assert all(u in xv or v in xv for u, v in g.edges)
        sizev, xvdp = solve_vc_dp(g, nice)
        assert sizev == vc_want
        assert all(u in xvdp or v in xvdp for u, v in g.edges)

        tri_want = brute_min_deletion(g, TRI)[0]
        ft = build_ed_forest(g, brute_ed(g, TRI), TRI).forest
        xt = solve_klfree_elim(g, ft, 3)
        assert len(xt) == tri_want and is_member(g, TRI, full - xt)

    abc_checked = 0
    while abc_checked < 100:
        n = rng.randint(2, 12)
        sides = [rng.randint(1, 2) for _ in range(n)]
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if sides[u] != sides[v] and rng.random() < 0.4
        ]
        g = Graph(n, edges)
        b1 = frozenset(v for v in range(n) if rng.random() < 0.35)
        b2 = frozenset(v for v in range(n) if rng.random() < 0.35)
        k = rng.randint(0, 4)
        got = solve_abc(AbcInstance(g, b1, b2, k))
        want = brute_abc(g, b1, b2, k)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == len(want)
        abc_checked += 1
    print(
        f"\nCRITERION 4 PASS: {len(corpus7)} corpus + 200 random graphs, "
        f"{abc_checked} ABC instances, {time.time()-t0:.0f}s"
    )


def pendant_triangle_graph(p: int) -> Graph:
    edges = [(0, 1), (0, 2), (1, 2)]
    n = 3
    for _ in range(p):
        a, b, c = n, n + 1, n + 2
        edges += [(a, b), (a, c), (b, c), (0, a)]
        n += 3
    return Graph(n, edges)


def test_criterion_5_sanity_anchors():
    t0 = time.time()
    c5 = Graph.cycle(5)
    assert brute_min_deletion(c5, BIP)[0] == 1
    k5 = Graph.complete(5)
    assert brute_min_deletion(k5, BIP)[0] == 3
    k4 = Graph.complete(4)
    assert brute_min_deletion(k4, TRI)[0] == 2
    assert brute_ed(Graph.complete(3), BIP) == 1
    for g in (Graph.cycle(4), Graph.path(5), Graph(3)):
        assert brute_ed(g, BIP) == 0

    # pendant triangles: ed_bip stays at 2 while the deletion number is p+1
    values = []
    for p in (1, 2, 3, 4):
        g = pendant_triangle_graph(p)
        forest = _pendant_certificate_forest(p)
        assert not forest.validate(g)
        assert forest.depth == 2  # certified ed upper bound for every p
        if g.n <= 10:
            assert brute_ed(g, BIP) == 2  # oracle confirmation in range
        if g.n <= 12:
            oct_size = brute_min_deletion(g, BIP)[0]
        else:
            # oracle guard (n<=12) excludes p=4 (n=15): pin the value exactly
            # by the vertex-disjoint triangle packing lower bound (central
            # triangle plus p pendants, so any transversal needs >= p+1
            # vertices) matching a certified solver solution
            x = solve_oct_elim(g, forest)
            assert is_member(g, BIP, frozenset(range(g.n)) - x)
            assert len(x) == 1 + p
            oct_size = len(x)
        assert oct_size == p + 1
        values.append(oct_size)
    assert values == sorted(values) and len(set(values)) == len(values)
    print(f"\nCRITERION 5 PASS: anchors + pendant family {values}, {time.time()-t0:.0f}s")


def _pendant_certificate_forest(p: int):
    """Depth-2 bip-elimination forest: eliminate the hub 0, then one vertex
    per pendant triangle; the remaining edges are base components."""
    from hdecomp.decomposition import EliminationForest, ForestNode

    nodes = [
        ForestNode(frozenset({0}), -1, False),
        ForestNode(frozenset({1, 2}), 0, True),
    ]
    for i in range(p):
        a = 3 + 3 * i
        nodes.append(ForestNode(frozenset({a}), 0, False))
        nodes.append(ForestNode(frozenset({a + 1, a + 2}), len(nodes) - 1, True))
    return EliminationForest(nodes, BIP)


def _greedy_disjoint_triangles(g: Graph):
    fams = []
    used: set[int] = set()
    for u, v in sorted(g.edges):
        if u in used or v in used:
            continue
        w = next(
            (
                w
                for w in range(g.n)
                if w not in used and w != u and w != v and g.has_edge(u, w) and g.has_edge(v, w)
            ),
            None,
        )
        if w is not None:
            fams.append(frozenset({u, v, w}))
            used |= {u, v, w}
    return fams


def bip_base(g, Z, k, within):
    return find_separation_bip(g, Z, k, within=within)


def test_criterion_6_recursion_size_bounds(corpus7):
    t0 = time.time()
    q = 3  # max obstruction size for the triangle family
    checked_forbidden = checked_restricted = 0
    for g in corpus7:
        for Z in _connected_zs(g):
            for k in (0, 1, 2):
                stats = SearchStats()
                find_separation_forbidden(g, Z, k, TRI, stats=stats)
                bound = k * (5 * q) ** k
                assert stats.nodes <= bound, (g.edges, sorted(Z), k, stats.nodes)
                checked_forbidden += 1
        fam = _greedy_disjoint_triangles(g)
        if not fam:
            continue
        covered = frozenset().union(*fam)
        free = [v for v in range(g.n) if v not in covered]
        if not free:
            continue
        Z = frozenset({free[0]})
        for k in (0, 1, 2):
            stats = SearchStats()
            out = find_separation_restricted(g, Z, k, k, BIP, fam, bip_base, stats=stats)
            assert stats.nodes <= k * math.factorial(k + 1) * 4**k
            truth = brute_separable(g, Z, k, BIP)
            if out is None:
                assert truth is None
            else:
                assert not out.validate(g)
                assert out.weakly_covers(Z)
                assert sum(1 for f in fam if f <= out.C) <= k
            if truth is not None:
                assert out is not None
            checked_restricted += 1
    print(
        f"\nCRITERION 6 PASS: {checked_forbidden} forbidden-finder calls, "
        f"{checked_restricted} restricted-wrapper calls, {time.time()-t0:.0f}s"
    )
