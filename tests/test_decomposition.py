import collections
import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings

from hdecomp.graphs import (
    Graph,
    GraphClassSpec,
    bits,
    components,
    connected_components,
    is_member,
    mask_of,
    neighborhood_mask,
    reach_mask,
)
from hdecomp.decomposition import (
    ALPHA,
    EliminationForest,
    ForestNode,
    NiceTreeHDecomposition,
    SepNode,
    SeparationDecomposition,
    TD_EXACT_GUARD,
    TW_EXACT_GUARD,
    TreeHDecomposition,
    build_ed_forest,
    build_separation_decomposition,
    build_tree_h_decomposition,
    ed_forest_from_sepdecomp,
    ed_to_tree_decomposition,
    exact_treedepth,
    exact_treewidth,
    from_json,
    make_nice,
    quotient,
    to_json,
    tree_decomp_from_sepdecomp,
)
from hdecomp.decomposition import _min_fill_order, _td_from_elimination_order
from hdecomp.oracles import brute_ed
from hdecomp.tree import children, preorder, renumber

from .conftest import connected_graphs_st, random_graph

BIP = GraphClassSpec.bipartite()
TRI = GraphClassSpec.triangle_free()


# -- exact treedepth / treewidth ---------------------------------------------


def test_exact_treedepth_examples():
    assert exact_treedepth(Graph(1)).value == 1
    for n in (2, 3, 4, 5):
        assert exact_treedepth(Graph.complete(n)).value == n
    assert exact_treedepth(Graph.path(4)).value == 3
    r = exact_treedepth(Graph.path(7))
    assert r.value == 3 and r.exact
    assert not r.forest.validate(Graph.path(7))


def test_exact_treedepth_realizes_value():
    rng = random.Random(2)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), 0.4)
        r = exact_treedepth(g)
        assert not r.forest.validate(g)
        assert r.forest.depth == r.value


def test_exact_treewidth_examples():
    assert exact_treewidth(Graph.path(5)).value == 1
    for n in (2, 3, 4, 5):
        assert exact_treewidth(Graph.complete(n)).value == n - 1
    for n in (4, 5, 6, 7):
        assert exact_treewidth(Graph.cycle(n)).value == 2


def test_exact_treewidth_decomposition_validates():
    rng = random.Random(4)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        r = exact_treewidth(g)
        assert not r.decomposition.validate(g)
        assert r.decomposition.width == r.value


def test_treedepth_heuristic_fallback_is_flagged():
    g = Graph.path(25)
    r = exact_treedepth(g)
    assert not r.exact
    assert not r.forest.validate(g)
    assert r.forest.depth == r.value  # value realizes the returned forest


def test_treewidth_heuristic_fallback_is_flagged():
    g = Graph.path(20)
    r = exact_treewidth(g)
    assert not r.exact
    assert not r.decomposition.validate(g)
    assert r.decomposition.width == r.value == 1  # min-fill is exact on paths


def treedepth_reference(g):
    """The plain memoized root branching, every root of every set tried."""
    memo = {}

    def td_conn(mask):
        if mask not in memo:
            if mask & (mask - 1) == 0:
                memo[mask] = 1
            else:
                memo[mask] = min(1 + td_parts(mask & ~(1 << v)) for v in bits(mask))
        return memo[mask]

    def td_parts(mask):
        return max((td_conn(c) for c in components(g, mask)), default=0)

    nodes = [] if g.n else [ForestNode(frozenset(), -1, True)]
    stack = [(c, -1) for c in reversed(components(g, g.full_mask()))]
    while stack:
        comp, parent = stack.pop()
        i = len(nodes)
        target = td_conn(comp)
        root = next(v for v in bits(comp) if 1 + td_parts(comp & ~(1 << v)) == target)
        nodes.append(ForestNode(frozenset({root}), parent, False))
        rest = components(g, comp & ~(1 << root))
        if not rest:
            nodes.append(ForestNode(frozenset(), i, True))
        stack += [(c, i) for c in reversed(rest)]
    return td_parts(g.full_mask()), EliminationForest(nodes, None)


def treewidth_reference(g):
    """The plain subset DP over elimination prefixes, smallest v on ties."""
    n = g.n
    f = [0] * (1 << n)
    choice = [0] * (1 << n)
    for s in range(1, 1 << n):
        best, bv = n + 1, -1
        for v in bits(s):
            rest = s & ~(1 << v)
            r = reach_mask(g, 1 << v, rest | (1 << v))
            val = max(f[rest], bin(neighborhood_mask(g, r) & ~rest).count("1"))
            if val < best:
                best, bv = val, v
        f[s], choice[s] = best, bv
    order, s = [], g.full_mask()
    while s:
        order.append(choice[s])
        s &= ~(1 << choice[s])
    return f[-1], _td_from_elimination_order(g, order[::-1])


def test_exact_dps_match_the_unpruned_references():
    def draws():
        rng = random.Random(5)
        sizes = [rng.randint(1, 11) for _ in range(300)] + [13, 13, 14, 15]
        for n in sizes:
            yield random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))
        # sparse draws, where few sets lie above the min-fill width
        rng = random.Random(17)
        for _ in range(100):
            yield random_graph(rng, rng.randint(1, 13), rng.choice([0.05, 0.1]))

    for g in draws():
        td, tw = exact_treedepth(g), exact_treewidth(g)
        value, forest = treedepth_reference(g)
        assert (td.value, td.exact, to_json(td.forest)) == (value, True, to_json(forest))
        value, dec = treewidth_reference(g)
        assert (tw.value, tw.exact, to_json(tw.decomposition)) == (value, True, to_json(dec))


def test_promise_decisions_match_the_exact_values():
    """exact_treedepth(g, d) and exact_treewidth(g, d) for every d from 0 to
    n + 1: the verdict value <= d is the uncapped one; above the cap the
    value is d + 1 with no structure, and within it the result is the
    uncapped call's, structure byte for byte.  Caps below the min-fill width
    run the treewidth search capped at d itself."""
    rng = random.Random(31)
    for i in range(320):
        n = rng.randint(13, 16) if i % 16 == 0 else rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3] if n > 12 else [0.1, 0.2, 0.3, 0.5, 0.8]))
        td, tw = exact_treedepth(g), exact_treewidth(g)
        assert td.exact and tw.exact
        for d in range(n + 2):
            for full, capped, field in (
                (td, exact_treedepth(g, d), "forest"),
                (tw, exact_treewidth(g, d), "decomposition"),
            ):
                assert capped.exact and (capped.value <= d) == (full.value <= d), (g.edges, d, field)
                if full.value > d:
                    assert capped.value == d + 1 and getattr(capped, field) is None, (g.edges, d, field)
                else:
                    assert capped.value == full.value, (g.edges, d, field)
                    assert to_json(getattr(capped, field)) == to_json(getattr(full, field)), (g.edges, d, field)


def test_exact_treedepth_matches_the_reference_up_to_the_guard():
    """Sparse draws with n = 16 .. TD_EXACT_GUARD, where the neighbourhood
    tables hold 8-10 ids per half: the uncapped search gives the unpruned
    reference's value and forest, and the caps td - 1 and td give the
    verdicts of `test_promise_decisions_match_the_exact_values`.  The
    reference's time grows fast with the edges (12 s on a G(20, 0.15) with
    31 edges; Python 3.11, 2 vCPUs), so the densest draws are at the
    smaller n."""
    rng = random.Random(43)
    top = {16: 0.2, 17: 0.2, 18: 0.15, 19: 0.15, TD_EXACT_GUARD: 0.1}
    for n, p in 2 * [(n, p) for n in top for p in (0.1, 0.15, 0.2) if p <= top[n]]:
        g = random_graph(rng, n, p)
        td = exact_treedepth(g)
        value, forest = treedepth_reference(g)
        assert (td.value, td.exact, to_json(td.forest)) == (value, True, to_json(forest)), g.edges
        below, at = exact_treedepth(g, value - 1), exact_treedepth(g, value)
        assert (below.value, below.exact, below.forest) == (value, True, None), g.edges
        assert (at.value, at.exact, to_json(at.forest)) == (value, True, to_json(forest)), g.edges


def test_treedepth_search_stops_early():
    """The search stops trying roots once a set's best upper bound meets
    its largest lower bound.  Without that stop every value stays exact, so
    only the work shows it: on this G(18, 0.2) the search evaluates 18,764
    connected sets with it and 112,649 without the lower-bound update."""
    import sys

    rng = random.Random(37)
    g = Graph(18, [e for e in itertools.combinations(range(18), 2) if rng.random() < 0.2])
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_name == "td_conn"

    sys.setprofile(count)
    try:
        value = exact_treedepth(g).value
    finally:
        sys.setprofile(None)
    assert value == 8 and calls <= 30_000, calls


def test_capped_treedepth_that_decides_at_once_stays_small():
    """Every vertex of this G(20, 0.35) has at least two neighbours, so the
    call capped at 2 decides on its first set.  Its memo is one byte per
    set, 1 MiB at n = 20, where a list of 2^20 ints took 8 MiB."""
    import tracemalloc

    rng = random.Random(8)
    g = Graph(20, [e for e in itertools.combinations(range(20), 2) if rng.random() < 0.35])
    tracemalloc.start()
    try:
        res = exact_treedepth(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == 3 and res.forest is None
    assert peak < 2 << 20, peak


def test_passing_tw_build_runs_min_fill_once_per_quotient(monkeypatch):
    """A tree H-decomposition build whose quotients lie within the exact
    guard runs min-fill once per quotient: the capped search that gives
    the verdict also gives the decomposition."""
    from hdecomp import decomposition

    from .test_golden import cycle_tree

    calls = []
    inner = decomposition._min_fill_order
    monkeypatch.setattr(decomposition, "_min_fill_order", lambda g: calls.append(g.n) or inner(g))
    rng = random.Random(23)
    for _ in range(12):
        one = cycle_tree(rng, [rng.choice((3, 5)) for _ in range(rng.randint(2, 5))], rng.random() < 0.3)
        g = Graph(2 * one.n, [*one.edges, *((a + one.n, b + one.n) for a, b in one.edges)])
        calls.clear()
        res = build_tree_h_decomposition(g, 1, BIP)
        assert res.promise_ok and len(calls) == 2 and 0 < min(calls) and max(calls) <= TW_EXACT_GUARD
        assert not res.decomposition.validate(g)
        assert len(calls) == 2  # reading the decomposition ran no second min-fill


def test_builders_give_the_heuristic_verdict_past_the_guards():
    """Past TD_EXACT_GUARD / TW_EXACT_GUARD quotient vertices the promise
    verdict is still the heuristic value that exact_treedepth /
    exact_treewidth return there, as before the builders decided it."""
    from .test_golden import pendant_triangles

    rng = random.Random(11)
    cases = [(pendant_triangles(p), k) for p in (20, 22) for k in (1, 2)]
    cases += [(random_graph(rng, rng.randint(20, 26), 0.2), 1) for _ in range(8)]
    modes = (
        (False, build_ed_forest, exact_treedepth, TD_EXACT_GUARD),
        (True, build_tree_h_decomposition, exact_treewidth, TW_EXACT_GUARD),
    )
    verdicts = set()
    for g, k in cases:
        for restricted, build, exact, guard in modes:
            res = build(g, k, BIP)
            quotients = []
            for comp in connected_components(g):
                sub, _ = g.induced(comp)
                quotients.append(quotient(sub, build_separation_decomposition(sub, k, BIP, restricted=restricted))[0])
            if all(q.n > guard for q in quotients):
                old = all(exact(q).value <= k + 1 for q in quotients)
                assert res.promise_ok == old
                verdicts.add((restricted, old))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def _grid(rows, cols):
    n = rows * cols
    return Graph(n, [(v, v + 1) for v in range(n) if v % cols < cols - 1] + [(v, v + cols) for v in range(n - cols)])


def test_exact_dps_at_the_guards():
    assert (TD_EXACT_GUARD, TW_EXACT_GUARD) == (20, 18)
    star = Graph(20, [(0, v) for v in range(1, 20)])
    for g, value in ((star, 2), (Graph.path(20), 5)):
        r = exact_treedepth(g)
        assert (r.value, r.exact) == (value, True)
    for g, value in ((Graph.path(18), 1), (_grid(3, 6), 3)):
        r = exact_treewidth(g)
        assert (r.value, r.exact) == (value, True)


def _structured_treewidth_graphs():
    """(graph, treewidth) at 13-18 vertices: stars, paths, cycles, grids,
    complete (bipartite) graphs, random trees and caterpillars."""
    yield Graph(14, [(0, v) for v in range(1, 14)]), 1  # K1,13
    yield Graph(18, [(0, v) for v in range(1, 18)]), 1  # K1,17
    yield Graph.path(18), 1
    yield Graph.cycle(18), 2
    yield _grid(3, 6), 3
    yield _grid(2, 9), 2
    yield Graph(18, [(a, b) for a in range(3) for b in range(3, 18)]), 3  # K3,15
    yield Graph.complete(18), 17
    rng = random.Random(29)
    for _ in range(4):
        n = rng.randint(13, 18)
        yield Graph(n, [(rng.randrange(v), v) for v in range(1, n)]), 1
    for _ in range(4):
        n, spine = rng.randint(13, 18), rng.randint(3, 8)
        yield Graph(n, [(v - 1, v) for v in range(1, spine)] + [(rng.randrange(spine), v) for v in range(spine, n)]), 1


def test_exact_treewidth_is_byte_identical_on_structured_graphs():
    # digest recorded while the exact branch was the forward DP over
    # elimination prefixes
    h = hashlib.sha256()
    for g, value in _structured_treewidth_graphs():
        r = exact_treewidth(g)
        assert (r.value, r.exact) == (value, True)
        h.update(to_json(r.decomposition).encode())
    assert h.hexdigest() == "a89bd58bef7ca772d03881ed9a0aaed9f047f15183aa0ac5fe51b5fcdb537fd2", h.hexdigest()


def _min_fill_reference(g):
    """Min-fill elimination order by the definition, smallest id on ties."""
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    alive = set(range(g.n))
    order = []
    while alive:
        def fill(v):
            nb = sorted(nbrs[v] & alive)
            return sum(1 for a, b in itertools.combinations(nb, 2) if b not in nbrs[a])

        v = min(sorted(alive), key=fill)
        nb = nbrs[v] & alive
        for a in nb:
            nbrs[a] |= nb - {a}
        alive.remove(v)
        order.append(v)
    return order


def _chain_like(rng, n):
    """Cycles of length 3 or 5 strung into a chain by one edge each, and
    n // 10 random chords: sparse graphs like the chain bench's quotients."""
    edges, cycles, v = [], [], 0
    while v < n:
        cyc = list(range(v, min(n, v + rng.choice([3, 5]))))
        edges += zip(cyc, cyc[1:] + cyc[:1]) if len(cyc) > 2 else zip(cyc, cyc[1:])
        if cycles:
            edges.append((rng.choice(cycles[-1]), rng.choice(cyc)))
        cycles.append(cyc)
        v += len(cyc)
    edges += (rng.sample(range(n), 2) for _ in range(n // 10))
    return Graph(n, edges)


def _tie_heavy_graphs():
    """Graphs where many vertices share the least fill count at each step."""
    grid = [(r * 10 + c, r * 10 + c + 1) for r in range(8) for c in range(9)]
    grid += [(r * 10 + c, r * 10 + c + 10) for r in range(7) for c in range(10)]
    yield Graph.cycle(60)
    yield Graph.cycle(99)
    yield Graph(80, grid)
    for a, b in ((3, 7), (5, 5), (4, 30)):
        yield Graph(a + b, [(u, a + w) for u in range(a) for w in range(b)])
    yield Graph(60, [(c + u, c + w) for c in range(0, 60, 6) for u, w in itertools.combinations(range(6), 2)])


def test_min_fill_order_matches_reference():
    rng = random.Random(12)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 30), rng.choice([0.1, 0.2, 0.4, 0.7]))
        assert _min_fill_order(g) == _min_fill_reference(g)
    # the sizes of the chain bench's quotients, where only the vertices an
    # elimination changed are rescored
    for _ in range(12):
        g = _chain_like(rng, rng.randint(60, 120))
        assert _min_fill_order(g) == _min_fill_reference(g)
    # ties must go to the smallest id, under the given ids and shuffled ones
    for g in _tie_heavy_graphs():
        perm = list(range(g.n))
        rng.shuffle(perm)
        shuffled = Graph(g.n, [(perm[u], perm[w]) for u, w in g.edges])
        for h in (g, shuffled):
            assert _min_fill_order(h) == _min_fill_reference(h)


def test_treedepth_dominates_treewidth():
    rng = random.Random(6)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7), 0.4)
        assert exact_treewidth(g).value <= exact_treedepth(g).value - (1 if g.n else 0)


# -- separation decomposition -------------------------------------------------


def test_member_graph_gives_single_node():
    c4 = Graph.cycle(4)
    dec = build_separation_decomposition(c4, 0, BIP)
    assert len(dec.nodes) == 1
    node = dec.nodes[0]
    assert node.V == node.C == frozenset(range(4)) and not node.S
    assert not dec.validate(c4)


def test_k3_decomposition_validates():
    k3 = Graph.complete(3)
    dec = build_separation_decomposition(k3, 1, BIP)
    assert not dec.validate(k3)
    assert frozenset().union(*(n.V for n in dec.nodes)) == frozenset(range(3))


def test_decomposition_rejects_disconnected():
    with pytest.raises(ValueError):
        build_separation_decomposition(Graph(2), 1, BIP)


def test_nonleaf_pieces_inseparable_checked_by_validator():
    rng = random.Random(12)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        comp = connected_components(g)[0]
        sub, _ = g.induced(comp)
        k = brute_ed(sub, BIP)
        for restricted in (False, True):
            dec = build_separation_decomposition(sub, k, BIP, restricted=restricted)
            assert not dec.validate(sub)


def _walk_up_ancestor_errors(g, dec):
    """The separation decomposition's ancestor checks by walking up from
    every node: each edge meets the separator of an ancestor of the other
    end's node, and C_t swallows at most k1 ancestors' pieces."""

    def ancestors(t):
        out = []
        while dec.nodes[t].parent >= 0:
            t = dec.nodes[t].parent
            out.append(t)
        return out

    errs = []
    owner = {v: t for t, n in enumerate(dec.nodes) for v in n.V}
    for u, v in g.edges:
        a, b = owner[u], owner[v]
        if a != b and not (
            (a in ancestors(b) and u in dec.nodes[a].S) or (b in ancestors(a) and v in dec.nodes[b].S)
        ):
            errs.append(f"edge ({u},{v}) violates the ancestor condition")
    if dec.restricted:
        for t, n in enumerate(dec.nodes):
            swallowed = sum(1 for s in ancestors(t) if dec.nodes[s].V <= n.C)
            if swallowed > dec.k1:
                errs.append(f"node {t}: {swallowed} ancestors swallowed by C_t")
    return errs


def test_ancestor_checks_match_a_walk_up_reference():
    """Re-parented decompositions pass every per-node check but may break
    the ancestor conditions; the validator reports exactly what walking up
    from each node finds.  The graphs lie past the inseparability oracle's
    guard, so that the ancestor checks are the only ones that can fail."""
    rng = random.Random(43)
    failing = 0
    for _ in range(60):
        g = random_graph(rng, rng.randint(11, 14), rng.choice([0.2, 0.3]))
        if len(connected_components(g)) != 1:
            continue
        dec = build_separation_decomposition(g, rng.randint(1, 2), BIP, restricted=rng.random() < 0.5)
        # the pieces in any order, under random parents or in one chain
        pieces = rng.sample(dec.nodes, len(dec.nodes))
        chain = rng.random() < 0.5
        nodes = [
            SepNode(n.V, n.C, n.S, -1 if t == 0 else t - 1 if chain else rng.randrange(t))
            for t, n in enumerate(pieces)
        ]
        moved = SeparationDecomposition(nodes, dec.k1, dec.k2, dec.restricted, dec.cls)
        want = _walk_up_ancestor_errors(g, moved)
        assert moved.validate(g) == want
        failing += bool(want)
    assert 0 < failing < 50, failing
    # built pieces never swallow one another, so a planted C_t swallows: on
    # the path 0-1-...-10 each C_t is the whole (bipartite) path and each S_t
    # is empty, so node t swallows its t ancestors and no edge meets an S
    g = Graph.path(11)
    everything = frozenset(range(11))
    nodes = [SepNode(frozenset({t}), everything, frozenset(), t - 1) for t in range(11)]
    chain = SeparationDecomposition(nodes, 1, 1, True, BIP)
    want = _walk_up_ancestor_errors(g, chain)
    assert chain.validate(g) == want
    assert sum("swallowed" in e for e in want) == 9 and sum("edge" in e for e in want) == 10


def test_quotient_examples():
    c4 = Graph.cycle(4)
    dec = build_separation_decomposition(c4, 0, BIP)
    q, vmap = quotient(c4, dec)
    assert q.n == 1 and not q.edges
    k3 = Graph.complete(3)
    dec = build_separation_decomposition(k3, 1, BIP)
    q, _ = quotient(k3, dec)
    assert exact_treedepth(q).value <= brute_ed(k3, BIP) + 1


def test_quotient_contracts_each_piece():
    k3 = Graph.complete(3)

    def pieces(*parts):
        return SeparationDecomposition(
            [SepNode(frozenset(p), frozenset(), frozenset(), t - 1) for t, p in enumerate(parts)], 1, 1, False, BIP
        )

    q, vmap = quotient(k3, pieces({0}, {1}, {2}))
    assert q.edges == k3.edges and vmap == [0, 1, 2]
    q, vmap = quotient(k3, pieces({0, 1}, {2}))
    assert q.n == 2 and q.edges == {(0, 1)} and vmap == [0, 0, 1]
    q, vmap = quotient(k3, pieces({0, 1, 2}))
    assert q.n == 1 and not q.edges and vmap == [0, 0, 0]


def _contracted(g, vsets):
    """The direct contraction of disjoint vertex sets, set t to vertex t:
    the quotient's edges and each covered vertex's set."""
    owner = {v: t for t, vs in enumerate(vsets) for v in vs}
    edges = {(min(owner[u], owner[v]), max(owner[u], owner[v])) for u, v in g.edges if u in owner and v in owner}
    return {e for e in edges if e[0] != e[1]}, owner


def _grown_quotient_cases():
    """Seeded graphs under the bipartite, K3-free and claw-free classes,
    with k = 1 or 2."""
    from .test_golden import cycle_tree

    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    classes = [BIP, TRI, GraphClassSpec.forbidden(claw)]
    rng = random.Random(37)
    for i in range(45):
        if i % 5 == 4:
            g = cycle_tree(rng, [rng.choice((3, 5)) for _ in range(rng.randint(2, 6))], rng.random() < 0.5)
        else:
            n = rng.randint(3, 16)
            g = random_graph(rng, n, rng.choice((1.5, 2.5, 4.0)) / n)
        yield g, 1 + i % 2, classes[i % 3]


def test_grown_quotient_is_the_contraction(monkeypatch):
    """`quotient` equals the direct contraction of the pieces, and the
    quotient each build searches, grown as the build makes its nodes,
    equals `quotient` of that build's own decomposition."""
    from hdecomp import decomposition

    searched = []
    for name in ("exact_treedepth", "exact_treewidth"):
        inner = getattr(decomposition, name)
        monkeypatch.setattr(
            decomposition, name, lambda q, *cap, inner=inner: searched.append(q) or inner(q, *cap)
        )
    seen = 0
    for g, k, cls in _grown_quotient_cases():
        for build in (build_ed_forest, build_tree_h_decomposition):
            searched.clear()
            parts = build(g, k, cls)._decided[1]
            assert searched and len(searched) <= len(parts)
            for (sub, _, dec, _, _), q in itertools.zip_longest(parts, searched):
                edges, owner = _contracted(sub, [node.V for node in dec.nodes])
                got, vmap = quotient(sub, dec)
                assert got.n == len(dec.nodes) and got.edges == edges
                assert vmap == [owner[v] for v in range(sub.n)]
                if q is not None:
                    assert (q.n, q.edges) == (got.n, got.edges)
                    seen += bool(q.edges)
    assert seen


def test_not_star_forest_fires_at_the_first_failing_prefix():
    """Fed a build's nodes one by one, `_not_star_forest` fires exactly at
    the first prefix whose contracted quotient has an edge between two
    vertices of degree >= 2."""
    from hdecomp.decomposition import _not_star_forest, _Quotient

    fired = passed = 0
    for g, k, cls in _grown_quotient_cases():
        for sub in (g.induced(c)[0] for c in connected_components(g)):
            dec = build_separation_decomposition(sub, 1, cls)
            qt = _Quotient(sub)
            for t, node in enumerate(dec.nodes):
                qt.add(mask_of(node.V))
                edges, _ = _contracted(sub, [n.V for n in dec.nodes[: t + 1]])
                degree = collections.Counter(v for e in edges for v in e)
                brute = any(degree[a] >= 2 and degree[b] >= 2 for a, b in edges)
                assert _not_star_forest(qt.nbrs) == brute, (sorted(sub.edges), t)
                if brute:
                    fired += 1
                    break
            else:
                passed += 1
    assert fired >= 10 and passed >= 10, (fired, passed)


def test_quotient_treedepth_bound():
    rng = random.Random(8)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7), 0.4)
        comp = connected_components(g)[0]
        sub, _ = g.induced(comp)
        k = brute_ed(sub, BIP)
        dec = build_separation_decomposition(sub, k, BIP)
        q, _ = quotient(sub, dec)
        assert exact_treedepth(q).value <= k + 1


def test_quotient_treewidth_bound():
    # built with k1 >= tw_H(G)+1, the quotient has treewidth <= k1; we use
    # k1 = ed+1 >= tw_H+1 since tw_H <= ed_H
    rng = random.Random(47)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7), 0.45)
        comp = connected_components(g)[0]
        sub, _ = g.induced(comp)
        k1 = brute_ed(sub, BIP) + 1
        for restricted in (False, True):
            dec = build_separation_decomposition(sub, k1, BIP, restricted=restricted)
            q, _ = quotient(sub, dec)
            assert exact_treewidth(q).value <= k1


def test_restricted_ancestor_bound():
    # |A_t| <= k1 + k2 and N(V_t - S_t) inside the replacement bags
    rng = random.Random(21)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 8), 0.45)
        comp = connected_components(g)[0]
        sub, _ = g.induced(comp)
        k = brute_ed(sub, BIP)
        dec = build_separation_decomposition(sub, k, BIP, restricted=True)
        assert not dec.validate(sub)
        for t, node in enumerate(dec.nodes):
            base = node.V - node.S
            if not base:
                continue
            nb = frozenset().union(*(set(sub.neighbors(v)) for v in base)) - base
            a_t = [
                s
                for s, other in enumerate(dec.nodes)
                if s != t and other.V & nb
            ]
            assert len(a_t) <= dec.k1 + dec.k2
            allowed = (node.V & node.S) | frozenset().union(
                frozenset(), *((dec.nodes[s].V & dec.nodes[s].S) for s in a_t)
            )
            assert nb <= allowed


# -- conversions ----------------------------------------------------------------


def test_ed_forest_single_node_member():
    c4 = Graph.cycle(4)
    dec = build_separation_decomposition(c4, 0, BIP)
    q, _ = quotient(c4, dec)
    forest = ed_forest_from_sepdecomp(c4, dec, exact_treedepth(q).forest)
    assert not forest.validate(c4)
    assert forest.depth == 0
    assert len([n for n in forest.nodes if n.leaf]) == 1


def test_ed_forest_two_triangles():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    res = build_ed_forest(g, 1, BIP)
    assert not res.forest.validate(g)
    assert len(res.forest.roots()) == 2
    assert res.forest.depth <= 2 * (2 * 1 + 1)


def test_build_ed_forest_examples():
    c4 = Graph.cycle(4)
    res = build_ed_forest(c4, 0, BIP)
    assert res.forest.depth == 0 and res.promise_ok
    k3 = Graph.complete(3)
    res = build_ed_forest(k3, 1, BIP)
    assert not res.forest.validate(k3)
    assert res.forest.depth <= (1 + 1) * (2 * 1 + 1)


def test_tree_decomposition_requires_restricted():
    k3 = Graph.complete(3)
    dec = build_separation_decomposition(k3, 1, BIP, restricted=False)
    q, _ = quotient(k3, dec)
    with pytest.raises(ValueError):
        tree_decomp_from_sepdecomp(k3, dec, exact_treewidth(q).decomposition)


@pytest.mark.parametrize("bag", [{0}, {0, 1, 5}, {0, 1, -1}])
def test_tree_decomposition_rejects_a_quotient_decomposition_that_misses_a_piece(bag):
    """Two triangles joined by an edge split into two pieces at k = 1; a
    quotient decomposition whose one bag misses the second piece, or names a
    piece id out of range, is refused."""
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    dec = build_separation_decomposition(g, 1, BIP, restricted=True)
    assert len(dec.nodes) == 2
    partial = TreeHDecomposition([-1], [frozenset(bag)], frozenset(), None)
    with pytest.raises(ValueError, match="quotient decomposition does not match"):
        tree_decomp_from_sepdecomp(g, dec, partial)


def test_build_tree_h_decomposition_examples():
    c4 = Graph.cycle(4)
    res = build_tree_h_decomposition(c4, 0, BIP)
    assert res.decomposition.width == 0
    assert res.decomposition.L == frozenset(range(4))
    k3 = Graph.complete(3)
    res = build_tree_h_decomposition(k3, 1, BIP)
    assert not res.decomposition.validate(k3)
    k, h = 1, 2
    k2 = 2 * h + k + 1
    assert res.decomposition.width <= (k + 2) * k2 * (k + k2 + 1)


def test_bipartite_tw_mode_at_k2_validates():
    """The restricted bipartite search checks its (C, S) within the vertices
    it searches, so the builder runs at k = 2 and its output validates."""
    from .test_golden import cycle_tree, planted, triangle_chain

    rng = random.Random(67)
    graphs = [triangle_chain(10)] + [cycle_tree(rng, [3] * 10, False) for _ in range(5)]
    graphs.append(planted(rng, 30, 6))
    for g in graphs:
        dec = build_tree_h_decomposition(g, 2, BIP).decomposition
        assert not dec.validate(g)
        assert not make_nice(dec).validate(g)


def test_restricted_search_stops_at_its_first_working_separator(monkeypatch):
    """The restricted search takes important separators from a generator
    and runs no flow past the first one that works: building this chain ran
    43 flows in the enumeration when every separator was enumerated."""
    from hdecomp import separators

    from .test_golden import triangle_chain

    calls = 0
    flow = separators._vertex_flow

    def counted(*args):
        nonlocal calls
        calls += 1
        return flow(*args)

    monkeypatch.setattr(separators, "_vertex_flow", counted)
    dec = build_tree_h_decomposition(triangle_chain(10), 2, BIP).decomposition
    assert calls < 43
    digest = hashlib.sha256(to_json(dec).encode()).hexdigest()
    assert digest == "13d5bd9f496f375e3b33fafe0e261981becc8ef67596d1fb9e26be9a1ec1ca78"


def test_builder_shares_obstruction_searches_across_finder_calls(monkeypatch):
    """Within one build, every forbidden-finder call reads and extends one
    map from a vertex mask to its obstruction image.  Families of two
    members give the same forests as a build whose every finder call starts
    from an empty map, with fewer pattern searches."""
    from hdecomp import decomposition, separation

    calls = 0
    search = separation._find_embedding_image

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(separation, "_find_embedding_image", counted)
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    classes = [
        GraphClassSpec.forbidden(claw, Graph.complete(4)),
        GraphClassSpec.forbidden(Graph.path(4), Graph.cycle(4)),
    ]
    rng = random.Random(15)
    cases = [(random_graph(rng, rng.randint(4, 14), rng.uniform(0.15, 0.5)), rng.randint(1, 2)) for _ in range(200)]

    def build_all():
        nonlocal calls
        calls = 0
        return [to_json(build_ed_forest(g, k, cls).forest) for cls in classes for g, k in cases], calls

    shared, shared_calls = build_all()
    kernel = decomposition._forbidden_masks
    monkeypatch.setattr(
        decomposition,
        "_forbidden_masks",
        lambda g, z, k, cls, images, stats=None: kernel(g, z, k, cls, {}, stats),
    )
    fresh, fresh_calls = build_all()
    assert shared == fresh
    assert shared_calls < fresh_calls


def test_validate_checks_only_nonempty_base_parts(monkeypatch):
    """The empty set is in every class, so validate asks the class only about
    bags whose base part is nonempty: one membership test per such bag."""
    from hdecomp import decomposition

    from .test_golden import triangle_chain

    g = triangle_chain(6)
    nice = make_nice(build_tree_h_decomposition(g, 1, BIP).decomposition)
    calls = []
    member = decomposition.is_member

    def counted(g, cls, vs):
        calls.append(vs)
        return member(g, cls, vs)

    monkeypatch.setattr(decomposition, "is_member", counted)
    assert not nice.validate(g)
    want = [b & nice.L for b in nice.bags if b & nice.L]
    assert calls == want and len(want) < len(nice.bags)


def lemma_graph(rng, i):
    """Mostly small components, so the exact quotient DPs stay cheap; one
    graph in twenty has a component past the exact guards."""
    r = i % 20
    if r < 8:
        n = rng.randint(1, 24)
        return random_graph(rng, n, rng.choice((0.5, 0.8, 1.2)) / n)
    if r < 16:
        return random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.35, 0.6, 0.8)))
    if r < 19:
        n = rng.randint(11, 16)
        return random_graph(rng, n, rng.choice((1.5, 2.5)) / n)
    return random_graph(rng, rng.randint(21, 24), rng.choice((0.4, 0.6)))


def test_k0_promise_holds_exactly_on_members():
    """At k = 0 the quotient of a component outside H is the component, so
    the promise fails; `solve`'s auto mode relies on this to start at k = 1."""
    rng = random.Random(61)
    classes = [BIP] + [GraphClassSpec.kl_free(ell) for ell in range(2, 6)]
    outside = [0] * len(classes)
    for i in range(1000):
        g = lemma_graph(rng, i)
        for j, cls in enumerate(classes):
            member = is_member(g, cls)
            assert build_ed_forest(g, 0, cls).promise_ok == member
            outside[j] += not member
        assert build_tree_h_decomposition(g, 0, BIP).promise_ok == is_member(g, BIP)
    assert min(outside) > 50, outside
    # not for forbidden classes in tw mode: a claw has treewidth 1
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    claw_free = GraphClassSpec.forbidden(claw)
    assert build_tree_h_decomposition(claw, 0, claw_free).promise_ok
    assert not is_member(claw, claw_free)


def k1_verdict_graph(rng, i):
    """Sparse random graphs, many with several components; one in ten hangs
    20-26 odd cycles off one hub or chains them, so that its quotients pass
    TD_EXACT_GUARD."""
    from .test_golden import cycle_tree

    if i % 10 == 9:
        return cycle_tree(rng, [rng.choice((3, 5)) for _ in range(rng.randint(20, 26))], rng.random() < 0.5)
    n = rng.randint(3, 36)
    return random_graph(rng, n, rng.choice((0.8, 1.2, 2.0, 3.0)) / n)


def test_k1_verdict_read_first_is_the_full_builds(monkeypatch):
    """At k = 1 a `promise_ok` read first, which stops a failing build at
    its first star-forest certificate, gives the verdict of a build whose
    forest is read first; a forest read after it is the same forest.  The
    certificate misses no failing quotient: read first, every quotient
    search that runs passes."""
    from hdecomp import decomposition

    searched = []
    inner = decomposition.exact_treedepth

    def search(q, *cap):
        res = inner(q, *cap)
        searched.append((q.n, res.value))
        return res

    monkeypatch.setattr(decomposition, "exact_treedepth", search)
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    classes = [BIP, TRI, GraphClassSpec.forbidden(claw)]
    rng = random.Random(71)
    seen = set()
    for i in range(1050):
        g, cls = k1_verdict_graph(rng, i), classes[i % 3]
        searched.clear()
        verdict_first = build_ed_forest(g, 1, cls)
        ok = verdict_first.promise_ok
        assert all(value <= 2 for _, value in searched), i
        searched.clear()
        forest_first = build_ed_forest(g, 1, cls)
        forest = to_json(forest_first.forest)
        assert ok == forest_first.promise_ok, i
        past = max((n for n, _ in searched), default=0) > TD_EXACT_GUARD
        assert to_json(verdict_first.forest) == forest, i
        seen.add((ok, "past the guard" if past else len(connected_components(g)) > 1))
    assert seen == {(ok, kind) for ok in (False, True) for kind in (False, True, "past the guard")}


def test_petersen_verdict_first_builds_fewer_nodes(monkeypatch):
    """The Petersen graph fails at k = 1 and passes at k = 2; read first,
    the k = 1 verdict comes from fewer separation-decomposition nodes than
    the full build makes."""
    from hdecomp import decomposition

    made = []
    build = decomposition.build_separation_decomposition
    monkeypatch.setattr(
        decomposition,
        "build_separation_decomposition",
        lambda *a, **kw: (lambda dec: made.append(len(dec.nodes)) or dec)(build(*a, **kw)),
    )
    outer = [(i, (i + 1) % 5) for i in range(5)]
    g = Graph(10, outer + [(i, i + 5) for i in range(5)] + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    assert not build_ed_forest(g, 1, BIP).promise_ok
    early = sum(made)
    made.clear()
    res = build_ed_forest(g, 1, BIP)
    assert not res.forest.validate(g) and not res.promise_ok
    assert 0 < early < sum(made)
    assert build_ed_forest(g, 2, BIP).promise_ok


def test_ed_to_tree_decomposition_examples():
    c4 = Graph.cycle(4)
    forest = build_ed_forest(c4, 0, BIP).forest
    dec = ed_to_tree_decomposition(forest)
    assert not dec.validate(c4) and dec.width == 0

    k3 = Graph.complete(3)
    manual = EliminationForest(
        [ForestNode(frozenset({0}), -1, False), ForestNode(frozenset({1, 2}), 0, True)],
        BIP,
    )
    assert not manual.validate(k3)
    dec = ed_to_tree_decomposition(manual)
    assert not dec.validate(k3) and dec.width <= 1


@settings(max_examples=50, deadline=None)
@given(connected_graphs_st(max_n=7))
def test_ed_to_tree_width_at_most_depth(g):
    k = brute_ed(g, BIP)
    forest = build_ed_forest(g, k, BIP).forest
    dec = ed_to_tree_decomposition(forest)
    assert not dec.validate(g)
    assert dec.width <= max(forest.depth, 0)


# -- make_nice -----------------------------------------------------------------


def test_make_nice_trivial_edgeless():
    g = Graph(3)
    dec = build_tree_h_decomposition(g, 0, BIP).decomposition
    nice = make_nice(dec)
    assert not nice.validate(g) and nice.width == 0


def test_make_nice_single_bag_no_l():
    k3 = Graph.complete(3)
    dec = TreeHDecomposition([-1], [frozenset({0, 1, 2})], frozenset(), BIP)
    assert not dec.validate(k3)
    nice = make_nice(dec)
    assert not nice.validate(k3)
    assert nice.width == dec.width


def test_make_nice_preserves_l_and_width():
    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8), 0.4)
        k = brute_ed(g, BIP)
        dec = build_tree_h_decomposition(g, k, BIP).decomposition
        nice = make_nice(dec)
        assert not nice.validate(g)
        assert nice.L == dec.L
        assert nice.width <= dec.width
        assert len(nice.parents) <= ALPHA * max(1, dec.width + 1) * max(1, g.n)


def padded(rng, dec, steps):
    """`dec` with `steps` random nodes added: leaves whose bag is a subset of
    their parent's, and nodes spliced into an edge whose bag holds the two
    ends' intersection.  The result is valid for the same graph, and many of
    its adjacent bags are comparable, so `make_nice` contracts a lot."""
    parents, bags, L = list(dec.parents), list(dec.bags), dec.L
    for _ in range(steps):
        x = rng.randrange(len(parents))
        p = parents[x]
        if not bags[x] & L and (p < 0 or rng.random() < 0.4):
            pool = sorted(bags[x] - L)
            parents.append(x)
            bags.append(frozenset(v for v in pool if rng.random() < 0.7))
        elif p >= 0:
            pool = sorted((bags[x] | bags[p]) - L)
            parents.append(p)
            bags.append(bags[x] & bags[p] | frozenset(v for v in pool if rng.random() < 0.5))
            parents[x] = len(parents) - 1
    order = preorder(children(parents), [parents.index(-1)])
    return TreeHDecomposition(renumber(parents, order), [bags[i] for i in order], L, dec.cls)


def test_make_nice_is_byte_identical_on_padded_decompositions():
    # digest recorded while the scaffold compression still rescanned
    # sorted(sbags) after every contraction
    h = hashlib.sha256()
    rng = random.Random(43)
    for i in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.35, 0.5)))
        k = rng.randint(0, 2)
        if i % 2:
            base = build_tree_h_decomposition(g, min(k, 1), BIP).decomposition
        else:
            base = ed_to_tree_decomposition(build_ed_forest(g, k, BIP).forest)
        dec = padded(rng, base, rng.randint(1, 3 * g.n))
        assert not dec.validate(g)
        nice = make_nice(dec)
        assert not nice.validate(g)
        h.update(to_json(nice).encode())
    assert h.hexdigest() == "99747f7a547e71bcf83072556ce541ad370c7a1e8bb84c7698c1856227c8052d"


# -- validators on planted violations -------------------------------------------


def test_validator_catches_crossing_edge():
    g = Graph(3, [(1, 2)])
    forest = EliminationForest(
        [
            ForestNode(frozenset({0}), -1, False),
            ForestNode(frozenset({1}), 0, True),
            ForestNode(frozenset({2}), 0, True),
        ],
        BIP,
    )
    assert any("crosses" in e for e in forest.validate(g))


def test_forest_validator_finds_every_crossing_edge():
    """The edge check by preorder intervals flags exactly the edges whose
    ends' nodes are not on one root path, on random branching forests."""
    rng = random.Random(37)
    flagged = 0
    for _ in range(300):
        n = rng.randint(1, 14)
        parents = [-1] + [rng.randrange(-1, v) for v in range(1, n)]
        ch = children(parents)
        nodes = [ForestNode(frozenset({v}), parents[v], False) for v in range(n)]
        nodes += [ForestNode(frozenset(), v, True) for v in range(n) if not ch[v]]
        g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.6)))

        def above(a, b):
            while b >= 0 and b != a:
                b = parents[b]
            return b == a

        want = [f"edge ({u},{v}) crosses unrelated subtrees" for u, v in g.edges if not (above(u, v) or above(v, u))]
        assert EliminationForest(nodes, None).validate(g) == want
        flagged += bool(want)
    assert flagged > 100


def test_validator_reports_dangling_parent():
    forest = EliminationForest(
        [ForestNode(frozenset({0}), -1, False), ForestNode(frozenset(), 7, True)], None
    )
    assert "node 1: dangling parent" in forest.validate(Graph(1))


def test_validator_catches_duplicate_base_vertex():
    g = Graph(2, [(0, 1)])
    dec = TreeHDecomposition(
        [-1, 0], [frozenset({0, 1}), frozenset({0, 1})], frozenset({1}), BIP
    )
    assert dec.validate(g)


def test_validator_reports_uncovered_edge():
    # path 0-1-2 whose bags {0,1}, {1}, {2} miss the edge (1,2)
    g = Graph(3, [(0, 1), (1, 2)])
    dec = TreeHDecomposition(
        [-1, 0, 1], [frozenset({0, 1}), frozenset({1}), frozenset({2})], frozenset(), None
    )
    assert dec.validate(g) == ["edge (1,2) not covered by any bag"]


def test_validators_name_each_rejection():
    """Each row changes one thing in a valid structure of a triangle chain,
    and the validator names that fault."""
    from dataclasses import replace

    from .test_golden import triangle_chain

    g = triangle_chain(4)
    forest = build_ed_forest(g, 1, BIP).forest
    dec = build_tree_h_decomposition(g, 1, BIP).decomposition
    nice = make_nice(dec)
    x = next(i for i, node in enumerate(forest.nodes) if not node.leaf)
    base_leaf = next(i for i, b in enumerate(dec.bags) if b & dec.L)
    join = next(i for i, kids in enumerate(nice.children()) if len(kids) == 2)
    outside = min(set().union(*dec.bags) - dec.L - dec.bags[0])
    k4_free = GraphClassSpec.forbidden(Graph.complete(4))
    # pieces V_t: {0..3}, {4, 5, 6}, {7}, {8}, {9}, {10, 11}
    sep = build_separation_decomposition(g, 1, BIP, restricted=True)

    def node(i, **change):
        return EliminationForest(
            [replace(n, **change) if j == i else n for j, n in enumerate(forest.nodes)], BIP
        )

    def piece(t, V):
        nodes = [replace(n, V=frozenset(V)) if j == t else n for j, n in enumerate(sep.nodes)]
        return SeparationDecomposition(nodes, sep.k1, sep.k2, sep.restricted, sep.cls)

    def tree(d, parents=None, bags=None, L=None, cls=BIP):
        return type(d)(
            d.parents if parents is None else parents,
            d.bags if bags is None else bags,
            d.L if L is None else L,
            cls,
        )

    def above(d, bag):
        # a new root 0 with the given bag over the old root
        return tree(d, [-1] + [p + 1 if p >= 0 else 0 for p in d.parents], [bag, *d.bags])

    rows = [
        (forest, node(x, leaf=True), "leaf with children"),
        (forest, EliminationForest(forest.nodes, None), "standard forest leaf bag must be empty"),
        (forest, node(x, bag=frozenset()), "internal bag must be a singleton"),
        (dec, tree(dec, [], []), "decomposition has no nodes"),
        (dec, tree(dec, bags=dec.bags[:-1]), "parents and bags disagree in length"),
        (dec, tree(dec, [-1, -1, *dec.parents[2:]]), "not a single rooted tree"),
        (dec, tree(dec, [-1, 1, *dec.parents[2:]]), "does not precede it"),
        (dec, above(dec, frozenset({outside})), "occurrence subtree disconnected"),
        (dec, tree(dec, [*dec.parents, base_leaf], [*dec.bags, frozenset()]), "must live at a leaf"),
        (dec, tree(dec, cls=None), "standard decomposition must have empty L"),
        (nice, tree(nice, [*nice.parents, join], [*nice.bags, nice.bags[join]]), "more than two children"),
        (nice, above(nice, nice.bags[0]), "single-child step is not a legal bag change"),
        (nice, tree(nice, [-1], [frozenset(range(g.n))], frozenset(range(g.n)), k4_free), "root bag intersects L"),
        (sep, piece(2, ()), "empty V_t"),
        (sep, piece(1, {3, 4, 5, 6}), "V_t overlaps earlier pieces"),
        (sep, piece(1, {4, 6}), "V_t not connected"),
        (sep, piece(5, {10}), "pieces do not cover V(G)"),
    ]
    for valid, broken, message in rows:
        assert not valid.validate(g)
        errs = broken.validate(g)
        assert any(message in e for e in errs), (message, errs)


def test_validator_catches_wrong_graph():
    k3 = Graph.complete(3)
    dec = build_tree_h_decomposition(k3, 1, BIP).decomposition
    other = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    assert dec.validate(other)


def test_the_empty_graph_end_to_end():
    """Graph(0) through both quotient searches, both builders at k = 0 and
    1, both conversions to a tree decomposition and all five solvers: one
    empty leaf at depth 0, one empty bag at width 0."""
    from hdecomp.solvers import (
        solve_klfree_elim,
        solve_oct_dp,
        solve_oct_elim,
        solve_vc_dp,
        solve_vc_elim,
    )

    g = Graph(0)
    leaf = '"nodes":[{"bag":[],"id":0,"leaf":true,"parent":-1}]'
    bip = '"class":{"kind":"bipartite"}'
    td, tw = exact_treedepth(g), exact_treewidth(g)
    assert (td.value, td.exact, tw.value, tw.exact) == (0, True, 0, True)
    assert to_json(td.forest) == '{"class":null,"depth":0,"kind":"elimination-forest",' + leaf + "}\n"
    assert to_json(tw.decomposition) == (
        '{"L":[],"class":null,"kind":"tree-h-decomposition",' + leaf + ',"width":0}\n'
    )
    for k in (0, 1):
        ed, th = build_ed_forest(g, k, BIP), build_tree_h_decomposition(g, k, BIP)
        assert ed.promise_ok and th.promise_ok
        assert to_json(ed.forest) == "{" + bip + ',"depth":0,"kind":"elimination-forest",' + leaf + "}\n"
        assert to_json(th.decomposition) == (
            '{"L":[],' + bip + ',"kind":"tree-h-decomposition",' + leaf + ',"width":0}\n'
        )
        assert to_json(make_nice(th.decomposition)) == (
            '{"L":[],' + bip + ',"kind":"nice",' + leaf + ',"width":0}\n'
        )
        assert to_json(ed_to_tree_decomposition(ed.forest)) == (
            '{"L":[],' + bip + ',"kind":"tree-h-decomposition","nodes":[{"bag":[],"id":0,'
            '"leaf":false,"parent":-1},{"bag":[],"id":1,"leaf":true,"parent":0}],"width":0}\n'
        )
        assert solve_oct_elim(g, ed.forest) == solve_vc_elim(g, ed.forest) == frozenset()
        assert solve_oct_dp(g, th.decomposition) == solve_vc_dp(g, th.decomposition) == (0, frozenset())
        assert solve_klfree_elim(g, build_ed_forest(g, k, TRI).forest, 3) == frozenset()


# -- JSON -----------------------------------------------------------------------


def test_json_round_trip_forest():
    k3 = Graph.complete(3)
    forest = build_ed_forest(k3, 1, BIP).forest
    text = to_json(forest)
    again = from_json(text)
    assert isinstance(again, EliminationForest)
    assert again.nodes == forest.nodes and again.cls == forest.cls
    assert to_json(again) == text


def test_json_round_trip_decomposition():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    dec = build_tree_h_decomposition(g, 1, BIP).decomposition
    text = to_json(dec)
    again = from_json(text)
    assert again.parents == dec.parents and again.bags == dec.bags
    assert again.L == dec.L and again.cls == dec.cls
    assert to_json(again) == text
    nice = make_nice(dec)
    text = to_json(nice)
    again = from_json(text)
    assert isinstance(again, NiceTreeHDecomposition)
    assert to_json(again) == text


def test_json_round_trip_forbidden_class():
    k4 = Graph.complete(4)
    forest = build_ed_forest(k4, 2, TRI).forest
    again = from_json(to_json(forest))
    assert again.cls == TRI


def test_json_rejects_tampered_depth():
    k3 = Graph.complete(3)
    text = to_json(build_ed_forest(k3, 1, BIP).forest)
    bad = text.replace('"depth":' + str(from_json(text).depth), '"depth":99')
    with pytest.raises(ValueError):
        from_json(bad)


def test_json_rejects_malformed_documents():
    import json as _json

    k3 = Graph.complete(3)
    doc = _json.loads(to_json(build_tree_h_decomposition(k3, 1, BIP).decomposition))
    for key in ("kind", "nodes", "L", "width"):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(ValueError):
            from_json(_json.dumps(broken))
    for kind in ("bogus", "odd-cycle-free"):
        broken = dict(doc, **{"class": {"kind": kind, "family": [{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}]}})
        with pytest.raises(ValueError, match="unknown class kind"):
            from_json(_json.dumps(broken))
    broken = dict(doc)
    broken["kind"] = "mystery"
    with pytest.raises(ValueError):
        from_json(_json.dumps(broken))
    broken = dict(doc)
    broken["nodes"] = [dict(n, id=n["id"] + 1) for n in broken["nodes"]]
    with pytest.raises(ValueError):
        from_json(_json.dumps(broken))
