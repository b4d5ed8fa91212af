import itertools
import random

import pytest
from hypothesis import given, settings

from hdecomp.graphs import Graph, GraphClassSpec, connected_components
from hdecomp.decomposition import (
    ALPHA,
    EliminationForest,
    ForestNode,
    NiceTreeHDecomposition,
    TreeHDecomposition,
    build_ed_forest,
    build_separation_decomposition,
    build_tree_h_decomposition,
    ed_forest_from_sepdecomp,
    ed_to_tree_decomposition,
    exact_treedepth,
    exact_treewidth,
    from_json,
    kappa_pi,
    make_nice,
    quotient,
    to_json,
    tree_decomp_from_sepdecomp,
)
from hdecomp.decomposition import _min_fill_order
from hdecomp.oracles import brute_ed

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


def test_min_fill_order_matches_reference():
    rng = random.Random(12)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 30), rng.choice([0.1, 0.2, 0.4, 0.7]))
        assert _min_fill_order(g) == _min_fill_reference(g)


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


def test_quotient_examples():
    c4 = Graph.cycle(4)
    dec = build_separation_decomposition(c4, 0, BIP)
    q, vmap = quotient(c4, dec)
    assert q.n == 1 and not q.edges
    k3 = Graph.complete(3)
    dec = build_separation_decomposition(k3, 1, BIP)
    q, _ = quotient(k3, dec)
    assert exact_treedepth(q).value <= brute_ed(k3, BIP) + 1


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


# -- make_nice and kappa/pi -----------------------------------------------------


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


def test_kappa_pi_properties():
    rng = random.Random(41)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        k = brute_ed(g, BIP)
        nice = make_nice(build_tree_h_decomposition(g, k, BIP).decomposition)
        root = nice.root()
        kap, pi = kappa_pi(nice, root)
        assert kap == frozenset(range(g.n)) and pi == frozenset()
        ch = nice.children()
        for t in range(len(nice.parents)):
            kap_t, pi_t = kappa_pi(nice, t)
            if nice.parents[t] >= 0:
                kap_p, _ = kappa_pi(nice, nice.parents[t])
                assert kap_t <= kap_p
            kids = ch[t]
            if len(kids) == 2:
                k1, _ = kappa_pi(nice, kids[0])
                k2, _ = kappa_pi(nice, kids[1])
                assert not (k1 & k2)
            # tri-separation extracted from kappa/pi has no cross edges
            x = nice.bags[t] & pi_t
            a = kap_t - x
            b = frozenset(range(g.n)) - a - x
            assert not any((v in a and w in b) or (v in b and w in a) for v, w in g.edges)


def test_kappa_at_strip_leaf():
    k3 = Graph.complete(3)
    nice = make_nice(build_tree_h_decomposition(k3, 1, BIP).decomposition)
    ch = nice.children()
    for t in range(len(nice.parents)):
        if not ch[t] and nice.bags[t] & nice.L:
            kap, _ = kappa_pi(nice, t)
            assert kap == nice.bags[t] & nice.L


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


def test_validator_catches_wrong_graph():
    k3 = Graph.complete(3)
    dec = build_tree_h_decomposition(k3, 1, BIP).decomposition
    other = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    assert dec.validate(other)


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
    broken = dict(doc)
    broken["kind"] = "mystery"
    with pytest.raises(ValueError):
        from_json(_json.dumps(broken))
    broken = dict(doc)
    broken["nodes"] = [dict(n, id=n["id"] + 1) for n in broken["nodes"]]
    with pytest.raises(ValueError):
        from_json(_json.dumps(broken))
