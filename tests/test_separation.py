import random

import pytest
from hypothesis import given, settings

from hdecomp.graphs import (
    Graph,
    GraphClassSpec,
    bits,
    find_induced_obstruction,
    is_member,
    mask_of,
    neighborhood_mask,
    proper_2_coloring,
    reach_mask,
    set_of,
)
from hdecomp.oracles import brute_separable
from hdecomp.separation import (
    Separation,
    _bip_masks,
    _restricted_masks,
    find_extremal_separation,
    find_separation_bip,
    find_separation_forbidden,
    find_separation_restricted,
)
from hdecomp.separators import (
    ImportantSeparatorQuery,
    SearchStats,
    _important_masks,
    _vertex_flow,
    enumerate_important_separators,
)

from .conftest import connected_graphs_st, random_graph

BIP = GraphClassSpec.bipartite()
TRI = GraphClassSpec.triangle_free()


def bip_base(g, Z, k, within):
    return find_separation_bip(g, Z, k, within=within)


def test_bip_examples():
    c4 = Graph.cycle(4)
    out = find_separation_bip(c4, frozenset({0}), 0)
    assert out is not None and out.C == {0, 1, 2, 3} and out.S == frozenset()

    k3 = Graph.complete(3)
    out = find_separation_bip(k3, frozenset({0}), 1)
    assert out is not None and not out.validate(k3) and len(out.S) <= 2
    assert brute_separable(k3, frozenset({0}), 1, BIP) is not None

    k5 = Graph.complete(5)
    assert find_separation_bip(k5, frozenset({0}), 1) is None
    assert brute_separable(k5, frozenset({0}), 1, BIP) is None


def test_bip_rejects_bad_z():
    g = Graph.path(3)
    with pytest.raises(ValueError):
        find_separation_bip(g, frozenset(), 1)
    with pytest.raises(ValueError):
        find_separation_bip(g, frozenset({0, 2}), 1)


def test_forbidden_examples():
    c4 = Graph.cycle(4)
    out = find_separation_forbidden(c4, frozenset({0}), 0, TRI)
    assert out is not None and out.C == {0, 1, 2, 3} and not out.S

    k4 = Graph.complete(4)
    assert find_separation_forbidden(k4, frozenset({0}), 1, TRI) is None
    assert brute_separable(k4, frozenset({0}), 1, TRI) is None
    out = find_separation_forbidden(k4, frozenset({0}), 2, TRI)
    assert out is not None and not out.validate(k4)
    assert out.covers(frozenset({0})) and len(out.S) <= 2
    assert brute_separable(k4, frozenset({0}), 2, TRI) is not None


def test_forbidden_obstruction_inside_z_is_inseparable():
    k3 = Graph.complete(3)
    assert find_separation_forbidden(k3, frozenset({0, 1, 2}), 2, TRI) is None


def test_restricted_delegates_on_small_family():
    k3 = Graph.complete(3)
    out = find_separation_restricted(k3, frozenset({0}), 1, 1, BIP, [], bip_base)
    assert out is not None and out.weakly_covers(frozenset({0}))
    assert find_separation_restricted(k3, frozenset({0}), 0, 0, BIP, [], bip_base) is None


def test_restricted_with_triangle_family():
    # two triangles joined by a path; each triangle is (bip,k)-inseparable
    g = Graph(
        7,
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)],
    )
    fam = [frozenset({0, 1, 2}), frozenset({4, 5, 6})]
    for k in (1, 2):
        out = find_separation_restricted(g, frozenset({3}), k, k, BIP, fam, bip_base)
        truth = brute_separable(g, frozenset({3}), k, BIP)
        if out is None:
            assert truth is None
        else:
            assert not out.validate(g)
            assert out.weakly_covers(frozenset({3}))
            assert len(out.S) <= BIP.h_value(k) + k
            swallowed = sum(1 for f in fam if f <= out.C)
            assert swallowed <= k
        if truth is not None:
            assert out is not None


def test_restricted_rejects_bad_family():
    g = Graph.path(4)
    with pytest.raises(ValueError):
        find_separation_restricted(
            g, frozenset({0}), 1, 1, BIP, [frozenset({1, 3})], bip_base
        )  # disconnected family member
    with pytest.raises(ValueError):
        find_separation_restricted(
            g, frozenset({0}), 1, 1, BIP, [frozenset({1}), frozenset({1, 2})], bip_base
        )  # overlap
    with pytest.raises(ValueError):
        find_separation_restricted(g, frozenset({0}), 2, 1, BIP, [], bip_base)  # k > t
    with pytest.raises(ValueError):
        find_separation_restricted(
            g, frozenset({0}), 1, 1, BIP, [frozenset({0, 1})], bip_base
        )  # family member meets Z


def extremal_bip(g, region, Z, k):
    """find_extremal_separation with the bipartite mask kernel, read back as
    (Z', Separation with the builder's bound h(k) + 1, certified)."""

    def finder(g, zmask, k, family):
        return _bip_masks(g, zmask, k, g.full_mask())

    zp, c, s, certified = find_extremal_separation(g, mask_of(region), mask_of(Z), k, [], finder)
    return set_of(zp), Separation(set_of(c), set_of(s), BIP, BIP.h_value(k) + 1), certified


def test_extremal_covers_whole_member_graph():
    c4 = Graph.cycle(4)
    region = frozenset(range(4))
    zp, sep, certified = extremal_bip(c4, region, frozenset({0}), 1)
    assert zp == region and not certified
    assert sep.C == region and not sep.S


def test_extremal_k0_on_triangle_is_inseparable():
    k3 = Graph.complete(3)
    region = frozenset(range(3))
    zp, sep, certified = extremal_bip(k3, region, frozenset({0}), 0)
    assert zp == frozenset({0}) and certified
    assert sep.weakly_covers(zp)


def test_extremal_output_is_inseparable_or_whole_region():
    rng = random.Random(3)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 8), 0.4)
        from hdecomp.graphs import connected_components

        comp = connected_components(g)[0]
        k = rng.randint(0, 2)
        zp, sep, certified = extremal_bip(g, comp, frozenset({min(comp)}), k)
        assert sep.weakly_covers(zp)
        assert not sep.validate(g)
        if zp != comp:
            assert certified
            assert brute_separable(g, zp, k, BIP) is None


@settings(max_examples=80, deadline=None)
@given(connected_graphs_st(max_n=7))
def test_finders_sound_and_complete(g):
    for z in range(min(g.n, 3)):
        Z = frozenset({z})
        for k in (0, 1, 2):
            truth_bip = brute_separable(g, Z, k, BIP)
            out = find_separation_bip(g, Z, k)
            if out is None:
                assert truth_bip is None
            else:
                assert not out.validate(g)
                assert out.weakly_covers(Z) and len(out.S) <= 2 * k
            if truth_bip is not None:
                assert out is not None
            truth_tri = brute_separable(g, Z, k, TRI)
            out = find_separation_forbidden(g, Z, k, TRI)
            assert (out is not None) == (truth_tri is not None)
            if out is not None:
                assert not out.validate(g)
                assert out.covers(Z) and len(out.S) <= k


def bip_reference(g, Z, k, within=None):
    """The parity-graph construction find_separation_bip replaced: contract
    the colour classes of Z, re-index G[comp] and build the parity graph."""
    alive = g.full_mask() if within is None else mask_of(within)
    zmask = mask_of(Z)
    comp = reach_mask(g, zmask, alive)
    if k == 0:
        if is_member(g, BIP, set_of(comp)):
            return Separation(set_of(comp), frozenset(), BIP, 0)
        return None
    coloring = proper_2_coloring(g, Z)
    if coloring is None:
        return None
    class1 = mask_of(v for v, c in coloring.items() if c == 1)
    class2 = zmask & ~class1
    rest = [v for v in range(g.n) if (comp & ~zmask) >> v & 1]
    index = {v: i for i, v in enumerate(rest)}
    v1 = len(rest)
    v2 = v1 + 1 if class2 else None
    edges = set()
    for u in rest:
        for w in g.neighbors(u):
            if w in index and u < w:
                edges.add((index[u], index[w]))
        if g.adj_mask(u) & class1:
            edges.add((index[u], v1))
        if v2 is not None and g.adj_mask(u) & class2:
            edges.add((index[u], v2))
    if v2 is not None:
        edges.add((v1, v2))
    parity = [e for a, b in edges for e in ((2 * a, 2 * b + 1), (2 * a + 1, 2 * b))]
    gp = Graph(2 * (v1 + (2 if class2 else 1)), parity)
    if v2 is not None:
        xterm, yterm = {2 * v1, 2 * v2 + 1}, {2 * v1 + 1, 2 * v2}
    else:
        xterm, yterm = {2 * v1}, {2 * v1 + 1}
    res = _vertex_flow(gp._adj_masks, gp.full_mask(), mask_of(xterm), mask_of(yterm), 2 * k)
    if res is None:
        return None
    deleted = mask_of(rest[c // 2] for c in bits(res[1]))
    cmask = reach_mask(g, zmask, comp & ~deleted)
    smask = neighborhood_mask(g, cmask, comp)
    sep = Separation(set_of(cmask), set_of(smask), BIP, 2 * k)
    # Separation.validate's conditions with N(C) taken within G[alive]
    assert [e for e in sep.validate(g) if e != "N(C) not contained in S"] == []
    assert not neighborhood_mask(g, cmask, alive) & ~smask
    return sep


def test_bip_finder_matches_the_parity_graph_reference():
    rng = random.Random(23)
    compared = relative = 0
    for i in range(500):
        g = random_graph(rng, rng.randint(1, 10), rng.choice([0.2, 0.3, 0.5]))
        z = rng.randrange(g.n)
        Z = frozenset({z})
        if i % 3 == 0 and g.neighbors(z):  # two colour classes in Z
            Z |= {rng.choice(g.neighbors(z))}
        within = set_of(rng.getrandbits(g.n) | mask_of(Z)) if i % 2 else None
        alive = g.full_mask() if within is None else mask_of(within)
        for k in range(5):
            want = bip_reference(g, Z, k, within)
            got = find_separation_bip(g, Z, k, within=within)
            kernel = _bip_masks(g, mask_of(Z), k, reach_mask(g, mask_of(Z), alive))
            assert (got is None) == (want is None) == (kernel is None), (g.edges, sorted(Z), k, within)
            if got is not None:
                assert (got.C, got.S) == (want.C, want.S), (g.edges, sorted(Z), k, within)
                assert kernel == (mask_of(want.C), mask_of(want.S))
                # N(C) leaves S only through vertices outside `within`
                relative += k > 0 and bool(got.validate(g))
            compared += 1
    assert compared == 2500 and relative > 200


def restricted_reference(g, Z, k, t, cls, family, base, within=None, stats=None):
    """find_separation_restricted before its mask kernel: the same recursion
    over frozensets, through the public finder and enumerator, with the
    family checks left out."""
    alive0 = g.full_mask() if within is None else mask_of(within)
    zmask = mask_of(Z)

    def rec(alive, budget, fam, depth):
        if stats is not None and depth > 0:
            stats.tick()
        comp = reach_mask(g, zmask, alive)
        fam = [f for f in fam if f & ~comp == 0]
        if len(fam) <= budget:
            out = base(g, Z, budget, set_of(comp))
            return None if out is None else (out.C, out.S)
        found = [None]
        for fmask in fam[: budget + 1]:

            def try_separator(sep):
                if found[0] is not None:
                    return
                sub = rec(alive & ~mask_of(sep), budget - len(sep), fam, depth + 1)
                if sub is not None:
                    found[0] = (sub[0], sub[1] | sep)

            query = ImportantSeparatorQuery(set_of(fmask), Z, budget)
            enumerate_important_separators(query, g, try_separator, within=set_of(comp))
            if found[0] is not None:
                return found[0]
        return None

    res = rec(alive0, k, [mask_of(f) for f in family], 0)
    return None if res is None else Separation(res[0], res[1], cls, cls.h_value(t) + k)


def random_connected_set(rng, g, pool, size):
    got = {rng.choice(sorted(pool))}
    while len(got) < size:
        grow = sorted({w for v in got for w in g.neighbors(v) if w in pool} - got)
        if not grow:
            break
        got.add(rng.choice(grow))
    return frozenset(got)


def test_restricted_kernel_matches_the_frozenset_finders():
    """The mask kernel with the mask bip kernel, the public wrapper over the
    frozenset bip finder, and the frozenset reference agree on (C, S), on
    None and on the recursion-node count; every (C, S) is a separation
    within G[within]."""
    rng = random.Random(31)
    compared = found = relative = recursed = 0
    for i in range(1000):
        g = random_graph(rng, rng.randint(3, 12), rng.choice([0.25, 0.35, 0.5]))
        Z = frozenset({rng.randrange(g.n)})
        zmask = mask_of(Z)
        pool = set(range(g.n)) - Z
        fam = []  # disjoint connected sets, like a node's ancestor V sets
        for _ in range(rng.randint(0, 6)):
            if pool:
                fam.append(random_connected_set(rng, g, pool, rng.randint(1, 3)))
                pool -= fam[-1]
        within = set_of(rng.getrandbits(g.n) | zmask) if i % 3 == 0 else None
        alive = g.full_mask() if within is None else mask_of(within)
        comp = reach_mask(g, zmask, alive)
        fmasks = [mask_of(f) for f in fam]
        for k in range(4):
            want_stats, got_stats, kernel_stats = SearchStats(), SearchStats(), SearchStats()
            args = (g, Z, k, k, BIP, fam, bip_base, within)
            want = restricted_reference(*args, stats=want_stats)
            got = find_separation_restricted(*args, stats=got_stats)
            kernel = _restricted_masks(g, zmask, k, fmasks, _bip_masks, comp, kernel_stats)
            case = (g.edges, sorted(Z), [sorted(f) for f in fam], k, within)
            assert (got is None) == (want is None) == (kernel is None), case
            if got is not None:
                assert (got.C, got.S, got.bound) == (want.C, want.S, want.bound), case
                assert kernel == (mask_of(want.C), mask_of(want.S)), case
                errs = got.validate(g)
                assert errs in ([], ["N(C) not contained in S"]), case
                assert not neighborhood_mask(g, kernel[0], alive) & ~kernel[1], case
                relative += bool(errs)
                found += 1
            assert got_stats.nodes == kernel_stats.nodes == want_stats.nodes, case
            recursed += want_stats.nodes > 0
            compared += 1
    assert compared == 4000 and found > 1500 and recursed > 200 and relative > 500


def test_important_kernel_emits_what_the_enumerator_emits():
    rng = random.Random(37)
    emitted = 0
    for i in range(300):
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.2, 0.3, 0.5]))
        order = rng.sample(range(g.n), g.n)
        nx = rng.randint(1, max(1, g.n // 3))
        X, Y = frozenset(order[:nx]), frozenset(order[nx : nx + rng.randint(1, 2)])
        if not Y:
            continue
        within = set_of(rng.getrandbits(g.n) | mask_of(X | Y)) if i % 2 else None
        alive = g.full_mask() if within is None else mask_of(within)
        for k in range(4):
            want = []
            want_stats, got_stats = SearchStats(), SearchStats()
            query = ImportantSeparatorQuery(X, Y, k)
            n1 = enumerate_important_separators(query, g, want.append, want_stats, within)
            got = list(_important_masks(g, mask_of(X), mask_of(Y), k, alive, got_stats))
            n2 = len(got)
            assert [mask_of(s) for s in want] == got and n1 == n2 == len(got)
            assert want_stats.nodes == got_stats.nodes
            emitted += n1
    assert emitted > 400


def forbidden_reference(g, Z, k, cls, stats=None):
    """find_separation_forbidden before its mask kernel: the same branching
    over frozensets, through the public obstruction search and enumerator."""
    zmask = mask_of(Z)

    def rec(alive, budget, depth):
        if stats is not None and depth > 0:
            stats.tick()
        comp = reach_mask(g, zmask, alive)
        obstruction = find_induced_obstruction(g, cls, set_of(comp))
        if obstruction is None:
            return comp, 0
        branch_vertices = sorted(obstruction - Z)
        for u in branch_vertices:
            if budget >= 1:
                sub = rec(alive & ~(1 << u), budget - 1, depth + 1)
                if sub is not None:
                    return sub[0], sub[1] | (1 << u)
        for u in branch_vertices:
            found = [None]

            def try_separator(sep):
                if found[0] is not None:
                    return
                smask = mask_of(sep)
                sub = rec(alive & ~smask, budget - len(sep), depth + 1)
                if sub is not None:
                    found[0] = (sub[0], sub[1] | smask)

            query = ImportantSeparatorQuery(frozenset({u}), Z, budget)
            enumerate_important_separators(query, g, try_separator, within=set_of(comp))
            if found[0] is not None:
                return found[0]
        return None

    res = rec(g.full_mask(), k, 0)
    return None if res is None else Separation(set_of(res[0]), set_of(res[1]), cls, k)


def test_forbidden_finder_matches_the_frozenset_reference():
    """Same (C, S) or None and the same recursion-node count (which
    criterion 6 bounds) for K3-free, claw-free and P3-free at k = 0..3."""
    families = {
        "K3": GraphClassSpec.triangle_free(),
        "claw": GraphClassSpec.forbidden(Graph(4, [(0, 1), (0, 2), (0, 3)])),
        "P3": GraphClassSpec.forbidden(Graph.path(3)),
    }
    rng = random.Random(43)
    found = recursed = 0
    for i in range(1000):
        g = random_graph(rng, rng.randint(1, 11), rng.choice([0.2, 0.3, 0.45]))
        z = rng.randrange(g.n)
        Z = frozenset({z})
        if i % 3 == 0 and g.neighbors(z):
            Z |= {rng.choice(g.neighbors(z))}
        for name, cls in families.items():
            for k in range(4):
                want_stats, got_stats = SearchStats(), SearchStats()
                want = forbidden_reference(g, Z, k, cls, want_stats)
                got = find_separation_forbidden(g, Z, k, cls, stats=got_stats)
                case = (g.edges, sorted(Z), name, k)
                assert (got is None) == (want is None), case
                if got is not None:
                    assert (got.C, got.S, got.bound) == (want.C, want.S, want.bound), case
                    found += 1
                assert got_stats.nodes == want_stats.nodes, case
                recursed += want_stats.nodes > 0
    assert found > 4000 and recursed > 2000


def test_forbidden_recursion_bound():
    # recursion nodes (excluding the top call) <= k * (5q)^k, q = 3
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 7), 0.5)
        from hdecomp.graphs import connected_components

        comp = connected_components(g)[0]
        for k in (1, 2, 3):
            stats = SearchStats()
            find_separation_forbidden(g, frozenset({min(comp)}), k, TRI, stats=stats)
            assert stats.nodes <= k * (5 * 3) ** k
