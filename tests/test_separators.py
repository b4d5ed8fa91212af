import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from hdecomp import separators
from hdecomp.decomposition import build_tree_h_decomposition
from hdecomp.graphs import Graph, GraphClassSpec, bits, mask_of, neighborhood_mask, reach_mask, set_of
from hdecomp.separators import (
    ImportantSeparatorQuery,
    SearchStats,
    _important_masks,
    _is_important,
    _vertex_flow,
    enumerate_important_separators,
)

from .conftest import (
    brute_important_separators,
    definitional_is_important,
    graphs,
    random_graph,
    reachable,
    reference_vertex_flow,
)
from .test_golden import cycle_tree

PATH3 = Graph.path(3)
DIAMOND = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
BROOM = Graph(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])


def enum(g, x, y, k, stats=None):
    out = []
    q = ImportantSeparatorQuery(frozenset(x), frozenset(y), k)
    cnt = enumerate_important_separators(q, g, out.append, stats=stats)
    assert cnt == len(out) == len(set(out))
    return frozenset(out)


def test_min_vertex_separator_examples():
    assert _vertex_flow(PATH3._adj_masks, 0b111, 0b001, 0b100, 1) == (1, 0b010)
    assert _vertex_flow(DIAMOND._adj_masks, 0b1111, 0b0001, 0b1000, 2) == (2, 0b0110)
    assert _vertex_flow(DIAMOND._adj_masks, 0b1111, 0b0001, 0b1000, 1) is None
    # an edge joins X and Y: no separator at any cap
    assert _vertex_flow(Graph(2, [(0, 1)])._adj_masks, 0b11, 0b01, 0b10, 3) is None


def test_enumerate_examples():
    assert enum(PATH3, {0}, {2}, 1) == {frozenset({1})}
    assert enum(DIAMOND, {0}, {3}, 2) == {frozenset({1, 2})}
    got = enum(BROOM, {0}, {4}, 2)
    assert got == brute_important_separators(BROOM, {0}, {4}, 2)
    assert got == {frozenset({1}), frozenset({2, 3})}


def test_brute_examples():
    assert brute_important_separators(PATH3, {0}, {2}, 1) == {frozenset({1})}
    assert brute_important_separators(Graph(2), {0}, {1}, 0) == {frozenset()}
    with pytest.raises(ValueError):
        brute_important_separators(Graph(17), {0}, {1}, 1)


def test_adjacent_terminals_emit_nothing():
    g = Graph(2, [(0, 1)])
    assert enum(g, {0}, {1}, 3) == frozenset()


def test_emitted_separators_satisfy_the_definition():
    rng = random.Random(5)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5]))
        x, y = rng.sample(range(g.n), 2)
        for k in (1, 2, 3):
            got = enum(g, {x}, {y}, k)
            for s in got:
                r = reachable(g, {x}, s)
                assert y not in r
                assert s == set_of(neighborhood_mask(g, mask_of(r)))
            assert sum(4.0 ** -len(s) for s in got) <= 1.0 + 1e-12
            assert len(got) <= 4**k


@settings(max_examples=120, deadline=None)
@given(graphs(min_n=2, max_n=8))
def test_enumeration_matches_brute_force(g):
    x, y = 0, g.n - 1
    if x == y:
        return
    for k in (1, 2, 3):
        assert enum(g, {x}, {y}, k) == brute_important_separators(g, {x}, {y}, k)


def test_enumeration_matches_brute_on_set_terminals():
    rng = random.Random(19)
    for _ in range(120):
        g = random_graph(rng, rng.randint(3, 8), rng.choice([0.3, 0.5]))
        vs = list(range(g.n))
        rng.shuffle(vs)
        nx = rng.randint(1, 2)
        ny = rng.randint(1, 2)
        x, y = frozenset(vs[:nx]), frozenset(vs[nx : nx + ny])
        for k in (1, 2, 3):
            assert enum(g, x, y, k) == brute_important_separators(g, x, y, k)


def test_min_separator_size_matches_brute_minimum():
    rng = random.Random(9)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 8), 0.4)
        x, y = rng.sample(range(g.n), 2)
        if g.has_edge(x, y):
            continue
        res = _vertex_flow(g._adj_masks, g.full_mask(), 1 << x, 1 << y, g.n)
        brute = brute_important_separators(g, {x}, {y}, g.n)
        assert res is not None
        assert res[0] == res[1].bit_count() == min(len(s) for s in brute)


def test_min_separator_is_the_farthest_minimum_cut():
    """Brute force over all separators: the returned one is minimum, its
    reach contains the reach of every other minimum separator, and the cap
    boundary holds exactly at the minimum."""
    rng = random.Random(23)
    checked = ties = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(4, 9), rng.choice([0.35, 0.5, 0.65]))
        vs = list(range(g.n))
        rng.shuffle(vs)
        x = frozenset(vs[: rng.randint(1, 2)])
        far = [v for v in vs if v not in x and not any(g.has_edge(v, a) for a in x)]
        if not far:
            continue
        y = frozenset(far[: rng.randint(1, 3)])
        free = [v for v in vs if v not in x | y]
        for size in range(len(free) + 1):
            minimum = [
                frozenset(s)
                for s in itertools.combinations(free, size)
                if not reachable(g, x, s) & y
            ]
            if minimum:
                break
        xmask, ymask = mask_of(x), mask_of(y)
        lam, cut = _vertex_flow(g._adj_masks, g.full_mask(), xmask, ymask, size)
        sep = set_of(cut)
        assert lam == size and sep in minimum
        reach = reachable(g, x, sep)
        assert all(reachable(g, x, s) <= reach for s in minimum)
        assert _vertex_flow(g._adj_masks, g.full_mask(), xmask, ymask, size - 1) is None
        checked += 1
        ties += len({reachable(g, x, s) for s in minimum}) > 1
    assert checked >= 200 and ties >= 15


def test_vertex_flow_matches_the_forward_reference():
    """The flow augmented from Y, with its cut read off the last search,
    returns exactly what the forward kernel with its reverse BFS returns,
    None included: on plain (X, Y) queries, on the parity graph of
    `_bip_masks` (2n states) and on the two anchor states of
    `_anchored_cut`."""
    rng = random.Random(2103)
    seen = Counter()
    for i in range(12_000):
        g = random_graph(rng, rng.randint(1, 16), rng.choice([0.1, 0.2, 0.35, 0.5, 0.7]))
        n, adj, vs = g.n, list(g._adj_masks), list(range(g.n))
        rng.shuffle(vs)
        alive = mask_of(v for v in vs if rng.random() < 0.85)  # terminals may fall outside
        cap = rng.randint(-1, 5)
        kind = ("plain", "parity", "anchored")[i % 3]
        if kind == "plain":  # X or Y may be empty, and an edge may join them
            nx = rng.randint(0, 3)
            xmask, ymask = mask_of(vs[:nx]), mask_of(vs[nx : nx + rng.randint(0, 3)])
        elif kind == "parity":  # state v + n is the odd copy of v
            z = vs[: rng.randint(1, 4)]
            class1 = mask_of(v for v in z if rng.random() < 0.5)
            class2 = mask_of(z) & ~class1
            adj = [a << n for a in adj] + adj
            alive |= alive << n
            xmask, ymask = class1 | class2 << n, class1 << n | class2
        else:  # states n and n + 1 anchor the deletable terminal sets T1, T2
            t1, t2 = (mask_of(v for v in vs if rng.random() < 0.25) for _ in range(2))
            s, t = 1 << n, 1 << n + 1
            adj = [a | s * (t1 >> v & 1) | t * (t2 >> v & 1) for v, a in enumerate(adj)] + [t1, t2]
            alive |= s | t
            xmask, ymask = s, t
        got = _vertex_flow(adj, alive, xmask, ymask, cap)
        assert got == reference_vertex_flow(adj, alive, xmask, ymask, cap), (i, kind)
        seen[kind, got is None] += 1
        seen["outside"] += bool((xmask | ymask) & ~alive)
        seen["empty"] += not (xmask & alive and ymask & alive)
        seen["edge"] += any(adj[v] & ymask & alive for v in bits(xmask & alive))
        seen["lambda >= 2"] += got is not None and got[0] >= 2
    assert min(seen.values()) >= 300, seen


def unique_shortest_interior(adj, alive, x, y):
    """The inner vertices of the one shortest x-y path in the graph of
    `adj` within `alive`, or None when there are several or none."""
    dist, count, frontier = {x: 0}, {x: 1}, [x]
    while frontier and y not in dist:
        nxt = []
        for u in frontier:
            for w in bits(adj[u] & alive):
                if w not in dist:
                    dist[w], count[w] = dist[u] + 1, 0
                    nxt.append(w)
                if dist[w] == dist[u] + 1:
                    count[w] += count[u]
        frontier = nxt
    if count.get(y) != 1:
        return None
    inner, v = 0, y
    while dist[v] > 1:
        v = next(u for u in bits(adj[v] & alive) if dist.get(u) == dist[v] - 1)
        inner |= 1 << v
    return inner


def test_vertex_flow_cancels_flow_like_the_forward_reference():
    """Seeded graphs with n <= 40 and lambda <= 5 around a planted trap: the
    one shortest X-Y path x-a-b-y, beside x-c-c'-b and a-d-d'-y, plus longer
    disjoint paths and noise.  The first search takes that path (it is
    shortest), and where no lambda - 1 disjoint paths avoid it, a later
    search must send flow back through a and b.  The flow equals the
    forward reference's on every case, and the trap is checked, not
    assumed."""
    rng = random.Random(2212)
    seen = Counter()
    for i in range(3_000):
        n = rng.randint(12, 40)
        vs = list(range(n))
        rng.shuffle(vs)
        x, y, a, b, c1, c2, d1, d2 = vs[:8]
        edges = {(x, a), (a, b), (b, y), (x, c1), (c1, c2), (c2, b), (a, d1), (d1, d2), (d2, y)}
        rest = vs[8:]
        for _ in range(rng.randint(0, 3)):  # longer disjoint x-y paths
            length = rng.randint(3, 5)
            if len(rest) < length:
                break
            path, rest = [x] + rest[:length] + [y], rest[length:]
            edges |= set(zip(path, path[1:]))
        inner = [v for v in vs if v not in (x, y) and v not in rest]
        for v in rest:  # noise: a neighbour or two inside, at most one terminal
            edges |= {(v, u) for u in rng.sample(inner + rest, 2) if u != v}
            if rng.random() < 0.2:
                edges.add((v, rng.choice((x, y))))
        g = Graph(n, [(min(e), max(e)) for e in edges])
        if max(g.degree(x), g.degree(y)) > 5:
            continue
        adj, alive, cap = g._adj_masks, g.full_mask(), rng.randint(1, 5)
        got = _vertex_flow(adj, alive, 1 << x, 1 << y, cap)
        assert got == reference_vertex_flow(adj, alive, 1 << x, 1 << y, cap), (i, sorted(edges))
        lam = reference_vertex_flow(adj, alive, 1 << x, 1 << y, n)[0]
        trap = unique_shortest_interior(adj, alive, x, y)
        if trap is not None:
            rest_lam = reference_vertex_flow(adj, alive & ~trap, 1 << x, 1 << y, n)[0]
            seen["forced", lam] += rest_lam < lam - 1 and lam <= cap
        seen["None"] += got is None
    assert seen["None"] >= 100 and all(seen["forced", lam] >= 20 for lam in range(2, 6)), seen


def test_vertex_flow_matches_networkx_past_the_brute_force_sizes():
    """Seeded G(n, p) with n = 20-60, past what the references enumerate:
    lambda equals networkx's local node connectivity once X and Y are each
    contracted to one terminal, and the cut has lambda vertices and
    separates X from Y."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(9715)
    seen = Counter()
    for _ in range(300):
        g = random_graph(rng, rng.randint(20, 60), rng.choice((0.05, 0.1, 0.2)))
        vs = list(range(g.n))
        rng.shuffle(vs)
        x = vs[: rng.randint(1, 3)]
        xmask = mask_of(x)
        ys = [v for v in vs[len(x) :] if not g.adj_mask(v) & xmask]
        ymask = mask_of(ys[: rng.randint(1, 3)])
        lam, cut = _vertex_flow(g._adj_masks, g.full_mask(), xmask, ymask, g.n)
        h = nx.Graph()
        h.add_nodes_from(["s", "t", *range(g.n)])
        term = {v: "s" for v in bits(xmask)} | {v: "t" for v in bits(ymask)}
        h.add_edges_from((term.get(u, u), term.get(v, v)) for u, v in g.edges if term.get(u, u) != term.get(v, v))
        assert lam == nx.algorithms.connectivity.local_node_connectivity(h, "s", "t")
        assert cut.bit_count() == lam and not cut & (xmask | ymask)
        assert not reach_mask(g, xmask, g.full_mask() & ~cut) & ymask
        seen[min(lam, 3)] += 1
    assert min(seen[lam] for lam in range(4)) >= 20, seen


def test_vertex_flow_refuses_terminals_in_both_sets():
    with pytest.raises(ValueError, match="disjoint"):
        _vertex_flow(PATH3._adj_masks, 0b111, 0b011, 0b110, 2)
    # a shared vertex outside `alive` takes no part in the flow
    assert _vertex_flow(PATH3._adj_masks, 0b101, 0b011, 0b110, 2) == (0, 0)


def test_stats_counts_recursion_nodes():
    stats = SearchStats()
    enum(BROOM, {0}, {4}, 2, stats=stats)
    assert stats.nodes >= 1


def branching_leaves(g, xmask0, ymask0, k, alive0):
    """The branching enumeration at every budget (the kernel keeps it for
    k >= 2 only): the separator of each leaf, in order."""
    out = []

    def rec(alive, xmask, budget, acc):
        res = _vertex_flow(g._adj_masks, alive, xmask, ymask0, budget)
        if res is None:
            return
        lam, cut = res
        if lam == 0:
            out.append(acc)
            return
        v = cut & -cut
        rec(alive & ~v, xmask, budget - 1, acc | v)
        region = reach_mask(g, xmask, alive & ~cut)
        rec(alive, xmask | region | v, budget, acc)

    rec(alive0, xmask0, k, 0)
    return out


def important_reference(g, xmask0, ymask0, k, alive0):
    """The separators the branching enumeration emits at every budget, in
    order."""
    leaves = branching_leaves(g, xmask0, ymask0, k, alive0)
    return [s for s in leaves if _is_important(g, alive0, xmask0, ymask0, s)]


def test_one_flow_importance_matches_the_definition():
    """`_is_important` gives the definitional filter's verdict on the
    separators at the leaves of the k = 3 branching, which are what the
    enumeration asks it about, and on one random vertex set per instance.
    Terminals may lie outside `alive`."""
    rng = random.Random(11)
    seen = Counter()  # (important, min(|S|, 2)) -> cases
    outside = Counter()  # important -> cases with a terminal outside alive
    while sum(seen.values()) < 3000:
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.45]))
        order = rng.sample(range(n), n)
        nx = rng.randint(1, min(3, n - 1))
        ny = rng.randint(1, min(3, n - nx))
        xmask, ymask = mask_of(order[:nx]), mask_of(order[nx : nx + ny])
        alive = g.full_mask()
        if rng.random() < 0.5:
            alive &= ~mask_of(rng.sample(range(n), rng.randint(1, 2)))
        free = list(bits(alive & ~xmask & ~ymask))
        seps = set(branching_leaves(g, xmask, ymask, 3, alive))
        seps.add(mask_of(rng.sample(free, rng.randint(0, min(3, len(free))))))
        for sep in sorted(seps):
            want = definitional_is_important(g, alive, xmask, ymask, sep)
            assert _is_important(g, alive, xmask, ymask, sep) == want, (g.edges, alive, xmask, ymask, sep)
            seen[want, min(sep.bit_count(), 2)] += 1
            outside[want] += (xmask | ymask) & ~alive != 0
    assert seen[True, 1] + seen[True, 2] >= 100, seen
    assert min(seen[True, 2], seen[False, 1], seen[False, 2]) >= 30, seen
    assert min(outside.values()) >= 30 and len(outside) == 2, outside


def test_budget_at_most_one_emits_what_the_branching_emits():
    rng = random.Random(41)
    cases = {"empty": 0, "one": 0, "none": 0, "not closest": 0}
    for i in range(1000):
        n = rng.randint(2, 16)
        g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.2]))
        if i % 4:  # add a long thin random tree: one-vertex cuts in a row
            g = Graph(n, set(g.edges) | {(rng.randrange(max(0, v - 3), v), v) for v in range(1, n)})
        order = rng.sample(range(g.n), g.n)
        X = frozenset(order[: rng.randint(1, 2)])
        far = [v for v in order if not (mask_of(X) | neighborhood_mask(g, mask_of(X))) >> v & 1]
        Y = frozenset(far[: rng.randint(1, 3)] if i % 5 else order[len(X) : len(X) + 2])
        if not Y:
            continue
        alive = g.full_mask() if i % 2 else rng.getrandbits(g.n) | (mask_of(X | Y) if i % 3 else 0)
        xmask, ymask = mask_of(X), mask_of(Y)
        sub, old = g.induced(set_of(alive))
        new = {v: j for j, v in enumerate(old)}
        for k in (0, 1):
            want = important_reference(g, xmask, ymask, k, alive)
            stats = SearchStats()
            got = list(_important_masks(g, xmask, ymask, k, alive, stats))
            assert got == want and stats.nodes == 1
            adapted = []
            query = ImportantSeparatorQuery(X, Y, k)
            count = enumerate_important_separators(query, g, adapted.append, within=set_of(alive))
            assert [mask_of(s) for s in adapted] == want and count == len(want)
            if sub.n <= 12:
                xs = {new[v] for v in X if v in new}
                ys = {new[v] for v in Y if v in new}
                brute = brute_important_separators(sub, xs, ys, k)
                assert brute == {frozenset(new[v] for v in set_of(s)) for s in want}
            cases["none" if not want else "empty" if want == [0] else "one"] += 1
            if want and want[0]:
                # the cut closest to X is the farthest cut from Y
                closest = _vertex_flow(g._adj_masks, alive, ymask, xmask, 1)[1]
                cases["not closest"] += closest != want[0]
    assert min(cases.values()) > 30 and cases["one"] > 200, cases


def connected_terminals(rng, g, size, avoid=0):
    """A connected vertex set of up to `size` vertices outside `avoid`,
    grown from a random vertex by random neighbours."""
    free = [v for v in range(g.n) if not avoid >> v & 1]
    mask = 1 << rng.choice(free)
    for _ in range(size - 1):
        grow = list(bits(neighborhood_mask(g, mask) & ~avoid))
        if not grow:
            break
        mask |= 1 << rng.choice(grow)
    return mask


def test_whole_graph_budget_at_most_one_is_the_block_cut_answer():
    """On all of G with connected X and Y, budgets 0 and 1 are answered
    from the block-cut forest: the answer is the forward reference's
    farthest cut (nothing above the budget or on an X-Y edge).  Random
    sparse graphs, chains of odd cycles and trees, plus one 5,000-vertex
    odd cycle with pendant triangles, whose DFS runs far deeper than the
    recursion limit."""
    rng = random.Random(47)
    cases = Counter()
    big = 4001  # the cycle; a triangle hangs off every 12th cycle vertex by a bridge
    edges = [(v, (v + 1) % big) for v in range(big)]
    for i in range(333):
        a = big + 3 * i
        edges += [(12 * i, a), (a, a + 1), (a + 1, a + 2), (a, a + 2)]
    ring = Graph(big + 3 * 333, edges)
    shapes = ["sparse", "chain", "tree"] * 100 + ["ring"] * 30
    for shape in shapes:
        if shape == "sparse":
            n = rng.randint(2, 40)
            g = random_graph(rng, n, rng.choice([0.04, 0.07, 0.12]))
        elif shape == "chain":
            g = cycle_tree(rng, [rng.choice((3, 5)) for _ in range(rng.randint(1, 12))], False)
        elif shape == "tree":
            n = rng.randint(2, 40)
            g = Graph(n, [(rng.randrange(v), v) for v in range(1, n)])
        else:
            g = ring
        xmask = connected_terminals(rng, g, rng.randint(1, 3))
        if xmask == g.full_mask():
            continue
        ymask = connected_terminals(rng, g, rng.randint(1, 3), xmask)
        for k in (0, 1):
            ref = reference_vertex_flow(g._adj_masks, g.full_mask(), xmask, ymask, k)
            want = [] if ref is None else [ref[1]]
            assert list(_important_masks(g, xmask, ymask, k, g.full_mask())) == want, (shape, g.edges, xmask, ymask, k)
            cases[shape, "none" if not want else "empty" if want == [0] else "one"] += 1
    assert min(cases[s, "one"] for s in ("sparse", "chain", "tree", "ring")) >= 5, cases
    assert cases["sparse", "empty"] >= 30 and min(cases[s, "none"] for s in ("sparse", "chain", "ring")) >= 10, cases


def test_chain_tw_build_runs_no_separator_flow(monkeypatch):
    """A k = 1 tw build of a chain of odd cycles asks only for important
    separators of size <= 1 on the whole graph, so the block-cut forest
    answers every one of them and the separator kernels run no flow (the
    bipartite finder's parity flows are its own)."""
    calls = []
    inner = separators._vertex_flow
    monkeypatch.setattr(separators, "_vertex_flow", lambda *a: calls.append(1) or inner(*a))
    rng = random.Random(5)
    g = cycle_tree(rng, [rng.choice((3, 5)) for _ in range(20)], False)
    res = build_tree_h_decomposition(g, 1, GraphClassSpec.bipartite())
    assert not res.decomposition.validate(g)
    assert len(calls) == 0
