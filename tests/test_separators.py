import itertools
import random

import pytest
from hypothesis import given, settings

from hdecomp.graphs import Graph, mask_of, neighborhood_mask, set_of
from hdecomp.separators import (
    ImportantSeparatorQuery,
    InfeasibleSeparation,
    SearchStats,
    brute_important_separators,
    enumerate_important_separators,
    min_vertex_separator,
    reachable,
)

from .conftest import graphs, random_graph

PATH3 = Graph.path(3)
DIAMOND = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
BROOM = Graph(5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)])


def enum(g, x, y, k, stats=None):
    out = []
    q = ImportantSeparatorQuery(frozenset(x), frozenset(y), k)
    cnt = enumerate_important_separators(q, g, out.append, stats=stats)
    assert cnt == len(out) == len(set(out))
    return frozenset(out)


def test_reachable_examples():
    assert reachable(PATH3, {0}, {1}) == {0}
    g = Graph(4, [(0, 1), (2, 3)])
    assert reachable(g, set(range(4)), set()) == {0, 1, 2, 3}
    assert reachable(DIAMOND, {0}, {1}) == {0, 2, 3}


def test_min_vertex_separator_examples():
    assert min_vertex_separator(PATH3, {0}, {2}, 1) == {1}
    assert min_vertex_separator(DIAMOND, {0}, {3}, 2) == {1, 2}
    assert min_vertex_separator(DIAMOND, {0}, {3}, 1) is None
    with pytest.raises(InfeasibleSeparation):
        min_vertex_separator(Graph(2, [(0, 1)]), {0}, {1}, 3)
    with pytest.raises(ValueError):
        min_vertex_separator(PATH3, {0, 1}, {1}, 1)


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
        sep = min_vertex_separator(g, {x}, {y}, g.n)
        brute = brute_important_separators(g, {x}, {y}, g.n)
        assert sep is not None
        assert len(sep) == min(len(s) for s in brute)


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
        sep = min_vertex_separator(g, x, y, size)
        assert sep in minimum
        reach = reachable(g, x, sep)
        assert all(reachable(g, x, s) <= reach for s in minimum)
        assert min_vertex_separator(g, x, y, size - 1) is None
        checked += 1
        ties += len({reachable(g, x, s) for s in minimum}) > 1
    assert checked >= 200 and ties >= 15


def test_stats_counts_recursion_nodes():
    stats = SearchStats()
    enum(BROOM, {0}, {4}, 2, stats=stats)
    assert stats.nodes >= 1
