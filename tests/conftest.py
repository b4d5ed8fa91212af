import itertools
import random
from typing import Iterable

import pytest
from hypothesis import strategies as st

from hdecomp.graphs import Graph, bits, mask_of, reach_mask, set_of

from .smallgraphs import all_graphs, connected_graphs, from_edge_mask


@pytest.fixture(scope="session")
def corpus6():
    """All connected graphs on 1..6 vertices, one per isomorphism class."""
    return connected_graphs(6)


@pytest.fixture(scope="session")
def corpus7():
    """All connected graphs on 1..7 vertices, one per isomorphism class."""
    return connected_graphs(7)


@pytest.fixture(scope="session")
def corpus8():
    """All connected graphs on 1..8 vertices, one per isomorphism class."""
    return connected_graphs(8)


@pytest.fixture(scope="session")
def all6():
    """All graphs (including disconnected) on 1..6 vertices up to iso."""
    out = []
    for n in range(1, 7):
        out += [from_edge_mask(n, m) for m in all_graphs(n)]
    return out


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def brute_important_separators(
    g: Graph, X: Iterable[int], Y: Iterable[int], k: int
) -> frozenset[frozenset[int]]:
    """All important (X,Y)-separators of size <= k by exhaustive enumeration.

    Checks the definition directly: inclusion-minimal separators S with no
    separator S' satisfying |S'| <= |S| and R_S(X) strictly contained in
    R_S'(X).  Guarded to graphs on at most 16 vertices.
    """
    if g.n > 16:
        raise ValueError("brute_important_separators is guarded to n <= 16")
    xmask, ymask = mask_of(X), mask_of(Y)
    if xmask & ymask:
        raise ValueError("X and Y must be disjoint")
    full = g.full_mask()
    free = sorted(bits(full & ~xmask & ~ymask))
    seps = []  # (mask, size, reach)
    for size in range(0, k + 1):
        for combo in itertools.combinations(free, size):
            smask = mask_of(combo)
            r = reach_mask(g, xmask, full & ~smask)
            if not r & ymask:
                seps.append((smask, size, r))
    out = []
    for smask, size, r in seps:
        minimal = True
        for v in bits(smask):
            if not reach_mask(g, xmask, full & ~(smask ^ (1 << v))) & ymask:
                minimal = False
                break
        if not minimal:
            continue
        dominated = False
        for smask2, size2, r2 in seps:
            if size2 <= size and r & ~r2 == 0 and r != r2:
                dominated = True
                break
        if not dominated:
            out.append(set_of(smask))
    return frozenset(out)


def exact_vertex_cover_size(g: Graph) -> int:
    """Minimum vertex cover size by branching on a vertex v of maximum degree
    >= 3 (take v, or take all of N(v)); once every degree is at most 2 the
    components are paths and cycles, which need floor(m/2) resp. ceil(m/2)
    of their m vertices."""

    def rec(alive: int) -> int:
        v, deg = -1, 2
        for u in bits(alive):
            d = (g.adj_mask(u) & alive).bit_count()
            if d > deg:
                v, deg = u, d
        if v >= 0:
            nv = g.adj_mask(v) & alive
            return min(1 + rec(alive & ~(1 << v)), deg + rec(alive & ~nv & ~(1 << v)))
        out = 0
        while alive:
            comp = reach_mask(g, alive & -alive, alive)
            alive &= ~comp
            m = comp.bit_count()
            edges = sum((g.adj_mask(u) & comp).bit_count() for u in bits(comp)) // 2
            out += (m + (edges == m)) // 2
        return out

    return rec(g.full_mask())


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return from_edge_mask(n, mask)


@st.composite
def connected_graphs_st(draw, min_n=1, max_n=7):
    from hdecomp.graphs import connected_components

    g = draw(graphs(min_n, max_n))
    comps = connected_components(g)
    if len(comps) == 1:
        return g
    # stitch components into one by a path of bridges
    extra = []
    for a, b in zip(comps, comps[1:]):
        extra.append((max(a), min(b)))
    return Graph(g.n, list(g.edges) + extra)
