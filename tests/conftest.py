import functools
import itertools
import random
from typing import Iterable, Sequence

import pytest
from hypothesis import strategies as st

from hdecomp.graphs import Graph, bits, mask_of, reach_mask, set_of
from hdecomp.separators import _vertex_flow

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


@functools.lru_cache(maxsize=4)
def _reaches(g: Graph, xmask: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """(S, |S|, R_S(X)) for every S of at most k vertices outside X.

    R_S(X) does not depend on Y, so the queries (X, Y) of one graph and one
    X share this table: criterion 1 asks every Y of a corpus graph in turn.
    """
    full = g.full_mask()
    free = sorted(bits(full & ~xmask))
    return tuple(
        (smask, size, reach_mask(g, xmask, full & ~smask))
        for size in range(k + 1)
        for smask in map(mask_of, itertools.combinations(free, size))
    )


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
    seps = []  # (mask, size, reach) of the inclusion-minimal separators
    for smask, size, r in _reaches(g, xmask, k):
        if smask & ymask or r & ymask:
            continue
        # S - v is a separator unless v, put back, joins the X side to the
        # Y side; so S is minimal iff every v in S has a neighbour reachable
        # from X and one reachable from Y in G - S
        ry = reach_mask(g, ymask, full & ~smask)
        if all(g.adj_mask(v) & r and g.adj_mask(v) & ry for v in bits(smask)):
            seps.append((smask, size, r))
    # a separator S' that dominates S holds a minimal separator, which has
    # no more vertices than S' and reaches at least R_S'(X); so S is
    # dominated iff a minimal separator dominates it
    return frozenset(
        set_of(smask)
        for smask, size, r in seps
        if not any(size2 <= size and r & ~r2 == 0 and r != r2 for _, size2, r2 in seps)
    )


def reachable(g: Graph, X: Iterable[int], S: Iterable[int]) -> frozenset[int]:
    """Vertices reachable from X \\ S in G - S (includes X \\ S)."""
    smask = mask_of(S)
    return set_of(reach_mask(g, mask_of(X) & ~smask, g.full_mask() & ~smask))


def definitional_is_important(g: Graph, alive: int, xmask: int, ymask: int, sep: int) -> bool:
    """Exact importance test per the definition (minimal + non-dominated):
    one reachability search per vertex of S for minimality, then one flow
    per vertex v of S, from R_S(X) + v, for domination."""
    r = reach_mask(g, xmask, alive & ~sep)
    if r & ymask:
        return False
    for v in bits(sep):
        if not reach_mask(g, xmask, alive & ~(sep ^ (1 << v))) & ymask:
            return False  # not inclusion-minimal
    size = bin(sep).count("1")
    for v in bits(sep):
        if _vertex_flow(g._adj_masks, alive, r | (1 << v), ymask, size) is not None:
            return False  # a separator as small whose reach is larger
    return True


def reference_vertex_flow(adj: Sequence[int], alive: int, xmask: int, ymask: int, cap: int):
    """The forward flow kernel that `_vertex_flow` replaced, kept as its
    reference: it augments from the X out-states and reads the farthest cut
    off one reverse BFS from the Y in-states over the residual arcs.

    Min vertex (X,Y)-cut within the graph of adjacency masks `adj`
    restricted to `alive`, terminals non-deletable.

    Returns (lambda, farthest_cut_mask), or None when the minimum exceeds
    `cap` or an edge joins X and Y inside `alive` (no cut exists at all).
    """
    xmask &= alive
    ymask &= alive
    if cap < 0 or any(adj[v] & ymask for v in bits(xmask)):
        return None
    free = alive & ~xmask & ~ymask
    used = 0  # vertices carrying one unit of flow
    fout: dict[int, int] = {}  # bit u of fout[v]: one unit flows v -> u
    fin: dict[int, int] = {}  # bit v of fin[u]: one unit flows v -> u
    flow_value = 0
    while True:
        # BFS from the X out-states, one layer of (in-states, out-states)
        # masks per distance; X in-states are dead ends and never entered
        layers = [(0, xmask)]
        seen_in, seen_out = 0, xmask
        fr_in, fr_out = 0, xmask
        hit = 0
        while fr_in or fr_out:
            nin = fr_out & used  # reverse internal arcs v_out -> v_in
            m = fr_out
            while m:  # edge arcs v_out -> u_in
                b = m & -m
                nin |= adj[b.bit_length() - 1]
                m ^= b
            hit = nin & ymask
            if hit:
                break
            nin &= free & ~seen_in
            nout = fr_in & ~used  # internal arcs v_in -> v_out
            m = fr_in & used
            while m:  # reverse edge arcs v_in -> u_out (cancel flow u -> v)
                b = m & -m
                nout |= fin[b.bit_length() - 1]
                m ^= b
            nout &= ~seen_out
            seen_in |= nin
            seen_out |= nout
            fr_in, fr_out = nin, nout
            layers.append((nin, nout))
        if not hit:
            break
        flow_value += 1
        if flow_value > cap:
            return None
        # retrace a shortest path from the Y in-state, one layer per step
        v, is_out = (hit & -hit).bit_length() - 1, 0
        path = [(v, 0)]
        for lin, lout in reversed(layers):
            if is_out:
                if used >> v & 1:  # u_in -> v_out cancels flow v -> u
                    m = fout[v] & lin
                    v = (m & -m).bit_length() - 1
                is_out = 0  # else v_in -> v_out
            else:
                m = adj[v] & lout  # u_out -> v_in by an edge
                if m:
                    v = (m & -m).bit_length() - 1
                is_out = 1  # else v_out -> v_in, cancelling v's unit
            path.append((v, is_out))
        # push one unit along each arc p -> s of the path
        for (s, _), (p, p_out) in zip(path, path[1:]):
            if p == s:
                if p_out:
                    used &= ~(1 << p)
                else:
                    used |= 1 << p
            elif not p_out or fout.get(s, 0) >> p & 1:  # cancel flow s -> p
                fout[s] &= ~(1 << p)
                fin[p] &= ~(1 << s)
            else:
                fout[p] = fout.get(p, 0) | 1 << s
                fin[s] = fin.get(s, 0) | 1 << p
    # farthest min cut: reverse BFS from the Y in-states over residual arcs
    front = in_r = ymask
    out_r = 0
    while front:
        # predecessors of v_in: u_out for every alive neighbour u, and v_out
        # when v carries flow
        nout = front & used
        m = front
        while m:
            b = m & -m
            nout |= adj[b.bit_length() - 1]
            m ^= b
        nout &= alive & ~out_r
        out_r |= nout
        # predecessors of v_out: v_in when v is free and unused, and u_in for
        # each u that v sends flow to
        nin = nout & free & ~used
        m = nout & (used | xmask)  # the vertices that send flow
        while m:
            b = m & -m
            nin |= fout.get(b.bit_length() - 1, 0)
            m ^= b
        front = nin & ~in_r
        in_r |= front
    return flow_value, free & out_r & ~in_r


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


def exact_oct_size(g: Graph) -> int:
    """Minimum odd cycle transversal size by branching on the vertices of a
    shortest odd closed walk: its vertex set holds an odd cycle, so a
    transversal deletes one of them.  Vertices of degree <= 1 lie on no
    cycle and are pruned first, components are summed, and the size of
    each pruned vertex set is memoized."""
    memo: dict[int, int] = {}

    def odd_walk(alive: int) -> int:
        """The vertices of two BFS paths from one root whose ends are joined
        by an edge inside a layer, fewest over the roots; 0 when G[alive] is
        bipartite."""
        best = 0
        for r in bits(alive):
            path, layer, seen = {r: 1 << r}, [r], 1 << r
            while layer:
                layer_mask = mask_of(layer)
                u = next((u for u in layer if g.adj_mask(u) & layer_mask), None)
                if u is not None:
                    walk = path[u] | path[(g.adj_mask(u) & layer_mask).bit_length() - 1]
                    if not best or walk.bit_count() < best.bit_count():
                        best = walk
                    break
                nxt = []
                for u in layer:
                    for w in bits(g.adj_mask(u) & alive & ~seen):
                        seen |= 1 << w
                        path[w] = path[u] | 1 << w
                        nxt.append(w)
                layer = nxt
            if best.bit_count() == 3:
                break
        return best

    def size(alive: int) -> int:
        while low := [v for v in bits(alive) if (g.adj_mask(v) & alive).bit_count() <= 1]:
            alive &= ~mask_of(low)
        if alive not in memo:
            comp = reach_mask(g, alive & -alive, alive)
            if comp != alive:
                memo[alive] = size(comp) + size(alive & ~comp)
            elif walk := odd_walk(alive):
                memo[alive] = 1 + min(size(alive & ~(1 << v)) for v in bits(walk))
            else:
                memo[alive] = 0
        return memo[alive]

    return size(g.full_mask())


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
