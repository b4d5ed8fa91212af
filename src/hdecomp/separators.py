"""Minimum vertex separators and important-separator enumeration.

The flow model splits each deletable vertex v into v_in -> v_out with unit
capacity; terminal vertices are not split (they are never deleted).  Edges
carry infinite capacity in both directions.  The farthest minimum cut is
extracted by one reverse BFS from the sink over the residual arcs: the cut
vertices are those whose out-state reaches the sink and whose in-state does
not.  It is the unique minimum separator S with R_S(X) inclusion-maximal, so
it does not depend on which maximum flow was found.

All internal computations use vertex bitmasks for speed; the public API
speaks frozensets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .graphs import Graph, bits, mask_of, reach_mask, set_of


class InfeasibleSeparation(Exception):
    """Raised when an edge joins X and Y directly, so no separator exists."""


@dataclass(frozen=True)
class ImportantSeparatorQuery:
    X: frozenset[int]
    Y: frozenset[int]
    k: int

    def __post_init__(self):
        if self.X & self.Y:
            raise ValueError("X and Y must be disjoint")
        if self.k < 0:
            raise ValueError("k must be nonnegative")


@dataclass
class SearchStats:
    """Mutable counter for recursion-size instrumentation."""

    nodes: int = 0

    def tick(self):
        self.nodes += 1


# -- flow kernel -------------------------------------------------------------
# states: 2*v = v_in, 2*v + 1 = v_out

_INFEASIBLE = "infeasible"


def _vertex_flow(g: Graph, alive: int, xmask: int, ymask: int, cap: int):
    """Min vertex (X,Y)-cut within G[alive], terminals non-deletable.

    Returns (lambda, farthest_cut_mask), or None when the minimum exceeds
    `cap`, or _INFEASIBLE when an edge joins X and Y inside `alive`.
    """
    adj = g._adj_masks
    xmask &= alive
    ymask &= alive
    m = xmask
    while m:
        b = m & -m
        if adj[b.bit_length() - 1] & ymask:
            return _INFEASIBLE
        m ^= b
    if cap < 0:
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


def reachable(g: Graph, X: Iterable[int], S: Iterable[int]) -> frozenset[int]:
    """Vertices reachable from X \\ S in G - S (includes X \\ S)."""
    smask = mask_of(S)
    return set_of(reach_mask(g, mask_of(X) & ~smask, g.full_mask() & ~smask))


def min_vertex_separator(
    g: Graph, X: Iterable[int], Y: Iterable[int], cap: int
) -> Optional[frozenset[int]]:
    """Minimum-size (X,Y)-separator of size <= cap, farthest from X.

    None when the minimum exceeds cap; raises InfeasibleSeparation when an
    edge joins X and Y directly (no separator exists at all).
    """
    xmask, ymask = mask_of(X), mask_of(Y)
    if xmask & ymask:
        raise ValueError("X and Y must be disjoint")
    res = _vertex_flow(g, g.full_mask(), xmask, ymask, cap)
    if res == _INFEASIBLE:
        raise InfeasibleSeparation("an edge joins X and Y")
    if res is None:
        return None
    _, cut = res
    return set_of(cut)


# -- important separators ----------------------------------------------------


def _is_important(g: Graph, alive: int, xmask: int, ymask: int, sep: int) -> bool:
    """Exact importance test per the definition (minimal + non-dominated)."""
    r = reach_mask(g, xmask, alive & ~sep)
    if r & ymask:
        return False
    for v in bits(sep):
        if not reach_mask(g, xmask, alive & ~(sep ^ (1 << v))) & ymask:
            return False  # not inclusion-minimal
    size = bin(sep).count("1")
    for v in bits(sep):
        res = _vertex_flow(g, alive, r | (1 << v), ymask, size)
        if res == _INFEASIBLE or res is None:
            continue  # no dominating separator through this vertex
        return False
    return True


def enumerate_important_separators(
    query: ImportantSeparatorQuery,
    g: Graph,
    emit: Callable[[frozenset[int]], None],
    stats: Optional[SearchStats] = None,
    within: Optional[Iterable[int]] = None,
) -> int:
    """Emit each important (X,Y)-separator of size <= k exactly once.

    Branch on the smallest-id vertex v of the current farthest min cut:
    left branch moves v into the separator (delete v, budget - 1), right
    branch moves v (and the cut's reachable region) into X.  Candidates are
    emitted through `emit`; memory stays bounded by the recursion depth.
    `within` restricts the instance to an induced subgraph.
    """
    xmask0, ymask0 = mask_of(query.X), mask_of(query.Y)
    alive0 = g.full_mask() if within is None else mask_of(within)
    count = 0

    def rec(alive: int, xmask: int, budget: int, acc: int):
        nonlocal count
        if stats is not None:
            stats.tick()
        res = _vertex_flow(g, alive, xmask, ymask0, budget)
        if res == _INFEASIBLE or res is None:
            return
        lam, cut = res
        if lam == 0:
            if _is_important(g, alive0, xmask0, ymask0, acc):
                count += 1
                emit(set_of(acc))
            return
        v = cut & -cut
        rec(alive & ~v, xmask, budget - 1, acc | v)
        region = reach_mask(g, xmask, alive & ~cut)
        rec(alive, xmask | region | v, budget, acc)

    rec(alive0, xmask0, query.k, 0)
    return count


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
