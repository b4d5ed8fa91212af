"""Minimum vertex separators and important-separator enumeration.

The flow model splits each deletable vertex v into v_in -> v_out with unit
capacity; terminal vertices are not split (they are never deleted).  Edges
carry infinite capacity in both directions, so the network is symmetric:
reversing every arc and swapping each vertex's in- and out-states turns the
X->Y network into the Y->X one, with the same flows and minimum cuts.  The
flow is augmented from Y, and the farthest minimum cut from X is read off
the last, failed search: the vertices whose in-state Y's residual side holds
and whose out-state it does not.  It is the unique minimum separator S with
R_S(X) inclusion-maximal, so it does not depend on which maximum flow was
found.

All internal computations use vertex bitmasks for speed; the public API
speaks frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import Graph, bits, mask_of, reach_mask, set_of


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


def _vertex_flow(adj: Sequence[int], alive: int, xmask: int, ymask: int, cap: int):
    """Min vertex (X,Y)-cut within the graph of adjacency masks `adj`
    restricted to `alive`, terminals non-deletable; `adj` is symmetric, and
    X and Y must be disjoint within `alive` (ValueError otherwise).

    Returns (lambda, farthest_cut_mask), or None when the minimum exceeds
    `cap` or an edge joins X and Y inside `alive` (no cut exists at all).
    The network is symmetric (module docstring), so the flow is augmented
    from the Y out-states, and the last, failed search reaches exactly Y's
    residual side: the free vertices whose in-state it reached and whose
    out-state it did not are the minimum cut closest to Y, the farthest from
    X.  A flow of value lambda costs lambda + 1 searches.
    """
    xmask &= alive
    ymask &= alive
    if xmask & ymask:
        raise ValueError("X and Y must be disjoint within alive")
    if cap < 0 or any(adj[v] & xmask for v in bits(ymask)):
        return None
    free = alive & ~xmask & ~ymask
    used = 0  # vertices carrying one unit of flow
    fout: dict[int, int] = {}  # bit u of fout[v]: one unit flows v -> u
    fin: dict[int, int] = {}  # bit v of fin[u]: one unit flows v -> u
    flow_value = 0
    while True:
        # search from the Y out-states, one layer of (in-states, out-states)
        # masks per step; Y in-states are dead ends and never entered.  A
        # flow-free vertex's in-state has one arc out, to its out-state, and
        # that is the one arc in, so both join the same layer.
        layers = [(0, ymask)]
        seen_in, seen_out = 0, ymask
        fr_out, fr_used = ymask, 0  # fr_used: the last layer's used in-states
        hit = 0
        while fr_out or fr_used:
            nin = fr_out & used  # reverse internal arcs v_out -> v_in
            m = fr_out
            while m:  # edge arcs v_out -> u_in
                b = m & -m
                nin |= adj[b.bit_length() - 1]
                m ^= b
            hit = nin & xmask
            if hit:
                break
            nin &= free & ~seen_in
            nout = nin & ~used  # internal arcs v_in -> v_out
            m = fr_used
            while m:  # reverse edge arcs v_in -> u_out (cancel flow u -> v)
                b = m & -m
                nout |= fin[b.bit_length() - 1]
                m ^= b
            nout &= ~seen_out
            seen_in |= nin
            seen_out |= nout
            fr_out, fr_used = nout, nin & used
            layers.append((nin, nout))
        if not hit:
            # Y's residual side: the cut is closest to Y, farthest from X
            return flow_value, seen_in & ~seen_out
        flow_value += 1
        if flow_value > cap:
            return None
        # retrace a path from the X in-state: an in-state's predecessor is an
        # out-state of the layer before; a used out-state's is an in-state of
        # the layer before, a flow-free one's its own in-state
        v, j = (hit & -hit).bit_length() - 1, len(layers)
        path = [(v, 0)]
        while True:
            j -= 1
            m = adj[v] & layers[j][1]  # u_out -> v_in by an edge
            if m:
                v = (m & -m).bit_length() - 1
            path.append((v, 1))  # else v_out -> v_in, cancelling v's unit
            if not j:  # a Y out-state
                break
            if used >> v & 1:  # u_in -> v_out cancels flow v -> u
                j -= 1
                m = fout[v] & layers[j][0]
                v = (m & -m).bit_length() - 1
            path.append((v, 0))  # else v_in -> v_out
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


# -- important separators ----------------------------------------------------


def _is_important(g: Graph, alive: int, xmask: int, ymask: int, sep: int) -> bool:
    """Whether `sep`, vertices of `alive` outside X and Y, is an important
    (X,Y)-separator in G[alive]: exactly when S is the farthest minimum
    (R, Y)-cut, R = R_S(X).
    (=>) An important S is minimal, so S = N(R) within alive.  An (R, Y)-cut
    T avoids R, so it separates X from Y, and it reaches past R unless it
    holds N(R) = S.  So a cut smaller than S, or as small with a larger
    reach, would dominate S: lambda(R, Y) = |S| and the farthest minimum cut
    is S.
    (<=) If some v could leave S, S - v would be an (R, Y)-cut smaller than
    lambda.  A dominating T would be a minimum (R, Y)-cut reaching past R,
    so the farthest minimum cut would not be S.
    """
    r = reach_mask(g, xmask, alive & ~sep)
    if r & ymask:
        return False
    res = _vertex_flow(g._adj_masks, alive, r, ymask, sep.bit_count())
    return res is not None and res[1] == sep


def _important_masks(
    g: Graph,
    xmask0: int,
    ymask0: int,
    k: int,
    alive0: int,
    stats: Optional[SearchStats] = None,
) -> Iterator[int]:
    """Mask kernel of `enumerate_important_separators` on G[alive0]: yields
    each important separator as a mask.

    The branching runs on an explicit stack with "v joins S" on top, so the
    masks come in depth-first order and a caller that stops early runs no
    further flows.
    """
    if k <= 1:
        # X and Y are disjoint, so a one-vertex (X,Y)-separator lies on every
        # X-Y path.  These separators are totally ordered by reach, and the
        # only important one of size <= 1 is the farthest minimum cut (empty
        # when lambda = 0).
        if stats is not None:
            stats.tick()
        res = _vertex_flow(g._adj_masks, alive0, xmask0, ymask0, k)
        if res is not None:
            yield res[1]
        return
    stack = [(alive0, xmask0, k, 0)]
    while stack:
        alive, xmask, budget, acc = stack.pop()
        if stats is not None:
            stats.tick()
        res = _vertex_flow(g._adj_masks, alive, xmask, ymask0, budget)
        if res is None:
            continue
        lam, cut = res
        if lam == 0:
            if _is_important(g, alive0, xmask0, ymask0, acc):
                yield acc
            continue
        v = cut & -cut
        region = reach_mask(g, xmask, alive & ~cut)
        stack.append((alive, xmask | region | v, budget, acc))  # v joins X
        stack.append((alive & ~v, xmask, budget - 1, acc | v))  # v joins S


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
    branch moves v (and the cut's reachable region) into X.  For k <= 1 the
    farthest minimum cut is the only candidate.  Candidates are emitted
    through `emit`, and the count is returned.  `within` restricts the
    instance to an induced subgraph.
    """
    xmask, ymask = mask_of(query.X), mask_of(query.Y)
    alive = g.full_mask() if within is None else mask_of(within)
    count = 0
    for sep in _important_masks(g, xmask, ymask, query.k, alive, stats):
        emit(set_of(sep))
        count += 1
    return count
