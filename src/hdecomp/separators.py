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


# -- one-vertex cuts -----------------------------------------------------------


def _cut_tree(g: Graph) -> tuple[list[int], list[int]]:
    """Parent and order arrays of G's block-cut forest, built on first use
    and kept in the graph's `_cut_tree` slot (G is immutable).

    Node v < n is vertex v, and the nodes past n are the blocks.  A DFS root
    is a root, a block's parent is the vertex it hangs from, and any other
    vertex's parent is the block that holds its DFS tree edge up.  The
    vertices that separate x from y are then the vertex nodes inside the
    tree path between them (Hopcroft and Tarjan, CACM 1973).  order[v] is
    2i + 1 for the i-th vertex found and a block's is its head's + 1, so a
    node's order exceeds its ancestors'.  The DFS keeps its own stack: a
    chain of cycles is deeper than the recursion limit.
    """
    if g._cut_tree is not None:
        return g._cut_tree
    n, adj = g.n, g._adj_masks
    order, low, parent = [0] * n, [0] * n, [-1] * n
    found = -1
    for r in range(n):
        if order[r]:
            continue
        found += 2
        order[r] = low[r] = found
        held, frames = [r], [(r, bits(adj[r]))]  # held: found, block still open
        while frames:
            u, rest = frames[-1]
            w = next(rest, -1)
            if w >= 0 and not order[w]:
                found += 2
                order[w] = low[w] = found
                held.append(w)
                frames.append((w, bits(adj[w])))
            elif w >= 0:
                low[u] = min(low[u], order[w])
            else:
                frames.pop()
                p = frames[-1][0] if frames else r
                low[p] = min(low[p], low[u])
                if p != u and low[u] >= order[p]:  # u's subtree and p close a block
                    parent.append(p)
                    order.append(order[p] + 1)
                    while parent[u] < 0:
                        parent[held.pop()] = len(parent) - 1
    g._cut_tree = (parent, order)
    return g._cut_tree


def _cut_vertex_cut(g: Graph, xmask: int, ymask: int, k: int) -> Optional[int]:
    """The farthest minimum (X,Y)-cut in G if it has at most k <= 1
    vertices, else None; X and Y nonempty, disjoint and each connected.

    G[X] and G[Y] stay connected without any c outside them, so c separates
    X from Y exactly when it lies inside the tree path between min X and
    min Y.  These cuts are ordered along the path, and the one nearest Y is
    the farthest from X.
    """
    parent, order = _cut_tree(g)
    n, xy = g.n, xmask | ymask
    a = (xmask & -xmask).bit_length() - 1
    b = (ymask & -ymask).bit_length() - 1
    near_x = near_y = -1  # the candidate nearest Y on each side of the meeting node
    while a != b:  # a node found later is no ancestor of the other: it climbs
        if order[a] >= order[b]:
            if a < n and not xy >> a & 1:
                near_x = a
            a = parent[a]
        else:
            if near_y < 0 and b < n and not xy >> b & 1:
                near_y = b
            b = parent[b]
        if a < 0 or b < 0:  # past a root: X and Y lie in different components
            return 0
    if near_y < 0 and a < n and not xy >> a & 1:
        near_y = a
    cut = near_y if near_y >= 0 else near_x
    return 1 << cut if cut >= 0 and k >= 1 else None


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
        # when lambda = 0).  On all of G with connected X and Y, the
        # block-cut forest gives it without a flow.
        if stats is not None:
            stats.tick()
        whole = k >= 0 and alive0 == g.full_mask() and xmask0 and ymask0 and not xmask0 & ymask0
        if whole and all(reach_mask(g, m & -m, m) == m for m in (xmask0, ymask0)):
            cut = _cut_vertex_cut(g, xmask0, ymask0, k)
        else:
            res = _vertex_flow(g._adj_masks, alive0, xmask0, ymask0, k)
            cut = None if res is None else res[1]
        if cut is not None:
            yield cut
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
