"""Exhaustive isomorphism-free enumeration of small graphs: the test corpus.

Graphs are encoded as edge masks over the column-major upper triangle: the
bits for vertex j list its adjacency to 0..j-1 (see `from_edge_mask`).  An
ordering of the vertices gives a sequence of chunks, chunk j being the
adjacency of the j-th vertex to the vertices before it (bit i for the i-th
vertex).  The canonical form of a graph is the edge mask of an ordering whose
chunk sequence is lexicographically greatest, computed by branch-and-bound:
orderings are grown one position at a time and only the orderings achieving
the current best chunk survive.

The corpus is grown one vertex at a time.  Every graph on n vertices is a
graph on n-1 vertices plus a vertex, and every connected one is a connected
graph on n-1 vertices plus a vertex with a nonempty neighbourhood (delete a
vertex that is not a cut vertex).  Two pruning rules, both exact, cut the
canonical forms computed:

* Neighbourhoods in one orbit of the parent's automorphism group give
  isomorphic graphs, so one per orbit is tried.
* A graph is canonicalised only when no other vertex that could have been
  added last has a smaller degree invariant than the new vertex.  A vertex
  of least invariant among those that could go last always exists, and the
  graph arises with that vertex added last.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from hdecomp.graphs import Graph, bits

#: number of graphs on n vertices up to isomorphism (OEIS A000088)
GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]
#: number of connected graphs on n vertices up to isomorphism (OEIS A001349)
CONNECTED_GRAPH_COUNTS = [1, 1, 1, 2, 6, 21, 112, 853, 11117]


def from_edge_mask(n: int, mask: int) -> Graph:
    """Decode a graph from a bitmask over the pairs (0,1),(0,2),(1,2),(0,3),..."""
    edges = []
    pos = 0
    for j in range(n):
        for i in range(j):
            if mask >> pos & 1:
                edges.append((i, j))
            pos += 1
    return Graph(n, edges)


@cache
def _spread(n: int) -> list[int]:
    """spread[m] sets bit 0 of field v (n bits wide) for each vertex v in m."""
    spread = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        spread[m] = spread[m ^ low] | 1 << (n * (low.bit_length() - 1))
    return spread


def _best_orders(n: int, adj: Sequence[int], merge: bool) -> list[tuple[int, ...]]:
    """The orderings of 0..n-1 whose chunk sequence is greatest.

    A partial ordering carries the chunk every unplaced vertex would get next,
    packed one n-bit field per vertex.  With `merge`, partial orderings that
    placed the same vertices and give every unplaced vertex the same chunk
    agree on every later chunk, so only the first of them is kept.  Without
    it, every best ordering is returned; for a graph already in canonical
    form these are its automorphisms.
    """
    field = (1 << n) - 1
    spread = _spread(n)
    states = [((v,), 1 << v, spread[adj[v] & ~(1 << v)]) for v in range(n)]
    for pos in range(1, n):
        best = -1
        survivors = []
        for state in states:
            placed, chunks = state[1], state[2]
            for v in bits(field & ~placed):
                chunk = chunks >> (n * v) & field
                if chunk > best:
                    best = chunk
                    survivors = [(state, v)]
                elif chunk == best:
                    survivors.append((state, v))
        grown: dict[tuple, tuple] = {}
        for (order, placed, chunks), v in survivors:
            placed |= 1 << v
            chunks = chunks & ~(field << (n * v)) | spread[adj[v] & ~placed] << pos
            state = (order + (v,), placed, chunks)
            grown.setdefault((placed, chunks) if merge else state[0], state)
        states = list(grown.values())
    return [state[0] for state in states]


def canonical_mask(n: int, adj_masks: Sequence[int]) -> int:
    """Edge mask of the graph in an ordering with the greatest chunk sequence."""
    if n <= 1:
        return 0
    order = _best_orders(n, adj_masks, merge=True)[0]
    mask = 0
    posbit = 0
    for j in range(n):
        vj = order[j]
        for i in range(j):
            if adj_masks[vj] >> order[i] & 1:
                mask |= 1 << posbit
            posbit += 1
    return mask


def canonical_form(g: Graph) -> int:
    return canonical_mask(g.n, [g.adj_mask(v) for v in range(g.n)])


def _is_connected(adj: Sequence[int], alive: int) -> bool:
    seen = frontier = alive & -alive
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen == alive


def _grow(parents: list[int], n: int, connected: bool) -> list[int]:
    """Sorted canonical masks of every parent on n-1 vertices plus one vertex
    (with a nonempty neighbourhood when `connected`)."""
    full = (1 << n) - 1
    seen = set()
    for mask in parents:
        g = from_edge_mask(n - 1, mask)
        adj = [g.adj_mask(v) for v in range(n - 1)]
        automorphisms = _best_orders(n - 1, adj, merge=False)
        tried = set()
        for nbrs in range(1 if connected else 0, 1 << (n - 1)):
            if nbrs in tried:
                continue
            for order in automorphisms:
                tried.add(sum(1 << order[v] for v in bits(nbrs)))
            ext = [a | (nbrs >> v & 1) << (n - 1) for v, a in enumerate(adj)] + [nbrs]
            deg = [a.bit_count() for a in ext]
            inv = [(deg[u], sorted(deg[w] for w in bits(ext[u]))) for u in range(n)]
            if any(
                inv[u] < inv[n - 1] and (not connected or _is_connected(ext, full & ~(1 << u)))
                for u in range(n - 1)
            ):
                continue  # it also arises with u added last
            seen.add(canonical_mask(n, ext))
    return sorted(seen)


_levels: dict[bool, dict[int, list[int]]] = {False: {0: [0]}, True: {1: [0]}}


def _level(n: int, connected: bool) -> list[int]:
    levels = _levels[connected]
    if n not in levels:
        levels[n] = _grow(_level(n - 1, connected), n, connected)
    return levels[n]


def all_graphs(n: int) -> list[int]:
    """Canonical edge masks of all graphs on exactly n vertices, sorted."""
    return list(_level(n, False))


def connected_masks(n: int) -> list[int]:
    """Canonical edge masks of the connected graphs on n >= 1 vertices, sorted."""
    return list(_level(n, True))


def connected_graphs(max_n: int) -> list[Graph]:
    """All connected graphs with 1..max_n vertices, one per iso class, by
    vertex count and then by canonical mask."""
    return [from_edge_mask(n, m) for n in range(1, max_n + 1) for m in _level(n, True)]
