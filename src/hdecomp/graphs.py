"""Immutable undirected simple graphs, graph-class membership, and basic structure.

Vertices are dense 0-based integers.  Every operation that returns vertex sets
returns them sorted (as sorted tuples or frozensets whose callers sort), and
every tie is broken smallest-id-first so that all downstream constructions are
reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence


class Graph:
    """An immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj", "_adj_masks", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(norm)
        adj = [[] for _ in range(n)]
        masks = [0] * n
        for u, v in norm:
            adj[u].append(v)
            adj[v].append(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._adj_masks = tuple(masks)
        self._hash = hash((n, self.edges))

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, itertools.combinations(range(n), 2))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, ((i, i + 1) for i in range(n - 1)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycles need at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> "Graph":
        """Decode a graph from a bitmask over the pairs (0,1),(0,2),(1,2),(0,3),...

        Bit positions follow the column-major upper triangle: the bits for
        vertex j list its adjacency to 0..j-1.  This is the encoding used by
        the small-graph enumerator.
        """
        edges = []
        pos = 0
        for j in range(n):
            for i in range(j):
                if mask >> pos & 1:
                    edges.append((i, j))
                pos += 1
        return cls(n, edges)

    # -- basic queries -----------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def adj_mask(self, v: int) -> int:
        return self._adj_masks[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj_masks[u] >> v & 1)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def vertices(self) -> range:
        return range(self.n)

    def edge_mask(self) -> int:
        mask = 0
        for u, v in self.edges:
            if u > v:
                u, v = v, u
            mask |= 1 << (v * (v - 1) // 2 + u)
        return mask

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph on the given vertices, relabeled densely.

        Returns the new graph and the sorted list mapping new id -> old id.
        """
        order = sorted(set(vertices))
        index = {v: i for i, v in enumerate(order)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges
            if u in index and v in index
        ]
        return Graph(len(order), edges), order

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


# -- vertex-set/bitmask helpers (shared by the algorithmic modules) ---------


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


def reach_mask(g: Graph, start: int, within: int) -> int:
    """Vertices of `within` reachable from `start & within` inside G[within]."""
    seen = start & within
    frontier = seen
    masks = g._adj_masks
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= masks[b.bit_length() - 1]
            frontier ^= b
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def neighborhood_mask(g: Graph, part: int, within: Optional[int] = None) -> int:
    """Open neighborhood N(part), optionally restricted to `within`."""
    m = 0
    for v in bits(part):
        m |= g._adj_masks[v]
    m &= ~part
    if within is not None:
        m &= within
    return m


# -- graph classes -----------------------------------------------------------

MAX_OBSTRUCTION_SIZE = 6


class GraphClassSpec:
    """Runtime description of the target class: bipartite graphs or a class
    excluding a finite family of connected induced subgraphs."""

    __slots__ = ("kind", "family")

    BIPARTITE = "bipartite"
    FORBIDDEN = "forbidden-induced"

    def __init__(self, kind: str, family: Sequence[Graph] = ()):
        if kind not in (self.BIPARTITE, self.FORBIDDEN):
            raise ValueError(f"unknown class kind {kind!r}")
        if kind == self.BIPARTITE and family:
            raise ValueError("bipartite class takes no family")
        if kind == self.FORBIDDEN:
            if not family:
                raise ValueError("forbidden-induced class needs a nonempty family")
            for f in family:
                if f.n < 2:
                    raise ValueError("family members need at least 2 vertices")
                if f.n > MAX_OBSTRUCTION_SIZE:
                    raise ValueError(
                        f"family member on {f.n} vertices exceeds the cap of "
                        f"{MAX_OBSTRUCTION_SIZE}"
                    )
                if len(connected_components(f)) != 1:
                    raise ValueError("family members must be connected")
        self.kind = kind
        self.family = tuple(family)

    @classmethod
    def bipartite(cls) -> "GraphClassSpec":
        return cls(cls.BIPARTITE)

    @classmethod
    def forbidden(cls, *family: Graph) -> "GraphClassSpec":
        return cls(cls.FORBIDDEN, family)

    @classmethod
    def triangle_free(cls) -> "GraphClassSpec":
        return cls.forbidden(Graph.complete(3))

    @classmethod
    def kl_free(cls, ell: int) -> "GraphClassSpec":
        return cls.forbidden(Graph.complete(ell))

    @property
    def max_obstruction_size(self) -> int:
        if self.kind == self.BIPARTITE:
            return 0
        return max(f.n for f in self.family)

    def h_value(self, x: int) -> int:
        """Separator guarantee h(x) of the class' separation finder."""
        return 2 * x if self.kind == self.BIPARTITE else x

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphClassSpec):
            return NotImplemented
        return self.kind == other.kind and self.family == other.family

    def __hash__(self) -> int:
        return hash((self.kind, self.family))

    def __repr__(self) -> str:
        if self.kind == self.BIPARTITE:
            return "GraphClassSpec(bipartite)"
        sizes = ",".join(str(f.n) for f in self.family)
        return f"GraphClassSpec(forbidden-induced, sizes=[{sizes}])"


@dataclass(frozen=True)
class TriSeparation:
    """A partition (A, X, B) of V(G) with no A-B edges."""

    A: frozenset[int]
    X: frozenset[int]
    B: frozenset[int]

    def validate(self, g: Graph) -> list[str]:
        errs = []
        if self.A & self.X or self.A & self.B or self.X & self.B:
            errs.append("parts overlap")
        if self.A | self.X | self.B != frozenset(range(g.n)):
            errs.append("parts do not partition V(G)")
        for u in self.A:
            if g.adj_mask(u) & mask_of(self.B):
                errs.append(f"edge between A and B at {u}")
                break
        return errs


# -- operations --------------------------------------------------------------


def connected_components(g: Graph, within: Optional[Iterable[int]] = None) -> list[frozenset[int]]:
    """Connected components of G[within], ordered by smallest member."""
    pool = g.full_mask() if within is None else mask_of(within)
    comps = []
    while pool:
        start = pool & -pool
        comp = reach_mask(g, start, pool)
        comps.append(set_of(comp))
        pool &= ~comp
    return comps


def is_connected_set(g: Graph, vertices: Iterable[int]) -> bool:
    m = mask_of(vertices)
    if m == 0:
        return False
    return reach_mask(g, m & -m, m) == m


def proper_2_coloring(g: Graph, within: Optional[Iterable[int]] = None) -> Optional[dict[int, int]]:
    """A proper 2-coloring of G[within] with colors {1, 2}, or None.

    BFS from the smallest vertex of each component; component roots get
    color 1, queue neighbors in ascending id.
    """
    pool = g.full_mask() if within is None else mask_of(within)
    color: dict[int, int] = {}
    remaining = pool
    while remaining:
        root = (remaining & -remaining).bit_length() - 1
        color[root] = 1
        queue = [root]
        remaining &= ~(1 << root)
        while queue:
            nxt = []
            for u in queue:
                cu = color[u]
                for v in g.neighbors(u):
                    if not (pool >> v & 1):
                        continue
                    if v in color:
                        if color[v] == cu:
                            return None
                    else:
                        color[v] = 3 - cu
                        remaining &= ~(1 << v)
                        nxt.append(v)
            queue = sorted(nxt)
    return color


def _find_embedding_image(g: Graph, pattern: Graph, within_mask: int) -> Optional[frozenset[int]]:
    """Lexicographically smallest vertex set of G[within] inducing `pattern`."""
    candidates = sorted(bits(within_mask))
    if pattern.n > len(candidates):
        return None
    for combo in itertools.combinations(candidates, pattern.n):
        sub = [[g.has_edge(u, v) for v in combo] for u in combo]
        # brute-force isomorphism test; patterns are capped at 6 vertices
        for perm in itertools.permutations(range(pattern.n)):
            ok = True
            for i in range(pattern.n):
                for j in range(i + 1, pattern.n):
                    if pattern.has_edge(perm[i], perm[j]) != sub[i][j]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return frozenset(combo)
    return None


def find_induced_obstruction(
    g: Graph, cls: GraphClassSpec, within: Optional[Iterable[int]] = None
) -> Optional[frozenset[int]]:
    """Vertex set of an induced copy of some family member inside G[within].

    Family members are scanned in the given order; within a member the
    lexicographically smallest image wins.  None when G[within] is in the
    class.
    """
    if cls.kind != GraphClassSpec.FORBIDDEN:
        raise ValueError("find_induced_obstruction needs a forbidden-induced class")
    mask = g.full_mask() if within is None else mask_of(within)
    for pattern in cls.family:
        image = _find_embedding_image(g, pattern, mask)
        if image is not None:
            return image
    return None


def is_member(g: Graph, cls: GraphClassSpec, within: Optional[Iterable[int]] = None) -> bool:
    if cls.kind == GraphClassSpec.BIPARTITE:
        return proper_2_coloring(g, within) is not None
    return find_induced_obstruction(g, cls, within) is None


def contract_sets(g: Graph, parts: Sequence[Iterable[int]]) -> tuple[Graph, list[int]]:
    """Contract each part to a single vertex (part i becomes vertex i).

    Parts must be nonempty, connected, and partition V(G).  Returns the
    quotient graph and the map old-vertex -> new-vertex.
    """
    masks = []
    seen = 0
    for part in parts:
        m = mask_of(part)
        if m == 0:
            raise ValueError("empty part")
        if m & seen:
            raise ValueError("overlapping parts")
        if reach_mask(g, m & -m, m) != m:
            raise ValueError("disconnected part")
        seen |= m
        masks.append(m)
    if seen != g.full_mask():
        raise ValueError("parts do not cover V(G)")
    vmap = [0] * g.n
    for i, m in enumerate(masks):
        for v in bits(m):
            vmap[v] = i
    edges = set()
    for u, v in g.edges:
        a, b = vmap[u], vmap[v]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph(len(masks), edges), vmap


# -- .gr text format ---------------------------------------------------------


def write_gr(g: Graph) -> str:
    lines = [f"p hd {g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_gr(text: str) -> Graph:
    n = m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate p-line")
            fields = line.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "hd":
                raise ValueError(f"line {lineno}: malformed p-line {line!r}")
            n, m = int(fields[2]), int(fields[3])
            continue
        if n is None:
            raise ValueError(f"line {lineno}: edge before p-line")
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: malformed edge {line!r}")
        u, v = int(fields[0]) - 1, int(fields[1]) - 1
        edges.append((u, v))
    if n is None:
        raise ValueError("missing p-line")
    if len(edges) != m:
        raise ValueError(f"p-line announces {m} edges, found {len(edges)}")
    return Graph(n, edges)


def write_family(family: Sequence[Graph]) -> str:
    return "---\n".join(write_gr(f) for f in family)


def parse_family(text: str) -> list[Graph]:
    blocks = [b for b in text.split("---") if b.strip()]
    if not blocks:
        raise ValueError("empty family file")
    return [parse_gr(b) for b in blocks]
