"""Immutable undirected simple graphs, graph-class membership, and basic structure.

Vertices are dense 0-based integers.  Every operation that returns vertex sets
returns them sorted (as sorted tuples or frozensets whose callers sort), and
every tie is broken smallest-id-first so that all downstream constructions are
reproducible.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence


class Graph:
    """An immutable simple undirected graph on vertices 0..n-1."""

    # _cut_tree: the block-cut forest, built on first use (separators.py)
    __slots__ = ("n", "edges", "_adj_masks", "_hash", "_cut_tree")

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
        masks = [0] * n
        for u, v in norm:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._adj_masks = tuple(masks)
        self._hash = hash((n, self.edges))
        self._cut_tree = None

    # -- constructors ------------------------------------------------------

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

    # -- basic queries -----------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self._adj_masks[v]))

    def adj_mask(self, v: int) -> int:
        return self._adj_masks[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj_masks[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._adj_masks[v].bit_count()

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph on the given vertices, relabeled densely.

        Returns the new graph and the sorted list mapping new id -> old id.
        """
        order = sorted(set(vertices))
        index = {v: i for i, v in enumerate(order)}
        sel = mask_of(order)
        # each edge once, from its smaller end: -(2 << u) clears bits 0..u
        edges = [
            (i, index[v])
            for i, u in enumerate(order)
            for v in bits(self._adj_masks[u] & sel & -(2 << u))
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


def _check_member_size(n: int) -> None:
    """The size cap on family members; readers check it before they build
    a member's Graph."""
    if n > MAX_OBSTRUCTION_SIZE:
        raise ValueError(f"family member on {n} vertices exceeds the cap of {MAX_OBSTRUCTION_SIZE}")


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
                _check_member_size(f.n)
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


# -- operations --------------------------------------------------------------


def components(g: Graph, pool: int) -> list[int]:
    """Component masks of G[pool], in order of their smallest vertex."""
    comps = []
    while pool:
        comp = reach_mask(g, pool & -pool, pool)
        comps.append(comp)
        pool &= ~comp
    return comps


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Connected components of G, ordered by smallest member."""
    return [set_of(comp) for comp in components(g, g.full_mask())]


def coloring_mask(g: Graph, pool: int) -> Optional[int]:
    """Color class 1 of the proper 2-coloring of G[pool] that gives the
    smallest vertex of each component color 1, or None when G[pool] is not
    bipartite.

    A layered BFS from that vertex: even layers get color 1, and G[pool] is
    bipartite exactly when no edge joins two vertices of one layer.
    """
    masks = g._adj_masks
    class1 = 0
    while pool:
        front = seen = pool & -pool
        even = True
        while front:
            if even:
                class1 |= front
            nxt = 0
            m = front
            while m:
                b = m & -m
                nxt |= masks[b.bit_length() - 1]
                m ^= b
            if nxt & front:
                return None
            front = nxt & pool & ~seen
            seen |= front
            even = not even
        pool &= ~seen
    return class1


def proper_2_coloring(g: Graph, within: Optional[Iterable[int]] = None) -> Optional[dict[int, int]]:
    """A proper 2-coloring of G[within] with colors {1, 2}, or None; the
    smallest vertex of each component gets color 1 (see `coloring_mask`)."""
    pool = g.full_mask() if within is None else mask_of(within)
    class1 = coloring_mask(g, pool)
    if class1 is None:
        return None
    return {v: 1 if class1 >> v & 1 else 2 for v in bits(pool)}


# pattern -> its orbit table; patterns have at most MAX_OBSTRUCTION_SIZE vertices
_orbit_tables: dict[Graph, tuple[int, ...]] = {}


def _orbit_table(pattern: Graph) -> tuple[int, ...]:
    """allowed[U], for each mask U of pattern vertices: the vertices outside
    U that are the least in their orbit under the automorphisms fixing each
    vertex of U.  The automorphisms are found by brute force, and the
    stabilizer of U is filtered from that of U minus its largest vertex."""
    table = _orbit_tables.get(pattern)
    if table is None:
        q, padj = pattern.n, pattern._adj_masks
        perms = itertools.permutations(range(q))
        stab = [[s for s in perms if all(padj[s[u]] >> s[v] & 1 for u, v in pattern.edges)]]
        allowed = []
        for used in range(1 << q):
            if used:
                top = used.bit_length() - 1
                stab.append([s for s in stab[used ^ 1 << top] if s[top] == top])
            allowed.append(mask_of(p for p in range(q) if not used >> p & 1 and all(s[p] >= p for s in stab[used])))
        table = _orbit_tables[pattern] = tuple(allowed)
    return table


def _find_embedding_image(g: Graph, pattern: Graph, within_mask: int) -> Optional[int]:
    """Mask of the lexicographically smallest vertex set of G[within] that
    induces the connected `pattern`, or None.

    Backtracking over vertex sets in increasing order that keeps the
    partial isomorphisms onto the pattern agreeing with G, and walks only
    the candidates that extend one of them.  An image is connected, so it
    lies within distance q - 1 of its smallest vertex v in G[within]
    restricted to the vertices >= v.

    Only canonical maps are kept: the j-th chosen vertex goes to a vertex
    of `allowed[U]` (`_orbit_table`), U being the pattern vertices used
    before it.  This is exact.  Composing any map that agrees with G with
    automorphisms picked along the stabilizer chain (the j-th fixes the
    first j images and moves the next to the least of its orbit) gives a
    canonical map that agrees with G too, and the prefixes of a canonical
    map are canonical.  So a set keeps some map exactly when it kept one
    with every map carried; a clique keeps one map in place of l!/(l-k)!.
    """
    q, padj, adj = pattern.n, pattern._adj_masks, g._adj_masks
    allowed = _orbit_table(pattern)
    chosen: list[int] = []

    def extend(cand: int, maps: list[tuple[int, tuple[int, ...]]]) -> bool:
        # maps: (pattern vertices used, the pattern bit of each chosen vertex)
        k = len(chosen)
        if k == q:
            return True
        # every allowed extension, with the candidates adjacent to chosen[i]
        # exactly where its pattern vertex is adjacent to img[i]
        grown, fit = [], 0
        for used, img in maps:
            free = allowed[used]
            while free:
                p = free & -free
                free ^= p
                pa, ws = padj[p.bit_length() - 1], cand
                for u, b in zip(chosen, img):
                    ws &= adj[u] if pa & b else ~adj[u]
                if ws:
                    fit |= ws
                    grown.append((ws, used | p, img + (p,)))
        while fit:
            w = fit & -fit
            cand &= -w
            if cand.bit_count() < q - k:
                break
            cand ^= w
            fit ^= w
            chosen.append(w.bit_length() - 1)
            if extend(cand, [(used, img) for ws, used, img in grown if ws & w]):
                return True
            chosen.pop()
        return False

    # an image vertex has >= min-degree(pattern) neighbours in it: peel to that core
    delta = min((m.bit_count() for m in padj), default=0)
    rest = within_mask
    low = [v for v in bits(rest) if (adj[v] & rest).bit_count() < delta]
    while low:
        v = low.pop()
        if rest >> v & 1:
            rest ^= 1 << v
            low += [u for u in bits(adj[v] & rest) if (adj[u] & rest).bit_count() < delta]
    while rest.bit_count() >= q:
        v = rest & -rest
        ball = front = v
        for _ in range(q - 1):
            front = neighborhood_mask(g, front, rest & ~ball)
            ball |= front
        chosen.append(v.bit_length() - 1)
        if extend(ball ^ v, [(1 << p, (1 << p,)) for p in bits(allowed[0])]):
            return mask_of(chosen)
        chosen.pop()
        rest ^= v
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
            return set_of(image)
    return None


def is_member(g: Graph, cls: GraphClassSpec, within: Optional[Iterable[int]] = None) -> bool:
    if cls.kind == GraphClassSpec.BIPARTITE:
        pool = g.full_mask() if within is None else mask_of(within)
        return coloring_mask(g, pool) is not None
    return find_induced_obstruction(g, cls, within) is None


# -- .gr text format ---------------------------------------------------------


def write_gr(g: Graph) -> str:
    lines = [f"p hd {g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


#: vertices a `.gr` graph may have; a larger p-line is refused before anything
#: is allocated (this does not bound memory: the masks hold about n^2/16 bytes)
MAX_GRAPH_VERTICES = 1 << 20


def parse_gr(text: str) -> Graph:
    """A `.gr` graph on at most MAX_GRAPH_VERTICES vertices."""
    return Graph(*_parse_gr(text, 1, MAX_GRAPH_VERTICES))


def _parse_gr(text: str, first_line: int, cap: int) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count, at most `cap`, and the checked 0-based edges of a
    `.gr` text; error messages count lines from `first_line`."""
    n = m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), first_line):
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        if line.startswith("p"):
            if n is not None:
                raise ValueError(f"line {lineno}: duplicate p-line")
            fields = line.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "hd" or not (fields[2] + fields[3]).isdecimal():
                raise ValueError(f"line {lineno}: malformed p-line {line!r}")
            n, m = int(fields[2]), int(fields[3])
            if n > cap:
                raise ValueError(f"line {lineno}: n = {n} exceeds the cap of {cap}")
            continue
        if n is None:
            raise ValueError(f"line {lineno}: edge before p-line")
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise ValueError(f"line {lineno}: malformed edge {line!r}") from None
        # the file's 1-based ids; Graph would report them 0-based
        if not (0 < u <= n and 0 < v <= n):
            raise ValueError(f"line {lineno}: vertex {v if 0 < u <= n else u} out of range for n={n}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u - 1, v - 1))
    if n is None:
        raise ValueError("missing p-line")
    if len(edges) != m:
        raise ValueError(f"p-line announces {m} edges, found {len(edges)}")
    return n, edges


def write_family(family: Sequence[Graph]) -> str:
    return "---\n".join(write_gr(f) for f in family)


def parse_family(text: str) -> list[Graph]:
    """The graphs of a family file, separated by lines that read `---`;
    errors give the line numbers of the file, and a member over
    MAX_OBSTRUCTION_SIZE vertices is refused at its p-line."""
    family, block, first = [], [], 1
    for lineno, line in enumerate(text.splitlines() + ["---"], 1):
        if line.strip() != "---":
            block.append(line)
            continue
        if any(b.strip() for b in block):
            family.append(Graph(*_parse_gr("\n".join(block), first, MAX_OBSTRUCTION_SIZE)))
        block, first = [], lineno + 1
    if not family:
        raise ValueError("empty family file")
    return family
