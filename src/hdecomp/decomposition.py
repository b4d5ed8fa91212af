"""Decomposition structures and pipelines.

Builds separation decompositions by repeated extremal separation finding,
computes exact treedepth/treewidth of (small) quotient graphs, and converts
the results into validated elimination forests and tree decompositions with
base components, including the nice normal form used by the dynamic
programming solvers.

Conventions:
  * elimination forests follow the edge-depth convention; standard forests
    (cls=None) carry empty leaf bags below every childless chain node so the
    edge-depth equals vertex-counting treedepth;
  * all tie-breaks are smallest-id-first;
  * `make_nice` guarantees node count <= ALPHA * k * n for an input of
    width k-1 on an n-vertex graph (n, k >= 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import (
    Graph,
    GraphClassSpec,
    bits,
    connected_components,
    contract_sets,
    is_member,
    mask_of,
    neighborhood_mask,
    reach_mask,
    set_of,
)
from .separation import (
    Separation,
    find_extremal_separation,
    find_separation_bip,
    find_separation_forbidden,
    find_separation_restricted,
)
from .separators import SearchStats

#: documented constant for the make_nice size guarantee
ALPHA = 32

#: size guard below which decomposition validators run the inseparability oracle
INSEPARABILITY_ORACLE_GUARD = 10


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForestNode:
    bag: frozenset[int]
    parent: int  # -1 for roots
    leaf: bool


class EliminationForest:
    """Rooted forest with singleton internal bags and class-member leaf bags.

    cls=None denotes a standard elimination forest: leaf bags must be empty
    (the auxiliary-leaf convention making edge-depth equal treedepth).
    """

    def __init__(self, nodes: Sequence[ForestNode], cls: Optional[GraphClassSpec]):
        self.nodes = list(nodes)
        self.cls = cls

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in self.nodes]
        for i, node in enumerate(self.nodes):
            if node.parent >= 0:
                ch[node.parent].append(i)
        return ch

    def roots(self) -> list[int]:
        return [i for i, node in enumerate(self.nodes) if node.parent < 0]

    def depths(self) -> list[int]:
        d = [0] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            if node.parent >= 0:
                if node.parent >= i:
                    raise ValueError("parents must precede children")
                d[i] = d[node.parent] + 1
        return d

    @property
    def depth(self) -> int:
        if not self.nodes:
            return 0
        return max(self.depths())

    def base_vertices(self) -> frozenset[int]:
        out: set[int] = set()
        for node in self.nodes:
            if node.leaf:
                out |= node.bag
        return frozenset(out)

    def relabel(self, mapping: Sequence[int]) -> "EliminationForest":
        return EliminationForest(
            [
                ForestNode(frozenset(mapping[v] for v in node.bag), node.parent, node.leaf)
                for node in self.nodes
            ],
            self.cls,
        )

    def validate(self, g: Graph) -> list[str]:
        errs = []
        ch = self.children()
        seen: set[int] = set()
        for i, node in enumerate(self.nodes):
            if node.parent >= len(self.nodes):
                errs.append(f"node {i}: dangling parent")
                continue
            if node.parent >= i:
                errs.append(f"node {i}: parent {node.parent} does not precede it")
            if node.leaf:
                if ch[i]:
                    errs.append(f"node {i}: leaf with children")
                if self.cls is None:
                    if node.bag:
                        errs.append(f"node {i}: standard forest leaf bag must be empty")
                elif not is_member(g, self.cls, node.bag):
                    errs.append(f"node {i}: base component not in the class")
            else:
                if len(node.bag) != 1:
                    errs.append(f"node {i}: internal bag must be a singleton")
                if not ch[i]:
                    errs.append(f"node {i}: childless internal node (missing auxiliary leaf)")
            if node.bag & seen:
                errs.append(f"node {i}: bag overlaps earlier bags")
            seen |= node.bag
        if seen != set(range(g.n)):
            errs.append("bags do not partition V(G)")
        if errs:
            return errs
        # ancestor-descendant condition for edges
        depths = self.depths()
        owner = {}
        for i, node in enumerate(self.nodes):
            for v in node.bag:
                owner[v] = i
        anc: list[set[int]] = [set() for _ in self.nodes]
        for i, node in enumerate(self.nodes):
            if node.parent >= 0:
                anc[i] = anc[node.parent] | {node.parent}
        for u, v in g.edges:
            a, b = owner[u], owner[v]
            if a != b and a not in anc[b] and b not in anc[a]:
                errs.append(f"edge ({u},{v}) crosses unrelated subtrees")
        _ = depths
        return errs


class TreeHDecomposition:
    """Tree decomposition with base vertices L living in unique leaf bags."""

    kind = "tree-h-decomposition"

    def __init__(
        self,
        parents: Sequence[int],
        bags: Sequence[frozenset[int]],
        L: frozenset[int],
        cls: Optional[GraphClassSpec],
    ):
        self.parents = list(parents)
        self.bags = [frozenset(b) for b in bags]
        self.L = frozenset(L)
        self.cls = cls

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in self.parents]
        for i, p in enumerate(self.parents):
            if p >= 0:
                ch[p].append(i)
        return ch

    def root(self) -> int:
        roots = [i for i, p in enumerate(self.parents) if p < 0]
        if len(roots) != 1:
            raise ValueError("tree decomposition must have exactly one root")
        return roots[0]

    @property
    def width(self) -> int:
        if not self.bags:
            return 0
        return max(0, max(len(b - self.L) for b in self.bags) - 1)

    def relabel(self, mapping: Sequence[int]) -> "TreeHDecomposition":
        return type(self)(
            self.parents,
            [frozenset(mapping[v] for v in b) for b in self.bags],
            frozenset(mapping[v] for v in self.L),
            self.cls,
        )

    def validate(self, g: Graph) -> list[str]:
        errs = []
        n_nodes = len(self.parents)
        if n_nodes == 0:
            return ["decomposition has no nodes"]
        if len(self.bags) != n_nodes:
            return ["parents and bags disagree in length"]
        roots = [i for i, p in enumerate(self.parents) if p < 0]
        if len(roots) != 1:
            errs.append("not a single rooted tree")
        for i, p in enumerate(self.parents):
            if p >= i:
                errs.append(f"node {i}: parent {p} does not precede it")
        if errs:
            return errs
        ch = self.children()
        occ: dict[int, list[int]] = {v: [] for v in range(g.n)}
        for i, b in enumerate(self.bags):
            for v in b:
                if not 0 <= v < g.n:
                    errs.append(f"node {i}: bag vertex {v} out of range")
                    return errs
                occ[v].append(i)
        for v in range(g.n):
            nodes = occ[v]
            if not nodes:
                errs.append(f"vertex {v} appears in no bag")
                continue
            # connectivity of the occurrence subtree
            marked = set(nodes)
            count_roots = sum(1 for i in nodes if self.parents[i] not in marked)
            if count_roots != 1:
                errs.append(f"vertex {v}: occurrence subtree disconnected")
        for u, v in g.edges:
            a, b = (u, v) if len(occ[u]) <= len(occ[v]) else (v, u)
            if not any(b in self.bags[i] for i in occ[a]):
                errs.append(f"edge ({u},{v}) not covered by any bag")
        for v in self.L:
            nodes = occ.get(v, [])
            if len(nodes) != 1:
                errs.append(f"base vertex {v} must appear in exactly one bag")
            elif ch[nodes[0]]:
                errs.append(f"base vertex {v} must live at a leaf")
        if self.cls is not None:
            for i, b in enumerate(self.bags):
                if not is_member(g, self.cls, b & self.L):
                    errs.append(f"node {i}: bag's base part is not in the class")
        elif self.L:
            errs.append("standard decomposition must have empty L")
        return errs


class NiceTreeHDecomposition(TreeHDecomposition):
    kind = "nice"

    def validate(self, g: Graph) -> list[str]:
        errs = super().validate(g)
        if errs:
            return errs
        root = self.root()
        if self.bags[root] & self.L:
            errs.append("root bag intersects L")
        ch = self.children()
        for i, kids in enumerate(ch):
            if len(kids) > 2:
                errs.append(f"node {i}: more than two children")
            elif len(kids) == 2:
                a, b = kids
                if not (self.bags[i] == self.bags[a] == self.bags[b]):
                    errs.append(f"node {i}: join children bags differ")
            elif len(kids) == 1:
                c = kids[0]
                bt, bc = self.bags[i], self.bags[c]
                diff = bt ^ bc
                if len(diff) == 1 and not diff & self.L:
                    continue
                if not ch[c] and bt == bc - self.L and bc & self.L:
                    continue
                errs.append(f"node {i}: single-child step is not a legal bag change")
        return errs


@dataclass(frozen=True)
class SepNode:
    V: frozenset[int]
    C: frozenset[int]
    S: frozenset[int]
    parent: int


class SeparationDecomposition:
    def __init__(
        self,
        nodes: Sequence[SepNode],
        k1: int,
        k2: int,
        restricted: bool,
        cls: GraphClassSpec,
    ):
        self.nodes = list(nodes)
        self.k1 = k1
        self.k2 = k2
        self.restricted = restricted
        self.cls = cls

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in self.nodes]
        for i, node in enumerate(self.nodes):
            if node.parent >= 0:
                ch[node.parent].append(i)
        return ch

    def ancestors(self, t: int) -> list[int]:
        out = []
        p = self.nodes[t].parent
        while p >= 0:
            out.append(p)
            p = self.nodes[p].parent
        return out

    def validate(self, g: Graph, oracle_guard: int = INSEPARABILITY_ORACLE_GUARD) -> list[str]:
        from .oracles import brute_separable

        errs = []
        seen: set[int] = set()
        roots = 0
        for i, node in enumerate(self.nodes):
            if node.parent >= i:
                errs.append(f"node {i}: parent does not precede it")
                return errs
            if node.parent < 0:
                roots += 1
            if not node.V:
                errs.append(f"node {i}: empty V_t")
            if node.V & seen:
                errs.append(f"node {i}: V_t overlaps earlier pieces")
            seen |= node.V
            vm = mask_of(node.V)
            if vm and reach_mask(g, vm & -vm, vm) != vm:
                errs.append(f"node {i}: V_t not connected")
            sep = Separation(node.C, node.S, self.cls, self.k2)
            for e in sep.validate(g):
                errs.append(f"node {i}: {e}")
            if not node.V <= node.C | node.S:
                errs.append(f"node {i}: V_t not inside C_t union S_t")
        if roots != 1:
            errs.append("must have exactly one root")
        if seen != set(range(g.n)):
            errs.append("pieces do not cover V(G)")
        if errs:
            return errs
        owner = {}
        for i, node in enumerate(self.nodes):
            for v in node.V:
                owner[v] = i
        anc = [set(self.ancestors(i)) for i in range(len(self.nodes))]
        for u, v in g.edges:
            a, b = owner[u], owner[v]
            if a == b:
                continue
            ok = (a in anc[b] and u in self.nodes[a].S) or (
                b in anc[a] and v in self.nodes[b].S
            )
            if not ok:
                errs.append(f"edge ({u},{v}) violates the ancestor condition")
        ch = self.children()
        if g.n <= oracle_guard:
            for i, node in enumerate(self.nodes):
                if ch[i] and brute_separable(g, node.V, self.k1, self.cls) is not None:
                    errs.append(f"node {i}: non-leaf V_t is ({self.k1})-separable")
        if self.restricted:
            for i, node in enumerate(self.nodes):
                swallowed = sum(
                    1 for s in self.ancestors(i) if self.nodes[s].V <= node.C
                )
                if swallowed > self.k1:
                    errs.append(f"node {i}: {swallowed} ancestors swallowed by C_t")
        return errs


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _cls_to_json(cls: Optional[GraphClassSpec]):
    if cls is None:
        return None
    if cls.kind == GraphClassSpec.BIPARTITE:
        return {"kind": "bipartite"}
    return {
        "kind": "forbidden-induced",
        "family": [
            {"n": f.n, "edges": [list(e) for e in sorted(f.edges)]} for f in cls.family
        ],
    }


def _cls_from_json(obj) -> Optional[GraphClassSpec]:
    if obj is None:
        return None
    if obj["kind"] == "bipartite":
        return GraphClassSpec.bipartite()
    family = [Graph(f["n"], [tuple(e) for e in f["edges"]]) for f in obj["family"]]
    return GraphClassSpec.forbidden(*family)


def to_json(obj) -> str:
    if isinstance(obj, EliminationForest):
        doc = {
            "kind": "elimination-forest",
            "class": _cls_to_json(obj.cls),
            "nodes": [
                {"id": i, "parent": n.parent, "bag": sorted(n.bag), "leaf": n.leaf}
                for i, n in enumerate(obj.nodes)
            ],
            "depth": obj.depth,
        }
    elif isinstance(obj, TreeHDecomposition):
        ch = obj.children()
        doc = {
            "kind": obj.kind,
            "class": _cls_to_json(obj.cls),
            "nodes": [
                {
                    "id": i,
                    "parent": obj.parents[i],
                    "bag": sorted(obj.bags[i]),
                    "leaf": not ch[i],
                }
                for i in range(len(obj.parents))
            ],
            "L": sorted(obj.L),
            "width": obj.width,
        }
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def from_json(text: str):
    """Read a decomposition document; ValueError when it is malformed."""
    doc = json.loads(text)
    try:
        return _from_doc(doc)
    except (KeyError, TypeError, IndexError, AttributeError) as e:
        raise ValueError(f"malformed document: {type(e).__name__} {e}") from e


def _ints(values) -> list[int]:
    out = list(values)
    if not all(type(v) is int for v in out):
        raise ValueError("parents, bags and L must hold integers")
    return out


def _from_doc(doc):
    kind = doc["kind"]
    cls = _cls_from_json(doc["class"])
    nodes = sorted(doc["nodes"], key=lambda d: d["id"])
    if [d["id"] for d in nodes] != list(range(len(nodes))):
        raise ValueError("node ids must be dense 0-based")
    parents = _ints(d["parent"] for d in nodes)
    bags = [frozenset(_ints(d["bag"])) for d in nodes]
    if kind == "elimination-forest":
        forest = EliminationForest(
            [ForestNode(b, p, d["leaf"]) for b, p, d in zip(bags, parents, nodes)], cls
        )
        if forest.depth != doc["depth"]:
            raise ValueError("stored depth disagrees with the structure")
        return forest
    if kind in ("tree-h-decomposition", "nice"):
        klass = NiceTreeHDecomposition if kind == "nice" else TreeHDecomposition
        dec = klass(parents, bags, frozenset(_ints(doc["L"])), cls)
        if dec.width != doc["width"]:
            raise ValueError("stored width disagrees with the structure")
        ch = dec.children()
        for d in nodes:
            if d["leaf"] == bool(ch[d["id"]]):
                raise ValueError("leaf flags disagree with the structure")
        return dec
    raise ValueError(f"unknown kind {kind!r}")


def validate(obj, g: Graph) -> list[str]:
    """Uniform validation entry point for any decomposition structure."""
    return obj.validate(g)


# ---------------------------------------------------------------------------
# exact treedepth / treewidth of small graphs
# ---------------------------------------------------------------------------


@dataclass
class TreedepthResult:
    value: int
    forest: EliminationForest
    exact: bool


@dataclass
class TreewidthResult:
    value: int
    decomposition: TreeHDecomposition
    exact: bool


TD_EXACT_GUARD = 20
TW_EXACT_GUARD = 18


def exact_treedepth(g: Graph) -> TreedepthResult:
    """Treedepth in the vertex-count convention plus a realizing standard
    elimination forest (empty auxiliary leaves appended).

    Exact (memoized branching over roots of connected subgraphs) up to
    TD_EXACT_GUARD vertices; beyond that a single-vertex-separator heuristic
    upper bound is returned with exact=False.
    """
    exact = g.n <= TD_EXACT_GUARD
    memo: dict[int, int] = {}

    def td_conn(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        if mask & (mask - 1) == 0:
            memo[mask] = 1
            return 1
        best = g.n + 1
        for v in bits(mask):
            best = min(best, 1 + td_parts(mask & ~(1 << v)))
        memo[mask] = best
        return best

    def td_parts(mask: int) -> int:
        value = 0
        pool = mask
        while pool:
            comp = reach_mask(g, pool & -pool, pool)
            value = max(value, td_conn(comp))
            pool &= ~comp
        return value

    def heuristic_root(mask: int) -> int:
        best_v, best_sz = -1, g.n + 1
        for v in bits(mask):
            rem = mask & ~(1 << v)
            worst = 0
            pool = rem
            while pool:
                comp = reach_mask(g, pool & -pool, pool)
                worst = max(worst, bin(comp).count("1"))
                pool &= ~comp
            if worst < best_sz:
                best_v, best_sz = v, worst
        return best_v

    nodes: list[ForestNode] = []

    def build(mask: int, parent: int):
        pool = mask
        comps = []
        while pool:
            comp = reach_mask(g, pool & -pool, pool)
            comps.append(comp)
            pool &= ~comp
        for comp in comps:
            if comp & (comp - 1) == 0:
                v = comp.bit_length() - 1
                i = len(nodes)
                nodes.append(ForestNode(frozenset({v}), parent, False))
                nodes.append(ForestNode(frozenset(), i, True))
                continue
            if exact:
                target = td_conn(comp)
                root = -1
                for v in bits(comp):
                    if 1 + td_parts(comp & ~(1 << v)) == target:
                        root = v
                        break
            else:
                root = heuristic_root(comp)
            i = len(nodes)
            nodes.append(ForestNode(frozenset({root}), parent, False))
            build(comp & ~(1 << root), i)

    full = g.full_mask()
    if g.n == 0:
        nodes.append(ForestNode(frozenset(), -1, True))
    else:
        build(full, -1)
    forest = EliminationForest(nodes, None)
    value = td_parts(full) if exact else forest.depth
    assert forest.depth == value
    return TreedepthResult(value, forest, exact)


def _td_from_elimination_order(g: Graph, order: Sequence[int]) -> TreeHDecomposition:
    """Standard tree decomposition realized by an elimination order."""
    n = g.n
    adj = list(g._adj_masks)
    pos = {v: i for i, v in enumerate(order)}
    bags: list[frozenset[int]] = []
    fill_nbrs: list[int] = []
    for v in order:
        nb = adj[v]
        fill_nbrs.append(nb)
        bags.append(frozenset({v}) | set_of(nb))
        for a in bits(nb):
            adj[a] = (adj[a] | nb) & ~(1 << a)
        for a in range(n):
            adj[a] &= ~(1 << v)
    parents = [-1] * n
    for i in range(n - 1):
        nb = fill_nbrs[i]
        if nb:
            parents[i] = min(pos[a] for a in bits(nb))
        else:
            parents[i] = n - 1
    # reverse so parents precede children (root = last eliminated)
    perm = list(range(n - 1, -1, -1))
    inv = {old: new for new, old in enumerate(perm)}
    new_parents = [-1] * n
    new_bags: list[frozenset[int]] = [frozenset()] * n
    for old in range(n):
        new_bags[inv[old]] = bags[old]
        new_parents[inv[old]] = inv[parents[old]] if parents[old] >= 0 else -1
    return TreeHDecomposition(new_parents, new_bags, frozenset(), None)


def exact_treewidth(g: Graph) -> TreewidthResult:
    """Exact treewidth by dynamic programming over elimination prefixes
    (guarded to TW_EXACT_GUARD vertices; min-fill heuristic beyond)."""
    n = g.n
    if n == 0:
        return TreewidthResult(
            0, TreeHDecomposition([-1], [frozenset()], frozenset(), None), True
        )
    if n > TW_EXACT_GUARD:
        order = _min_fill_order(g)
        dec = _td_from_elimination_order(g, order)
        return TreewidthResult(dec.width, dec, False)
    full = g.full_mask()

    def q_count(wmask: int, v: int) -> int:
        r = reach_mask(g, 1 << v, wmask | (1 << v))
        return bin(neighborhood_mask(g, r) & ~wmask).count("1")

    f = [0] * (1 << n)
    choice = [0] * (1 << n)
    for s in range(1, 1 << n):
        best = n + 1
        bv = -1
        for v in bits(s):
            rest = s & ~(1 << v)
            val = max(f[rest], q_count(rest, v))
            if val < best:
                best = val
                bv = v
        f[s] = best
        choice[s] = bv
    # recover an optimal elimination order (first eliminated first)
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s &= ~(1 << v)
    order.reverse()
    dec = _td_from_elimination_order(g, order)
    assert dec.width == f[full] or (n == 1 and f[full] == 0)
    return TreewidthResult(f[full], dec, True)


def _min_fill_order(g: Graph) -> list[int]:
    adj = list(g._adj_masks)
    alive = g.full_mask()
    order = []
    while alive:
        best_v, best_fill = -1, g.n * g.n  # above any fill count
        m = alive
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            nb = adj[v] & alive
            fill = 0
            rest = nb
            # stop once v cannot beat the best; strict < keeps the smallest id
            while rest and fill < best_fill:
                a = rest & -rest
                fill += (nb & ~adj[a.bit_length() - 1] & ~a).bit_count()
                rest ^= a
            if fill < best_fill:
                best_v, best_fill = v, fill
        nb = adj[best_v] & alive
        for a in bits(nb):
            adj[a] |= nb & ~(1 << a)
        alive &= ~(1 << best_v)
        order.append(best_v)
    return order


# ---------------------------------------------------------------------------
# separation decomposition builder
# ---------------------------------------------------------------------------


def _extremal_finder(cls: GraphClassSpec, restricted: bool, k: int, stats: Optional[SearchStats]):
    if cls.kind == GraphClassSpec.FORBIDDEN:
        # the exact finder satisfies the restricted guarantee for free
        def finder(g, Z, kk, family):
            return find_separation_forbidden(g, Z, kk, cls, stats=stats)

        k2 = k + 1
        return finder, k2
    if not restricted:

        def finder(g, Z, kk, family):
            return find_separation_bip(g, Z, kk)

        return finder, cls.h_value(k) + 1

    def finder(g, Z, kk, family):
        return find_separation_restricted(
            g,
            Z,
            kk,
            kk,
            cls,
            family,
            lambda g2, Z2, k2_, w: find_separation_bip(g2, Z2, k2_, within=w),
            stats=stats,
        )

    return finder, cls.h_value(k) + k + 1


def build_separation_decomposition(
    g: Graph,
    k: int,
    cls: GraphClassSpec,
    restricted: bool = False,
    stats: Optional[SearchStats] = None,
) -> SeparationDecomposition:
    """Recursive construction of a (restricted) (cls, k, k2)-separation
    decomposition of a connected graph; k2 is determined by the class finder.

    New regions are attached under the deepest non-saturated node whose
    root-path separator union covers the region's neighborhood (ties by
    smallest id); the region seed is its smallest vertex.
    """
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    if len(connected_components(g)) != 1:
        raise ValueError("graph must be connected (split components first)")
    finder, k2 = _extremal_finder(cls, restricted, k, stats)
    nodes: list[SepNode] = []
    saturated: list[bool] = []
    path_union: list[int] = []  # root-path union of V_t & S_t masks
    depth: list[int] = []

    def choose_parent(region_mask: int) -> int:
        need = neighborhood_mask(g, region_mask)
        best = -1
        for i in range(len(nodes)):
            if saturated[i]:
                continue
            if need & ~path_union[i]:
                continue
            if best < 0 or depth[i] > depth[best] or (depth[i] == depth[best] and i < best):
                best = i
        if best < 0:
            raise AssertionError("no attachable node covers the region's neighborhood")
        return best

    stack = [g.full_mask()]
    while stack:
        region_mask = stack.pop()
        region = set_of(region_mask)
        parent = -1 if not nodes else choose_parent(region_mask)
        family = []
        if parent >= 0:
            t = parent
            while t >= 0:
                family.append(nodes[t].V)
                t = nodes[t].parent
        z0 = frozenset({min(region)})
        seed = Separation(frozenset(), z0, cls, k2)
        zp, sep, certified = find_extremal_separation(
            g, region, z0, k, seed, cls, family, finder
        )
        i = len(nodes)
        nodes.append(SepNode(zp, sep.C, sep.S, parent))
        saturated.append(zp == region and not certified)
        pu = mask_of(zp & sep.S)
        if parent >= 0:
            pu |= path_union[parent]
        path_union.append(pu)
        depth.append(0 if parent < 0 else depth[parent] + 1)
        rest = region_mask & ~mask_of(zp)
        comps = []
        pool = rest
        while pool:
            comp = reach_mask(g, pool & -pool, pool)
            comps.append(comp)
            pool &= ~comp
        for comp in reversed(comps):
            stack.append(comp)
    return SeparationDecomposition(nodes, k, k2, restricted, cls)


def quotient(g: Graph, dec: SeparationDecomposition) -> tuple[Graph, list[int]]:
    """Contract each V_t (in node order) to a single vertex."""
    return contract_sets(g, [sorted(node.V) for node in dec.nodes])


# ---------------------------------------------------------------------------
# conversion: separation decomposition + quotient forest -> elimination forest
# ---------------------------------------------------------------------------


class _Internal:
    __slots__ = ("v", "children")

    def __init__(self, v: int):
        self.v = v
        self.children: list = []


class _Leaf:
    __slots__ = ("bag",)

    def __init__(self, bag: int):
        self.bag = bag


def _nested_from_forest(forest: EliminationForest) -> list[_Internal]:
    """Vertex-only nested view of a standard elimination forest."""
    objs: list = []
    for node in forest.nodes:
        if node.leaf:
            objs.append(None)
        else:
            objs.append(_Internal(next(iter(node.bag))))
    roots = []
    for i, node in enumerate(forest.nodes):
        if objs[i] is None:
            continue
        if node.parent < 0:
            roots.append(objs[i])
        else:
            objs[node.parent].children.append(objs[i])
    return roots


def _restrict_nested(trees: list, keep: int) -> list:
    out = []
    for tree in trees:
        if isinstance(tree, _Leaf):
            bag = tree.bag & keep
            if bag:
                out.append(_Leaf(bag))
            continue
        sub = _restrict_nested(tree.children, keep)
        if keep >> tree.v & 1:
            node = _Internal(tree.v)
            node.children = sub
            out.append(node)
        else:
            out.extend(sub)
    return out


def ed_forest_from_sepdecomp(
    g: Graph, dec: SeparationDecomposition, quotient_forest: EliminationForest
) -> EliminationForest:
    """Turn an elimination forest of the quotient graph into an elimination
    forest of G with class base components (induction of the depth-d*k2
    conversion: the quotient root's separator becomes a rooted path, the
    pieces inside C_j become leaves, the rest recurses)."""
    if quotient_forest.cls is not None:
        raise ValueError("quotient forest must be standard (cls=None)")
    qroots = _nested_from_forest(quotient_forest)
    qvertices = set()

    def collect(tree):
        qvertices.add(tree.v)
        for c in tree.children:
            collect(c)

    for r in qroots:
        collect(r)
    if qvertices != set(range(len(dec.nodes))):
        raise ValueError("quotient forest does not match the decomposition")
    triples = {
        i: (mask_of(n.V), mask_of(n.C), mask_of(n.S)) for i, n in enumerate(dec.nodes)
    }

    def convert(hmask: int, tri: dict, qtrees: list) -> list:
        if hmask == 0:
            return []
        roots_out = []
        pool = hmask
        while pool:
            comp = reach_mask(g, pool & -pool, pool)
            pool &= ~comp
            idx = {i for i, (vm, _, _) in tri.items() if vm & comp}
            ktrees = _restrict_q(qtrees, idx)
            assert len(ktrees) == 1, "connected piece must sit in one quotient tree"
            troot = ktrees[0]
            j = troot.v
            vm, cm, sm = tri[j]
            cmk, smk = cm & comp, sm & comp
            h2 = comp & ~vm
            tri2 = {
                i: (vm2, cm2 & h2, sm2 & h2)
                for i, (vm2, cm2, sm2) in tri.items()
                if i != j and vm2 & h2
            }
            sub = convert(h2, tri2, troot.children)
            keep = comp & ~(cmk | smk)
            restricted = _restrict_nested(sub, keep)
            leaves = []
            pool2 = comp & ~smk
            while pool2:
                piece = reach_mask(g, pool2 & -pool2, pool2)
                pool2 &= ~piece
                if piece & ~cmk == 0:
                    leaves.append(_Leaf(piece))
            if smk == 0:
                assert not restricted
                roots_out.extend(leaves)
                continue
            path = sorted(bits(smk))
            top = _Internal(path[0])
            cur = top
            for v in path[1:]:
                nxt = _Internal(v)
                cur.children.append(nxt)
                cur = nxt
            cur.children.extend(restricted)
            cur.children.extend(leaves)
            roots_out.append(top)
        return roots_out

    def _restrict_q(trees: list, idx: set) -> list:
        out = []
        for tree in trees:
            sub = _restrict_q(tree.children, idx)
            if tree.v in idx:
                node = _Internal(tree.v)
                node.children = sub
                out.append(node)
            else:
                out.extend(sub)
        return out

    roots = convert(g.full_mask(), triples, qroots)
    nodes: list[ForestNode] = []

    def commit(tree, parent: int):
        if isinstance(tree, _Leaf):
            nodes.append(ForestNode(set_of(tree.bag), parent, True))
            return
        i = len(nodes)
        nodes.append(ForestNode(frozenset({tree.v}), parent, False))
        if not tree.children:
            nodes.append(ForestNode(frozenset(), i, True))
        for c in tree.children:
            commit(c, i)

    if g.n == 0:
        nodes.append(ForestNode(frozenset(), -1, True))
    for r in roots:
        commit(r, -1)
    return EliminationForest(nodes, dec.cls)


# ---------------------------------------------------------------------------
# conversion: restricted separation decomposition + quotient TD -> tree H-dec.
# ---------------------------------------------------------------------------


def tree_decomp_from_sepdecomp(
    g: Graph, dec: SeparationDecomposition, quotient_td: TreeHDecomposition
) -> TreeHDecomposition:
    """Replace every quotient vertex by its downstairs separator V_t & S_t
    plus the upstairs separators of the pieces feeding V_t \\ S_t, then hang
    one leaf per piece holding the base part V_t \\ S_t."""
    if not dec.restricted:
        raise ValueError("tree decomposition conversion needs a restricted input")
    if quotient_td.L:
        raise ValueError("quotient decomposition must be standard")
    nt = len(dec.nodes)
    vmask = [mask_of(n.V) for n in dec.nodes]
    smask = [mask_of(n.S) for n in dec.nodes]
    down = [vmask[t] & smask[t] for t in range(nt)]
    upbag = list(down)
    for t in range(nt):
        base_part = vmask[t] & ~smask[t]
        if not base_part:
            continue
        nb = neighborhood_mask(g, base_part)
        for s in range(nt):
            if s != t and nb & vmask[s]:
                upbag[t] |= down[s]
    qmask = 0
    for t in range(nt):
        qmask |= down[t]
    L = set_of(g.full_mask() & ~qmask)
    parents = list(quotient_td.parents)
    bags = []
    for b in quotient_td.bags:
        m = 0
        for t in b:
            m |= upbag[t]
        bags.append(set_of(m))
    host: dict[int, int] = {}
    for x in range(len(quotient_td.bags)):
        for t in quotient_td.bags[x]:
            if t not in host:
                host[t] = x
    for t in range(nt):
        base_part = vmask[t] & ~smask[t]
        if not base_part:
            continue
        x = host[t]
        parents.append(x)
        bags.append(bags[x] | set_of(base_part))
    return TreeHDecomposition(parents, bags, frozenset(L), dec.cls)


# ---------------------------------------------------------------------------
# end-to-end pipelines
# ---------------------------------------------------------------------------


@dataclass
class EdForestResult:
    forest: EliminationForest
    promise_ok: bool
    quotient_depths: list[int]
    exact_quotient: bool


@dataclass
class TreeDecompResult:
    decomposition: TreeHDecomposition
    promise_ok: bool
    quotient_widths: list[int]
    exact_quotient: bool


def build_ed_forest(g: Graph, k: int, cls: GraphClassSpec) -> EdForestResult:
    """Per component: separation decomposition, exact treedepth of the
    quotient, conversion.  Promise check: quotient treedepth <= k+1."""
    nodes: list[ForestNode] = []
    qdepths = []
    exact = True
    ok = True
    for comp in connected_components(g):
        sub, mapping = g.induced(comp)
        dec = build_separation_decomposition(sub, k, cls, restricted=False)
        q, _ = quotient(sub, dec)
        td = exact_treedepth(q)
        exact = exact and td.exact
        qdepths.append(td.value)
        if td.value > k + 1:
            ok = False
        forest = ed_forest_from_sepdecomp(sub, dec, td.forest).relabel(mapping)
        offset = len(nodes)
        for node in forest.nodes:
            nodes.append(
                ForestNode(node.bag, node.parent + offset if node.parent >= 0 else -1, node.leaf)
            )
    if g.n == 0:
        nodes.append(ForestNode(frozenset(), -1, True))
    return EdForestResult(EliminationForest(nodes, cls), ok, qdepths, exact)


def build_tree_h_decomposition(g: Graph, k: int, cls: GraphClassSpec) -> TreeDecompResult:
    """Per component: restricted separation decomposition, exact treewidth of
    the quotient, conversion; components joined under a fresh empty root.
    Promise check: quotient treewidth <= k+1."""
    pieces: list[TreeHDecomposition] = []
    qwidths = []
    exact = True
    ok = True
    for comp in connected_components(g):
        sub, mapping = g.induced(comp)
        dec = build_separation_decomposition(sub, k, cls, restricted=True)
        q, _ = quotient(sub, dec)
        tw = exact_treewidth(q)
        exact = exact and tw.exact
        qwidths.append(tw.value)
        if tw.value > k + 1:
            ok = False
        pieces.append(tree_decomp_from_sepdecomp(sub, dec, tw.decomposition).relabel(mapping))
    if not pieces:
        dec0 = TreeHDecomposition([-1], [frozenset()], frozenset(), cls)
        return TreeDecompResult(dec0, ok, qwidths, exact)
    if len(pieces) == 1:
        return TreeDecompResult(pieces[0], ok, qwidths, exact)
    parents = [-1]
    bags = [frozenset()]
    L: set[int] = set()
    for piece in pieces:
        offset = len(parents)
        root = piece.root()
        for i, p in enumerate(piece.parents):
            if i == root:
                parents.append(0)
            else:
                parents.append(p + offset)
            bags.append(piece.bags[i])
        L |= piece.L
    # parents must precede children: renumber by BFS order
    return TreeDecompResult(
        _renumber(TreeHDecomposition(parents, bags, frozenset(L), cls)), ok, qwidths, exact
    )


def _renumber(dec: TreeHDecomposition) -> TreeHDecomposition:
    order = []
    ch: list[list[int]] = [[] for _ in dec.parents]
    root = -1
    for i, p in enumerate(dec.parents):
        if p < 0:
            root = i
        else:
            ch[p].append(i)
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        for c in reversed(ch[x]):
            stack.append(c)
    inv = {old: new for new, old in enumerate(order)}
    parents = [
        inv[dec.parents[old]] if dec.parents[old] >= 0 else -1 for old in order
    ]
    bags = [dec.bags[old] for old in order]
    return type(dec)(parents, bags, dec.L, dec.cls)


# ---------------------------------------------------------------------------
# elimination forest -> tree decomposition, and the nice normal form
# ---------------------------------------------------------------------------


def ed_to_tree_decomposition(forest: EliminationForest) -> TreeHDecomposition:
    """In-order leaf path construction: leaves chained as a path, each with a
    pendant child holding its root-path vertices plus its own bag."""
    ch = forest.children()
    leaves = []
    anc_sets: list[frozenset[int]] = [frozenset()] * len(forest.nodes)

    def walk(i: int, above: frozenset[int]):
        anc_sets[i] = above
        if forest.nodes[i].leaf:
            leaves.append(i)
            return
        below = above | forest.nodes[i].bag
        for c in sorted(ch[i]):
            walk(c, below)

    for r in forest.roots():
        walk(r, frozenset())
    L = forest.base_vertices()
    if not leaves:
        return TreeHDecomposition([-1], [frozenset()], L, forest.cls)
    parents = []
    bags = []
    for pos, leaf in enumerate(leaves):
        parents.append(-1 if pos == 0 else 2 * (pos - 1))
        bags.append(anc_sets[leaf])
        parents.append(2 * pos)
        bags.append(anc_sets[leaf] | forest.nodes[leaf].bag)
    return TreeHDecomposition(parents, bags, L, forest.cls)


def make_nice(dec: TreeHDecomposition) -> NiceTreeHDecomposition:
    """Normalize to the nice form: binary tree, equal-bag joins, single-vertex
    bag steps, base parts stripped just above dedicated leaves.

    The scaffold is the input tree on the bags minus L, compressed so that
    adjacent bags are incomparable; the base part of each original bag is
    spliced back with the three-node gadget under a surviving host bag.
    Width never increases, L is preserved exactly, and the node count is at
    most ALPHA * k * n for an input of width k-1 on an n-vertex graph
    (k, n >= 1).
    """
    L = dec.L
    base_parts = [
        (dec.bags[x] - L, dec.bags[x] & L)
        for x in range(len(dec.bags))
        if dec.bags[x] & L
    ]

    # -- compress the scaffold: drop L, contract comparable adjacent bags ---
    sbags = {x: dec.bags[x] - L for x in range(len(dec.bags))}
    sparent = dict(enumerate(dec.parents))
    schildren: dict[int, set[int]] = {x: set() for x in sbags}
    for x, p in sparent.items():
        if p >= 0:
            schildren[p].add(x)
    changed = True
    while changed:
        changed = False
        for x in sorted(sbags):
            p = sparent[x]
            if p < 0:
                continue
            if sbags[x] <= sbags[p]:
                keep, drop = p, x
            elif sbags[p] < sbags[x]:
                keep, drop = x, p
                # x replaces its parent: x adopts p's place in the tree
                sparent[x] = sparent[p]
                if sparent[p] >= 0:
                    schildren[sparent[p]].discard(p)
                    schildren[sparent[p]].add(x)
                schildren[p].discard(x)
                schildren[x] |= schildren[p]
                for c in schildren[p]:
                    sparent[c] = x
                del sbags[p], sparent[p], schildren[p]
                changed = True
                break
            else:
                continue
            # drop is a child of keep with a subset bag
            schildren[keep].discard(drop)
            schildren[keep] |= schildren[drop]
            for c in schildren[drop]:
                sparent[c] = keep
            del sbags[drop], sparent[drop], schildren[drop]
            changed = True
            break
    sroot = next(x for x in sbags if sparent[x] < 0)

    # -- emit the nice structure -------------------------------------------
    parents: list[int] = []
    bags: list[frozenset[int]] = []

    def new_node(bag: frozenset[int], parent: int) -> int:
        parents.append(parent)
        bags.append(bag)
        return len(parents) - 1

    def build(x: int, parent: int) -> int:
        """Gadget for scaffold node x; the returned top node has bag sbags[x]."""
        bx = sbags[x]
        kids = sorted(schildren[x])
        if not kids:
            return new_node(bx, parent)
        if len(kids) == 1:
            return _leg(bx, kids[0], parent)
        top = new_node(bx, parent)
        _attach_join(top, bx, kids)
        return top

    def _leg(bx: frozenset[int], c: int, parent: int) -> int:
        """A node with bag bx above the gadget of c, stepping one vertex at a
        time; compression guarantees bx != sbags[c] here only for scaffold
        edges, but equal bags are tolerated (the gadget top is reused)."""
        bc = sbags[c]
        if bx == bc:
            return build(c, parent)
        seq = []
        cur = bx
        for v in sorted(bx - bc):
            cur = cur - {v}
            seq.append(cur)
        for v in sorted(bc - bx):
            cur = cur | {v}
            seq.append(cur)
        top = new_node(bx, parent)
        prev = top
        for b in seq[:-1]:
            prev = new_node(b, prev)
        sub = build(c, prev)
        assert bags[sub] == bc and len(bags[prev] ^ bc) == 1
        return top

    def _attach_join(node: int, bx: frozenset[int], items: list[int]):
        """Give `node` (bag bx) exactly two children with bag bx each."""
        mid = (len(items) + 1) // 2
        for half in (items[:mid], items[mid:]):
            if len(half) == 1:
                _leg(bx, half[0], node)
            else:
                sub = new_node(bx, node)
                _attach_join(sub, bx, half)

    build(sroot, -1)

    # -- splice base parts (two equal-bag copies plus a widened leaf) -------
    for need, part in base_parts:
        host = -1
        for i in range(len(parents)):
            if need <= bags[i]:
                host = i
                break
        assert host >= 0, "every original bag survives the scaffold"
        old_kids = [c for c in range(len(parents)) if parents[c] == host]
        t1 = new_node(bags[host], host)
        t2 = new_node(bags[host], host)
        for c in old_kids:
            parents[c] = t1
        new_node(bags[host] | part, t2)

    return _renumber(NiceTreeHDecomposition(parents, bags, L, dec.cls))


# ---------------------------------------------------------------------------
# kappa / pi
# ---------------------------------------------------------------------------


def kappa_pi(dec: NiceTreeHDecomposition, t: int) -> tuple[frozenset[int], frozenset[int]]:
    """(kappa(t), pi(t)): pi is the parent bag (empty at the root); kappa is
    the union of subtree bags minus pi."""
    parent = dec.parents[t]
    pi = dec.bags[parent] if parent >= 0 else frozenset()
    ch = dec.children()
    acc: set[int] = set()
    stack = [t]
    while stack:
        x = stack.pop()
        acc |= dec.bags[x]
        stack.extend(ch[x])
    return frozenset(acc) - pi, pi
