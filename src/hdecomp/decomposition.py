"""Decomposition structures and pipelines.

Builds separation decompositions by repeated extremal separation finding,
growing their quotient graphs node by node, computes exact
treedepth/treewidth of (small) quotients, where a cap of k+1 turns the one
search into the promise check "quotient treedepth/treewidth <= k+1" that
keeps its structure when it passes, and converts the results into
validated elimination forests and tree decompositions with base
components, and into the nice normal form, which the API and the JSON
reader and validator keep; the dynamic programming solvers read any valid
tree H-decomposition as it is.  One lazy build object serves both pipelines.

Conventions:
  * elimination forests follow the edge-depth convention; standard forests
    (cls=None) carry empty leaf bags below every childless chain node so the
    edge-depth equals vertex-counting treedepth;
  * all tie-breaks are smallest-id-first;
  * `make_nice` guarantees node count <= ALPHA * k * n for an input of
    width k-1 on an n-vertex graph (n, k >= 1).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .graphs import (
    Graph,
    GraphClassSpec,
    _check_member_size,
    bits,
    components,
    connected_components,
    is_member,
    mask_of,
    neighborhood_mask,
    reach_mask,
    set_of,
)
from .separation import (
    Separation,
    _bip_masks,
    _forbidden_masks,
    _restricted_masks,
    find_extremal_separation,
)
from .tree import children, path_masks, preorder, renumber

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
        return children([node.parent for node in self.nodes])

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

    def validate(self, g: Graph) -> list[str]:
        errs = []
        n_nodes = len(self.nodes)
        # a dangling parent is reported below, not followed
        ch = children([node.parent if node.parent < n_nodes else -1 for node in self.nodes])
        seen: set[int] = set()
        for i, node in enumerate(self.nodes):
            if node.parent >= n_nodes:
                errs.append(f"node {i}: dangling parent")
                continue
            if node.parent >= i:
                errs.append(f"node {i}: parent {node.parent} does not precede it")
            if any(not 0 <= v < g.n for v in node.bag):
                errs.append(f"node {i}: bag vertex out of range")
                continue
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
        # ancestor-descendant condition for edges: the node of one end lies
        # on the root path of the other's, i.e. a is above b when b's
        # preorder number falls in a's subtree interval [tin[a], tin[a] + size[a])
        owner = [0] * g.n
        for i, node in enumerate(self.nodes):
            for v in node.bag:
                owner[v] = i
        tin = [0] * n_nodes
        for pos, i in enumerate(preorder(ch, self.roots())):
            tin[i] = pos
        size = [1] * n_nodes
        for i in range(n_nodes - 1, -1, -1):  # parents precede children
            if self.nodes[i].parent >= 0:
                size[self.nodes[i].parent] += size[i]
        for u, v in g.edges:
            a, b = owner[u], owner[v]
            if not (tin[a] <= tin[b] < tin[a] + size[a] or tin[b] <= tin[a] < tin[b] + size[b]):
                errs.append(f"edge ({u},{v}) crosses unrelated subtrees")
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
        return children(self.parents)

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
                # the empty base part is in every class
                if (base := b & self.L) and not is_member(g, self.cls, base):
                    errs.append(f"node {i}: bag's base part is not in the class")
        elif self.L:
            errs.append("standard decomposition must have empty L")
        return errs


class NiceTreeHDecomposition(TreeHDecomposition):
    kind = "nice"

    def steps(self) -> list[tuple[str, int] | str]:
        """The step each node takes from its children: ("leaf", -1),
        ("join", -1) over two equal bags, ("identity", -1) for the strip of
        L just above a base leaf, ("introduce", v) or ("forget", v) for one
        vertex outside L.  A node that takes none of these steps gets its
        error message (a str) in place of the pair.  The nice validator
        reports those messages; the DP does not read the steps."""
        ch = self.children()
        out: list[tuple[str, int] | str] = []
        for i, kids in enumerate(ch):
            bt = self.bags[i]
            if not kids:
                out.append(("leaf", -1))
            elif len(kids) > 2:
                out.append(f"node {i}: more than two children")
            elif len(kids) == 2:
                same = bt == self.bags[kids[0]] == self.bags[kids[1]]
                out.append(("join", -1) if same else f"node {i}: join children bags differ")
            else:
                (c,) = kids
                bc = self.bags[c]
                diff = bt ^ bc
                if len(diff) == 1 and not diff & self.L:
                    (v,) = diff
                    out.append(("introduce" if v in bt else "forget", v))
                elif not ch[c] and bt == bc - self.L and bc & self.L:
                    out.append(("identity", -1))
                else:
                    out.append(f"node {i}: single-child step is not a legal bag change")
        return out

    def validate(self, g: Graph) -> list[str]:
        errs = super().validate(g)
        if errs:
            return errs
        if self.bags[self.root()] & self.L:
            errs.append("root bag intersects L")
        return errs + [s for s in self.steps() if isinstance(s, str)]


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
        return children([node.parent for node in self.nodes])

    def validate(self, g: Graph) -> list[str]:
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
        # path[t]: the node ids on t's root path, t included
        path = path_masks([n.parent for n in self.nodes], [1 << t for t in range(len(self.nodes))])
        for u, v in g.edges:
            a, b = owner[u], owner[v]
            # one end lies in the separator of an ancestor of the other's node
            if a != b and not (
                path[b] >> a & 1 and u in self.nodes[a].S
                or path[a] >> b & 1 and v in self.nodes[b].S
            ):
                errs.append(f"edge ({u},{v}) violates the ancestor condition")
        ch = self.children()
        if g.n <= INSEPARABILITY_ORACLE_GUARD:
            for i, node in enumerate(self.nodes):
                if ch[i] and brute_separable(g, node.V, self.k1, self.cls) is not None:
                    errs.append(f"node {i}: non-leaf V_t is ({self.k1})-separable")
        if self.restricted:
            for i, node in enumerate(self.nodes):
                swallowed = sum(1 for s in bits(path[i] ^ 1 << i) if self.nodes[s].V <= node.C)
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
    if obj["kind"] != "forbidden-induced":
        raise ValueError(f"unknown class kind {obj['kind']!r}")
    for f in obj["family"]:
        _check_member_size(f["n"])
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
        raise ValueError("node ids, parents, bags, L, depth and width must be integers")
    return out


def _from_doc(doc):
    kind = doc["kind"]
    cls = _cls_from_json(doc["class"])
    nodes = sorted(doc["nodes"], key=lambda d: d["id"])
    if _ints(d["id"] for d in nodes) != list(range(len(nodes))):
        raise ValueError("node ids must be dense 0-based")
    parents = _ints(d["parent"] for d in nodes)
    bags = [_ints(d["bag"]) for d in nodes]
    leaves = [d["leaf"] for d in nodes]
    if min(parents, default=-1) < -1:
        raise ValueError("a parent must be -1 (a root) or a node id")
    if any(len(set(b)) < len(b) for b in bags):
        raise ValueError("a bag lists a vertex twice")
    if any(type(f) is not bool for f in leaves):
        raise ValueError("leaf flags must be true or false")
    if kind == "elimination-forest":
        forest = EliminationForest(
            [ForestNode(frozenset(b), p, f) for b, p, f in zip(bags, parents, leaves)], cls
        )
        if [forest.depth] != _ints([doc["depth"]]):
            raise ValueError("stored depth disagrees with the structure")
        return forest
    if kind in ("tree-h-decomposition", "nice"):
        klass = NiceTreeHDecomposition if kind == "nice" else TreeHDecomposition
        base = _ints(doc["L"])
        if len(set(base)) < len(base):
            raise ValueError("L lists a vertex twice")
        dec = klass(parents, bags, frozenset(base), cls)
        if [dec.width] != _ints([doc["width"]]):
            raise ValueError("stored width disagrees with the structure")
        if leaves != [not c for c in dec.children()]:
            raise ValueError("leaf flags disagree with the structure")
        return dec
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# exact treedepth / treewidth of small graphs
# ---------------------------------------------------------------------------


@dataclass
class TreedepthResult:
    value: int
    forest: Optional[EliminationForest]
    exact: bool


@dataclass
class TreewidthResult:
    value: int
    decomposition: Optional[TreeHDecomposition]
    exact: bool


TD_EXACT_GUARD = 20
TW_EXACT_GUARD = 18


def exact_treedepth(g: Graph, cap: Optional[int] = None) -> TreedepthResult:
    """Treedepth in the vertex-count convention plus a realizing standard
    elimination forest (empty auxiliary leaves appended).

    Exact (memoized branching over roots of connected subgraphs) up to
    TD_EXACT_GUARD vertices; beyond that a single-vertex-separator heuristic
    upper bound is returned with exact=False, and the cap is ignored.
    Within the guard, a treedepth above the cap is returned as cap + 1 with
    no forest, and one within it with the forest of the uncapped call: the
    recovery compares every value it reads with one below the cap, so the
    capped values pick the same roots.
    """
    exact = g.n <= TD_EXACT_GUARD
    full = g.full_mask()
    if exact:
        td_parts = _td_search(g, g.n if cap is None else cap)
        value = td_parts(full)
        if cap is not None and value > cap:
            return TreedepthResult(cap + 1, None, True)

    def heuristic_root(mask: int) -> int:
        best_v, best_sz = -1, g.n + 1
        for v in bits(mask):
            worst = max(c.bit_count() for c in components(g, mask & ~(1 << v)))
            if worst < best_sz:
                best_v, best_sz = v, worst
        return best_v

    nodes: list[ForestNode] = []
    if g.n == 0:
        nodes.append(ForestNode(frozenset(), -1, True))
    # depth-first: (component, parent node), the first component on top
    stack = [(comp, -1) for comp in reversed(components(g, full))]
    while stack:
        comp, parent = stack.pop()
        i = len(nodes)
        if comp & (comp - 1) == 0:
            nodes.append(ForestNode(frozenset({comp.bit_length() - 1}), parent, False))
            nodes.append(ForestNode(frozenset(), i, True))
            continue
        if exact:
            target = td_parts(comp)
            root = -1
            for v in bits(comp):
                if 1 + td_parts(comp & ~(1 << v)) == target:
                    root = v
                    break
        else:
            root = heuristic_root(comp)
        nodes.append(ForestNode(frozenset({root}), parent, False))
        stack += [(c, i) for c in reversed(components(g, comp & ~(1 << root)))]
    forest = EliminationForest(nodes, None)
    assert not exact or forest.depth == value
    return TreedepthResult(forest.depth, forest, exact)


def _component_search(g: Graph, ub: int, conn):
    """The search that both quotient parameters share: f(s) is the max of
    f(C) over the components C of G[s], and conn(C, N(C)) gives f(C) for a
    connected C, at most ub + 1.  Returns (parts, memo): parts(s) is f(s)
    when that is at most ub and ub + 1 otherwise, and memo[s] holds each
    value found plus one, 0 while unknown: one byte per set, since a value
    plus one is at most n + 1 <= 21 within the exact guards."""
    n = g.n
    above = ub + 1
    # one union table per half of the ids: N(x) is the neighbourhood union
    # lo_nbr[x & lo_ids] | hi_nbr[x >> half]
    half = (n + 1) // 2
    lo_ids = (1 << half) - 1
    lo_nbr, hi_nbr = [0] * (1 << half), [0] * (1 << n - half)
    for first, table in ((0, lo_nbr), (half, hi_nbr)):
        for x in range(1, len(table)):
            b = x & -x
            table[x] = table[x ^ b] | g._adj_masks[first + b.bit_length() - 1]
    memo = bytearray(1 << n)

    def parts(mask: int) -> int:
        value = memo[mask] - 1
        if value >= 0:
            return value
        value = 0
        pool = mask
        # conn never exceeds `above`, so the first component there decides
        while pool and value < above:
            # the hot loop: grow a component by whole neighbourhoods
            comp = pool & -pool
            while True:
                nb = lo_nbr[comp & lo_ids] | hi_nbr[comp >> half]
                grown = comp | nb & pool
                if grown == comp:
                    break
                comp = grown
            pool ^= comp
            val = memo[comp] - 1
            if val < 0:
                val = conn(comp, nb & ~comp)
                memo[comp] = val + 1
            if val > value:
                value = val
        memo[mask] = value + 1
        return value

    return parts, memo


def _td_search(g: Graph, ub: int):
    """`exact_treedepth`'s search capped at ub: the function s -> td(G[s])
    when that is at most ub, and ub + 1 otherwise."""
    adj = g._adj_masks
    # every td(C) above ub is `above`
    above = ub + 1
    # a connected C holding a vertex of degree < ub in g cannot be cut by
    # its least degree
    low = sum(1 << v for v in range(g.n) if adj[v].bit_count() < ub)

    def td_conn(mask: int, nbrs: int) -> int:
        # one pass over C: hi has the most neighbours in C and lo the
        # fewest, the smallest id on ties
        hi, dhi, lo, dlo = 0, -1, 0, g.n
        m = mask
        while m:
            b = m & -m
            m ^= b
            d = (adj[b.bit_length() - 1] & mask).bit_count()
            if d > dhi:
                hi, dhi = b, d
            if d < dlo:
                lo, dlo = b, d
        # td(C) > tw(C) >= the least degree in C
        if not mask & low and dlo >= ub:
            return above
        # td(C - v) <= td(C) <= 1 + td(C - v) for every v in a connected C:
        # once the best upper bound meets the largest lower bound, the
        # remaining roots cannot change the value.  hi tends to give the
        # best root and lo the largest lower bound, so they are tried
        # first, then the rest in id order.  A singleton's one root gives 1.
        best, lb = above, 0
        b, rest = hi, mask ^ hi
        while b:
            sub = td_parts(mask ^ b)
            if sub < best - 1:
                best = sub + 1
            if sub > lb:
                lb = sub
            if best == lb:
                break
            b = rest & lo or rest & -rest
            rest ^= b
        return best

    td_parts, _ = _component_search(g, ub, td_conn)
    return td_parts


def _td_from_elimination_order(g: Graph, order: Sequence[int]) -> TreeHDecomposition:
    """Standard tree decomposition realized by an elimination order."""
    n = g.n
    adj = list(g._adj_masks)
    pos = {v: i for i, v in enumerate(order)}
    bags: list[frozenset[int]] = []
    parents: list[int] = []  # the first fill neighbour to go, else the last vertex
    for v in order:
        nb = adj[v]
        bags.append(frozenset({v}) | set_of(nb))
        parents.append(min((pos[a] for a in bits(nb)), default=n - 1))
        for a in bits(nb):  # only v's neighbours hold v
            adj[a] = (adj[a] | nb) & ~(1 << a | 1 << v)
    parents[-1] = -1
    # reverse so parents precede children (root = last eliminated)
    order = range(n - 1, -1, -1)
    return TreeHDecomposition(renumber(parents, order), bags[::-1], frozenset(), None)


def exact_treewidth(g: Graph, cap: Optional[int] = None) -> TreewidthResult:
    """Exact treewidth by a memoized search over connected vertex sets,
    capped at the min-fill width (guarded to TW_EXACT_GUARD vertices;
    min-fill heuristic beyond, where the cap is ignored).  Within the
    guard, a treewidth above the cap is returned as cap + 1 with no
    decomposition, and one within it with the decomposition of the
    uncapped call (the recovery below reads only values within it).

    f(s) is the least, over the orders that eliminate the set s first, of
    the largest degree a vertex of s has when it is eliminated, and the
    treewidth is f(V). The search rests on two identities (Bodlaender,
    Fomin, Koster, Kratsch and Thilikos, "On exact algorithms for
    treewidth", TALG 2012):

    - Value: f(s) is the max of f(C) over the components C of G[s], and for
      a connected C, f(C) = max(|N(C)|, min over v in C of f(C - v)). This
      is the f of the subset DP over elimination prefixes, f(s) = min over
      v of max(f(s - v), Q(s - v, v)), because the degree Q(s - v, v) of v
      eliminated after s - v is |N(C_v)|, C_v being v's component of G[s].
    - Order: the order is recovered from V downwards. At the state s it
      eliminates last the smallest v with f(C_v - v) <= f(s), which is the
      smallest-id minimiser of that DP; so the decomposition is the DP's.
    """
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
    # the recovery path never leaves the sets with f <= f(V) <= the
    # min-fill width, so the search is capped there, or at a lower cap
    ub = _td_from_elimination_order(g, _min_fill_order(g)).width
    if cap is not None:
        ub = min(ub, cap)
    tw_parts = _tw_search(g, ub)
    value = tw_parts(full)
    if value > ub:
        return TreewidthResult(cap + 1, None, True)
    # recover an optimal elimination order (first eliminated first)
    order = []
    s = full
    while s:
        fs = tw_parts(s)
        m = s
        while m:
            b = m & -m
            m ^= b
            if tw_parts(reach_mask(g, b, s) ^ b) <= fs:
                break
        order.append(b.bit_length() - 1)
        s ^= b
    order.reverse()
    dec = _td_from_elimination_order(g, order)
    assert dec.width == value
    return TreewidthResult(value, dec, True)


def _tw_search(g: Graph, ub: int):
    """`exact_treewidth`'s search capped at ub: the function s -> f(s) when
    f(s) <= ub, and ub + 1 otherwise."""
    n = g.n
    adj = g._adj_masks
    # every f(s) above ub is `above`
    above = ub + 1
    # below[d]: the vertices of degree < d
    below = [sum(1 << v for v in range(n) if adj[v].bit_count() < d) for d in range(n + 1)]

    def tw_conn(c: int, nbrs: int) -> int:
        # f(C) for a connected C with |N(C)| = nc. The sandwich: the first
        # vertex of C eliminated keeps its degree, so lo = max(nc, the least
        # degree in C) <= f(C), and once a v meets lo no later v can lower
        # the value. "lo > ub" and "best <= lo" are read off `below`.
        nc = nbrs.bit_count()
        if nc > ub or not c & below[above]:
            return above
        best = above
        m = c
        while m:
            b = m & -m
            m ^= b
            # the memo read first saves a call on a hit
            sub = memo[c ^ b] - 1
            if sub < 0:
                sub = tw_parts(c ^ b)
            if sub < best:
                best = sub
                if best <= nc or not c & below[best]:
                    break
        return nc if nc > best else best

    tw_parts, memo = _component_search(g, ub, tw_conn)
    return tw_parts


def _min_fill_order(g: Graph) -> list[int]:
    """Min-fill elimination order, smallest id on ties.

    The fill counts sit in a min-heap of (fill, v) whose stale entries are
    skipped, so the order is the one a full rescan per step would give.
    Eliminating v changes the count of a vertex only when the vertex loses
    v as a neighbour or a fill edge joins two of its neighbours; so only
    N(v) and the common neighbours of each fill edge's ends are rescored.
    """
    adj = list(g._adj_masks)
    alive = g.full_mask()

    def fill(v: int) -> int:
        # the missing pairs of v's alive neighbours, each counted twice
        nb = adj[v] & alive
        f = 0
        m = nb
        while m:
            b = m & -m
            f += (nb & ~adj[b.bit_length() - 1] & ~b).bit_count()
            m ^= b
        return f

    score = [fill(v) for v in range(g.n)]
    heap = [(f, v) for v, f in enumerate(score)]
    heapq.heapify(heap)
    order = []
    while heap:
        f, v = heapq.heappop(heap)
        if f != score[v] or not alive >> v & 1:
            continue
        nb = adj[v] & alive
        changed = nb
        for a in bits(nb):
            new = nb & ~adj[a] & ~(1 << a)  # the fill edges at a
            for c in bits(new):
                changed |= adj[a] & adj[c]
            adj[a] |= new
        alive &= ~(1 << v)
        order.append(v)
        for u in bits(changed & alive):
            f = fill(u)
            if f != score[u]:
                score[u] = f
                heapq.heappush(heap, (f, u))
    return order


# ---------------------------------------------------------------------------
# separation decomposition builder
# ---------------------------------------------------------------------------


def _extremal_finder(cls: GraphClassSpec, restricted: bool, k: int):
    """The builder's mask kernel (g, zmask, k, family) -> (C, S) or None,
    and k2, which bounds its |S| plus the vertex the extremal step adds."""
    if cls.kind == GraphClassSpec.FORBIDDEN:
        # the exact finder satisfies the restricted guarantee for free; g and
        # cls are fixed within a build, so its obstruction searches are shared
        images: dict[int, Optional[int]] = {}

        def finder(g, z, kk, family):
            return _forbidden_masks(g, z, kk, cls, images)

        return finder, k + 1
    # G is connected, so Z's component is all of G
    if not restricted:

        def finder(g, z, kk, family):
            return _bip_masks(g, z, kk, g.full_mask())

        return finder, cls.h_value(k) + 1

    # family: the ancestors' V masks, whose preconditions the builder checks
    # once per node
    def finder(g, z, kk, family):
        return _restricted_masks(g, z, kk, family, _bip_masks, g.full_mask())

    return finder, cls.h_value(k) + k + 1


def build_separation_decomposition(
    g: Graph,
    k: int,
    cls: GraphClassSpec,
    restricted: bool = False,
    *,
    stop: Optional[Callable[[int], bool]] = None,
) -> SeparationDecomposition:
    """Recursive construction of a (restricted) (cls, k, k2)-separation
    decomposition of a connected graph; k2 is determined by the class finder.

    New regions are attached under the deepest non-saturated node whose
    root-path separator union covers the region's neighborhood (ties by
    smallest id); the region seed is its smallest vertex.  `stop`, when
    given, is called with each new node's V mask, and the build ends at
    the first True, leaving the nodes made so far.
    """
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    if len(connected_components(g)) != 1:
        raise ValueError("graph must be connected (split components first)")
    finder, k2 = _extremal_finder(cls, restricted, k)
    nodes: list[SepNode] = []
    parents: list[int] = []
    saturated: list[bool] = []
    path_union: list[int] = []  # root-path union of V_t & S_t masks
    depth: list[int] = []
    adj = g._adj_masks

    def choose_parent(need: int) -> int:
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

    # the restricted finder's family preconditions, checked once per node
    # instead of on every call: each V is connected, each V and each region
    # is disjoint from every earlier V
    vmask: list[int] = []
    used = 0  # union of the V masks so far
    # each region is stacked with N(parent region) | Z, which holds N(region)
    stack = [(g.full_mask(), 0)]
    while stack:
        region, cand = stack.pop()
        if region & used:
            raise ValueError("family sets must be disjoint from Z")
        need = mask_of(v for v in bits(cand) if adj[v] & region)  # N(region)
        parent = choose_parent(need) if nodes else -1
        family = []  # ancestor V masks, deepest first
        t = parent
        while t >= 0:
            family.append(vmask[t])
            t = parents[t]
        zmask, cmask, smask, certified = find_extremal_separation(
            g, region, region & -region, k, family, finder
        )
        if zmask & used:
            raise ValueError("family sets must be pairwise disjoint")
        if reach_mask(g, zmask & -zmask, zmask) != zmask:
            raise ValueError("family sets must be connected")
        assert smask.bit_count() <= k2, "separator exceeds the bound k2"
        used |= zmask
        vmask.append(zmask)
        nodes.append(SepNode(set_of(zmask), set_of(cmask), set_of(smask), parent))
        parents.append(parent)
        saturated.append(zmask == region and not certified)
        pu = zmask & smask
        if parent >= 0:
            pu |= path_union[parent]
        path_union.append(pu)
        depth.append(0 if parent < 0 else depth[parent] + 1)
        if stop is not None and stop(zmask):
            break
        stack.extend((c, need | zmask) for c in reversed(components(g, region & ~zmask)))
    return SeparationDecomposition(nodes, k, k2, restricted, cls)


class _Quotient:
    """The quotient of a separation decomposition, grown as it is built:
    `add` takes each node's V mask in node order, and node t becomes
    quotient vertex t.  The V masks must be connected and disjoint."""

    def __init__(self, g: Graph):
        self.g = g
        self.owner = [0] * g.n  # the node whose V holds each covered vertex
        self.covered = 0
        self.nbrs: list[int] = []  # each node's quotient neighbours

    def add(self, vmask: int) -> None:
        t = len(self.nbrs)
        nb = mask_of(self.owner[v] for v in bits(neighborhood_mask(self.g, vmask, self.covered)))
        self.nbrs.append(nb)
        for v in bits(vmask):
            self.owner[v] = t
        self.covered |= vmask
        for s in bits(nb):
            self.nbrs[s] |= 1 << t

    def graph(self) -> Graph:
        return Graph(len(self.nbrs), [(s, t) for t, nb in enumerate(self.nbrs) for s in bits(nb & (1 << t) - 1)])


def _not_star_forest(nbrs: list[int]) -> bool:
    """Whether a quotient with these neighbour masks, which had no edge
    between two vertices of degree >= 2 before its newest vertex came, has
    one now, so that it is not a star forest.  A new such edge is at the
    newest vertex or at a neighbour of it whose degree grew, so it has an
    end among those neighbours."""

    def big(s: int) -> int:
        return nbrs[s] & (nbrs[s] - 1)

    return any(big(s) and any(big(r) for r in bits(nbrs[s])) for s in bits(nbrs[-1]))


def quotient(g: Graph, dec: SeparationDecomposition) -> tuple[Graph, list[int]]:
    """Contract each V_t (in node order) to a single vertex; `dec` must be
    valid (`SeparationDecomposition.validate` checks that the V_t are
    nonempty, connected and partition V(G))."""
    qt = _Quotient(g)
    for node in dec.nodes:
        qt.add(mask_of(node.V))
    return qt.graph(), qt.owner


# ---------------------------------------------------------------------------
# conversion: separation decomposition + quotient forest -> elimination forest
# ---------------------------------------------------------------------------


def ed_forest_from_sepdecomp(
    g: Graph, dec: SeparationDecomposition, quotient_forest: EliminationForest
) -> EliminationForest:
    """Turn an elimination forest of the quotient graph into an elimination
    forest of G with class base components (induction of the depth-d*k2
    conversion: the quotient root's separator becomes a rooted path, the
    pieces inside C_j become leaves, the rest recurses).

    The output is emitted in depth-first preorder.  A work item is a
    connected vertex set H plus `keep`, the vertices outside C_j | S_j of
    every enclosing piece j: the conversion of H drops the other vertices
    (they hang elsewhere), and the children of a dropped path vertex attach
    to its nearest kept ancestor.
    """
    if quotient_forest.cls is not None:
        raise ValueError("quotient forest must be standard (cls=None)")
    nt = len(dec.nodes)
    qnodes = quotient_forest.nodes
    path = path_masks([n.parent for n in qnodes], [mask_of(n.bag) for n in qnodes])
    # quotient vertex -> mask of its ancestors
    qabove = {t: path[i] ^ 1 << t for i, n in enumerate(qnodes) if not n.leaf for t in n.bag}
    if set(qabove) != set(range(nt)):
        raise ValueError("quotient forest does not match the decomposition")
    vm = [mask_of(n.V) for n in dec.nodes]
    cm = [mask_of(n.C) for n in dec.nodes]
    sm = [mask_of(n.S) for n in dec.nodes]
    nodes: list[ForestNode] = []

    def emit(bag: frozenset[int], parent: int, leaf: bool) -> int:
        last = len(nodes) - 1
        if last >= 0 and not nodes[last].leaf and parent != last:
            nodes.append(ForestNode(frozenset(), last, True))  # auxiliary leaf
        nodes.append(ForestNode(bag, parent, leaf))
        return len(nodes) - 1

    if g.n == 0:
        emit(frozenset(), -1, True)
    full = g.full_mask()
    # (vertex set, keep, parent node, is a leaf bag); the first item on top
    stack = [(comp, full, -1, False) for comp in reversed(components(g, full))]
    while stack:
        h, keep, parent, leaf = stack.pop()
        if leaf:
            if h & keep:
                emit(set_of(h & keep), parent, True)
            continue
        pieces = mask_of(t for t in range(nt) if vm[t] & h)
        tops = [t for t in bits(pieces) if not qabove[t] & pieces]
        assert len(tops) == 1, "connected piece must sit in one quotient tree"
        j = tops[0]
        cmk, smk = cm[j] & h, sm[j] & h
        assert smk or not h & ~vm[j] & ~cmk, "nothing to hang the rest under"
        top = parent
        for v in bits(smk):
            if keep >> v & 1:
                top = emit(frozenset({v}), top, False)
        leaves = [p for p in components(g, h & ~smk) if not p & ~cmk]
        stack += [(p, keep, top, True) for p in reversed(leaves)]
        rest_keep = keep & ~(cmk | smk)
        stack += [(c, rest_keep, top, False) for c in reversed(components(g, h & ~vm[j]))]
    if nodes and not nodes[-1].leaf:
        nodes.append(ForestNode(frozenset(), len(nodes) - 1, True))
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
    owner = [0] * g.n  # the piece whose V_t holds each vertex; the V_t partition V(G)
    down, base = [], []
    for t, node in enumerate(dec.nodes):
        for v in node.V:
            owner[v] = t
        vm, sm = mask_of(node.V), mask_of(node.S)
        down.append(vm & sm)
        base.append(vm & ~sm)
    upbag = list(down)
    for t in range(nt):
        for v in bits(neighborhood_mask(g, base[t])):
            upbag[t] |= down[owner[v]]
    # the piece ids are checked before any is read
    if set().union(*quotient_td.bags) != set(range(nt)):
        raise ValueError("quotient decomposition does not match the decomposition")
    parents = list(quotient_td.parents)
    bags = []
    host: dict[int, int] = {}  # each piece's first quotient bag
    for x, b in enumerate(quotient_td.bags):
        m = 0
        for t in b:
            m |= upbag[t]
            host.setdefault(t, x)
        bags.append(set_of(m))
    L = 0
    for t in range(nt):
        if base[t]:
            L |= base[t]
            parents.append(host[t])
            bags.append(bags[host[t]] | set_of(base[t]))
    return TreeHDecomposition(parents, bags, set_of(L), dec.cls)


# ---------------------------------------------------------------------------
# end-to-end pipelines
# ---------------------------------------------------------------------------


class _Build:
    """One build: per component a separation decomposition, its quotient
    grown node by node (`_Quotient`, fed through the builder's `stop`
    callback) and, until a verdict fails, the subclass's quotient search
    capped at k + 1, which decides "quotient parameter <= k + 1" exactly up
    to the guards (past them it is the heuristic value) and keeps the
    structure when it passes.  Verdict and structure are each made when
    first read, and the order matters for an ed build at k = 1:
      * the structure first: one full build, whose capped searches give
        the verdict that a later `promise_ok` read returns;
      * `promise_ok` first: the build stops at the first node where the
        quotient so far, an induced subgraph of the final one, is not a
        star forest (`_not_star_forest`), which proves treedepth > 2 also
        past TD_EXACT_GUARD, and builds no later component.  A structure
        read after such a stop builds again in full.
    Auto mode reads the verdict first, `decompose` the structure.  A
    subclass gives `restricted`, `_exact(q, cap)` -> (value, structure or
    None), and the structure, joined from `_converted`."""

    restricted: bool

    def __init__(self, g: Graph, k: int, cls: GraphClassSpec):
        self.g, self.k, self.cls = g, k, cls

    def _decide(self, certify: bool = False):
        """(verdict, per component (subgraph, mapping, decomposition,
        quotient, capped search or None)), or (False, None) at a stop."""
        parts = []
        ok = True
        for comp in connected_components(self.g):
            sub, mapping = self.g.induced(comp)
            qt = _Quotient(sub)
            dec = build_separation_decomposition(
                sub, self.k, self.cls, self.restricted,
                stop=lambda vmask: qt.add(vmask) or certify and _not_star_forest(qt.nbrs),
            )
            if certify and _not_star_forest(qt.nbrs):  # stateless: the last node's answer
                return False, None
            q = qt.graph()
            res = self._exact(q, self.k + 1) if ok else None
            ok = ok and res[0] <= self.k + 1
            parts.append((sub, mapping, dec, q, res))
        return ok, parts

    @cached_property
    def _decided(self) -> tuple[bool, list]:
        return self._decide()

    @cached_property
    def promise_ok(self) -> bool:
        if self.k == 1 and not self.restricted and "_decided" not in self.__dict__:
            ok, parts = self._decide(certify=True)
            if parts is None:
                return False
            self._decided = ok, parts
        return self._decided[0]

    def _converted(self, convert):
        """Per component, its mapping into G and its conversion, with the
        uncapped search where the capped one left no structure."""
        for sub, mapping, dec, q, res in self._decided[1]:
            yield mapping, convert(sub, dec, (res and res[1]) or self._exact(q)[1])


class EdForestResult(_Build):
    restricted = False

    def _exact(self, q: Graph, cap: Optional[int] = None):
        res = exact_treedepth(q, cap)
        return res.value, res.forest

    @cached_property
    def forest(self) -> EliminationForest:
        """The components' forests side by side."""
        nodes: list[ForestNode] = []
        for mapping, piece in self._converted(ed_forest_from_sepdecomp):
            offset = len(nodes)
            for node in piece.nodes:
                parent = node.parent + offset if node.parent >= 0 else -1
                nodes.append(ForestNode(frozenset(mapping[v] for v in node.bag), parent, node.leaf))
        if self.g.n == 0:
            nodes.append(ForestNode(frozenset(), -1, True))
        return EliminationForest(nodes, self.cls)


class TreeDecompResult(_Build):
    restricted = True

    def _exact(self, q: Graph, cap: Optional[int] = None):
        res = exact_treewidth(q, cap)
        return res.value, res.decomposition

    @cached_property
    def decomposition(self) -> TreeHDecomposition:
        """The components' decompositions under a fresh empty root."""
        parents = [-1]
        bags = [frozenset()]
        L: list[int] = []
        for mapping, piece in self._converted(tree_decomp_from_sepdecomp):
            offset = len(parents)  # each piece's root hangs below the fresh root 0
            parents += [p + offset if p >= 0 else 0 for p in piece.parents]
            bags += [frozenset(mapping[v] for v in b) for b in piece.bags]
            L += [mapping[v] for v in piece.L]
        if len(self._decided[1]) == 1:  # one piece keeps its own root
            return TreeHDecomposition([p - 1 for p in parents[1:]], bags[1:], frozenset(L), self.cls)
        # number the nodes in depth-first preorder from the fresh root
        return _renumber(TreeHDecomposition(parents, bags, frozenset(L), self.cls))


def build_ed_forest(g: Graph, k: int, cls: GraphClassSpec) -> EdForestResult:
    """The promise check "quotient treedepth <= k+1" by `exact_treedepth`
    (at k = 1, read first, a star-forest test) and the forest (`_Build`)."""
    return EdForestResult(g, k, cls)


def build_tree_h_decomposition(g: Graph, k: int, cls: GraphClassSpec) -> TreeDecompResult:
    """The promise check "quotient treewidth <= k+1" by `exact_treewidth`
    and the decomposition, from restricted separation decompositions (`_Build`)."""
    return TreeDecompResult(g, k, cls)


def _renumber(dec: TreeHDecomposition) -> TreeHDecomposition:
    order = preorder(dec.children(), [dec.root()])
    return type(dec)(renumber(dec.parents, order), [dec.bags[x] for x in order], dec.L, dec.cls)


# ---------------------------------------------------------------------------
# elimination forest -> tree decomposition, and the nice normal form
# ---------------------------------------------------------------------------


def ed_to_tree_decomposition(forest: EliminationForest) -> TreeHDecomposition:
    """In-order leaf path construction: leaves chained as a path, each with a
    pendant child holding its root-path vertices plus its own bag."""
    nodes = forest.nodes
    path = path_masks([n.parent for n in nodes], [mask_of(n.bag) for n in nodes])
    leaves = [i for i in preorder(forest.children(), forest.roots()) if nodes[i].leaf]
    L = forest.base_vertices()
    if not leaves:
        return TreeHDecomposition([-1], [frozenset()], L, forest.cls)
    parents = []
    bags = []
    for pos, leaf in enumerate(leaves):
        above = set_of(path[nodes[leaf].parent]) if nodes[leaf].parent >= 0 else frozenset()
        parents.append(-1 if pos == 0 else 2 * (pos - 1))
        bags.append(above)
        parents.append(2 * pos)
        bags.append(above | nodes[leaf].bag)
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

    The input must be a valid tree H-decomposition, which this does not
    check (`validate` does; the DP reads the input's bags and never calls
    this).  Then a contraction leaves every moved child incomparable with
    its new parent: if x replaces p and c is another child of p, running
    intersection gives c & x <= p, so c <= x or x <= c would make c and p
    comparable.  So one ascending pass contracts every comparable pair.
    """
    L = dec.L
    base_parts = [
        (dec.bags[x] - L, dec.bags[x] & L)
        for x in range(len(dec.bags))
        if dec.bags[x] & L
    ]

    # -- compress the scaffold: drop L, contract comparable adjacent bags ---
    # One pass in ascending id.  A node strictly holding its parent takes the
    # parent's place and meets the next parent up; a node inside its parent
    # merges into it.  `into[x]` is the node x gave way to (x while it
    # survives), read with path halving, so find(up[x]) is x's parent.
    sbags = [b - L for b in dec.bags]
    up = list(dec.parents)
    into = list(range(len(up)))

    def find(x: int) -> int:
        while x >= 0 and into[x] != x:
            into[x] = into[into[x]]
            x = into[x]
        return x

    for x in range(len(up)):
        p = find(up[x])
        while p >= 0 and sbags[p] < sbags[x]:
            into[p] = x
            up[x] = up[p]
            p = find(up[x])
        if p >= 0 and sbags[x] <= sbags[p]:
            into[x] = p
    # node 0 is the input's root (parents precede children), so what it gave
    # way to is the scaffold's root
    sroot = find(0)
    skids = children([find(up[x]) if into[x] == x else -1 for x in range(len(up))])

    # -- emit the nice structure -------------------------------------------
    parents: list[int] = []
    bags: list[frozenset[int]] = []

    def new_node(bag: frozenset[int], parent: int) -> int:
        parents.append(parent)
        bags.append(bag)
        return len(parents) - 1

    # A task (parent, bag, items) builds a subtree with top bag `bag` over
    # the gadgets of the scaffold nodes `items`: none makes a leaf, one makes
    # a leg of single-vertex steps down to that item's own task, and more
    # make an equal-bag join over two halves.  Adjacent scaffold bags are
    # incomparable, so a leg toggles at least two vertices; its last toggle
    # reaches the item's bag, which the item's task emits.
    tasks = [(-1, sbags[sroot], skids[sroot])]
    while tasks:
        parent, bx, items = tasks.pop()
        if len(items) == 1:
            (c,) = items
            bc = sbags[c]
            parent = new_node(bx, parent)
            for v in (sorted(bx - bc) + sorted(bc - bx))[:-1]:
                bx = bx ^ {v}
                parent = new_node(bx, parent)
            tasks.append((parent, bc, skids[c]))
            continue
        top = new_node(bx, parent)
        if items:
            mid = (len(items) + 1) // 2
            tasks += [(top, bx, items[mid:]), (top, bx, items[:mid])]

    # -- splice base parts (two equal-bag copies plus a widened leaf) -------
    # The host is the first node whose bag holds `need`. Spliced copies come
    # later and share their host's bag (the leaf only adds L), so the
    # occurrence lists of the scaffold alone find it.
    occ: dict[int, list[int]] = {}
    for i, b in enumerate(bags):
        for v in b:
            occ.setdefault(v, []).append(i)
    kids = children(parents)
    for need, part in base_parts:
        cands = occ.get(min(need), []) if need else [0]
        host = next((i for i in cands if need <= bags[i]), -1)
        assert host >= 0, "every original bag survives the scaffold"
        t1 = new_node(bags[host], host)
        t2 = new_node(bags[host], host)
        leaf = new_node(bags[host] | part, t2)
        for c in kids[host]:
            parents[c] = t1
        kids += [kids[host], [leaf], []]
        kids[host] = [t1, t2]

    return _renumber(NiceTreeHDecomposition(parents, bags, L, dec.cls))
