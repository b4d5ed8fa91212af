"""Vertex-deletion solvers on top of decompositions.

All branching solvers share one skeleton (`_branch`): it walks an
elimination forest top-down, deletes each ancestor or puts it on a side
(two sides for odd cycle transversal, one for vertex cover and clique
deletion), and solves an annotated polynomial case in the base components.
Both dynamic-programming solvers share one engine (`_nice_dp`) over nice
tree decompositions, with numpy tables indexed by base-3 (OCT) or base-2
(VC) encodings of the bag partition.

The failure value bottom is represented by None and absorbs through unions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graphs import (
    Graph,
    GraphClassSpec,
    bits,
    mask_of,
    neighborhood_mask,
    proper_2_coloring,
    set_of,
)
from .decomposition import EliminationForest, NiceTreeHDecomposition
from .separators import min_vertex_separator

INF = np.int64(1) << 40


def union_bot(*parts):
    """Union with absorbing None."""
    out: set[int] = set()
    for p in parts:
        if p is None:
            return None
        out |= p
    return frozenset(out)


# ---------------------------------------------------------------------------
# annotated bipartite coloring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbcInstance:
    g: Graph
    B1: frozenset[int]
    B2: frozenset[int]
    k: int

    def __post_init__(self):
        if proper_2_coloring(self.g) is None:
            raise ValueError("annotated bipartite coloring needs a bipartite graph")
        if any(v < 0 or v >= self.g.n for v in self.B1 | self.B2):
            raise ValueError("annotation vertices out of range")


def _abc_within(
    g: Graph, within: frozenset[int], B1: frozenset[int], B2: frozenset[int], k: int
) -> Optional[frozenset[int]]:
    """ABC on G[within] via the reference-coloring cut characterization.

    Fix a proper 2-coloring f of G[within]; a deletion set X is feasible iff
    it separates T1 = (B1 & f^-1(2)) | (B2 & f^-1(1)) from
    T2 = (B1 & f^-1(1)) | (B2 & f^-1(2)), with terminals themselves
    deletable.  Deletability is modeled by two fresh non-deletable anchor
    vertices adjacent to T1 resp. T2.
    """
    f = proper_2_coloring(g, within)
    if f is None:
        raise ValueError("ABC instance graph must be bipartite")
    t1 = {v for v in B1 if f[v] == 2} | {v for v in B2 if f[v] == 1}
    t2 = {v for v in B1 if f[v] == 1} | {v for v in B2 if f[v] == 2}
    if not t1 or not t2:
        return frozenset()
    s, t = g.n, g.n + 1
    edges = [(u, v) for u, v in g.edges if u in within and v in within]
    edges += [(s, v) for v in sorted(t1)]
    edges += [(t, v) for v in sorted(t2)]
    aux = Graph(g.n + 2, edges)
    cut = min_vertex_separator(aux, {s}, {t}, k)
    return cut


def solve_abc(inst: AbcInstance) -> Optional[frozenset[int]]:
    """Minimum X such that G - X has a 2-coloring with B1 \\ X, B2 \\ X on
    opposite sides; None if the minimum exceeds k."""
    return _abc_within(
        inst.g, frozenset(range(inst.g.n)), inst.B1, inst.B2, inst.k
    )


# ---------------------------------------------------------------------------
# bipartite vertex cover (Koenig)
# ---------------------------------------------------------------------------


def _vc_bipartite_within(g: Graph, within: frozenset[int]) -> frozenset[int]:
    coloring = proper_2_coloring(g, within)
    if coloring is None:
        raise ValueError("vc_bipartite needs a bipartite graph")
    left = sorted(v for v in within if coloring[v] == 1)
    right = {v for v in within if coloring[v] == 2}
    match: dict[int, int] = {}  # right -> left
    match_left: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for w in g.neighbors(u):
            if w in right and w not in seen:
                seen.add(w)
                if w not in match or augment(match[w], seen):
                    match[w] = u
                    match_left[u] = w
                    return True
        return False

    for u in left:
        if u not in match_left:
            augment(u, set())
    # Koenig: alternating reachability from unmatched left vertices
    z: set[int] = {u for u in left if u not in match_left}
    frontier = list(z)
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w in right and w not in z:
                    z.add(w)
                    m = match.get(w)
                    if m is not None and m not in z:
                        z.add(m)
                        nxt.append(m)
        frontier = nxt
    return frozenset(u for u in left if u not in z) | frozenset(w for w in right if w in z)


def vc_bipartite(g: Graph) -> frozenset[int]:
    """Minimum vertex cover of a bipartite graph via maximum matching."""
    return _vc_bipartite_within(g, frozenset(range(g.n)))


# ---------------------------------------------------------------------------
# annotated branching on elimination forests
# ---------------------------------------------------------------------------


def _has_edge_within(g: Graph, m: int) -> bool:
    return any(g.adj_mask(v) & m for v in bits(m))


def _branch(
    g: Graph,
    forest: EliminationForest,
    sides: int,
    leaf: Callable[[int, tuple[int, ...], int], Optional[frozenset[int]]],
) -> frozenset[int]:
    """Minimum deletion set by annotated branching down an elimination forest.

    Each internal vertex is deleted or put on one of `sides` sides, tried in
    that order; the first branch of smallest size wins.  At a leaf t of
    depth d, `leaf(t, side_masks, d)` solves the base component given the
    annotated ancestors on each side (bit masks) and returns a deletion set,
    or None when the annotation is infeasible.
    """
    errs = forest.validate(g)
    if errs:
        raise ValueError("invalid elimination forest: " + "; ".join(errs))
    ch = forest.children()
    depths = forest.depths()

    def rec(t: int, ann: tuple[int, ...]) -> Optional[frozenset[int]]:
        node = forest.nodes[t]
        if node.leaf:
            return leaf(t, ann, depths[t])
        v = next(iter(node.bag))
        kids = sorted(ch[t])
        best = union_bot(frozenset({v}), *(rec(c, ann) for c in kids))
        for s in range(sides):
            side = ann[:s] + (ann[s] | 1 << v,) + ann[s + 1 :]
            cand = union_bot(*(rec(c, side) for c in kids))
            if cand is not None and (best is None or len(cand) < len(best)):
                best = cand
        return best

    total: set[int] = set()
    for r in forest.roots():
        res = rec(r, (0,) * sides)
        assert res is not None, "the all-deleted branch is always feasible"
        total |= res
    return frozenset(total)


def solve_oct_elim(g: Graph, forest: EliminationForest) -> frozenset[int]:
    """Minimum odd cycle transversal via 3-way branching on a bipartite-class
    elimination forest; base components solved as ABC instances with budget
    equal to the leaf depth."""

    def leaf(t: int, ann: tuple[int, ...], depth: int) -> Optional[frozenset[int]]:
        if any(_has_edge_within(g, m) for m in ann):
            return None
        bag = forest.nodes[t].bag
        bagmask = mask_of(bag)
        b1, b2 = (set_of(neighborhood_mask(g, m) & bagmask) for m in ann)
        return _abc_within(g, bag, b1, b2, depth)

    return _branch(g, forest, 2, leaf)


def solve_vc_elim(g: Graph, forest: EliminationForest) -> frozenset[int]:
    """Minimum vertex cover via 2-way branching; base components are solved
    by Koenig's theorem after forcing the neighbors of out-vertices into the
    cover."""

    def leaf(t: int, ann: tuple[int, ...], depth: int) -> Optional[frozenset[int]]:
        (out,) = ann
        if _has_edge_within(g, out):
            return None
        bag = forest.nodes[t].bag
        forced = set_of(neighborhood_mask(g, out) & mask_of(bag))
        return _vc_bipartite_within(g, bag - forced) | forced

    return _branch(g, forest, 1, leaf)


# ---------------------------------------------------------------------------
# K_l-free deletion
# ---------------------------------------------------------------------------


def _find_clique(g: Graph, within_mask: int, ell: int) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest K_ell inside G[within]."""
    vs = sorted(bits(within_mask))
    if len(vs) < ell:
        return None

    def extend(clique: list[int], cand: list[int]) -> Optional[tuple[int, ...]]:
        if len(clique) == ell:
            return tuple(clique)
        for i, v in enumerate(cand):
            if len(clique) + (len(cand) - i) < ell:
                return None
            nxt = [w for w in cand[i + 1 :] if g.has_edge(v, w)]
            res = extend(clique + [v], nxt)
            if res is not None:
                return res
        return None

    return extend([], vs)


def solve_klfree_fdfv(
    g: Graph,
    U: frozenset[int],
    k: int,
    ell: int,
    within: Optional[frozenset[int]] = None,
) -> Optional[frozenset[int]]:
    """Minimum X avoiding U with G[within] - X free of K_ell cliques and
    |X| <= k, by <= ell-way branching on a detected clique."""
    if ell < 2 or ell > 5:
        raise ValueError("ell must be between 2 and 5")
    wmask = g.full_mask() if within is None else mask_of(within)
    umask = mask_of(U)

    def packing_exceeds(mask: int, budget: int) -> bool:
        count = 0
        pool = mask
        while count <= budget:
            cl = _find_clique(g, pool, ell)
            if cl is None:
                return False
            count += 1
            pool &= ~mask_of(cl)
        return True

    def rec(mask: int, budget: int) -> Optional[frozenset[int]]:
        clique = _find_clique(g, mask, ell)
        if clique is None:
            return frozenset()
        if budget <= 0:
            return None
        if packing_exceeds(mask, budget):
            return None
        best = None
        for v in clique:
            if umask >> v & 1:
                continue
            sub = rec(mask & ~(1 << v), budget - 1)
            if sub is not None:
                cand = sub | {v}
                if best is None or len(cand) < len(best):
                    best = cand
        return best

    return rec(wmask, k)


def solve_klfree_elim(g: Graph, forest: EliminationForest, ell: int) -> frozenset[int]:
    """Minimum K_ell-free deletion set via 2-way branching; base components
    are finished by the forbidden-vertex branching solver with the leaf
    depth as budget."""

    def leaf(t: int, ann: tuple[int, ...], depth: int) -> Optional[frozenset[int]]:
        (out,) = ann
        if _find_clique(g, out, ell) is not None:
            return None
        kept = set_of(out)
        return solve_klfree_fdfv(g, kept, depth, ell, forest.nodes[t].bag | kept)

    return _branch(g, forest, 1, leaf)


# ---------------------------------------------------------------------------
# dynamic programming over nice tree decompositions
# ---------------------------------------------------------------------------


def _assign_edges(g: Graph, dec: NiceTreeHDecomposition) -> list[list[tuple[int, int]]]:
    """Deepest covering node per edge, smallest id on ties."""
    n_nodes = len(dec.parents)
    depth = [0] * n_nodes
    for i, p in enumerate(dec.parents):
        if p >= 0:
            depth[i] = depth[p] + 1
    occ: list[list[int]] = [[] for _ in range(g.n)]
    for i, bag in enumerate(dec.bags):
        for v in bag:
            occ[v].append(i)
    assigned: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for u, v in sorted(g.edges):
        a, b = (u, v) if len(occ[u]) <= len(occ[v]) else (v, u)
        covering = [i for i in occ[a] if b in dec.bags[i]]  # in node order
        assert covering, "edge not covered"
        assigned[max(covering, key=depth.__getitem__)].append((u, v))
    return assigned


@dataclass
class _NodePlan:
    bagvars: list[int]  # sorted bag minus L
    kind: str  # leaf / identity / introduce / forget / join
    child_pos: Optional[int] = None  # position of the changing vertex


def _plan_nodes(dec: NiceTreeHDecomposition, ch: list[list[int]]) -> list[_NodePlan]:
    plans = []
    for t in range(len(dec.parents)):
        bagvars = sorted(dec.bags[t] - dec.L)
        kids = ch[t]
        if not kids:
            plans.append(_NodePlan(bagvars, "leaf"))
        elif len(kids) == 2:
            plans.append(_NodePlan(bagvars, "join"))
        else:
            c = kids[0]
            cvars = sorted(dec.bags[c] - dec.L)
            if cvars == bagvars:
                plans.append(_NodePlan(bagvars, "identity"))
            elif len(bagvars) == len(cvars) + 1:
                (v,) = set(bagvars) - set(cvars)
                plans.append(_NodePlan(bagvars, "introduce", bagvars.index(v)))
            else:
                (v,) = set(cvars) - set(bagvars)
                plans.append(_NodePlan(bagvars, "forget", cvars.index(v)))
    return plans


def _drop_index(idx, pos: int, base: int):
    """Index with digit `pos` removed (ints or arrays)."""
    return idx % base**pos + idx // base ** (pos + 1) * base**pos


def _insert_indices(idx, pos: int, base: int) -> list:
    """The indices with each digit 0..base-1 inserted at `pos`."""
    low = idx % base**pos
    high = idx // base**pos * base ** (pos + 1)
    return [low + d * base**pos + high for d in range(base)]


def _nice_dp(
    g: Graph,
    dec: NiceTreeHDecomposition,
    sides: int,
    leaf: Callable[[int, tuple[int, ...]], Optional[frozenset[int]]],
) -> tuple[int, frozenset[int]]:
    """Minimum deletion set by DP over a nice tree H-decomposition.

    Each non-base bag vertex gets one digit in base sides+1: digits
    0..sides-1 put it on that side, digit `sides` deletes it.  An edge is bad
    when both ends carry the same side digit.  At a leaf t,
    `leaf(t, side_masks)` finishes the base part, where side_masks[s] holds
    the base vertices adjacent to side s; it returns a deletion set or None
    and is called once per distinct (t, side_masks).
    """
    errs = dec.validate(g)
    if errs:
        raise ValueError("invalid nice tree decomposition: " + "; ".join(errs))
    base = sides + 1
    ch = dec.children()
    plans = _plan_nodes(dec, ch)
    assigned = _assign_edges(g, dec)
    tables: list[np.ndarray] = [None] * len(plans)  # type: ignore[list-item]
    nbr: dict[int, list[int]] = {}  # leaf -> base neighbors of each bag vertex
    memo: dict[tuple[int, tuple[int, ...]], Optional[frozenset[int]]] = {}

    def finish(t: int, idx: int) -> Optional[frozenset[int]]:
        masks = [0] * sides
        for p, m in enumerate(nbr[t]):
            d = idx // base**p % base
            if d < sides:
                masks[d] |= m
        key = (t, tuple(masks))
        if key not in memo:
            memo[key] = leaf(*key)
        return memo[key]

    for t in range(len(plans) - 1, -1, -1):
        plan = plans[t]
        size = base ** len(plan.bagvars)
        idx = np.arange(size)
        digits = idx[:, None] // base ** np.arange(len(plan.bagvars)) % base
        deleted = (digits == sides).sum(axis=1)
        pos = {v: i for i, v in enumerate(plan.bagvars)}
        bad = np.zeros(size, dtype=bool)
        for u, v in assigned[t]:
            if u in pos and v in pos:
                du = digits[:, pos[u]]
                bad |= (du == digits[:, pos[v]]) & (du != sides)
        kids = ch[t]
        if plan.kind == "leaf":
            basemask = mask_of(dec.bags[t] & dec.L)
            nbr[t] = [g.adj_mask(v) & basemask for v in plan.bagvars]
            f = np.full(size, INF, dtype=np.int64)
            for i in range(size):
                if not bad[i]:
                    sol = finish(t, i)
                    if sol is not None:
                        f[i] = deleted[i] + len(sol)
        elif plan.kind == "join":
            f = tables[kids[0]] + tables[kids[1]] - deleted
        elif plan.kind == "identity":
            f = tables[kids[0]]
        elif plan.kind == "introduce":
            cpos = plan.child_pos
            f = tables[kids[0]][_drop_index(idx, cpos, base)] + (digits[:, cpos] == sides)
        else:  # forget: best digit of the forgotten vertex
            cf = tables[kids[0]]
            f = np.min([cf[i] for i in _insert_indices(idx, plan.child_pos, base)], axis=0)
        tables[t] = np.minimum(np.where(bad, INF, f), INF)

    root = dec.root()
    best_idx = int(np.argmin(tables[root]))
    best = int(tables[root][best_idx])
    assert best < INF

    # walk the argmin back down, first minimum on forgets
    solution: set[int] = set()
    stack = [(root, best_idx)]
    while stack:
        t, idx = stack.pop()
        plan = plans[t]
        solution.update(v for p, v in enumerate(plan.bagvars) if idx // base**p % base == sides)
        kids = ch[t]
        if plan.kind == "leaf":
            sol = finish(t, idx)
            assert sol is not None
            solution |= sol
        elif plan.kind == "join":
            stack += [(kids[0], idx), (kids[1], idx)]
        elif plan.kind == "identity":
            stack.append((kids[0], idx))
        elif plan.kind == "introduce":
            stack.append((kids[0], _drop_index(idx, plan.child_pos, base)))
        else:
            cf = tables[kids[0]]
            stack.append((kids[0], min(_insert_indices(idx, plan.child_pos, base), key=cf.__getitem__)))
    assert len(solution) == best
    return best, frozenset(solution)


def solve_oct_dp(g: Graph, dec: NiceTreeHDecomposition) -> tuple[int, frozenset[int]]:
    """Minimum odd cycle transversal by DP over bag triples (L_t, R_t, W_t):
    two sides plus deletion.  Base parts are finished with ABC at the
    leaves, with the base size as budget."""
    if dec.cls is None or dec.cls.kind != GraphClassSpec.BIPARTITE:
        raise ValueError("odd cycle transversal needs a bipartite-class decomposition")

    def leaf(t: int, masks: tuple[int, ...]) -> Optional[frozenset[int]]:
        base = dec.bags[t] & dec.L
        return _abc_within(g, base, set_of(masks[0]), set_of(masks[1]), len(base))

    return _nice_dp(g, dec, 2, leaf)


def solve_vc_dp(g: Graph, dec: NiceTreeHDecomposition) -> tuple[int, frozenset[int]]:
    """Minimum vertex cover by DP over nice decompositions: one side (out of
    the cover) plus deletion.  Base parts are finished by Koenig's theorem
    after forcing the neighbors of out-vertices into the cover."""

    def leaf(t: int, masks: tuple[int, ...]) -> frozenset[int]:
        forced = set_of(masks[0])
        return _vc_bipartite_within(g, (dec.bags[t] & dec.L) - forced) | forced

    return _nice_dp(g, dec, 1, leaf)


# ---------------------------------------------------------------------------
# output format
# ---------------------------------------------------------------------------


def solution_block(problem: str, X: frozenset[int]) -> str:
    lines = [f"SOLUTION {problem} {len(X)}"]
    lines += [str(v + 1) for v in sorted(X)]
    return "\n".join(lines) + "\n"
