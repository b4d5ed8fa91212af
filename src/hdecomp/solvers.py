"""Vertex-deletion solvers on top of decompositions.

Each problem has one leaf finish, `finish(g, base, ann, budget)`, which
solves its annotated polynomial case on a base component for both routes:
the branching skeleton (`_branch`) down an elimination forest, which deletes
each ancestor or puts it on a side that does not refuse it (two sides for
odd cycle transversal, one for vertex cover and clique deletion), and the
DP engine (`_tree_dp`), which reads a tree H-decomposition's own bags, nice
or not, with one numpy axis per bag vertex: base 3 (OCT) or base 2 (VC).

Below the public entry points the solvers pass vertex bit masks: a leaf
solve returns the mask of a deletion set, or None (the failure value
bottom, which absorbs through unions) when its annotation is infeasible.
The empty set is the mask 0, so infeasibility is tested with `is None`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graphs import (
    Graph,
    GraphClassSpec,
    _find_embedding_image,
    bits,
    coloring_mask,
    mask_of,
    set_of,
)
from .decomposition import EliminationForest, TreeHDecomposition
from .separators import _vertex_flow

INF = np.int64(1) << 40


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
        if coloring_mask(self.g, self.g.full_mask()) is None:
            raise ValueError("annotated bipartite coloring needs a bipartite graph")
        if any(v < 0 or v >= self.g.n for v in self.B1 | self.B2):
            raise ValueError("annotation vertices out of range")


def _anchored_cut(g: Graph, within: int, t1: int, t2: int, cap: int) -> Optional[int]:
    """Minimum vertex cut of G[within] between the terminal sets T1 and T2,
    whose vertices are themselves deletable: the cut mask farthest from T1,
    or None when the minimum exceeds `cap`.

    Deletability is modeled by two fresh non-deletable anchor states n and
    n + 1 adjacent to T1 resp. T2.
    """
    if not t1 or not t2:
        return 0
    s, t = 1 << g.n, 1 << g.n + 1
    adj = list(g._adj_masks) + [t1, t2]
    for v in bits(t1):
        adj[v] |= s
    for v in bits(t2):
        adj[v] |= t
    res = _vertex_flow(adj, within | s | t, s, t, cap)
    return None if res is None else res[1]


def _abc_within(g: Graph, wmask: int, b1: int, b2: int, k: int) -> Optional[int]:
    """ABC on G[wmask] via the reference-coloring cut characterization.

    Fix a proper 2-coloring f of G[wmask]; a deletion set X is feasible iff
    it separates T1 = (B1 & f^-1(2)) | (B2 & f^-1(1)) from
    T2 = (B1 & f^-1(1)) | (B2 & f^-1(2)), with terminals themselves
    deletable.
    """
    class1 = coloring_mask(g, wmask)
    if class1 is None:
        raise ValueError("ABC instance graph must be bipartite")
    t1 = b1 & ~class1 | b2 & class1
    t2 = b1 & class1 | b2 & ~class1
    return _anchored_cut(g, wmask, t1, t2, k)


def solve_abc(inst: AbcInstance) -> Optional[frozenset[int]]:
    """Minimum X such that G - X has a 2-coloring with B1 \\ X, B2 \\ X on
    opposite sides; None if the minimum exceeds k."""
    cut = _abc_within(inst.g, inst.g.full_mask(), mask_of(inst.B1), mask_of(inst.B2), inst.k)
    return None if cut is None else set_of(cut)


# ---------------------------------------------------------------------------
# bipartite vertex cover (Koenig)
# ---------------------------------------------------------------------------


def _vc_bipartite_within(g: Graph, wmask: int) -> int:
    """Koenig's minimum vertex cover of the bipartite G[wmask]: a cover is
    a cut between the colour classes with deletable terminals.  The minimum
    cut farthest from colour 2 has the fewest colour-2 vertices, which is
    the cover Koenig grows from the colour-1 vertices a maximum matching
    leaves free."""
    class1 = coloring_mask(g, wmask)
    if class1 is None:
        raise ValueError("the Koenig cover needs a bipartite graph")
    return _anchored_cut(g, wmask, wmask & ~class1, class1, wmask.bit_count())


# ---------------------------------------------------------------------------
# annotated branching on elimination forests
# ---------------------------------------------------------------------------


#: leaf solves that `_branch` may make, (sides + 1)^depth per leaf; a forest
#: that needs more is refused before the first one
BRANCH_LEAF_BUDGET = 1 << 40


def _oct_finish(g: Graph, base: int, ann: tuple[int, ...], budget: int) -> Optional[int]:
    """ABC on the base part, given the neighbours of each side."""
    return _abc_within(g, base, ann[0] & base, ann[1] & base, budget)


def _vc_finish(g: Graph, base: int, ann: tuple[int, ...], budget: int) -> int:
    """Koenig's cover of the base part after forcing in the out-side's neighbours."""
    forced = ann[0] & base
    return _vc_bipartite_within(g, base & ~forced) | forced


def _memoized(finish: Callable[[Graph, int, tuple[int, ...], int], Optional[int]]):
    """finish, called once per base part and side masks within it; its
    budget must be fixed per base part, as it is within one solve."""
    memo: dict = {}

    def once(g: Graph, base: int, ann: tuple[int, ...], budget: int) -> Optional[int]:
        key = base, tuple([a & base for a in ann])
        if key not in memo:
            memo[key] = finish(g, base, key[1], budget)
        return memo[key]

    return once


def _independent_join(g: Graph, a: int, v: int) -> Optional[int]:
    """A side annotated by its neighbourhood refuses v when v has a neighbour on it."""
    return None if a >> v & 1 else a | g.adj_mask(v)


def _branch(
    g: Graph,
    forest: EliminationForest,
    sides: int,
    join: Callable[[Graph, int, int], Optional[int]],
    finish: Callable[[Graph, int, tuple[int, ...], int], Optional[int]],
) -> int:
    """Minimum deletion mask by annotated branching down an elimination forest.

    Each internal vertex v is deleted or put on one of `sides` sides, tried
    in that order; the first branch of smallest size wins, and a branch
    stops at its first infeasible child.  `join(g, a, v)` extends a side's
    annotation a (0 at the roots) by v, or refuses v with None.  At a leaf of
    depth d with bag mask b, `finish(g, b, anns, d)` returns a deletion mask
    of the base component, or None when the annotations are infeasible.  A
    forest that needs more than BRANCH_LEAF_BUDGET leaf solves raises ValueError.
    """
    errs = forest.validate(g)
    if errs:
        raise ValueError("invalid elimination forest: " + "; ".join(errs))
    ch = forest.children()
    depths = forest.depths()
    calls = sum((sides + 1) ** d for d, node in zip(depths, forest.nodes) if node.leaf)
    if calls > BRANCH_LEAF_BUDGET:
        raise ValueError(
            f"branching needs at least 2^{calls.bit_length() - 1} leaf solves, "
            f"over the 2^{BRANCH_LEAF_BUDGET.bit_length() - 1} budget"
        )
    bags = [mask_of(node.bag) for node in forest.nodes]

    def union(kids: list[int], ann: tuple[int, ...]) -> Optional[int]:
        out = 0
        for c in kids:
            sub = rec(c, ann)
            if sub is None:
                return None
            out |= sub
        return out

    def rec(t: int, ann: tuple[int, ...]) -> Optional[int]:
        if forest.nodes[t].leaf:
            return finish(g, bags[t], ann, depths[t])
        v = bags[t].bit_length() - 1  # the internal node's one vertex
        best = union(ch[t], ann)
        if best is not None:
            best |= bags[t]
        for s in range(sides):
            a = join(g, ann[s], v)
            if a is None:
                continue
            cand = union(ch[t], ann[:s] + (a,) + ann[s + 1 :])
            if cand is not None and (best is None or cand.bit_count() < best.bit_count()):
                best = cand
        return best

    total = 0
    for r in forest.roots():
        res = rec(r, (0,) * sides)
        assert res is not None, "the all-deleted branch is always feasible"
        total |= res
    return total


def solve_oct_elim(g: Graph, forest: EliminationForest) -> frozenset[int]:
    """Minimum odd cycle transversal via 3-way branching on a bipartite-class
    elimination forest; base components solved as ABC instances with budget
    equal to the leaf depth, once per distinct annotation."""
    return set_of(_branch(g, forest, 2, _independent_join, _memoized(_oct_finish)))


def solve_vc_elim(g: Graph, forest: EliminationForest) -> frozenset[int]:
    """Minimum vertex cover via 2-way branching; base components are solved
    by Koenig's theorem after forcing the neighbors of out-vertices into the
    cover."""
    return set_of(_branch(g, forest, 1, _independent_join, _vc_finish))


# ---------------------------------------------------------------------------
# K_l-free deletion
# ---------------------------------------------------------------------------


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
    kl = Graph.complete(ell)

    def packing_exceeds(pool: int, budget: int) -> bool:
        # the packing starts from the K_ell that rec has just found, which
        # is the first one a search would find; `pool` is the rest
        count = 1
        while count <= budget:
            cl = _find_embedding_image(g, kl, pool)
            if cl is None:
                return False
            count += 1
            pool &= ~cl
        return True

    def rec(mask: int, budget: int) -> Optional[int]:
        clique = _find_embedding_image(g, kl, mask)
        if clique is None:
            return 0
        if budget <= 0:
            return None
        if packing_exceeds(mask & ~clique, budget):
            return None
        best = None
        for v in bits(clique & ~umask):
            sub = rec(mask & ~(1 << v), budget - 1)
            if sub is not None and (best is None or sub.bit_count() + 1 < best.bit_count()):
                best = sub | 1 << v
        return best

    res = rec(wmask, k)
    return None if res is None else set_of(res)


def solve_klfree_elim(g: Graph, forest: EliminationForest, ell: int) -> frozenset[int]:
    """Minimum K_ell-free deletion set via 2-way branching on a K_ell-free
    forest; a kept ancestor that closes a K_ell is refused, and the leaves
    are finished by `solve_klfree_fdfv` with the leaf depth as budget."""
    if forest.cls != GraphClassSpec.kl_free(ell):
        raise ValueError(f"K_{ell}-free deletion needs a K_{ell}-free-class forest")
    kl = Graph.complete(ell)

    def join(g: Graph, kept: int, v: int) -> Optional[int]:
        grown = kept | 1 << v
        return None if _find_embedding_image(g, kl, grown) is not None else grown

    def finish(g: Graph, base: int, ann: tuple[int, ...], budget: int) -> Optional[int]:
        (kept,) = ann
        sol = solve_klfree_fdfv(g, set_of(kept), budget, ell, set_of(base | kept))
        return None if sol is None else mask_of(sol)

    return set_of(_branch(g, forest, 1, join, finish))


# ---------------------------------------------------------------------------
# dynamic programming over tree H-decompositions
# ---------------------------------------------------------------------------


#: bytes that `_tree_dp`'s tables, deletion counts, largest working arrays
#: and per-node data may take; a decomposition that needs more is refused
#: before the first table is allocated
DP_TABLE_BUDGET = 256 << 20


def _tree_dp(
    g: Graph,
    dec: TreeHDecomposition,
    sides: int,
    finish: Callable[[Graph, int, tuple[int, ...], int], Optional[int]],
) -> tuple[int, frozenset[int]]:
    """Minimum deletion set by DP over the bags of a tree H-decomposition,
    validated once and read as it is, nice or not.

    Each non-base bag vertex gets one digit in base sides+1: digits
    0..sides-1 put it on that side, digit `sides` deletes it.  A node's
    table has one axis per such vertex, the largest id first, so digit p of
    a flat cell index is that of bag position p in ascending id order.  A
    cell holds the fewest deletions among the vertices of the node's
    subtree outside its bag that agree with its digits, INF where an edge
    whose two ends first meet here (no child holds both) has both ends on
    one side.  A childless node adds its base part b: `finish(g, b,
    side_masks, |b|)`, where side_masks[s] holds the base vertices adjacent
    to side s, returns a deletion mask or None.  It runs once per live digit
    pattern of the bag vertices with base neighbours, and once per distinct
    (b, side_masks).  Each child adds its table's minimum over the vertices
    the node does not hold, each deleted one counted.  The walk back slices
    each child's table at its parent's digits and takes the first minimum,
    so on a nice input each forgotten vertex gets the first digit that
    reaches the optimum, as in a DP by nice steps.  Tables, deletion
    counts, the largest node's working arrays and the per-node data over
    DP_TABLE_BUDGET bytes raise ValueError before any table is allocated.
    """
    errs = dec.validate(g)
    if errs:
        raise ValueError("invalid decomposition: " + "; ".join(errs))
    finish = _memoized(finish)
    base = sides + 1
    ch = dec.children()
    axes = [sorted(b - dec.L, reverse=True) for b in dec.bags]  # the vertices with a digit
    vms = [mask_of(a) for a in axes]
    # per leaf: its base part, and each bag vertex with base neighbours, with them
    bases = {t: mask_of(dec.bags[t] & dec.L) for t, kids in enumerate(ch) if not kids}
    keyed = {t: [(v, nbr) for v in axes[t] if (nbr := g.adj_mask(v) & b)] for t, b in bases.items()}

    ws = [len(a) for a in axes]
    top = max(ws)
    need = sum(8 * base**w for w in ws)  # tables
    need += sum(8 * base**w for w in range(top + 1))  # deletion counts per width
    need += 24 * base**top  # a child's sum and minimum, a leaf's live cells and finish sizes
    # Python-side data: the call's own, per node (some of it vertex masks)
    # and per finished pattern
    need += 16384 + (1024 + g.n) * len(ws) + sum(128 * base ** len(k) for k in keyed.values())
    if need > DP_TABLE_BUDGET:
        raise ValueError(f"DP tables need {-(-need >> 20)} MiB, over the {DP_TABLE_BUDGET >> 20} MiB budget")

    dels = [np.zeros((), np.int64)]  # dels[w]: the deleted digits of each cell of width w
    for _ in range(top):
        dels.append(np.add.outer(dels[-1], np.arange(base) == sides))
    same = np.where(np.eye(base, dtype=bool) & (np.arange(base) != sides), INF, 0)

    def shape(t: int, vm: int) -> list[int]:
        """Node t's axes, size 1 on the vertices outside vm."""
        return [base if vm >> v & 1 else 1 for v in axes[t]]

    def leaf_finish(t: int, digits: list[int]) -> Optional[int]:
        """Finish leaf t with these digits of its keyed vertices."""
        masks = [0] * sides
        for (_, m), d in zip(keyed[t], digits):
            if d < sides:
                masks[d] |= m
        return finish(g, bases[t], tuple(masks), bases[t].bit_count())

    tables: list[np.ndarray] = [None] * len(ch)  # type: ignore[list-item]
    for t in range(len(ch) - 1, -1, -1):  # children follow their parents
        vm = vms[t]
        table = np.zeros((base,) * ws[t], np.int64)
        for c in ch[t]:
            sub, gone = tables[c], vms[c] & ~vm
            if gone:
                free = tuple(i for i, v in enumerate(axes[c]) if gone >> v & 1)
                sub = (sub + dels[len(free)].reshape(shape(c, gone))).min(axis=free)
            table += sub.reshape(shape(t, vms[c]))
        for x in axes[t]:  # the edges that first meet here, to a smaller id
            nb = g.adj_mask(x) & vm & (1 << x) - 1
            for c in ch[t]:
                if vms[c] >> x & 1:
                    nb &= ~vms[c]
            for u in bits(nb):
                table += same.reshape(shape(t, 1 << x | 1 << u))
        if not ch[t]:
            # the digit patterns of the keyed vertices, the last one lowest
            m = len(keyed[t])
            kshape = shape(t, mask_of(v for v, _ in keyed[t]))
            live = np.flatnonzero((table < INF).any(axis=tuple(i for i, k in enumerate(kshape) if k == 1))).tolist()
            size = np.full(base**m, INF)
            for k in live:
                sol = leaf_finish(t, [k // base ** (m - 1 - j) % base for j in range(m)])
                size[k] = INF if sol is None else sol.bit_count()
            table += size.reshape(kshape)
        tables[t] = np.minimum(table, INF, out=table)

    # walk the first minima back down from an empty bag above the root; a
    # vertex's digit is fixed at the highest node that holds it
    root = dec.root()
    best = int((tables[root] + dels[ws[root]]).min())
    assert best < INF
    digit: dict[int, int] = {}
    solution = 0
    stack = [(root, 0)]
    while stack:
        c, vm = stack.pop()
        if gone := vms[c] & ~vm:
            free = [v for v in axes[c] if gone >> v & 1]
            sub = tables[c][tuple(digit[v] if vm >> v & 1 else slice(None) for v in axes[c])]
            k = int((sub + dels[len(free)]).argmin())
            for v in reversed(free):
                k, digit[v] = divmod(k, base)
        if not ch[c]:
            sol = leaf_finish(c, [digit[v] for v, _ in keyed[c]])
            assert sol is not None
            solution |= sol
        stack += [(x, vms[c]) for x in ch[c]]
    solution |= mask_of(v for v, d in digit.items() if d == sides)
    assert solution.bit_count() == best
    return best, set_of(solution)


def solve_oct_dp(g: Graph, dec: TreeHDecomposition) -> tuple[int, frozenset[int]]:
    """Minimum odd cycle transversal by DP over bag triples (L_t, R_t, W_t):
    two sides plus deletion.  Base parts are finished with ABC at the
    leaves, with the base size as budget."""
    if dec.cls is None or dec.cls.kind != GraphClassSpec.BIPARTITE:
        raise ValueError("odd cycle transversal needs a bipartite-class decomposition")
    return _tree_dp(g, dec, 2, _oct_finish)


def solve_vc_dp(g: Graph, dec: TreeHDecomposition) -> tuple[int, frozenset[int]]:
    """Minimum vertex cover by DP over tree decompositions: one side (out of
    the cover) plus deletion.  Base parts are finished by Koenig's theorem
    after forcing the neighbors of out-vertices into the cover."""
    return _tree_dp(g, dec, 1, _vc_finish)


# ---------------------------------------------------------------------------
# output format
# ---------------------------------------------------------------------------


def solution_block(problem: str, X: frozenset[int]) -> str:
    lines = [f"SOLUTION {problem} {len(X)}"]
    lines += [str(v + 1) for v in sorted(X)]
    return "\n".join(lines) + "\n"
