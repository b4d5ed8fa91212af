"""Vertex-deletion solvers on top of decompositions.

Each problem has one leaf finish, `finish(g, base, ann, budget)`, which
solves its annotated polynomial case on a base component for both routes:
the branching skeleton (`_branch`) down an elimination forest, which deletes
each ancestor or puts it on a side that does not refuse it (two sides for
odd cycle transversal, one for vertex cover and clique deletion), and the
DP engine (`_nice_dp`) over nice tree decompositions, with numpy tables
indexed by base-3 (OCT) or base-2 (VC) encodings of the bag partition.

Below the public entry points the solvers pass vertex bit masks: a leaf
solve returns the mask of a deletion set, or None (the failure value
bottom, which absorbs through unions) when its annotation is infeasible.
The empty set is the mask 0, so infeasibility is tested with `is None`.
"""

from __future__ import annotations

from collections import OrderedDict
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
from .decomposition import EliminationForest, NiceTreeHDecomposition, TreeHDecomposition, make_nice
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
# dynamic programming over nice tree decompositions
# ---------------------------------------------------------------------------


#: bytes that `_nice_dp`'s tables, node plans and the largest node's
#: working arrays may take; a decomposition that needs more is refused
#: before the first allocation
DP_TABLE_BUDGET = 256 << 20

#: bytes of digit layouts and node plans that `_nice_dp` keeps across calls,
#: least recently used out first; a plan depends only on its shape and base
PLAN_CACHE_BYTES = 1 << 20
_plan_cache: OrderedDict = OrderedDict()  # (base, key) -> (value, its bytes)
_plan_cache_bytes = 0


def _kept(key, make: Callable, local: dict):
    """make()'s value for key: made once per call, in `local`, and kept across calls while it fits."""
    global _plan_cache_bytes
    if key not in local:
        if key in _plan_cache:
            _plan_cache.move_to_end(key)
            local[key] = _plan_cache[key][0]
        else:
            local[key] = value = make()
            arrays = [a for a in (value if isinstance(value, tuple) else (value,)) if a is not None]
            for a in arrays:
                a.flags.writeable = False  # shared by every later call
            size = sum(a.nbytes for a in arrays)
            if size <= PLAN_CACHE_BYTES:
                _plan_cache[key] = value, size
                _plan_cache_bytes += size
                while _plan_cache_bytes > PLAN_CACHE_BYTES:
                    _plan_cache_bytes -= _plan_cache.popitem(last=False)[1][1]
    return local[key]


def _make_plan(sides: int, layout: Callable, kind: str, w: int, p: Optional[int], met: tuple, keyed: tuple):
    """(index map, addend, the digit patterns a leaf finishes) of a node shape;
    layout(w) gives width w's digits (row p: digit p) and deletion counts."""
    base = sides + 1
    digits, deleted = layout(w)
    if kind == "join":
        return None, -deleted, None
    if kind == "identity":
        return None, None, None
    if kind == "forget":  # one row per digit inserted at p
        high, low = np.divmod(np.arange(base**w), base**p)
        return low + high * base ** (p + 1) + base**p * np.arange(base)[:, None], None, None
    bad = np.zeros(base**w, dtype=bool)
    for x in {x for _, x in met}:  # the edges to x that meet here
        ends = [u for u, y in met if y == x]
        bad |= (digits[ends] == digits[x]).any(axis=0) & (digits[x] != sides)
    if kind == "introduce":  # the child cell of each cell
        high, low = np.divmod(np.arange(base**w), base**p)
        return low + high // base * base**p, np.where(bad, INF, digits[p] == sides), None
    # a leaf numbers the digit patterns of its keyed positions (digit i
    # of the number is that of keyed position i) and finishes the live ones
    m = len(keyed)
    pattern = base ** np.arange(m) @ digits[list(keyed)]
    live = np.flatnonzero(np.bincount(pattern[~bad], minlength=base**m))
    return pattern, np.where(bad, INF, deleted), live


def _nice_dp(
    g: Graph,
    dec: TreeHDecomposition,
    sides: int,
    finish: Callable[[Graph, int, tuple[int, ...], int], Optional[int]],
) -> tuple[int, frozenset[int]]:
    """Minimum deletion set by DP over a tree H-decomposition, validated
    once and made nice here when it is not.

    Each non-base bag vertex gets one digit in base sides+1: digits
    0..sides-1 put it on that side, digit `sides` deletes it.  An edge is bad
    when both ends carry the same side digit.  At a leaf with base part b,
    `finish(g, b, side_masks, |b|)` finishes the base part, where
    side_masks[s] holds the base vertices adjacent to side s; it returns a
    deletion mask or None and is called once per distinct (b, side_masks).

    Each node shape (its step, width, moved position and the positions of
    the edges that meet there) gets one plan, kept across calls (`_kept`):
    an index map into the child's table (a leaf's: into its finished digit
    patterns) and an int64 addend that is INF on bad cells, +1 where an
    introduced digit deletes, -deleted at a join and +deleted at a leaf.  A
    node is then one gather, add and minimum.  A leaf finishes one cell per
    live digit pattern of its bag vertices with base neighbours.  Tables,
    plans and the largest node's working arrays over DP_TABLE_BUDGET bytes
    raise ValueError before any is allocated.
    """
    errs = dec.validate(g)
    if errs:
        raise ValueError("invalid decomposition: " + "; ".join(errs))
    if not isinstance(dec, NiceTreeHDecomposition):  # make_nice assumes a valid input
        dec = make_nice(dec)
    steps = dec.steps()
    finish = _memoized(finish)
    base = sides + 1
    ch = dec.children()
    lmask = mask_of(dec.L)
    vms = [mask_of(b) & ~lmask for b in dec.bags]  # the vertices with a digit, in position order
    ws = [vm.bit_count() for vm in vms]

    def pos(t: int, v: int) -> int:
        return (vms[t] & (1 << v) - 1).bit_count()

    # An edge's bad cells are marked where its two ends first meet: inside a
    # leaf's bag, or where its second end is introduced.  Every node above
    # holds both ends until one is forgotten, and takes those cells' INF
    # from its children.
    basemasks: dict[int, int] = {}  # leaf -> its base part
    nbr: dict[int, list[int]] = {}  # leaf -> the base neighbours of its keyed positions
    shapes = []
    for t, (kind, v) in enumerate(steps):
        arrive = vms[t] if kind == "leaf" else 1 << v if kind == "introduce" else 0
        met, here = [], vms[t] & ~arrive
        for x in bits(arrive):
            met += [(pos(t, u), pos(t, x)) for u in bits(g.adj_mask(x) & here)]
            here |= 1 << x
        move = pos(t, v) if kind == "introduce" else pos(ch[t][0], v) if kind == "forget" else None
        keyed = ()
        if kind == "leaf":
            basemasks[t] = basemask = mask_of(dec.bags[t]) & lmask
            keys = [(p, m) for p, u in enumerate(bits(vms[t])) if (m := g.adj_mask(u) & basemask)]
            keyed, nbr[t] = tuple(p for p, _ in keys), [m for _, m in keys]
        shapes.append((kind, ws[t], move, tuple(met), keyed))

    need = sum(8 * base**w for w in ws)  # tables
    need += sum(base**w * (w + 8) for w in set(ws))  # digits, deletion counts
    # plans: addends, index maps (a leaf's: the digit pattern of each cell)
    per_cell = {"leaf": 16, "introduce": 16, "join": 8, "forget": 8 * base}
    need += sum(base**w * per_cell.get(kind, 0) for kind, w, *_ in set(shapes))
    # the working arrays of the largest node: a leaf's plan arrays, a
    # forget's gather of base rows, and elsewhere the sum and its minimum
    work = {"leaf": 64, "forget": 8 * base + 16}
    need += max(base**w * work.get(kind, 24) for kind, w, *_ in shapes)
    if need > DP_TABLE_BUDGET:
        raise ValueError(f"DP tables need {-(-need >> 20)} MiB, over the {DP_TABLE_BUDGET >> 20} MiB budget")

    local: dict = {}  # this call's digits and deletion counts per width, and plans per shape

    def layout(w: int):
        digits = _kept((base, w), lambda: np.indices((base,) * w, dtype=np.int8).reshape(w, base**w)[::-1], local)
        return digits, _kept((base, "deleted", w), lambda: (digits == sides).sum(axis=0), local)

    def solve_leaf(t: int, k: int) -> Optional[int]:
        """Finish leaf t at digit pattern k."""
        masks = [0] * sides
        for i, m in enumerate(nbr[t]):
            d = k // base**i % base
            if d < sides:
                masks[d] |= m
        return finish(g, basemasks[t], tuple(masks), basemasks[t].bit_count())

    plans = [_kept((base, shape), lambda: _make_plan(sides, layout, *shape), local) for shape in shapes]
    tables: list[np.ndarray] = [None] * len(steps)  # type: ignore[list-item]
    for t in range(len(steps) - 1, -1, -1):
        kind, kids = steps[t][0], ch[t]
        imap, add, live = plans[t]
        if kind == "leaf":
            size = np.full(base ** len(nbr[t]), INF)
            for k in live:
                sol = solve_leaf(t, int(k))
                size[k] = INF if sol is None else sol.bit_count()
            tables[t] = np.minimum(size[imap] + add, INF)
        elif kind == "join":
            tables[t] = np.minimum(tables[kids[0]] + tables[kids[1]] + add, INF)
        elif kind == "identity":
            tables[t] = tables[kids[0]]
        elif kind == "introduce":
            tables[t] = np.minimum(tables[kids[0]][imap] + add, INF)
        else:  # forget: best digit of the forgotten vertex
            tables[t] = tables[kids[0]][imap].min(axis=0)

    root = dec.root()
    best_idx = int(np.argmin(tables[root]))
    best = int(tables[root][best_idx])
    assert best < INF

    # walk the argmin back down, first minimum on forgets; a vertex's digit
    # is fixed below the node that forgets it (or the root)
    solution = mask_of(v for p, v in enumerate(bits(vms[root])) if best_idx // base**p % base == sides)
    stack = [(root, best_idx)]
    while stack:
        t, idx = stack.pop()
        (kind, v), kids, imap = steps[t], ch[t], plans[t][0]
        if kind == "leaf":
            sol = solve_leaf(t, int(imap[idx]))
            assert sol is not None
            solution |= sol
        elif kind == "join":
            stack += [(kids[0], idx), (kids[1], idx)]
        elif kind == "identity":
            stack.append((kids[0], idx))
        elif kind == "introduce":
            stack.append((kids[0], int(imap[idx])))
        else:
            ins = imap[:, idx]
            d = int(np.argmin(tables[kids[0]][ins]))
            if d == sides:
                solution |= 1 << v
            stack.append((kids[0], int(ins[d])))
    assert solution.bit_count() == best
    return best, set_of(solution)


def solve_oct_dp(g: Graph, dec: TreeHDecomposition) -> tuple[int, frozenset[int]]:
    """Minimum odd cycle transversal by DP over bag triples (L_t, R_t, W_t):
    two sides plus deletion.  Base parts are finished with ABC at the
    leaves, with the base size as budget."""
    if dec.cls is None or dec.cls.kind != GraphClassSpec.BIPARTITE:
        raise ValueError("odd cycle transversal needs a bipartite-class decomposition")
    return _nice_dp(g, dec, 2, _oct_finish)


def solve_vc_dp(g: Graph, dec: TreeHDecomposition) -> tuple[int, frozenset[int]]:
    """Minimum vertex cover by DP over tree decompositions: one side (out of
    the cover) plus deletion.  Base parts are finished by Koenig's theorem
    after forcing the neighbors of out-vertices into the cover."""
    return _nice_dp(g, dec, 1, _vc_finish)


# ---------------------------------------------------------------------------
# output format
# ---------------------------------------------------------------------------


def solution_block(problem: str, X: frozenset[int]) -> str:
    lines = [f"SOLUTION {problem} {len(X)}"]
    lines += [str(v + 1) for v in sorted(X)]
    return "\n".join(lines) + "\n"
