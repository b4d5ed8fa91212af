"""Separation finding: exact for forbidden-induced-subgraph classes, a
2-approximation for bipartite graphs, plus the restricted wrapper and the
extremal iteration used by the decomposition builder.

Outcomes are Optional[Separation]: None means the query set Z was concluded
to be (class, k)-inseparable, which is always an unconditional verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .graphs import (
    Graph,
    GraphClassSpec,
    find_induced_obstruction,
    is_member,
    mask_of,
    neighborhood_mask,
    proper_2_coloring,
    reach_mask,
    set_of,
)
from .separators import (
    ImportantSeparatorQuery,
    SearchStats,
    _vertex_flow,
    enumerate_important_separators,
)


@dataclass(frozen=True)
class Separation:
    """A pair (C, S) with G[C] in the class, |S| <= bound, N(C) contained in S."""

    C: frozenset[int]
    S: frozenset[int]
    cls: GraphClassSpec
    bound: int

    def validate(self, g: Graph) -> list[str]:
        errs = []
        if self.C & self.S:
            errs.append("C and S intersect")
        if len(self.S) > self.bound:
            errs.append(f"|S|={len(self.S)} exceeds bound {self.bound}")
        if not is_member(g, self.cls, self.C):
            errs.append("G[C] is not in the class")
        nc = neighborhood_mask(g, mask_of(self.C))
        if nc & ~mask_of(self.S):
            errs.append("N(C) not contained in S")
        return errs

    def covers(self, Z: frozenset[int]) -> bool:
        return Z <= self.C

    def weakly_covers(self, Z: frozenset[int]) -> bool:
        return Z <= self.C | self.S


# base finders take (g, Z, k, within); extremal finders take (g, Z, k, family)
BaseFinderFn = Callable[[Graph, frozenset, int, Optional[frozenset]], Optional[Separation]]
ExtremalFinderFn = Callable[[Graph, frozenset, int, Sequence[frozenset]], Optional[Separation]]


def _require_connected_z(g: Graph, zmask: int, alive: int):
    if zmask == 0:
        raise ValueError("Z must be nonempty")
    if zmask & ~alive:
        raise ValueError("Z must lie inside the considered vertex set")
    if reach_mask(g, zmask & -zmask, zmask) != zmask:
        raise ValueError("G[Z] must be connected")


# -- bipartite ---------------------------------------------------------------


def find_separation_bip(
    g: Graph,
    Z: frozenset[int],
    k: int,
    within: Optional[frozenset[int]] = None,
) -> Optional[Separation]:
    """(bipartite, h(x)=2x)-separation finding via the parity graph.

    Found separations satisfy |S| <= 2k and cover Z; None certifies that Z
    is (bipartite, k)-inseparable.
    """
    alive = g.full_mask() if within is None else mask_of(within)
    zmask = mask_of(Z)
    _require_connected_z(g, zmask, alive)
    bip = GraphClassSpec.bipartite()
    comp = reach_mask(g, zmask, alive)
    if k == 0:
        if is_member(g, bip, set_of(comp)):
            return Separation(set_of(comp), frozenset(), bip, 0)
        return None
    coloring = proper_2_coloring(g, Z)
    if coloring is None:
        return None
    class1 = mask_of(v for v, c in coloring.items() if c == 1)
    class2 = zmask & ~class1
    # parity graph inside G[comp]: state v is the even copy of v and v + n
    # the odd copy, and every edge joins copies of opposite parity.  An odd
    # cycle through Z joins X (class 1 even, class 2 odd) to Y (the others).
    n = g.n
    adj = [a << n for a in g._adj_masks] + list(g._adj_masks)
    res = _vertex_flow(
        adj, comp | comp << n, class1 | class2 << n, class1 << n | class2, 2 * k
    )
    if res is None:
        return None
    cut = res[1]
    deleted = (cut | cut >> n) & comp
    cmask = reach_mask(g, zmask, comp & ~deleted)
    smask = neighborhood_mask(g, cmask, comp)
    sep = Separation(set_of(cmask), set_of(smask), bip, 2 * k)
    assert not sep.validate(g), "parity construction produced an invalid separation"
    return sep


# -- forbidden induced subgraphs ----------------------------------------------


def find_separation_forbidden(
    g: Graph,
    Z: frozenset[int],
    k: int,
    cls: GraphClassSpec,
    stats: Optional[SearchStats] = None,
) -> Optional[Separation]:
    """Exact (class, h(x)=x)-separation finding by branching on obstructions.

    For each induced obstruction F, either some u in V(F) \\ Z joins the
    separator, or an important (u, Z)-separator can be removed wholesale.
    Branch (a) vertices are explored in ascending id before branch (b)
    separators in enumeration order; the first Found wins.
    """
    if cls.kind != GraphClassSpec.FORBIDDEN:
        raise ValueError("find_separation_forbidden needs a forbidden-induced class")
    zmask = mask_of(Z)
    _require_connected_z(g, zmask, g.full_mask())

    def rec(alive: int, budget: int, depth: int) -> Optional[tuple[int, int]]:
        if stats is not None and depth > 0:
            stats.tick()
        comp = reach_mask(g, zmask, alive)
        obstruction = find_induced_obstruction(g, cls, set_of(comp))
        if obstruction is None:
            return comp, 0
        branch_vertices = sorted(obstruction - Z)
        for u in branch_vertices:  # branch (a): u joins the separator
            if budget >= 1:
                sub = rec(alive & ~(1 << u), budget - 1, depth + 1)
                if sub is not None:
                    csub, ssub = sub
                    return csub, ssub | (1 << u)
        for u in branch_vertices:  # branch (b): cut u away from Z
            found: list[Optional[tuple[int, int]]] = [None]

            def try_separator(sep: frozenset[int]) -> None:
                if found[0] is not None:
                    return
                smask = mask_of(sep)
                sub = rec(alive & ~smask, budget - len(sep), depth + 1)
                if sub is not None:
                    found[0] = (sub[0], sub[1] | smask)

            query = ImportantSeparatorQuery(frozenset({u}), Z, budget)
            enumerate_important_separators(query, g, try_separator, within=set_of(comp))
            if found[0] is not None:
                return found[0]
        return None

    res = rec(g.full_mask(), k, 0)
    if res is None:
        return None
    cmask, smask = res
    sep = Separation(set_of(cmask), set_of(smask), cls, k)
    assert not sep.validate(g), "branching produced an invalid separation"
    return sep


# -- restricted wrapper --------------------------------------------------------


def find_separation_restricted(
    g: Graph,
    Z: frozenset[int],
    k: int,
    t: int,
    cls: GraphClassSpec,
    family: Sequence[frozenset[int]],
    base: BaseFinderFn,
    within: Optional[frozenset[int]] = None,
    stats: Optional[SearchStats] = None,
) -> Optional[Separation]:
    """Restricted separation finding on top of an unrestricted finder.

    Found separations weakly cover Z, have |S| <= h(t) + k, and C contains
    at most k family sets; family members must be connected, pairwise
    disjoint, and (class, k)-inseparable (the latter is the caller's
    promise).  None is a correct (class, k)-inseparability verdict.
    """
    if k > t:
        raise ValueError("k must be at most t")
    alive0 = g.full_mask() if within is None else mask_of(within)
    zmask = mask_of(Z)
    _require_connected_z(g, zmask, alive0)
    seen = 0
    for f in family:
        fmask = mask_of(f)
        if fmask & zmask:
            raise ValueError("family sets must be disjoint from Z")
        if fmask & seen:
            raise ValueError("family sets must be pairwise disjoint")
        if reach_mask(g, fmask & -fmask, fmask) != fmask:
            raise ValueError("family sets must be connected")
        seen |= fmask

    def rec(alive: int, budget: int, fam: list[int], depth: int) -> Optional[tuple[frozenset, frozenset]]:
        if stats is not None and depth > 0:
            stats.tick()
        comp = reach_mask(g, zmask, alive)
        fam = [f for f in fam if f & ~comp == 0]
        if len(fam) <= budget:
            out = base(g, Z, budget, set_of(comp))
            if out is None:
                return None
            return out.C, out.S
        chosen = fam[: budget + 1]
        found: list[Optional[tuple[frozenset, frozenset]]] = [None]
        for fmask in chosen:

            def try_separator(sep: frozenset[int]) -> None:
                if found[0] is not None:
                    return
                smask = mask_of(sep)
                sub = rec(alive & ~smask, budget - len(sep), fam, depth + 1)
                if sub is not None:
                    found[0] = (sub[0], sub[1] | sep)

            query = ImportantSeparatorQuery(set_of(fmask), Z, budget)
            enumerate_important_separators(query, g, try_separator, within=set_of(comp))
            if found[0] is not None:
                return found[0]
        return None

    res = rec(alive0, k, [mask_of(f) for f in family], 0)
    if res is None:
        return None
    c, s = res
    return Separation(c, s, cls, cls.h_value(t) + k)


# -- extremal iteration ---------------------------------------------------------


def find_extremal_separation(
    g: Graph,
    region: frozenset[int],
    Z: frozenset[int],
    k: int,
    seed: Separation,
    cls: GraphClassSpec,
    family: Sequence[frozenset[int]],
    finder: ExtremalFinderFn,
) -> tuple[frozenset[int], Separation, bool]:
    """Grow Z inside `region` until it is inseparable or swallows the region.

    Returns (Z', separation weakly covering Z', certified) where `certified`
    says the final verdict was an inseparability conclusion of the finder.
    The separator never exceeds seed.bound = h(k)+1.
    """
    if not Z <= region:
        raise ValueError("Z must be inside the region")
    region_mask = mask_of(region)
    zset = Z
    current = seed
    for _ in range(len(region) + 1):
        outcome = finder(g, zset, k, family)
        if outcome is None:
            return zset, current, True
        zmask = mask_of(zset)
        inside = region_mask & (mask_of(outcome.C) | mask_of(outcome.S))
        zprime = reach_mask(g, zmask, inside)
        assert zprime & zmask == zmask
        if zprime == region_mask:
            return region, Separation(outcome.C, outcome.S, cls, seed.bound), False
        grow = neighborhood_mask(g, zprime, region_mask)
        v = grow & -grow
        assert v, "region is connected, so the boundary is nonempty"
        zset = set_of(zprime | v)
        s2 = outcome.S | set_of(v)
        assert len(s2) <= seed.bound
        current = Separation(outcome.C, frozenset(s2), cls, seed.bound)
    raise AssertionError("extremal iteration failed to terminate")
