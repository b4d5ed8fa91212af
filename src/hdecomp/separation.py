"""Separation finding: exact for forbidden-induced-subgraph classes, a
2-approximation for bipartite graphs, plus the restricted wrapper and the
extremal iteration used by the decomposition builder.

Outcomes are Optional[Separation]: None means the query set Z was concluded
to be (class, k)-inseparable, which is always an unconditional verdict.  The
finders are mask kernels (`_bip_masks`, `_forbidden_masks`,
`_restricted_masks`) that the decomposition builder and the extremal
iteration call directly; the public finders are frozenset adapters that
also check their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .graphs import (
    Graph,
    GraphClassSpec,
    _find_embedding_image,
    bits,
    coloring_mask,
    is_member,
    mask_of,
    neighborhood_mask,
    reach_mask,
    set_of,
)
from .separators import SearchStats, _important_masks, _vertex_flow


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


# base finders take (g, Z, k, within); mask base finders take
# (g, zmask, k, Z's component) and extremal finders (g, zmask, k, family
# masks), and both return (cmask, smask) or None
BaseFinderFn = Callable[[Graph, frozenset, int, Optional[frozenset]], Optional[Separation]]
MaskFinderFn = Callable[[Graph, int, int, int], Optional[tuple[int, int]]]
ExtremalFinderFn = Callable[[Graph, int, int, Sequence[int]], Optional[tuple[int, int]]]


def _require_connected_z(g: Graph, zmask: int, alive: int):
    if zmask == 0:
        raise ValueError("Z must be nonempty")
    if zmask & ~alive:
        raise ValueError("Z must lie inside the considered vertex set")
    if reach_mask(g, zmask & -zmask, zmask) != zmask:
        raise ValueError("G[Z] must be connected")


# -- bipartite ---------------------------------------------------------------


def _bip_masks(g: Graph, zmask: int, k: int, comp: int) -> Optional[tuple[int, int]]:
    """Mask kernel of `find_separation_bip`, given `comp`, the component of
    Z in the considered vertex set: (C, S) masks or None.

    Z must be nonempty and connected; the caller checks.
    """
    if k == 0:
        return (comp, 0) if coloring_mask(g, comp) is not None else None
    class1 = coloring_mask(g, zmask)
    if class1 is None:
        return None
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
    # C lies in the component comp, so N(C) within the considered vertex
    # set is S; under the restricted search the important separators
    # already taken are outside it, and the caller adds them to S
    smask = neighborhood_mask(g, cmask, comp)
    assert (
        smask.bit_count() <= 2 * k and coloring_mask(g, cmask) is not None
    ), "parity construction produced an invalid separation"
    return cmask, smask


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
    res = _bip_masks(g, zmask, k, reach_mask(g, zmask, alive))
    if res is None:
        return None
    return Separation(set_of(res[0]), set_of(res[1]), GraphClassSpec.bipartite(), 2 * k)


# -- forbidden induced subgraphs ----------------------------------------------


def _forbidden_masks(
    g: Graph,
    zmask: int,
    k: int,
    cls: GraphClassSpec,
    images: dict[int, Optional[int]],
    stats: Optional[SearchStats] = None,
) -> Optional[tuple[int, int]]:
    """Mask kernel of `find_separation_forbidden`: (C, S) masks or None.

    Z must be nonempty and connected; the caller checks.  `images` maps a
    vertex mask to its obstruction image (the first family member's
    smallest image) or None; a caller that keeps g and cls may pass the same
    dict to every call, since the image depends on nothing else.
    """

    def obstruction(comp: int) -> Optional[int]:
        if comp not in images:
            images[comp] = None
            for pattern in cls.family:
                image = _find_embedding_image(g, pattern, comp)
                if image is not None:
                    images[comp] = image
                    break
        return images[comp]

    def rec(alive: int, budget: int, depth: int) -> Optional[tuple[int, int]]:
        if stats is not None and depth > 0:
            stats.tick()
        comp = reach_mask(g, zmask, alive)
        image = obstruction(comp)
        if image is None:
            return comp, 0
        if budget <= 0:  # the image lies in comp, so no empty set cuts it from Z
            return None
        branch = image & ~zmask
        for u in bits(branch):  # branch (a): u joins the separator
            sub = rec(alive & ~(1 << u), budget - 1, depth + 1)
            if sub is not None:
                return sub[0], sub[1] | (1 << u)
        for u in bits(branch):  # branch (b): cut u away from Z
            for sep in _important_masks(g, 1 << u, zmask, budget, comp):
                sub = rec(alive & ~sep, budget - sep.bit_count(), depth + 1)
                if sub is not None:
                    return sub[0], sub[1] | sep
        return None

    res = rec(g.full_mask(), k, 0)
    if res is None:
        return None
    cmask, smask = res
    # the whole-graph conditions of Separation.validate
    assert (
        not cmask & smask
        and smask.bit_count() <= k
        and all(_find_embedding_image(g, p, cmask) is None for p in cls.family)
        and not neighborhood_mask(g, cmask) & ~smask
    ), "branching produced an invalid separation"
    return res


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
    res = _forbidden_masks(g, zmask, k, cls, {}, stats)
    if res is None:
        return None
    return Separation(set_of(res[0]), set_of(res[1]), cls, k)


# -- restricted wrapper --------------------------------------------------------


def _restricted_masks(
    g: Graph,
    zmask: int,
    k: int,
    family: Sequence[int],
    base: MaskFinderFn,
    comp: int,
    stats: Optional[SearchStats] = None,
) -> Optional[tuple[int, int]]:
    """Mask kernel of `find_separation_restricted`, given `comp`, the
    component of Z in the considered vertex set: (C, S) masks or None.  The
    caller checks the preconditions: G[Z] connected, the family masks
    connected, pairwise disjoint and disjoint from Z."""

    def rec(comp: int, budget: int, fam: list[int], depth: int) -> Optional[tuple[int, int]]:
        if stats is not None and depth > 0:
            stats.tick()
        fam = [f for f in fam if f & ~comp == 0]
        if len(fam) <= budget:
            return base(g, zmask, budget, comp)
        if budget <= 0:  # the members lie in comp, so no empty set cuts them from Z
            return None
        for fmask in fam[: budget + 1]:
            for sep in _important_masks(g, fmask, zmask, budget, comp):
                sub = rec(reach_mask(g, zmask, comp & ~sep), budget - sep.bit_count(), fam, depth + 1)
                if sub is not None:
                    return sub[0], sub[1] | sep
        return None

    return rec(comp, k, list(family), 0)


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
    alive = g.full_mask() if within is None else mask_of(within)
    zmask = mask_of(Z)
    _require_connected_z(g, zmask, alive)
    fmasks = [mask_of(f) for f in family]
    seen = 0
    for fmask in fmasks:
        if fmask & zmask:
            raise ValueError("family sets must be disjoint from Z")
        if fmask & seen:
            raise ValueError("family sets must be pairwise disjoint")
        if reach_mask(g, fmask & -fmask, fmask) != fmask:
            raise ValueError("family sets must be connected")
        seen |= fmask

    def mask_base(g2: Graph, zm: int, k2: int, alive2: int) -> Optional[tuple[int, int]]:
        out = base(g2, Z, k2, set_of(alive2))
        return None if out is None else (mask_of(out.C), mask_of(out.S))

    comp = reach_mask(g, zmask, alive)
    res = _restricted_masks(g, zmask, k, fmasks, mask_base, comp, stats)
    if res is None:
        return None
    return Separation(set_of(res[0]), set_of(res[1]), cls, cls.h_value(t) + k)


# -- extremal iteration ---------------------------------------------------------


def find_extremal_separation(
    g: Graph,
    region: int,
    zmask: int,
    k: int,
    family: Sequence[int],
    finder: ExtremalFinderFn,
) -> tuple[int, int, int, bool]:
    """Grow Z inside `region` until it is inseparable or swallows the region.

    Returns masks (Z', C, S, certified), where (C, S) weakly covers Z' and
    `certified` says the final verdict was an inseparability conclusion of
    the finder.  The first verdict returns the seed (empty, Z); later ones
    return the previous separation with the grown vertex added to S.
    """
    if zmask & ~region:
        raise ValueError("Z must be inside the region")
    cmask, smask = 0, zmask
    for _ in range(region.bit_count() + 1):
        outcome = finder(g, zmask, k, family)
        if outcome is None:
            return zmask, cmask, smask, True
        cmask, smask = outcome
        zprime = reach_mask(g, zmask, region & (cmask | smask))
        assert zprime & zmask == zmask
        if zprime == region:
            return region, cmask, smask, False
        grow = neighborhood_mask(g, zprime, region)
        v = grow & -grow
        assert v, "region is connected, so the boundary is nonempty"
        zmask = zprime | v
        smask |= v
    raise AssertionError("extremal iteration failed to terminate")
