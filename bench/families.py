"""Seeded graph families for the benchmark, with their exact optima.

Every generator takes a `random.Random` and returns an `Instance`: the graph
as vertex count plus sorted edge list, and the optima the answer checker
compares against.  The optima come from the construction, never from the
program under test:

* chains and pendant graphs are trees of odd cycles joined by bridges, so
  the odd cycle transversal is the number of cycles and the minimum vertex
  cover follows from a tree DP over the cycles (`_cactus_vc`);
* planted graphs are a random bipartite graph plus vertex-disjoint planted
  triangles or 5-cycles whose only same-side edge touches one planted
  vertex each, so deleting those vertices leaves a bipartite graph and the
  planted cycles force that many deletions.  The same number is the
  K3-free deletion number when every planted cycle is a triangle.

Vertices are 0-based here; `gr_text` writes the 1-based `.gr` format that
the CLI reads.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Instance:
    name: str
    n: int
    edges: list[tuple[int, int]]
    oct: Optional[int] = None  # minimum odd cycle transversal
    vc: Optional[int] = None  # minimum vertex cover
    k3: Optional[int] = None  # minimum triangle-free deletion set
    cycles: list[list[int]] = field(default_factory=list)
    bridges: list[tuple[int, int]] = field(default_factory=list)


def gr_text(inst: Instance) -> str:
    lines = [f"p hd {inst.n} {len(inst.edges)}"]
    lines += [f"{u + 1} {v + 1}" for u, v in inst.edges]
    return "\n".join(lines) + "\n"


def _norm(edges) -> list[tuple[int, int]]:
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def _cycle_edges(cyc: list[int]) -> list[tuple[int, int]]:
    return [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]


def _cactus_vc(cycles: list[list[int]], bridges: list[tuple[int, int]]) -> int:
    """Minimum vertex cover of cycles joined by bridges into a tree.

    Root the cycle tree at cycle 0.  For each cycle and each cover of its
    own edges, a child cycle hanging off vertex u by bridge (u, w) pays its
    best cost with w forced into the cover when u is not in it.
    """
    owner = {v: i for i, cyc in enumerate(cycles) for v in cyc}
    hang: list[list[tuple[int, int, int]]] = [[] for _ in cycles]  # (u, w, child)
    adj: list[list[tuple[int, int, int]]] = [[] for _ in cycles]
    for u, w in bridges:
        adj[owner[u]].append((u, w, owner[w]))
        adj[owner[w]].append((w, u, owner[u]))
    order, parent, seen = [0], {0: None}, {0}
    for i in order:
        for u, w, j in adj[i]:
            if j not in seen:
                seen.add(j)
                parent[j] = w  # attachment vertex inside cycle j
                hang[i].append((u, w, j))
                order.append(j)
    # best[j] = (cost with attachment vertex free, cost with it forced in)
    best: dict[int, tuple[int, int]] = {}
    for i in reversed(order):
        cyc = cycles[i]
        free = forced = None
        for bits in itertools.product((0, 1), repeat=len(cyc)):
            chosen = {v for v, b in zip(cyc, bits) if b}
            if any(u not in chosen and v not in chosen for u, v in _cycle_edges(cyc)):
                continue
            cost = len(chosen)
            for u, w, j in hang[i]:
                cost += best[j][1] if u not in chosen else min(best[j])
            free = cost if free is None else min(free, cost)
            if parent[i] is not None and parent[i] in chosen:
                forced = cost if forced is None else min(forced, cost)
        best[i] = (free, free if forced is None else forced)
    return best[0][0]


def _cycle_tree(name: str, lengths: list[int], attach) -> Instance:
    """Cycles of the given lengths, cycle i > 0 bridged to an earlier cycle by
    `attach(i, cycles) -> (u, w)` with u in an earlier cycle, w in cycle i."""
    cycles, edges, bridges, n = [], [], [], 0
    for i, ln in enumerate(lengths):
        cyc = list(range(n, n + ln))
        n += ln
        cycles.append(cyc)
        edges += _cycle_edges(cyc)
        if i:
            bridges.append(attach(i, cycles))
    edges += bridges
    return Instance(
        name,
        n,
        _norm(edges),
        oct=len(cycles),
        vc=_cactus_vc(cycles, bridges),
        cycles=cycles,
        bridges=bridges,
    )


def chain(rng: random.Random, p: int, lengths: tuple[int, ...] = (3, 5)) -> Instance:
    """p odd cycles (lengths drawn from `lengths`) in a row, consecutive ones
    joined by a single bridge between seeded vertices."""
    lengths = [rng.choice(lengths) for _ in range(p)]
    return _cycle_tree(
        f"chain{p}",
        lengths,
        lambda i, cyc: (rng.choice(cyc[i - 1]), rng.choice(cyc[i])),
    )


def pendant(rng: random.Random, p: int, tree: int = 10) -> Instance:
    """A hub odd cycle plus p pendant odd cycles, each bridged from hub vertex
    0 to its own first vertex (the pendant-triangle family with seeded cycle
    lengths), plus a seeded random tree on `tree` further vertices.

    The tree is a separate bipartite component: it changes neither optimum's
    cactus part nor the vertex ids of the cactus, whose tie-breaks drive the
    program's running time, but it makes every drawn instance distinct.
    """
    lengths = [rng.choice((3, 5)) for _ in range(p + 1)]
    inst = _cycle_tree(f"pendant{p}", lengths, lambda i, cyc: (0, cyc[i][0]))
    parent = [None] + [rng.randrange(i) for i in range(1, tree)]
    inst.edges = _norm(inst.edges + [(inst.n + i, inst.n + q) for i, q in enumerate(parent) if q is not None])
    # tree cover: scanning children before parents, cover the parent of any
    # still-uncovered child edge
    cover = set()
    for i in range(tree - 1, 0, -1):
        if i not in cover and parent[i] not in cover:
            cover.add(parent[i])
    inst.n += tree
    inst.vc += len(cover)
    return inst


def planted(rng: random.Random, n: int, t: int, avg_deg: float = 2.5, triangles: bool = False) -> Instance:
    """A sparse random bipartite graph on n vertices with t planted odd cycles.

    Planted cycle i runs through a vertex x_i and a same-side neighbour a_i;
    every other edge joins the two sides.  So G - {x_i} is bipartite, the t
    planted cycles are vertex-disjoint, and the OCT is exactly t.  With
    `triangles` every planted cycle is a triangle and the same t is the
    K3-free deletion number.
    """
    verts = list(range(n))
    rng.shuffle(verts)
    side = {v: i % 2 for i, v in enumerate(verts)}
    left = [v for v in verts if side[v] == 0]
    right = [v for v in verts if side[v] == 1]
    edges = set()
    target = int(avg_deg * n / 2)
    while len(edges) < target:
        edges.add((rng.choice(left), rng.choice(right)))
    pool_l, pool_r = left[:], right[:]
    rng.shuffle(pool_l)
    rng.shuffle(pool_r)
    for _ in range(t):
        x, a = pool_l.pop(), pool_l.pop()
        edges.add((x, a))  # the one same-side edge of this cycle
        if triangles or rng.random() < 0.5 or len(pool_l) < 1 or len(pool_r) < 2:
            b = pool_r.pop()
            edges |= {(a, b), (b, x)}
        else:  # x a b c d: a-b, b-c, c-d, d-x cross sides
            b, d = pool_r.pop(), pool_r.pop()
            c = pool_l.pop()
            edges |= {(a, b), (b, c), (c, d), (d, x)}
    inst = Instance(f"planted{n}_{t}", n, _norm(edges), oct=t)
    if triangles:
        inst.k3 = t
    return inst


CLAW = Instance("claw", 4, [(0, 1), (0, 2), (0, 3)])
K3 = Instance("k3", 3, [(0, 1), (0, 2), (1, 2)])


def family_text(members: list[Instance]) -> str:
    """The `---`-separated family file format of `forbid:<path>`."""
    return "---\n".join(gr_text(m) for m in members)


def chain_tree_decomposition(inst: Instance) -> str:
    """A tree H-decomposition (bipartite base class) of a chain, as JSON.

    Built from the construction, not by the program: cycle i keeps its first
    vertex and its bridge ends out of the base part, the path node P_i holds
    the kept vertices of cycles i and i+1, and a leaf under P_i adds the rest
    of cycle i, which is a union of paths and so bipartite.
    """
    ends = [set() for _ in inst.cycles]
    owner = {v: i for i, cyc in enumerate(inst.cycles) for v in cyc}
    for u, w in inst.bridges:
        ends[owner[u]].add(u)
        ends[owner[w]].add(w)
    keep = [{cyc[0]} | ends[i] for i, cyc in enumerate(inst.cycles)]
    nodes, base = [], []
    for i, cyc in enumerate(inst.cycles):
        path_bag = keep[i] | (keep[i + 1] if i + 1 < len(keep) else set())
        rest = set(cyc) - keep[i]
        base += rest
        nodes.append({"id": 2 * i, "parent": 2 * i - 2, "bag": sorted(path_bag), "leaf": False})
        nodes.append({"id": 2 * i + 1, "parent": 2 * i, "bag": sorted(keep[i] | rest), "leaf": True})
    nodes[0]["parent"] = -1
    if len(nodes) == 2:
        nodes[0]["leaf"] = False
    width = max(len(set(d["bag"]) - set(base)) for d in nodes) - 1
    doc = {
        "kind": "tree-h-decomposition",
        "class": {"kind": "bipartite"},
        "nodes": nodes,
        "L": sorted(base),
        "width": width,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
