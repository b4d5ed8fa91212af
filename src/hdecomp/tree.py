"""Rooted forests as parent arrays (-1 marks a root), walked without recursion."""

from __future__ import annotations

from typing import Iterable, Sequence


def children(parents: Sequence[int]) -> list[list[int]]:
    """Children of every node, each list in increasing id."""
    ch: list[list[int]] = [[] for _ in parents]
    for i, p in enumerate(parents):
        if p >= 0:
            ch[p].append(i)
    return ch


def preorder(ch: Sequence[Sequence[int]], roots: Iterable[int]) -> list[int]:
    """Depth-first preorder from each root in turn, children in list order."""
    order = []
    stack = list(roots)[::-1]
    while stack:
        x = stack.pop()
        order.append(x)
        stack.extend(reversed(ch[x]))
    return order


def renumber(parents: Sequence[int], order: Sequence[int]) -> list[int]:
    """Parent array of the nodes in `order`, node order[i] renamed i."""
    new = {old: i for i, old in enumerate(order)}
    return [new[parents[old]] if parents[old] >= 0 else -1 for old in order]


def path_masks(parents: Sequence[int], masks: Sequence[int]) -> list[int]:
    """For every node, the union of `masks` over its root path, the node
    itself included.  Parents must precede their children."""
    out: list[int] = []
    for i, p in enumerate(parents):
        if p >= i:
            raise ValueError("parents must precede children")
        out.append(out[p] | masks[i] if p >= 0 else masks[i])
    return out
