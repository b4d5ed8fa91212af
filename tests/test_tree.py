import random
import tracemalloc

import pytest

from hdecomp.decomposition import EliminationForest, ForestNode, ed_to_tree_decomposition
from hdecomp.graphs import Graph
from hdecomp.tree import path_masks


def _walk_up(parents, masks, i):
    out = 0
    while i >= 0:
        out |= masks[i]
        i = parents[i]
    return out


def test_path_masks_matches_a_walk_up_reference():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 40)
        # a parent at most `reach` ids back, so short reaches give deep
        # chains and long ones shallow trees; now and then a new root
        reach = rng.choice([1, 3, n or 1])
        parents = [
            rng.randint(max(-1, i - reach), i - 1) if rng.random() < 0.9 else -1 for i in range(n)
        ]
        masks = [rng.getrandbits(rng.choice([0, 1, 8, 70])) for _ in range(n)]
        assert path_masks(parents, masks) == [_walk_up(parents, masks, i) for i in range(n)]


@pytest.mark.parametrize("parents", [[0], [-1, 2, 1], [-1, 0, 5]], ids=["self", "later", "dangling"])
def test_path_masks_refuses_a_parent_that_does_not_precede_its_child(parents):
    with pytest.raises(ValueError, match="parents must precede children"):
        path_masks(parents, [1] * len(parents))
    nodes = [ForestNode(frozenset({i}), p, False) for i, p in enumerate(parents)]
    forest = EliminationForest(nodes + [ForestNode(frozenset(), len(nodes) - 1, True)], None)
    with pytest.raises(ValueError, match="parents must precede children"):
        ed_to_tree_decomposition(forest)


def _peak(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_deep_path_forest_validates_and_converts_in_little_memory():
    """Root-path masks hold about n * depth bits where per-node ancestor
    sets held n * depth set entries: on this 6,000-deep forest each call
    used to peak near 820 MB under tracemalloc."""
    n = 6000
    g = Graph.path(n)
    nodes = [ForestNode(frozenset({v}), v - 1, False) for v in range(n)]
    forest = EliminationForest(nodes + [ForestNode(frozenset(), n - 1, True)], None)
    errs, peak = _peak(lambda: forest.validate(g))
    assert errs == [] and peak < 32 << 20, peak
    dec, peak = _peak(lambda: ed_to_tree_decomposition(forest))
    assert peak < 32 << 20, peak
    assert dec.width == n - 1 and dec.validate(g) == []
