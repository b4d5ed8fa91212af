"""Elimination forests and tree decompositions relative to a graph class,
with vertex-deletion solvers running on top of them."""

from .graphs import (
    Graph,
    GraphClassSpec,
    connected_components,
    find_induced_obstruction,
    is_member,
    parse_family,
    parse_gr,
    proper_2_coloring,
    write_family,
    write_gr,
)
from .separators import (
    ImportantSeparatorQuery,
    SearchStats,
    enumerate_important_separators,
)
from .separation import (
    Separation,
    find_extremal_separation,
    find_separation_bip,
    find_separation_forbidden,
    find_separation_restricted,
)
from .decomposition import (
    ALPHA,
    EliminationForest,
    ForestNode,
    NiceTreeHDecomposition,
    SeparationDecomposition,
    SepNode,
    TreeHDecomposition,
    build_ed_forest,
    build_separation_decomposition,
    build_tree_h_decomposition,
    ed_forest_from_sepdecomp,
    ed_to_tree_decomposition,
    exact_treedepth,
    exact_treewidth,
    from_json,
    make_nice,
    quotient,
    to_json,
    tree_decomp_from_sepdecomp,
)
from .solvers import (
    AbcInstance,
    solution_block,
    solve_abc,
    solve_klfree_elim,
    solve_klfree_fdfv,
    solve_oct_dp,
    solve_oct_elim,
    solve_vc_dp,
    solve_vc_elim,
)
from .oracles import (
    brute_abc,
    brute_ed,
    brute_min_deletion,
    brute_min_vertex_cover,
    brute_separable,
)

__all__ = [name for name in dir() if not name.startswith("_")]
