import hashlib
import itertools
import random
import sys

import pytest
from hypothesis import given, settings

from hdecomp.graphs import (
    Graph,
    GraphClassSpec,
    _find_embedding_image,
    _orbit_table,
    connected_components,
    find_induced_obstruction,
    is_member,
    mask_of,
    parse_family,
    parse_gr,
    proper_2_coloring,
    reach_mask,
    set_of,
    write_family,
    write_gr,
)
from hdecomp.decomposition import _Quotient

from .conftest import connected_graphs_st, graphs, random_graph
from .smallgraphs import (
    CONNECTED_GRAPH_COUNTS,
    GRAPH_COUNTS,
    all_graphs,
    canonical_form,
    connected_graphs,
    connected_masks,
    from_edge_mask,
)

BIP = GraphClassSpec.bipartite()
TRI = GraphClassSpec.triangle_free()
P3 = Graph.path(3)
P3_CLASS = GraphClassSpec.forbidden(P3)


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_graph_dedups_parallel_edges():
    g = Graph(2, [(0, 1), (1, 0)])
    assert len(g.edges) == 1


def test_induced_equals_the_edge_filter_definition():
    rng = random.Random(74)
    for _ in range(300):
        g = random_graph(rng, rng.randint(0, 14), rng.choice((0.1, 0.3, 0.6, 0.9)))
        for chosen in (set(), set(range(g.n)), {v for v in range(g.n) if rng.random() < 0.5}):
            order = sorted(chosen)
            index = {v: i for i, v in enumerate(order)}
            want = Graph(len(order), [(index[u], index[v]) for u, v in g.edges if u in chosen and v in chosen])
            # a list with repeats, out of order: only the set matters
            sub, mapping = g.induced(list(chosen) * 2)
            assert (sub, mapping) == (want, order)


def test_connected_components_examples():
    assert connected_components(Graph(0)) == []
    assert connected_components(Graph.complete(3)) == [frozenset({0, 1, 2})]
    g = Graph(4, [(0, 1), (2, 3)])
    assert connected_components(g) == [frozenset({0, 1}), frozenset({2, 3})]


def test_is_member_examples():
    assert is_member(Graph.cycle(4), BIP)
    assert not is_member(Graph.complete(3), BIP)
    assert not is_member(Graph.complete(4), TRI)


def test_find_induced_obstruction_examples():
    assert find_induced_obstruction(Graph.complete(4), TRI) == {0, 1, 2}
    assert find_induced_obstruction(Graph.cycle(4), TRI) is None


def test_obstruction_matches_brute_force_existence():
    # [DERIVED]: exhaustive subset check on a fixed 8-vertex graph
    g = from_edge_mask(8, 0x5A3C9F1)
    fam = GraphClassSpec.forbidden(Graph.complete(3), Graph.path(4))
    got = find_induced_obstruction(g, fam)
    exists = False
    for size in (3, 4):
        for combo in itertools.combinations(range(8), size):
            sub, _ = g.induced(combo)
            if size == 3 and sub.edges == Graph.complete(3).edges:
                exists = True
            if size == 4 and is_isomorphic_p4(sub):
                exists = True
    assert (got is not None) == exists


def embedding_image_reference(g, pattern, within_mask):
    """The combinations x permutations scan the backtracking search replaced."""
    candidates = [v for v in range(g.n) if within_mask >> v & 1]
    for combo in itertools.combinations(candidates, pattern.n):
        for perm in itertools.permutations(range(pattern.n)):
            if all(
                pattern.has_edge(perm[i], perm[j]) == g.has_edge(combo[i], combo[j])
                for i, j in itertools.combinations(range(pattern.n), 2)
            ):
                return frozenset(combo)
    return None


def test_embedding_search_matches_the_scan_reference():
    patterns = [
        Graph.complete(2),
        P3,
        Graph.complete(3),
        Graph(4, [(0, 1), (0, 2), (0, 3)]),  # claw
        Graph.path(4),
        Graph.cycle(5),
        Graph.complete(4),
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
    ]
    rng = random.Random(11)
    found = 0
    for i in range(2400):
        n = rng.randint(0, 11)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        within = rng.getrandbits(n) if i % 4 else g.full_mask()
        pattern = patterns[i % len(patterns)]
        want = embedding_image_reference(g, pattern, within)
        got = _find_embedding_image(g, pattern, within)
        assert (None if got is None else set_of(got)) == want, (g.edges, within, i)
        found += want is not None
    assert 400 < found < 2000  # both outcomes are exercised


def orbit_table_reference(pattern):
    """allowed[U] by its definition, over every permutation of the pattern."""
    q = pattern.n
    autos = [
        s
        for s in itertools.permutations(range(q))
        if all(pattern.has_edge(s[u], s[v]) == pattern.has_edge(u, v) for u, v in itertools.combinations(range(q), 2))
    ]
    table = []
    for used in range(1 << q):
        stab = [s for s in autos if all(s[u] == u for u in range(q) if used >> u & 1)]
        table.append(mask_of(p for p in range(q) if not used >> p & 1 and min(s[p] for s in stab) == p))
    return tuple(table)


def labelled_connected(n):
    labelled = (from_edge_mask(n, m) for m in range(1 << n * (n - 1) // 2))
    return [g for g in labelled if len(connected_components(g)) == 1]


def test_orbit_table_matches_its_definition():
    rng = random.Random(5)
    patterns = [g for n in (2, 3, 4) for g in labelled_connected(n)]
    patterns += rng.sample(labelled_connected(5), 60)
    patterns += [Graph.complete(6), Graph.cycle(6), Graph(6, [(0, v) for v in range(1, 6)])]
    assert len(patterns) == 1 + 4 + 38 + 60 + 3
    for pattern in patterns:
        assert _orbit_table(pattern) == orbit_table_reference(pattern), pattern.edges


def test_orbit_table_keeps_one_vertex_of_a_clique():
    for ell in range(2, 7):
        table = _orbit_table(Graph.complete(ell))
        assert all(table[used].bit_count() == 1 for used in range((1 << ell) - 1))
        assert table[(1 << ell) - 1] == 0
    assert _orbit_table(Graph(4, [(0, 1), (0, 2), (0, 3)]))[0] == 0b0011  # centre 0, leaf 1
    assert _orbit_table(Graph(4, [(2, 0), (2, 1), (2, 3)]))[0] == 0b0101  # leaf 0, centre 2


def test_embedding_search_matches_the_reference_on_every_small_pattern():
    patterns = [g for g in connected_graphs(5) if g.n >= 2]
    assert len(patterns) == 1 + 2 + 6 + 21
    rng = random.Random(27)
    for pattern in patterns:
        for i in range(16):
            n = rng.randint(pattern.n, 10)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            within = g.full_mask() if i % 2 else rng.getrandbits(n)
            got = _find_embedding_image(g, pattern, within)
            want = embedding_image_reference(g, pattern, within)
            assert (None if got is None else set_of(got)) == want, (pattern.edges, g.edges, within)


def turan(n, r):
    return Graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if u % r != v % r])


def test_embedding_search_on_turan_hosts():
    def frames(g, pattern):
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call" and frame.f_code.co_name == "extend"

        sys.setprofile(profile)
        try:
            _find_embedding_image(g, pattern, g.full_mask())
        finally:
            sys.setprofile(None)
        return count

    k5, k6 = Graph.complete(5), Graph.complete(6)
    t20, t25 = turan(20, 4), turan(25, 5)
    assert _find_embedding_image(t20, k5, t20.full_mask()) is None
    assert _find_embedding_image(t25, k6, t25.full_mask()) is None
    # the vertex sets visited do not depend on how many maps each keeps
    assert frames(t20, k5) == 984
    # an edge inside a part closes a clique through both of its ends
    t20 = Graph(20, t20.edges | {(4, 8)})
    t25 = Graph(25, t25.edges | {(7, 12)})
    assert _find_embedding_image(t20, k5, t20.full_mask()) == mask_of([1, 2, 3, 4, 8])
    assert _find_embedding_image(t25, k6, t25.full_mask()) == mask_of([0, 1, 3, 4, 7, 12])


def is_isomorphic_p4(g: Graph) -> bool:
    if g.n != 4 or len(g.edges) != 3:
        return False
    degs = sorted(g.degree(v) for v in range(4))
    return degs == [1, 1, 2, 2]


def test_proper_2_coloring_examples():
    assert proper_2_coloring(Graph.path(3)) == {0: 1, 1: 2, 2: 1}
    assert proper_2_coloring(Graph.complete(3)) is None
    assert proper_2_coloring(Graph(2)) == {0: 1, 1: 1}


def test_membership_is_hereditary(all6):
    for g in all6:
        for cls in (BIP, TRI, P3_CLASS):
            if not is_member(g, cls):
                continue
            for v in range(g.n):
                rest = frozenset(range(g.n)) - {v}
                assert is_member(g, cls, rest)


def test_coloring_iff_bipartite(all6):
    for g in all6:
        col = proper_2_coloring(g)
        assert (col is not None) == is_member(g, BIP)
        if col is not None:
            assert all(col[u] != col[v] for u, v in g.edges)
        assert (find_induced_obstruction(g, TRI) is None) == is_member(g, TRI)


@settings(max_examples=60, deadline=None)
@given(connected_graphs_st(max_n=7))
def test_contraction_of_connected_stays_connected(g):
    comps = connected_components(g)
    assert len(comps) == 1
    # contract a BFS tree prefix and the rest as singletons
    m = sorted(comps[0])
    half = m[: max(1, len(m) // 2)]
    hmask = mask_of(half)
    if reach_mask(g, hmask & -hmask, hmask) != hmask:
        return
    qt = _Quotient(g)
    for part in [half] + [[v] for v in m if v not in half]:
        qt.add(mask_of(part))
    assert len(connected_components(qt.graph())) == 1


def test_family_members_must_be_connected():
    with pytest.raises(ValueError):
        GraphClassSpec.forbidden(Graph(2))
    with pytest.raises(ValueError):
        GraphClassSpec.forbidden(Graph(1))
    with pytest.raises(ValueError):
        GraphClassSpec.forbidden(Graph.path(7))  # over the size cap


def test_gr_round_trip():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert parse_gr(write_gr(g)) == g
    text = "c comment\np hd 3 1\n1 3\n"
    assert parse_gr(text) == Graph(3, [(0, 2)])
    with pytest.raises(ValueError):
        parse_gr("p hd 2 2\n1 2\n")  # edge count mismatch
    with pytest.raises(ValueError):
        parse_gr("1 2\n")  # edge before p-line
    for text, message in (
        ("p hd 2 1\n1 x\n", "line 2: malformed edge '1 x'"),
        ("p hd -2 0\n", "line 1: malformed p-line 'p hd -2 0'"),
        ("p hd 2 1\n0 1\n", "line 2: vertex 0 out of range for n=2"),
    ):
        with pytest.raises(ValueError) as e:
            parse_gr(text)
        assert str(e.value) == message


def test_family_file_round_trip():
    fam = [Graph.complete(3), Graph.path(4)]
    assert parse_family(write_family(fam)) == fam


def test_small_graph_counts():
    for n in range(0, 7):
        assert len(all_graphs(n)) == GRAPH_COUNTS[n]


def test_family_separators_are_whole_lines():
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    text = "c triangle --- first member\np hd 3 3\n1 2\n2 3\n1 3\n---\nc claw\np hd 4 3\n1 2\n1 3\n1 4\n"
    assert parse_family(text) == [Graph.complete(3), claw]
    with pytest.raises(ValueError) as e:
        parse_family("c a --- b\np hd 3 3\n1 2\n2 3\n1 3\n  ---  \n\np hd 2 1\n1 1\n")
    assert str(e.value) == "line 9: self-loop at vertex 1"


def test_connected_corpus_is_complete(corpus7, corpus8):
    # OEIS A001349 for n = 1..8, and the sorted canonical masks of the corpus
    masks = [connected_masks(n) for n in range(1, 9)]
    assert [len(m) for m in masks] == CONNECTED_GRAPH_COUNTS[1:] == [1, 1, 2, 6, 21, 112, 853, 11117]
    assert hashlib.sha256(repr(masks).encode()).hexdigest() == (
        "b03a580a1f654b5119b44462c91a6c9704d66c368b2bc944c46f04f1e615f01e"
    )
    # every corpus graph is its own canonical form, so no two are isomorphic
    flat = [m for level in masks for m in level]
    assert len(corpus8) == 12113 and len(corpus7) == 12113 - 11117
    assert [canonical_form(g) for g in corpus8] == flat
    assert corpus7 == corpus8[: len(corpus7)]


def test_all_graphs_are_complete():
    assert len(all_graphs(7)) == GRAPH_COUNTS[7] == 1044
    assert hashlib.sha256(repr([all_graphs(n) for n in range(1, 7)]).encode()).hexdigest() == (
        "16561f9f48d69034c832ab28fbaff8ea96205abb9a749d1b28868be3821005c6"
    )


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=6), graphs(max_n=6))
def test_canonical_form_separates_iso_classes(g1, g2):
    # equal canonical forms imply equal degree sequences (sanity necessary
    # condition); identical graphs always agree
    if g1.n == g2.n and canonical_form(g1) == canonical_form(g2):
        assert sorted(g1.degree(v) for v in range(g1.n)) == sorted(
            g2.degree(v) for v in range(g2.n)
        )
    assert canonical_form(g1) == canonical_form(g1)
