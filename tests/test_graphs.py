import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPIDER_COMPLEMENT_5, random_graph
from fsgraph import (
    Graph,
    InvalidArgumentError,
    build_named,
    delete_vertex,
    disjoint_union,
    has_hamiltonian_path,
    induced_subgraph,
    structure_report,
)
from fsgraph.graphs import _drop_vertex, _hamiltonian_paths, iter_hamiltonian_paths


def graph_strategy(max_n=8):
    def build(n, seed):
        rng = random.Random(seed)
        return random_graph(rng, n)

    return st.builds(
        build, st.integers(min_value=1, max_value=max_n), st.integers(0, 10**6)
    )


# -- construction and named families ------------------------------------------


def test_graph_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        Graph(0)
    with pytest.raises(InvalidArgumentError):
        Graph(3, [(1, 1)])
    with pytest.raises(InvalidArgumentError):
        Graph(3, [(1, 4)])
    for edge in ((1.5, 2), ("1", 2), (True, 2)):
        with pytest.raises(InvalidArgumentError, match="non-integer endpoint"):
            Graph(3, [edge])
    for n in ("3", 2.5, True):
        with pytest.raises(InvalidArgumentError, match="vertex count must be an integer"):
            Graph(n, [])


def test_duplicate_edges_collapse():
    g = Graph(3, [(1, 2), (2, 1), (1, 2)])
    assert g.edges == ((1, 2),)


def test_star_edges():
    assert build_named("star", 4).edges == ((1, 4), (2, 4), (3, 4))


def test_single_vertex_path():
    g = build_named("path", 1)
    assert g.n == 1 and g.edge_count == 0


def test_lollipop_edges():
    g = build_named("lollipop", k=3, m=3)
    assert g.n == 6
    assert set(g.edges) == {(1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6)}


def test_dynkin_edges():
    assert set(build_named("dynkin_d", 5).edges) == {(1, 2), (2, 3), (3, 4), (3, 5)}


def test_theta0_shape():
    g = build_named("theta0")
    assert g.n == 7 and g.edge_count == 8
    r = structure_report(g)
    assert r.is_biconnected and not r.is_bipartite
    assert sorted(g.degrees()) == [2, 2, 2, 2, 2, 3, 3]


def test_complete_bipartite():
    g = build_named("complete_bipartite", 5, k=2)
    assert g.edge_count == 6
    assert all(g.has_edge(i, j) for i in (1, 2) for j in (3, 4, 5))


def test_family_bounds():
    with pytest.raises(InvalidArgumentError):
        build_named("cycle", 2)
    with pytest.raises(InvalidArgumentError):
        build_named("dynkin_d", 2)
    with pytest.raises(InvalidArgumentError):
        build_named("theta0", 6)
    with pytest.raises(InvalidArgumentError):
        build_named("lollipop", k=2, m=0)
    with pytest.raises(InvalidArgumentError):
        build_named("nonsense", 4)


# -- complement ----------------------------------------------------------------


def test_complement_of_complete_is_edgeless():
    for n in range(1, 7):
        assert build_named("complete", n).complement().edge_count == 0


def test_complement_of_path3():
    assert build_named("path", 3).complement().edges == ((1, 3),)


def test_complement_of_example_partner_is_tree():
    tree = SPIDER_COMPLEMENT_5.complement()
    r = structure_report(tree)
    assert r.is_forest and r.is_connected and tree.n == 5


@given(graph_strategy())
@settings(max_examples=80)
def test_complement_is_involution(g):
    assert g.complement().complement() == g


# -- induced subgraphs -----------------------------------------------------------


def test_induced_path_prefix():
    sub, mapping = induced_subgraph(build_named("path", 5), [1, 2, 3])
    assert sub == build_named("path", 3)
    assert mapping == {1: 1, 2: 2, 3: 3}


def test_induced_complete():
    sub, _ = induced_subgraph(build_named("complete", 5), [2, 4, 5])
    assert sub == build_named("complete", 3)


def test_induced_star_leaves_edgeless():
    sub, _ = induced_subgraph(build_named("star", 5), [1, 2, 3, 4])
    assert sub.edge_count == 0


def test_induced_rejects_empty():
    with pytest.raises(InvalidArgumentError):
        induced_subgraph(build_named("path", 3), [])


def test_delete_vertex_relabels():
    sub, mapping = delete_vertex(build_named("path", 4), 2)
    assert mapping == {1: 1, 3: 2, 4: 3}
    assert sub.edges == ((2, 3),)


# -- mask-level construction ---------------------------------------------------------


def _shuffled_random_graph(rng: random.Random, n: int) -> Graph:
    """A random graph with its labels shuffled, so no test leans on the
    order in which random_graph draws edges."""
    g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return g.relabel(dict(zip(range(1, n + 1), labels)))


def _validated_induced(g: Graph, members) -> Graph:
    """The induced subgraph built edge by edge through the checking
    constructor, as a reference for the mask-level builders."""
    ordered = sorted(members)
    new = {old: i for i, old in enumerate(ordered, start=1)}
    return Graph(len(ordered), [(new[a], new[b]) for a, b in g.edges if a in new and b in new])


def _same_graph(a: Graph, b: Graph) -> bool:
    return a.n == b.n and a._adj == b._adj and a.edges == b.edges


def test_mask_builders_match_validated_construction():
    rng = random.Random(41)
    for _ in range(150):
        n = rng.randint(1, 9)
        g = _shuffled_random_graph(rng, n)
        h = _shuffled_random_graph(rng, rng.randint(1, 5))
        assert _same_graph(Graph._from_masks(g._adj), g)
        missing = [
            (a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if not g.has_edge(a, b)
        ]
        assert _same_graph(g.complement(), Graph(n, missing))
        shifted = [(a + n, b + n) for a, b in h.edges]
        assert _same_graph(disjoint_union(g, h), Graph(n + h.n, list(g.edges) + shifted))
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        mapping = dict(zip(range(1, n + 1), labels))
        relabeled = Graph(n, [(mapping[a], mapping[b]) for a, b in g.edges])
        assert _same_graph(g.relabel(mapping), relabeled)
        members = [v for v in range(1, n + 1) if rng.random() < 0.6] or [n]
        sub, sub_map = induced_subgraph(g, members)
        assert _same_graph(sub, _validated_induced(g, members))
        assert sub_map == {old: new for new, old in enumerate(sorted(members), start=1)}


def test_drop_vertex_matches_delete_vertex():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(2, 9)
        g = _shuffled_random_graph(rng, n)
        for v in range(1, n + 1):
            dropped = _drop_vertex(g._adj, v - 1)
            assert dropped == delete_vertex(g, v)[0]._adj
            rest = [u for u in range(1, n + 1) if u != v]
            assert dropped == _validated_induced(g, rest)._adj


def test_builders_keep_checking_caller_input():
    g = build_named("path", 4)
    with pytest.raises(InvalidArgumentError):
        g.relabel({1: 1, 2: 1, 3: 3, 4: 4})
    with pytest.raises(InvalidArgumentError):
        induced_subgraph(g, [1, 5])
    with pytest.raises(InvalidArgumentError):
        delete_vertex(g, 0)
    with pytest.raises(InvalidArgumentError):
        delete_vertex(Graph(1), 1)


# -- structure report -------------------------------------------------------------


def test_cycle5_report():
    r = structure_report(build_named("cycle", 5))
    assert r.is_biconnected
    assert not r.is_bipartite
    assert r.min_degree == r.max_degree == 2
    assert not r.cut_vertices


def test_disjoint_union_report():
    g = disjoint_union(build_named("complete", 2), build_named("complete", 3))
    r = structure_report(g)
    assert r.components == ((1, 2), (3, 4, 5))
    assert r.gcd_of_component_sizes == 1
    assert not r.is_connected


def test_star6_report():
    r = structure_report(build_named("star", 6))
    assert r.cut_vertices == frozenset({6})
    assert r.is_bipartite
    assert set(map(frozenset, r.bipartition)) == {frozenset({1, 2, 3, 4, 5}), frozenset({6})}
    assert r.is_forest and r.tree_sizes == (6,)


def test_single_vertex_not_bipartite():
    r = structure_report(Graph(1))
    assert not r.is_bipartite and r.bipartition is None
    assert r.gcd_of_component_sizes == 1
    assert not r.is_biconnected


def test_edgeless_bipartition_nonempty_parts():
    r = structure_report(Graph(4))
    assert r.is_bipartite
    a, b = r.bipartition
    assert a and b and set(a) | set(b) == {1, 2, 3, 4}


def test_k2_is_biconnected():
    assert structure_report(build_named("complete", 2)).is_biconnected


def test_components_partition_vertices():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        r = structure_report(g)
        seen = sorted(v for c in r.components for v in c)
        assert seen == list(range(1, g.n + 1))
        assert sum(len(c) for c in r.components) == g.n


def test_biconnected_means_every_deletion_stays_connected():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, 0.5)
        r = structure_report(g)
        if n == 1:
            continue
        deletions_ok = all(
            structure_report(delete_vertex(g, v)[0]).is_connected if n > 1 else True
            for v in range(1, n + 1)
        )
        assert r.is_biconnected == (r.is_connected and n >= 2 and deletions_ok)


# -- Hamiltonian paths --------------------------------------------------------------


def brute_hamiltonian(g: Graph):
    for order in itertools.permutations(range(1, g.n + 1)):
        if all(g.has_edge(order[i], order[i + 1]) for i in range(g.n - 1)):
            return order
    return None


def test_hamiltonian_examples():
    assert has_hamiltonian_path(build_named("lollipop", k=3, m=3)) is not None
    assert has_hamiltonian_path(build_named("star", 4)) is None
    assert has_hamiltonian_path(Graph(1)) == (1,)


def test_hamiltonian_agrees_with_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        found = has_hamiltonian_path(g)
        brute = brute_hamiltonian(g)
        assert (found is None) == (brute is None)
        if found is not None:
            assert all(g.has_edge(found[i], found[i + 1]) for i in range(n - 1))
            assert sorted(found) == list(range(1, n + 1))


def test_mask_paths_match_iter_hamiltonian_paths():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = _shuffled_random_graph(rng, n)
        shifted = [tuple(v + 1 for v in path) for path in _hamiltonian_paths(g._adj)]
        assert shifted == list(iter_hamiltonian_paths(g))
        if n <= 7:
            brute = [
                order
                for order in itertools.permutations(range(1, n + 1))
                if all(g.has_edge(order[i], order[i + 1]) for i in range(n - 1))
            ]
            assert shifted == brute
