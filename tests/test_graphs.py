import itertools
import math
import random
import time

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
    induced_subgraph,
    structure_report,
)
from fsgraph.graphs import NAMED_FAMILIES, _drop_vertex


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
    for args, kwargs in ((("path", 3.0), {}), (("complete_bipartite", 4), {"k": 2.0}),
                         (("lollipop",), {"k": 2, "m": "3"})):
        with pytest.raises(InvalidArgumentError, match="must be integers"):
            build_named(*args, **kwargs)


def _family_edges(family: str, n: int) -> tuple[Graph, list[tuple[int, int]]]:
    """One named family on n vertices as the edge list that defines it,
    with the build_named call that should give it."""
    if family == "complete":
        return build_named(family, n), list(itertools.combinations(range(1, n + 1), 2))
    if family == "edgeless":
        return build_named(family, n), []
    if family == "path":
        return build_named(family, n), [(i, i + 1) for i in range(1, n)]
    if family == "cycle":
        return build_named(family, n), [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    if family == "star":
        return build_named(family, n), [(i, n) for i in range(1, n)]
    if family == "dynkin_d":
        return build_named(family, n), [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    if family == "complete_bipartite":
        k = n // 3 + 1
        return build_named(family, n, k=k), [(i, j) for i in range(1, k + 1) for j in range(k + 1, n + 1)]
    if family == "lollipop":
        k = n // 2
        tail = [(i, i + 1) for i in range(1, k + 1)]
        return build_named(family, k=k, m=n - k), tail + list(itertools.combinations(range(k + 1, n + 1), 2))
    assert family == "theta0" and n == 7
    edges = [(1, 2), (2, 7), (1, 3), (3, 4), (4, 7), (1, 5), (5, 6), (6, 7)]
    return build_named(family), edges


def test_named_families_match_the_edge_list_constructor():
    for family in NAMED_FAMILIES:
        least = {"theta0": 7, "cycle": 3, "dynkin_d": 3, "complete_bipartite": 2}.get(family, 1)
        for n in range(least, 8 if family == "theta0" else 13):
            g, edges = _family_edges(family, n)
            assert g._edge_pairs is None
            assert g.edge_count == len(edges), (family, n)
            assert g._edge_pairs is None   # counted from the masks
            assert _same_graph(g, Graph(n, edges)), (family, n)
            assert g.edges == Graph(n, edges).edges == tuple(sorted(tuple(sorted(e)) for e in edges))


def test_large_families_are_built_as_masks_only():
    start = time.perf_counter()
    k3000 = build_named("complete", 3000)
    assert time.perf_counter() - start < 0.5
    assert k3000.edge_count == 3000 * 2999 // 2 and k3000._edge_pairs is None
    for g in (build_named("cycle", 3000).complement(), build_named("lollipop", k=1000, m=2000)):
        assert g._edge_pairs is None
    # The edge tuple is built on first use and kept.
    g = build_named("star", 5)
    assert g._edges == ((0, 4), (1, 4), (2, 4), (3, 4)) and g._edges is g._edge_pairs


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
    g = build_named("cycle", 5)
    r = structure_report(g)
    assert structure_report(g) is r
    assert r.is_biconnected
    assert not r.is_bipartite
    assert r.min_degree == r.max_degree == 2
    assert not r.cut_vertices


def test_disjoint_union_report():
    g = disjoint_union(build_named("complete", 2), build_named("complete", 3))
    r = structure_report(g)
    assert structure_report(g) is r
    assert r.components == ((1, 2), (3, 4, 5))
    assert r.gcd_of_component_sizes == 1
    assert not r.is_connected


def test_star6_report():
    r = structure_report(build_named("star", 6))
    assert r.cut_vertices == frozenset({6})
    assert r.is_bipartite
    assert set(map(frozenset, r.bipartition)) == {frozenset({1, 2, 3, 4, 5}), frozenset({6})}
    assert r.is_forest and r.gcd_of_component_sizes == 6


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


def _roots(n, edges, removed=None):
    """Union-find over the edge list of the graph minus `removed`: the
    parent table, and whether some edge joined two vertices already joined."""
    parent = {v: v for v in range(1, n + 1) if v != removed}
    cyclic = False

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for a, b in edges:
        if removed not in (a, b):
            ra, rb = root(a), root(b)
            cyclic |= ra == rb
            parent[ra] = rb
    return {v: root(v) for v in parent}, cyclic


def _reference_components(n, edges, removed=None):
    """Components of the graph minus `removed`, as sorted vertex tuples in
    order of least vertex."""
    groups = {}
    for v, r in _roots(n, edges, removed)[0].items():
        groups.setdefault(r, []).append(v)
    return sorted(tuple(sorted(c)) for c in groups.values())


def _reference_report(g):
    """The structure-report fields straight from their definitions: a cut
    vertex is one whose deletion raises the component count; a forest has
    no edge joining two vertices already joined; the only candidate
    2-colouring with the least vertex of each component on side A gives
    each vertex the parity of its distance from that least vertex, and the
    graph is bipartite when that colouring is proper (an edgeless graph on
    n >= 2 vertices moves its largest vertex to side B)."""
    n, edges = g.n, g.edges
    components = _reference_components(n, edges)
    cut = frozenset(
        v for v in range(1, n + 1) if len(_reference_components(n, edges, v)) > len(components)
    )
    colour = {c[0]: 0 for c in components}
    queue = list(colour)
    for v in queue:
        for u in g.neighbors(v):
            if u not in colour:
                colour[u] = 1 - colour[v]
                queue.append(u)
    bipartition = None
    if n >= 2 and all(colour[a] != colour[b] for a, b in edges):
        side_a = tuple(v for v in range(1, n + 1) if colour[v] == 0)
        side_b = tuple(v for v in range(1, n + 1) if colour[v] == 1)
        if not side_b:
            side_a, side_b = side_a[:-1], side_a[-1:]
        bipartition = (side_a, side_b)
    connected = len(components) == 1
    degrees = [sum(v in e for e in edges) for v in range(1, n + 1)]
    return {
        "components": tuple(components),
        "is_connected": connected,
        "is_bipartite": bipartition is not None,
        "bipartition": bipartition,
        "cut_vertices": cut,
        "is_biconnected": n >= 2
        and connected
        and all(len(_reference_components(n, edges, v)) == 1 for v in range(1, n + 1)),
        "min_degree": min(degrees),
        "max_degree": max(degrees),
        "is_forest": not _roots(n, edges)[1],
        "gcd_of_component_sizes": math.gcd(*map(len, components)),
    }


def _report_fields(g):
    r = structure_report(g)
    return {name: getattr(r, name) for name in _reference_report(g)}


def test_structure_report_matches_definitions_on_every_small_graph():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            g = Graph(n, [e for k, e in enumerate(pairs) if bits >> k & 1])
            assert _report_fields(g) == _reference_report(g), g


def _deep_sparse_graph(rng, n, extra):
    """A random tree on n shuffled vertices, each hung from one of the
    three placed before it (so the tree runs deep), plus `extra` random
    edges and a pendant path of up to 20 new vertices."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {
        tuple(sorted((order[i], order[rng.randrange(max(0, i - 3), i)]))) for i in range(1, n)
    }
    while len(edges) < n - 1 + min(extra, n * (n - 1) // 2 - n + 1):
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    tail = rng.randint(0, 20)
    edges |= {(v, v + 1) for v in range(n, n + tail)}
    return Graph(n + tail, edges)


def _assert_report_types(r):
    """The report's fields have the types its annotations give: vertex
    lists are tuples of ints and the cut set is a frozenset (== alone
    would accept a set in its place)."""
    assert type(r.components) is tuple
    assert all(type(c) is tuple and all(type(v) is int for v in c) for c in r.components)
    assert r.bipartition is None or (
        type(r.bipartition) is tuple
        and len(r.bipartition) == 2
        and all(type(side) is tuple for side in r.bipartition)
    )
    assert type(r.cut_vertices) is frozenset
    assert all(type(v) is int for v in r.cut_vertices)
    for flag in (r.is_connected, r.is_bipartite, r.is_biconnected, r.is_forest):
        assert type(flag) is bool
    for count in (r.min_degree, r.max_degree, r.gcd_of_component_sizes):
        assert type(count) is int


def test_structure_report_matches_definitions_on_random_graphs():
    rng = random.Random(17)
    for n in range(1, 13):
        for p in (0.15, 0.3, 0.5):
            for _ in range(6):
                g = random_graph(rng, n, p)
                assert _report_fields(g) == _reference_report(g), g
                _assert_report_types(structure_report(g))
    # Random trees, unicyclic and bicyclic graphs (extra = 0, 1, 2) with a
    # pendant path, up to 320 vertices: the search path runs hundreds deep.
    for n in (2, 3, 5, 40, 120, 300):
        for extra in (0, 1, 2):
            for _ in range(3):
                g = _deep_sparse_graph(rng, n, extra)
                assert _report_fields(g) == _reference_report(g), g
                _assert_report_types(structure_report(g))


@pytest.mark.parametrize(
    "family, params, cuts",
    [
        ("path", {"n": 3000}, 2998),
        ("cycle", {"n": 3000}, 0),
        ("edgeless", {"n": 3000}, 0),
        ("lollipop", {"k": 2997, "m": 3}, 2997),
    ],
)
def test_structure_report_is_fast_on_long_sparse_graphs(family, params, cuts):
    # One search per cut-vertex candidate took 5-9 s on a path or cycle of 3000.
    g = build_named(family, **params)
    start = time.perf_counter()
    r = structure_report(g)
    assert time.perf_counter() - start < 0.5
    assert len(r.components) == (3000 if family == "edgeless" else 1)
    assert len(r.cut_vertices) == cuts

