import itertools
import math
import random
import time

import pytest

from claims import class_extensions, reference_cut_path
from conftest import (
    SPIDER_COMPLEMENT_5,
    SPIDER_TREE_5,
    dense_partner_pair,
    has_hamiltonian_path,
    random_connected_graph,
    random_graph,
)
from fsgraph import (
    FSInstance,
    Graph,
    InvalidArgumentError,
    Permutation,
    RunConfig,
    build_named,
    components,
    cut_path_certificate,
    cycle_fs_structure,
    decide_connectivity,
    disjoint_union,
    is_connected,
    path_fs_structure,
    star_fs_structure,
    structure_report,
)
from fsgraph.iso import enumerate_nonisomorphic
from fsgraph.orientations import enumerate_acyclic, linear_extensions, partition_by_moves
from fsgraph import graphs
from fsgraph.theorems import _fiber_induction

# A 5-vertex graph with a Hamiltonian path for which FS(X, Y) is connected
# whenever Y has minimum degree >= 2; found by exhaustive search over all
# 5-vertex partners, and the seed of the min-degree >= n-3 test below.
HEREDITARY_BASE_5 = Graph(5, [(1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)])


# -- path-position structure -------------------------------------------------------


def test_path_complete_partner_connected():
    for n in range(1, 7):
        assert path_fs_structure(build_named("complete", n)).component_count == 1


def test_path_edgeless_partner_fully_split():
    for n in range(1, 6):
        assert path_fs_structure(Graph(n)).component_count == math.factorial(n)


def test_path_classes_partition_all_words():
    rng = random.Random(1)
    for _ in range(8):
        n = rng.randint(1, 5)
        y = random_graph(rng, n)
        result = path_fs_structure(y, include_classes=True)
        assert result.classes is not None
        total = [p for _, exts in result.classes for p in exts]
        assert len(total) == math.factorial(n)
        assert len(set(total)) == len(total)
        assert len(result.classes) == result.component_count


def _listing_partners():
    """Every partner with n <= 6, and seeded n = 7 partners whose
    complements have 6, 11 and 18 edges."""
    partners = [y for n in range(1, 7) for y in enumerate_nonisomorphic(n)]
    rng = random.Random(47)
    pairs = list(itertools.combinations(range(1, 8), 2))
    for m in (6, 11, 18):
        for _ in range(3):
            partners.append(Graph(7, rng.sample(pairs, m)).complement())
    return partners


def test_listings_match_orientations_and_their_extensions():
    for y in _listing_partners():
        comp = y.complement()
        path = path_fs_structure(y, include_classes=True)
        assert path.classes == tuple((o, linear_extensions(o)) for o in enumerate_acyclic(comp))
        if y.n < 3:
            continue
        cycle = cycle_fs_structure(y, include_classes=True)
        double = partition_by_moves(comp, "double_flip")
        assert cycle.classes == tuple(
            (cls, class_extensions(cls)) for cls in double.classes
        )


def test_path_count_matches_brute_force_small():
    for n in range(2, 5):
        x = build_named("path", n)
        for y in enumerate_nonisomorphic(n):
            assert (
                path_fs_structure(y).component_count
                == components(FSInstance(x, y)).component_count
            )


# -- cycle-position structure --------------------------------------------------------


def test_cycle_structure_of_tree_complement():
    result = cycle_fs_structure(SPIDER_COMPLEMENT_5, include_classes=True)
    assert (result.component_count, result.nu, result.toric_count) == (5, 5, 1)
    assert result.classes is not None
    assert [len(exts) for _, exts in result.classes] == [24] * 5


def test_cycle_structure_two_coprime_trees():
    # Complement a forest with tree sizes 2 and 3: a single component.
    forest = disjoint_union(build_named("path", 2), build_named("path", 3))
    y = forest.complement()
    result = cycle_fs_structure(y)
    assert (result.component_count, result.nu, result.toric_count) == (1, 1, 1)
    assert is_connected(FSInstance(build_named("cycle", 5), y))


def test_cycle_structure_complement_with_triangle():
    # A complement component that is complete on 3 vertices is not a forest;
    # two flip classes appear and the instance splits (checked both ways).
    blob = disjoint_union(build_named("complete", 2), build_named("complete", 3))
    y = blob.complement()
    result = cycle_fs_structure(y)
    assert result.toric_count == 2 and result.nu == 1
    assert result.component_count == 2
    assert components(FSInstance(build_named("cycle", 5), y)).component_count == 2


def test_cycle_count_grows_with_complement_cycles():
    for m in (3, 4, 5):
        y = build_named("cycle", m).complement() if m > 3 else Graph(3)
        result = cycle_fs_structure(y)
        assert result.component_count >= 2


def test_cycle_connectivity_characterization():
    def cycle_is_connected(y):
        verdict = decide_connectivity(build_named("cycle", y.n), y)
        assert verdict.theorem == "cycle-complement-forest"
        return verdict.status == "connected"

    # Complement a spanning tree: gcd equals n, never connected.
    for n in (3, 4, 5, 6):
        y = build_named("path", n).complement()
        assert not cycle_is_connected(y)
    forest = disjoint_union(build_named("path", 2), build_named("path", 3))
    assert cycle_is_connected(forest.complement())
    for n in (3, 4, 5, 6):
        assert cycle_is_connected(build_named("complete", n))


def test_cycle_structure_requires_three_vertices():
    with pytest.raises(InvalidArgumentError):
        cycle_fs_structure(build_named("complete", 2))


def test_cycle_count_matches_brute_force_small():
    for n in (3, 4):
        x = build_named("cycle", n)
        for y in enumerate_nonisomorphic(n):
            assert (
                cycle_fs_structure(y).component_count
                == components(FSInstance(x, y)).component_count
            )


# -- star-position classification ------------------------------------------------------


def test_star_structure_cycle_partner():
    result = star_fs_structure(build_named("cycle", 6))
    assert result.component_count == 24
    assert result.sizes == (30,) * 24
    # (n - 2)! components: 7! = 5040 sizes are listed, 8! = 40320 are not.
    assert star_fs_structure(build_named("cycle", 9)).sizes == (72,) * math.factorial(7)
    result = star_fs_structure(build_named("cycle", 10))
    assert result.component_count == math.factorial(8)
    assert result.sizes is None


def test_star_structure_theta_partner():
    result = star_fs_structure(build_named("theta0"))
    assert result.component_count == 6
    assert result.sizes is None


def test_star_structure_complete_partner():
    result = star_fs_structure(build_named("complete", 4))
    assert result.component_count == 1
    assert result.sizes == (24,)


def test_star_structure_bipartite_partner():
    result = star_fs_structure(build_named("complete_bipartite", 5, k=2))
    assert result.component_count == 2
    assert result.sizes == (60, 60)


def test_star_structure_inapplicable_partners():
    assert star_fs_structure(build_named("path", 5)) is None
    assert star_fs_structure(Graph(4)) is None
    with pytest.raises(InvalidArgumentError):
        star_fs_structure(build_named("complete", 2))


def test_star_counts_match_brute_force_small():
    x4 = build_named("star", 4)
    for y in enumerate_nonisomorphic(4):
        expected = star_fs_structure(y)
        if expected is None:
            continue
        rep = components(FSInstance(x4, y))
        assert rep.component_count == expected.component_count
        assert rep.sizes == tuple(sorted(expected.sizes))


# -- cut paths ------------------------------------------------------------------------------


def test_cut_path_on_lollipops():
    for n, m in ((6, 3), (7, 3), (6, 2), (7, 4)):
        cert = cut_path_certificate(build_named("lollipop", k=n - m, m=m))
        assert cert.d == n - m


def test_cut_path_on_cycles_and_paths():
    assert cut_path_certificate(build_named("cycle", 6)).d == 0
    cert = cut_path_certificate(build_named("path", 4))
    assert cert.d == 2
    assert cert.path == (2, 3)


def test_cut_path_certificate_matches_the_reference_walk():
    # The certificate walks adjacency masks; the reference walks neighbors()
    # and degree().  Both must pick the same path, ties included.
    graphs_seen = []
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            graphs_seen.append(Graph(n, [e for k, e in enumerate(pairs) if bits >> k & 1]))
    rng = random.Random(29)
    for n in range(1, 13):
        for p in (0.1, 0.2, 0.35, 0.5):
            for _ in range(25):
                graphs_seen.append(random_graph(rng, n, p))
    for g in graphs_seen:
        cert = cut_path_certificate(g)
        assert (cert.d, cert.path) == reference_cut_path(g), g


def test_cut_path_witness_is_valid():
    rng = random.Random(2)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(3, 7), 0.4)
        cert = cut_path_certificate(g)
        if cert.d == 0:
            assert not structure_report(g).cut_vertices
            continue
        path = cert.path
        cuts = structure_report(g).cut_vertices
        assert path[0] in cuts and path[-1] in cuts
        assert all(g.has_edge(path[i], path[i + 1]) for i in range(len(path) - 1))
        assert all(g.degree(v) == 2 for v in path[1:-1])


# -- connectivity decision -------------------------------------------------------------------


def test_decide_lollipop_rule():
    x = build_named("lollipop", k=3, m=3)
    verdict = decide_connectivity(x, build_named("complete", 6))
    assert verdict.status == "connected"
    assert verdict.theorem == "lollipop-min-degree"
    sparse = build_named("star", 6)
    verdict = decide_connectivity(x, sparse)
    assert verdict.status == "disconnected"


def test_decide_dynkin_rule():
    d6 = build_named("dynkin_d", 6)
    rich = build_named("path", 6).complement()   # min degree 3 = n - 3
    verdict = decide_connectivity(d6, rich)
    assert verdict.status == "disconnected"
    assert verdict.theorem == "dynkin-min-degree"
    full = build_named("complete", 6)
    assert decide_connectivity(d6, full).status == "connected"


def test_decide_spindle4_goes_through_star_rule():
    # The 4-vertex spindle is the 4-star, and the 4-cycle partner genuinely
    # disconnects despite its n-2 minimum degree; the star classification
    # must win here.
    d4 = build_named("dynkin_d", 4)
    c4 = build_named("cycle", 4)
    verdict = decide_connectivity(d4, c4)
    assert verdict.status == "disconnected"
    assert verdict.theorem == "star-biconnected"
    assert not is_connected(FSInstance(d4, c4))


def test_decide_bipartite_pair():
    x = build_named("complete_bipartite", 6, k=3)
    y = build_named("complete_bipartite", 6, k=2)
    verdict = decide_connectivity(x, y)
    assert verdict.status == "disconnected"
    assert verdict.theorem == "bipartite-parity"


def test_decide_tiny_cases():
    assert decide_connectivity(Graph(1), Graph(1)).status == "connected"
    k2 = build_named("complete", 2)
    assert decide_connectivity(k2, k2).status == "connected"
    assert decide_connectivity(k2, Graph(2)).status == "disconnected"


def test_decide_unknown_instances_exist():
    # No certificate splits this pair, and the fiber induction cannot prove
    # a disconnected FS(X, Y).
    x = Graph(6, [(1, 4), (2, 5), (3, 6), (4, 6), (5, 6)])
    y = Graph(6, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
    assert decide_connectivity(x, y).status == "unknown"
    assert not is_connected(FSInstance(x, y))
    # A connected pair that no certificate covers is settled by the brute
    # force of the fiber induction's 6-vertex base.
    x = Graph(6, [(1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (3, 4), (3, 5), (3, 6), (5, 6)])
    y = Graph(6, [(1, 4), (2, 3), (2, 4), (2, 6), (3, 4), (3, 6), (4, 5)])
    assert decide_connectivity(x, y).theorem == "fiber-induction"
    assert is_connected(FSInstance(x, y))


def test_decide_abstains_on_uncharacterized_lollipop_band():
    # A 5-clique tail with a partner of minimum degree exactly n-4 sits in
    # the band no certificate covers; the decision must stay honest.
    x = build_named("lollipop", k=3, m=5)
    missing = Graph(8, [(1, 2), (1, 4), (1, 6), (2, 3), (2, 6), (3, 4), (4, 6), (7, 8)])
    y = missing.complement()
    assert structure_report(y).min_degree == 4
    assert decide_connectivity(x, y).status == "unknown"
    assert not is_connected(FSInstance(x, y))
    # The cube's complement has the same minimum degree but a connected
    # FS(X, Y), and the cube is vertex-transitive, so peeling the path end
    # of X leaves one fiber up to isomorphism.
    cube = Graph(
        8,
        [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5),
         (1, 5), (2, 6), (3, 7), (4, 8)],
    )
    verdict = decide_connectivity(x, cube.complement())
    assert (verdict.status, verdict.theorem) == ("connected", "fiber-induction")
    assert verdict.witness["fibers"] == 1
    assert is_connected(FSInstance(x, cube.complement()))


def test_star_plus_edge_connects_bipartite_partners():
    # Once the hub graph properly contains a star, the two parity halves of
    # a bipartite biconnected partner merge into one component.
    from fsgraph.iso import is_cycle_graph

    for n in (5, 6):
        for y in enumerate_nonisomorphic(n):
            report = structure_report(y)
            if not report.is_biconnected or is_cycle_graph(y) or not report.is_bipartite:
                continue
            star_plus = Graph(n, list(build_named("star", n).edges) + [(1, 2)])
            assert is_connected(FSInstance(star_plus, y)), y.edges


def test_decide_builds_each_structure_report_once(monkeypatch):
    built = []
    build = graphs.StructureReport

    def counting(*fields):
        built.append(build(*fields))
        return built[-1]

    monkeypatch.setattr(graphs, "StructureReport", counting)
    margins = (
        Graph(7, [(1, 2), (1, 4), (1, 6), (2, 3), (2, 5), (2, 7), (3, 6), (4, 6), (5, 7)]),
        Graph(7, [(1, 2), (1, 5), (2, 5), (2, 7), (3, 4), (3, 5), (3, 6), (4, 5), (5, 6), (5, 7)]),
    )
    unknown = (
        Graph(6, [(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5), (5, 6)]),
        Graph(6, [(1, 2), (1, 3), (1, 5), (1, 6), (2, 4), (3, 5), (3, 6), (4, 6)]),
    )
    # A star X reads Y's report first; Y's cut vertices make the star rule abstain.
    star_cut = (
        build_named("star", 6),
        Graph(6, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6)]),
    )
    for (x, y), outcome, order in (
        (margins, "cut-vertex-margins", "xy"),
        (unknown, None, "xy"),
        (star_cut, "cut-path-degree", "yx"),
    ):
        built.clear()
        verdict = decide_connectivity(x, y)
        assert verdict.theorem == outcome
        assert verdict.status == ("disconnected" if outcome else "unknown")
        kept = [{"x": x, "y": y}[side]._report for side in order]
        assert list(map(id, built)) == list(map(id, kept))
        # Every later reader finds the reports kept on the graphs.
        built.clear()
        assert decide_connectivity(x, y) == verdict
        for g in (x, y):
            star_fs_structure(g)
            cut_path_certificate(g)
        assert built == []


def test_decide_size_mismatch():
    with pytest.raises(InvalidArgumentError):
        decide_connectivity(Graph(3), Graph(4))


def test_decide_never_contradicts_brute_force_small_fuzz():
    rng = random.Random(42)
    for _ in range(120):
        n = rng.randint(2, 6)
        x = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        y = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        verdict = decide_connectivity(x, y)
        if verdict.status == "unknown":
            continue
        assert (verdict.status == "connected") == is_connected(FSInstance(x, y)), (
            verdict,
            x.edges,
            y.edges,
        )


def test_decide_never_contradicts_brute_force_exhaustive_pairs():
    # Both verdict and truth depend only on isomorphism types, so one
    # labeled representative per class pair covers everything up to n = 5.
    for n in (2, 3, 4, 5):
        for x in enumerate_nonisomorphic(n):
            for y in enumerate_nonisomorphic(n):
                verdict = decide_connectivity(x, y)
                if verdict.status == "unknown":
                    continue
                truth = is_connected(FSInstance(x, y))
                assert (verdict.status == "connected") == truth, (x.edges, y.edges)


def test_decide_never_contradicts_brute_force_n7_fuzz():
    rng = random.Random(43)
    definite = 0
    for _ in range(40):
        x = random_graph(rng, 7, rng.choice([0.3, 0.5, 0.7]))
        y = random_graph(rng, 7, rng.choice([0.3, 0.5, 0.7]))
        verdict = decide_connectivity(x, y)
        if verdict.status == "unknown":
            continue
        definite += 1
        assert (verdict.status == "connected") == is_connected(FSInstance(x, y)), (
            verdict,
            x.edges,
            y.edges,
        )
    assert definite > 0


# -- fiber induction ---------------------------------------------------------------------------
# The induction descends to induced subgraphs of both sides: a hereditary
# sufficient condition, as the test names say.


def test_hereditary_proves_lollipop_rich_partner():
    for n in (6, 7):
        x = build_named("lollipop", k=n - 3, m=3)
        y = build_named("path", 2).complement() if n == 2 else _matching_complement(n, 1)
        assert structure_report(y).min_degree >= n - 2
        witness = _fiber_induction(x, y)
        assert witness is not None
        assert set(witness) == {"side", "vertex", "fibers", "work"}


def _matching_complement(n: int, edges: int) -> Graph:
    missing = Graph(n, [(2 * i + 1, 2 * i + 2) for i in range(edges)])
    return missing.complement()


def test_hereditary_fails_on_disconnected_partner():
    x = build_named("lollipop", k=3, m=3)
    y = disjoint_union(build_named("complete", 3), build_named("complete", 3))
    assert _fiber_induction(x, y) is None


def test_hereditary_proves_prolongations_of_searched_base():
    # Extending the base along its Hamiltonian path keeps FS connected for
    # every partner with minimum degree >= n - 3.
    for extra in (1, 2):
        n = 5 + extra
        edges = list(HEREDITARY_BASE_5.edges) + [(5 + t, 6 + t) for t in range(extra)]
        x = Graph(n, edges)
        y = build_named("path", n).complement()   # complement max degree 2
        assert structure_report(y).min_degree == n - 3
        assert _fiber_induction(x, y) is not None
        assert decide_connectivity(x, y).theorem == "fiber-induction"
        assert is_connected(FSInstance(x, y))


def test_hereditary_never_proves_disconnected_instances_fuzz():
    rng = random.Random(9)
    checked = proven = 0
    while checked < 40:
        n = rng.randint(3, 6)
        x = random_connected_graph(rng, n, 0.5)
        if x.edge_count < n - 1 or not has_hamiltonian_path(x):
            continue
        y = random_graph(rng, n, rng.choice([0.4, 0.6]))
        checked += 1
        if _fiber_induction(x, y) is not None:
            proven += 1
            assert is_connected(FSInstance(x, y))
    # Peeling only Hamiltonian-path ends of X, down to a 5-vertex base,
    # proves 6 of these pairs; the fiber induction subsumes that.
    assert proven >= 6


def test_fiber_induction_connected_agrees_with_brute_force():
    # The rung is called directly, without the min-degree reach test of
    # decide.  Up to its brute-force base it is exact; past it, every
    # "connected" must be confirmed by the oracle.
    pairs = [
        (x, y)
        for n in range(1, 6)
        for x in enumerate_nonisomorphic(n)
        for y in enumerate_nonisomorphic(n)
    ]
    assert len(pairs) == 1 + 4 + 16 + 121 + 1156
    for x, y in pairs:
        assert (_fiber_induction(x, y) is not None) == is_connected(FSInstance(x, y)), (x, y)
    rng = random.Random(74)
    proven = connected = 0
    for n in (7, 8):
        for _ in range(30):
            x = random_graph(rng, n, rng.choice([0.5, 0.6, 0.7, 0.8]))
            y = random_graph(rng, n, rng.choice([0.5, 0.6, 0.7, 0.8]))
            witness = _fiber_induction(x, y)
            truth = is_connected(FSInstance(x, y))
            connected += truth
            if witness is not None:
                proven += 1
                assert truth, (x, y, witness)
    assert 0 < proven <= connected


def test_hereditary_gives_up_when_its_node_budget_runs_out():
    x = Graph(7, list(HEREDITARY_BASE_5.edges) + [(5, 6), (6, 7)])
    y = build_named("path", 7).complement()
    witness = _fiber_induction(x, y)
    assert witness is not None and witness["side"] is not None
    # The state cap is the induction's work budget; 720 still lets a
    # 6-vertex base case search, so the induction gives up rather than refuses.
    tight = RunConfig(state_cap=720)
    assert _fiber_induction(x, y, tight) is None
    assert decide_connectivity(x, y, tight).status == "unknown"


def test_decide_answers_dense_partners_within_the_node_budget():
    # Past the oracle's state cap; at n = 30-50 the work budget must stop
    # the induction quickly.
    for n in (10, 12, 14):
        verdict = decide_connectivity(*dense_partner_pair(n, n))
        assert (verdict.status, verdict.theorem) == ("connected", "fiber-induction"), n
    for n in (30, 40, 50):
        x, y = dense_partner_pair(n, n)
        assert min(y.degrees()) == n - 4
        start = time.perf_counter()
        verdict = decide_connectivity(x, y)
        assert time.perf_counter() - start < 2, n
        assert verdict.status in ("connected", "unknown")
