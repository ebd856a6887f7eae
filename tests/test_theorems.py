import itertools
import math
import random
import time
from functools import lru_cache

import pytest

from claims import class_extensions
from conftest import (
    SPIDER_COMPLEMENT_5,
    SPIDER_TREE_5,
    random_connected_graph,
    random_graph,
)
from fsgraph import (
    FSInstance,
    Graph,
    InvalidArgumentError,
    Permutation,
    build_named,
    components,
    cut_path_certificate,
    cycle_fs_structure,
    decide_connectivity,
    disjoint_union,
    hereditary_sufficiency,
    is_connected,
    path_fs_structure,
    star_fs_structure,
    structure_report,
)
from fsgraph.config import DEFAULT_CONFIG, DEFAULT_HEREDITARY_BASE
from fsgraph.graphs import (
    delete_vertex,
    has_hamiltonian_path,
    induced_subgraph,
    iter_hamiltonian_paths,
)
from fsgraph.iso import enumerate_nonisomorphic, refined_form
from fsgraph.orientations import enumerate_acyclic, linear_extensions, partition_by_moves
from fsgraph import theorems
from fsgraph.theorems import HereditaryResult, _path_minor

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
    x = Graph(6, [(1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (3, 4), (3, 5), (3, 6), (5, 6)])
    y = Graph(6, [(1, 4), (2, 3), (2, 4), (2, 6), (3, 4), (3, 6), (4, 5)])
    assert decide_connectivity(x, y).status == "unknown"


def test_decide_abstains_on_uncharacterized_lollipop_band():
    # A 5-clique tail with a partner of minimum degree exactly n-4 sits in
    # the band no certificate covers; the decision must stay honest.
    x = build_named("lollipop", k=3, m=5)
    cube = Graph(
        8,
        [(1, 2), (2, 3), (3, 4), (4, 1), (5, 6), (6, 7), (7, 8), (8, 5),
         (1, 5), (2, 6), (3, 7), (4, 8)],
    )
    y = cube.complement()
    assert structure_report(y).min_degree == 4
    assert decide_connectivity(x, y).status == "unknown"


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

    def counting(g):
        built.append(g)
        return structure_report(g)

    monkeypatch.setattr(theorems, "structure_report", counting)
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
        assert built == [{"x": x, "y": y}[side] for side in order]


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


# -- hereditary recursion ----------------------------------------------------------------------


def test_hereditary_proves_lollipop_rich_partner():
    for n in (6, 7):
        x = build_named("lollipop", k=n - 3, m=3)
        y = build_named("path", 2).complement() if n == 2 else _matching_complement(n, 1)
        assert structure_report(y).min_degree >= n - 2
        result = hereditary_sufficiency(x, y)
        assert result.proven_connected
        assert result.trace


def _matching_complement(n: int, edges: int) -> Graph:
    missing = Graph(n, [(2 * i + 1, 2 * i + 2) for i in range(edges)])
    return missing.complement()


def test_hereditary_fails_on_disconnected_partner():
    x = build_named("lollipop", k=3, m=3)
    y = disjoint_union(build_named("complete", 3), build_named("complete", 3))
    assert not hereditary_sufficiency(x, y).proven_connected


def test_hereditary_requires_hamiltonian_path():
    with pytest.raises(InvalidArgumentError):
        hereditary_sufficiency(build_named("star", 5), build_named("complete", 5))


def test_hereditary_proves_prolongations_of_searched_base():
    # Extending the base along its Hamiltonian path keeps FS connected for
    # every partner with minimum degree >= n - 3.
    for extra in (1, 2):
        n = 5 + extra
        edges = list(HEREDITARY_BASE_5.edges) + [(5 + t, 6 + t) for t in range(extra)]
        x = Graph(n, edges)
        y = build_named("path", n).complement()   # complement max degree 2
        assert structure_report(y).min_degree == n - 3
        assert hereditary_sufficiency(x, y).proven_connected
        assert is_connected(FSInstance(x, y))


def test_hereditary_never_proves_disconnected_instances_fuzz():
    rng = random.Random(9)
    checked = 0
    while checked < 40:
        n = rng.randint(3, 6)
        x = random_connected_graph(rng, n, 0.5)
        if x.edge_count < n - 1:
            continue
        from fsgraph import has_hamiltonian_path

        if has_hamiltonian_path(x) is None:
            continue
        y = random_graph(rng, n, rng.choice([0.4, 0.6]))
        checked += 1
        result = hereditary_sufficiency(x, y)
        if result.proven_connected:
            assert is_connected(FSInstance(x, y))


def _gate_declined_pairs():
    """(a, b) with a Hamiltonian path in a and a partner b that the
    hereditary gate of decide_connectivity declines: every pair of
    isomorphism classes at n = 6, then seeded pairs at n = 7 and 8."""
    classes = enumerate_nonisomorphic(6)
    declined = [b for b in classes if not theorems._hereditary_can_prove(b)]
    for a in classes:
        if has_hamiltonian_path(a) is not None:
            for b in declined:
                yield a, b
    rng = random.Random(71)
    densities = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    for n in (7, 8):
        found = 0
        while found < 30:
            a = random_graph(rng, n, rng.choice(densities))
            b = random_graph(rng, n, rng.choice(densities))
            if has_hamiltonian_path(a) is None or theorems._hereditary_can_prove(b):
                continue
            found += 1
            yield a, b


def test_hereditary_gate_declines_only_unprovable_partners(monkeypatch):
    # The recursion is deterministic, so decide reuses one result per pair.
    results = {}

    def hereditary(a, b, config=DEFAULT_CONFIG):
        if (a, b, config) not in results:
            results[a, b, config] = hereditary_sufficiency(a, b, config=config)
        return results[a, b, config]

    monkeypatch.setattr(theorems, "hereditary_sufficiency", hereditary)
    pairs = list(_gate_declined_pairs())
    for a, b in pairs:
        assert not hereditary(a, b).proven_connected, (a, b)
    assert len(pairs) == 8554 + 60
    gated = [decide_connectivity(a, b) for a, b in pairs]
    monkeypatch.setattr(theorems, "_hereditary_can_prove", lambda y: True)
    assert [decide_connectivity(a, b) for a, b in pairs] == gated


def test_hereditary_rejects_nonpositive_base():
    x = build_named("lollipop", k=3, m=3)
    with pytest.raises(InvalidArgumentError):
        hereditary_sufficiency(x, build_named("complete", 6), base_size=0)


def test_hereditary_gives_up_when_its_node_budget_runs_out(monkeypatch):
    x = build_named("lollipop", k=4, m=3)
    y = _matching_complement(7, 1)
    assert hereditary_sufficiency(x, y).proven_connected
    monkeypatch.setattr(theorems, "DEFAULT_HEREDITARY_NODE_BUDGET", 1)
    result = hereditary_sufficiency(x, y)
    assert not result.proven_connected
    assert result.trace[-1] == "node budget of 1 expansions ran out: not proven"
    assert decide_connectivity(x, y).status == "connected"   # the lollipop rung fires first


def _dense_partner_pair(n: int, seed: int) -> tuple[Graph, Graph]:
    """X: a Hamiltonian cycle plus G(n, 0.2) chords.  Y: the complement of
    the 3-regular circulant joining i to i +- 1 and i + n/2 (n even), so
    min degree n - 4 lets the hereditary rung run."""
    rng = random.Random(seed)
    cycle = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    chords = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) not in cycle and rng.random() < 0.2
    ]
    circulant = Graph(n, sorted(cycle | {(i, i + n // 2) for i in range(1, n // 2 + 1)}))
    return Graph(n, sorted(cycle) + chords), circulant.complement()


def test_decide_answers_dense_partners_within_the_node_budget():
    x, y = _dense_partner_pair(30, 30)
    assert min(y.degrees()) == 26 and theorems._hereditary_can_prove(y)
    start = time.perf_counter()
    verdict = decide_connectivity(x, y)
    assert time.perf_counter() - start < 5
    assert verdict.status == "unknown"
    result = hereditary_sufficiency(x, y)
    assert not result.proven_connected and "budget" in result.trace[-1]


def _reference_hereditary(
    x, y, base_size=DEFAULT_HEREDITARY_BASE, config=DEFAULT_CONFIG, max_labelings=24
):
    """The recursion on Graph objects, kept as the reference that the
    mask-level implementation must match trace for trace."""
    memo: dict = {}
    trace: list[str] = []
    form = lru_cache(maxsize=None)(refined_form)

    def prove(xg, yg):
        n = xg.n
        if n <= base_size:
            key = (form(xg), form(yg))
            ok = memo.get(key)
            if ok is None:
                ok = memo[key] = is_connected(FSInstance(xg, yg), config)
            if len(trace) < 200:
                trace.append(f"base n={n}: brute force says {'connected' if ok else 'disconnected'}")
            return ok
        if not structure_report(yg).is_connected:
            if len(trace) < 200:
                trace.append(f"n={n}: partner graph disconnected, branch fails")
            return False
        key = (form(xg), form(yg))
        if key in memo:
            return memo[key]
        memo[key] = False
        ok = False
        tried: set = set()
        labelings = 0
        for path in iter_hamiltonian_paths(xg):
            labelings += 1
            if labelings > max_labelings:
                break
            relabel = {v: i for i, v in enumerate(path, start=1)}
            xr = xg.relabel(relabel)
            x_sub, _ = induced_subgraph(xr, range(1, n))
            sub_form = form(x_sub)
            if sub_form in tried:
                continue
            tried.add(sub_form)
            if all(prove(x_sub, delete_vertex(yg, v)[0]) for v in range(1, n + 1)):
                ok = True
                if len(trace) < 200:
                    trace.append(f"n={n}: certified via Hamiltonian relabeling #{labelings}")
                break
        if not ok and len(trace) < 200:
            trace.append(f"n={n}: no Hamiltonian relabeling certified the instance")
        memo[key] = ok
        return ok

    proven = prove(x, y)
    return HereditaryResult(proven, tuple(trace))


def test_hereditary_matches_graph_object_reference():
    rng = random.Random(31)
    pairs = proven = 0
    while pairs < 300:
        n = rng.randint(6, 8)
        x = random_graph(rng, n, rng.choice([0.4, 0.55, 0.7]))
        if has_hamiltonian_path(x) is None:
            continue
        y = random_graph(rng, n, rng.choice([0.4, 0.55, 0.7]))
        max_labelings = rng.choice([3, 24])
        got = hereditary_sufficiency(x, y, max_labelings=max_labelings)
        assert got == _reference_hereditary(x, y, max_labelings=max_labelings), (x, y)
        pairs += 1
        proven += got.proven_connected
    # Both verdicts occur, so the comparison covers certified and failed branches.
    assert 0 < proven < pairs


def test_path_minor_matches_relabel_then_delete():
    rng = random.Random(32)
    for _ in range(80):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.choice([0.4, 0.6, 0.8]))
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        g = g.relabel(dict(zip(range(1, n + 1), labels)))
        for path in itertools.islice(iter_hamiltonian_paths(g), 60):
            along = g.relabel({v: i for i, v in enumerate(path, start=1)})
            want = induced_subgraph(along, range(1, n))[0]._adj
            assert _path_minor(g._adj, tuple(v - 1 for v in path)) == want
