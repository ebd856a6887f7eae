import itertools
import math
import random
import time
from collections import deque

import pytest

from claims import decomposition_check, margin_count
from conftest import (
    FROZEN_CYCLE5_COMPONENT,
    SPIDER_COMPLEMENT_5,
    random_connected_graph,
    random_graph,
    shuffled_copy,
)
from fsgraph import (
    ComponentReport,
    FSInstance,
    Graph,
    Permutation,
    ResourceLimitError,
    RunConfig,
    build_named,
    component_of,
    components,
    disjoint_union,
    friendly_neighbors,
    is_connected,
    structure_report,
)
from fsgraph import cli, fscore, iso
from fsgraph.fscore import _component_sweep, fs_to_dot
from fsgraph.theorems import cut_vertex_disconnection
from fsgraph.iso import enumerate_nonisomorphic
from fsgraph.perms import lex_words


# -- adjacency -------------------------------------------------------------------


def test_no_neighbors_without_edges():
    sigma = Permutation.parse("123")
    assert friendly_neighbors(FSInstance(Graph(3), build_named("complete", 3)), sigma) == []
    assert friendly_neighbors(FSInstance(build_named("complete", 3), Graph(3)), sigma) == []


def test_single_swap_on_k2():
    inst = FSInstance(build_named("complete", 2), build_named("complete", 2))
    assert friendly_neighbors(inst, Permutation.parse("12")) == [Permutation.parse("21")]


def test_path3_neighbors():
    inst = FSInstance(build_named("path", 3), build_named("path", 3))
    nbrs = friendly_neighbors(inst, Permutation.parse("123"))
    assert set(nbrs) == {Permutation.parse("213"), Permutation.parse("132")}


def test_neighbor_relation_is_symmetric():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 6)
        inst = FSInstance(random_graph(rng, n), random_graph(rng, n))
        word = list(range(1, n + 1))
        rng.shuffle(word)
        sigma = Permutation(word)
        for tau in friendly_neighbors(inst, sigma):
            assert sigma in friendly_neighbors(inst, tau)


def test_neighbors_flip_sign():
    # FS graphs are bipartite by permutation parity.
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(2, 6)
        inst = FSInstance(random_graph(rng, n), random_graph(rng, n))
        word = list(range(1, n + 1))
        rng.shuffle(word)
        sigma = Permutation(word)
        for tau in friendly_neighbors(inst, sigma):
            assert tau.sign() == -sigma.sign()


# -- reachability ------------------------------------------------------------------


def test_frozen_component_of_cycle5_instance():
    inst = FSInstance(build_named("cycle", 5), SPIDER_COMPLEMENT_5)
    comp = component_of(inst, Permutation.parse("12345"))
    assert comp == FROZEN_CYCLE5_COMPONENT


def test_component_of_edgeless_positions():
    inst = FSInstance(Graph(4), build_named("complete", 4))
    sigma = Permutation.parse("3142")
    assert component_of(inst, sigma) == frozenset({sigma})


def test_all_transpositions_connect_everything():
    for n in range(2, 6):
        inst = FSInstance(build_named("complete", n), build_named("complete", n))
        comp = component_of(inst, Permutation.identity(n))
        assert len(comp) == math.factorial(n)


def test_component_search_respects_cap():
    inst = FSInstance(build_named("complete", 6), build_named("complete", 6))
    with pytest.raises(ResourceLimitError):
        component_of(inst, Permutation.identity(6), RunConfig(state_cap=100))


# -- exhaustive sweeps ---------------------------------------------------------------


def test_star_cycle_component_structure():
    for n in (4, 5):
        rep = components(FSInstance(build_named("star", n), build_named("cycle", n)))
        assert rep.component_count == math.factorial(n - 2)
        assert rep.sizes == (n * (n - 1),) * math.factorial(n - 2)
        assert rep.explored_vertices == math.factorial(n)


def test_star7_theta0_component_count():
    rep = components(FSInstance(build_named("star", 7), build_named("theta0")))
    assert rep.component_count == 6


def test_path_against_complete_is_connected():
    for n in range(1, 6):
        inst = FSInstance(build_named("path", n), build_named("complete", n))
        assert components(inst).component_count == 1
        assert is_connected(inst)


def test_representatives_are_lexicographic_minima():
    inst = FSInstance(build_named("cycle", 5), SPIDER_COMPLEMENT_5)
    rep = components(inst)
    assert rep.component_count == 5
    for r in rep.representatives:
        assert r == min(component_of(inst, r))
    assert list(rep.representatives) == sorted(rep.representatives)


def test_is_connected_examples():
    assert is_connected(
        FSInstance(build_named("lollipop", k=3, m=3), build_named("complete", 6))
    )
    assert not is_connected(FSInstance(build_named("path", 4), build_named("path", 4)))


def test_two_bipartite_graphs_disconnect():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(3, 6)
        x = build_named("star", n)
        y = build_named("complete_bipartite", n, k=rng.randint(1, n - 1))
        assert not is_connected(FSInstance(x, y))
        assert components(FSInstance(x, y)).component_count >= 2


def test_component_counts_symmetric_in_roles():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(2, 5)
        x, y = random_graph(rng, n), random_graph(rng, n)
        assert (
            components(FSInstance(x, y)).component_count
            == components(FSInstance(y, x)).component_count
        )


def test_inverse_isomorphism_check():
    # sigma -> sigma^-1 maps the neighbours of sigma in FS(X, Y) onto those
    # of sigma^-1 in FS(Y, X).
    def inverse_isomorphism_check(x, y):
        forward, backward = FSInstance(x, y), FSInstance(y, x)
        return all(
            {p.inverse() for p in friendly_neighbors(forward, sigma)}
            == set(friendly_neighbors(backward, sigma.inverse()))
            for sigma in map(Permutation, itertools.permutations(range(1, x.n + 1)))
        )

    rng = random.Random(5)
    for _ in range(8):
        n = rng.randint(2, 5)
        assert inverse_isomorphism_check(random_graph(rng, n), random_graph(rng, n))
    g = random_graph(rng, 5)
    assert inverse_isomorphism_check(g, g)


def test_monotonicity_under_edge_addition():
    # Adding edges to X and Y can only merge components, never split them.
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(3, 6)
        x, y = random_graph(rng, n, 0.4), random_graph(rng, n, 0.4)
        extra = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.2]
        bigger_x = Graph(n, list(x.edges) + extra)
        extra_y = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.2]
        bigger_y = Graph(n, list(y.edges) + extra_y)
        small = FSInstance(x, y)
        big = FSInstance(bigger_x, bigger_y)
        owner = {}
        for rep in components(big).representatives:
            for p in component_of(big, rep):
                owner[p] = rep
        for rep in components(small).representatives:
            owners = {owner[p] for p in component_of(small, rep)}
            assert len(owners) == 1


def test_position_automorphisms_permute_components():
    # Rotating cycle positions and reversing path positions both map
    # components onto components.
    rng = random.Random(7)
    for family, mapper in (
        ("cycle", lambda p: p.cyclic_shift()),
        ("path", lambda p: Permutation(list(reversed(p.images)))),
    ):
        for _ in range(5):
            n = rng.randint(4, 6) if family == "cycle" else rng.randint(2, 6)
            x = build_named(family, max(n, 3) if family == "cycle" else n)
            y = random_graph(rng, x.n)
            inst = FSInstance(x, y)
            comp_sets = [
                frozenset(component_of(inst, rep))
                for rep in components(inst).representatives
            ]
            all_sets = set(comp_sets)
            for cs in comp_sets:
                image = frozenset(mapper(p) for p in cs)
                assert image in all_sets


def test_shift_advances_frozen_component():
    # Rotating every word of a cycle-position component yields exactly the
    # vertex set of another component; five rotations come back around.
    inst = FSInstance(build_named("cycle", 5), SPIDER_COMPLEMENT_5)
    all_components = {
        frozenset(component_of(inst, rep)) for rep in components(inst).representatives
    }
    current = FROZEN_CYCLE5_COMPONENT
    seen = []
    for _ in range(5):
        current = frozenset(p.cyclic_shift() for p in current)
        assert current in all_components
        seen.append(current)
    assert current == FROZEN_CYCLE5_COMPONENT
    assert len(set(seen)) == 5


def test_forest_complement_components_have_reflection_symmetry():
    # With a forest complement, each cycle-position component is preserved
    # setwise by some reflection of the cycle's position labels.
    import itertools as it

    for partner, n in ((SPIDER_COMPLEMENT_5, 5), (build_named("path", 6).complement(), 6)):
        inst = FSInstance(build_named("cycle", n), partner)
        reflections = []
        for k in range(n):
            reflections.append(Permutation([(k - i) % n + 1 for i in range(1, n + 1)]))
        for rep in components(inst).representatives:
            comp = frozenset(component_of(inst, rep))
            assert any(
                frozenset(p.compose(rho) for p in comp) == comp for rho in reflections
            )


# -- differential checks against the deque/bytearray search ---------------------------


def _reference_expand(x: Graph, y: Graph, state: bytes) -> list[bytes]:
    out = []
    for i, j in x._edges:
        a, b = state[i], state[j]
        if y._adj[a] >> b & 1:
            nxt = bytearray(state)
            nxt[i] = b
            nxt[j] = a
            out.append(bytes(nxt))
    return out


def _reference_bfs(x: Graph, y: Graph, start: bytes) -> set[bytes]:
    visited = {start}
    queue = deque([start])
    while queue:
        for nxt in _reference_expand(x, y, queue.popleft()):
            if nxt not in visited:
                visited.add(nxt)
                queue.append(nxt)
    return visited


def _reference_components(x: Graph, y: Graph) -> ComponentReport:
    """The sweep with a deque queue, bytearray swaps, a Y-adjacency mask
    test and a visited set per component."""
    seen: set[bytes] = set()
    sizes, reps = [], []
    for word in itertools.permutations(range(x.n)):
        start = bytes(word)
        if start in seen:
            continue
        comp = _reference_bfs(x, y, start)
        seen |= comp
        sizes.append(len(comp))
        reps.append(Permutation([v + 1 for v in start]))
    return ComponentReport(
        component_count=len(sizes),
        sizes=tuple(sorted(sizes)),
        representatives=tuple(reps),
        explored_vertices=sum(sizes),
    )


def _assert_matches_reference(x: Graph, y: Graph, rng: random.Random) -> None:
    inst = FSInstance(x, y)
    report = components(inst)
    assert report == _reference_components(x, y), (x, y)
    assert is_connected(inst) == (report.component_count == 1)
    word = list(range(1, x.n + 1))
    rng.shuffle(word)
    sigma = Permutation(word)
    state = bytes(v - 1 for v in word)
    assert friendly_neighbors(inst, sigma) == [
        Permutation([v + 1 for v in s]) for s in _reference_expand(x, y, state)
    ]
    assert component_of(inst, sigma) == frozenset(
        Permutation([v + 1 for v in s]) for s in _reference_bfs(x, y, state)
    )


def test_search_matches_reference_on_all_small_class_pairs():
    rng = random.Random(11)
    for n in range(1, 6):
        classes = enumerate_nonisomorphic(n)
        for x in classes:
            for y in classes:
                _assert_matches_reference(x, y, rng)


def test_search_matches_reference_on_shuffled_labels():
    rng = random.Random(12)
    for n in range(2, 7):
        for _ in range(15):
            x = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
            y = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
            _assert_matches_reference(shuffled_copy(x, rng), shuffled_copy(y, rng), rng)
            _assert_matches_reference(x, shuffled_copy(y, rng), rng)


def test_search_matches_reference_on_seeded_pairs():
    rng = random.Random(13)
    for n, count in ((6, 12), (7, 6), (8, 2)):
        for _ in range(count):
            x = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
            y = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
            _assert_matches_reference(x, y, rng)


def test_search_matches_reference_against_symmetric_positions():
    # Star, complete and edgeless positions have the largest automorphism
    # groups, so most components are found as images of another.
    rng = random.Random(14)
    for family in ("star", "complete", "edgeless"):
        x = build_named(family, 6)
        for y in enumerate_nonisomorphic(6):
            assert components(FSInstance(x, y)) == _reference_components(x, y), (family, y)
    for n in (6, 7):
        for family in ("path", "cycle", "star"):
            x = shuffled_copy(build_named(family, n), rng)
            y = shuffled_copy(random_graph(rng, n, 0.6), rng)
            _assert_matches_reference(x, y, rng)
            _assert_matches_reference(y, x, rng)


def test_search_matches_reference_without_automorphisms(monkeypatch):
    # With no search nodes the generator lists come back empty and every
    # component is found by its own BFS.
    monkeypatch.setattr(iso, "AUTOMORPHISM_NODE_BUDGET", 0)
    assert iso._automorphism_generators(build_named("complete", 6)) == []
    rng = random.Random(15)
    for n in range(1, 5):
        for x in enumerate_nonisomorphic(n):
            for y in enumerate_nonisomorphic(n):
                _assert_matches_reference(x, y, rng)
    for family in ("path", "cycle", "star"):
        x = build_named(family, 6)
        for _ in range(4):
            _assert_matches_reference(x, random_graph(rng, 6, 0.6), rng)


def test_component_search_cap_is_exact():
    # The component of the identity in FS(K_4, K_4) has exactly 24 states.
    inst = FSInstance(build_named("complete", 4), build_named("complete", 4))
    assert len(component_of(inst, Permutation.identity(4), RunConfig(state_cap=24))) == 24
    with pytest.raises(ResourceLimitError, match="exceeded the cap of 23 states"):
        component_of(inst, Permutation.identity(4), RunConfig(state_cap=23))


def test_sweep_stops_once_every_state_is_seen(monkeypatch):
    # The sweep draws start words from perms.lex_words; count them.
    drawn = []

    def counted(n):
        for word in lex_words(n):
            drawn.append(word)
            yield word

    monkeypatch.setattr(fscore, "lex_words", counted)
    connected = FSInstance(build_named("path", 6), build_named("complete", 6))
    report = components(connected)
    assert (report.component_count, report.explored_vertices) == (1, 720)
    assert report.representatives == (Permutation.identity(6),)
    assert drawn == [bytes(range(1, 7))]   # no start past its one component
    # A split instance stops right after the search whose orbit fills the
    # visited set: the last word drawn opened the last BFS, before the least
    # word of the last component, where the plain sweep would stop.
    drawn.clear()
    starts = []
    bfs_from = fscore._bfs_from

    def counted_bfs(inst, start, seen, cap):
        starts.append(start)
        return bfs_from(inst, start, seen, cap)

    monkeypatch.setattr(fscore, "_bfs_from", counted_bfs)
    report = components(FSInstance(build_named("path", 4), build_named("path", 4)))
    assert report.component_count == 8 and report.explored_vertices == 24
    assert starts[-1] == drawn[-1]
    last = report.representatives[-1].word
    plain_draws = lex_words(4).index(last) + 1
    assert len(drawn) < plain_draws


def test_withheld_report_serialises_its_size_counts():
    inst = FSInstance(build_named("path", 4), build_named("path", 4))
    config = RunConfig(listing_cap=7)
    report = _component_sweep(inst, config, config.listing_cap)
    assert report.representatives is None
    assert cli._component_json(report, 4, config) == {
        "n": 4,
        "component_count": 8,
        "sizes": None,
        "size_counts": [[1, 2], [3, 4], [5, 2]],
        "representatives": None,
        "representatives_error": "8 components exceed the listing cap of 7",
    }
    full = cli._component_json(components(inst), 4, config)
    assert full["sizes"] == [1, 1, 3, 3, 3, 3, 5, 5] and len(full["representatives"]) == 8


def test_large_instance_is_refused_before_any_search():
    start = time.perf_counter()
    inst = FSInstance(build_named("complete", 40), build_named("cycle", 40))
    with pytest.raises(ResourceLimitError, match="exceeds the configured cap"):
        components(inst)
    with pytest.raises(ResourceLimitError):
        is_connected(inst)
    assert inst._swaps is None      # no swap tables were built
    assert time.perf_counter() - start < 0.1


def test_state_count_refusal_does_not_print_the_count():
    # 1800! has more digits than Python turns into text.
    inst = FSInstance(build_named("path", 1800), build_named("cycle", 1800))
    for search in (components, is_connected):
        with pytest.raises(ResourceLimitError, match="the state count 1800! exceeds"):
            search(inst)


# -- margin matrices --------------------------------------------------------------------


def test_margin_matrix_small_counts():
    p3 = build_named("path", 3)
    assert margin_count(p3, p3, 2, 2) == 2
    p4 = build_named("path", 4)
    assert margin_count(p4, p4, 3, 3) == 2


def test_margin_matrix_requires_cut_vertices():
    # The cut-vertex-margins certificate declines unless both sides have one.
    p4, c4 = build_named("path", 4), build_named("cycle", 4)
    for x, y in ((c4, p4), (p4, c4)):
        assert cut_vertex_disconnection(x, y) is None
    witness = cut_vertex_disconnection(p4, p4)
    assert witness == {"x_cut_vertex": 2, "y_cut_vertex": 2, "component_lower_bound": 2}


def test_margin_matrix_lower_bound_on_components():
    rng = random.Random(8)
    found = 0
    while found < 12:
        n = rng.randint(4, 6)
        x = random_connected_graph(rng, n, 0.4)
        y = random_connected_graph(rng, n, 0.4)
        cx = structure_report(x).cut_vertices
        cy = structure_report(y).cut_vertices
        if not cx or not cy:
            continue
        found += 1
        count = components(FSInstance(x, y)).component_count
        for x0 in cx:
            for y0 in cy:
                bound = margin_count(x, y, x0, y0)
                assert bound >= 2
                assert count >= bound


def test_margin_matrix_agrees_with_direct_enumeration():
    # Independent oracle: enumerate all small matrices directly.
    def brute(rows, cols):
        cells = len(rows) * len(cols)
        total = max(sum(rows), 1)
        count = 0
        for values in itertools.product(range(total + 1), repeat=cells):
            grid = [values[i * len(cols) : (i + 1) * len(cols)] for i in range(len(rows))]
            if all(sum(r) == rows[i] for i, r in enumerate(grid)) and all(
                sum(grid[i][j] for i in range(len(rows))) == cols[j]
                for j in range(len(cols))
            ):
                count += 1
        return count

    x = build_named("star", 5)          # deleting the hub leaves sizes (1,1,1,1)
    y = build_named("lollipop", k=2, m=3)   # deleting vertex 2 leaves sizes (1,3)
    assert margin_count(x, y, 5, 2) == brute((1, 1, 1, 1), (1, 3))
    assert margin_count(y, x, 2, 5) == brute((1, 3), (1, 1, 1, 1))


# -- component-count identity for split positions -----------------------------------------


def test_decomposition_two_isolated_vertices():
    assert decomposition_check(Graph(2), build_named("complete", 2))


def test_decomposition_examples():
    assert decomposition_check(
        disjoint_union(build_named("complete", 2), Graph(1)), build_named("path", 3)
    )
    assert decomposition_check(
        disjoint_union(build_named("path", 2), build_named("path", 2)),
        build_named("cycle", 4),
    )


# -- export ---------------------------------------------------------------------------------


def test_fs_dot_gated():
    inst = FSInstance(build_named("path", 6), build_named("path", 6))
    with pytest.raises(ResourceLimitError):
        fs_to_dot(inst)


def test_fs_dot_content():
    inst = FSInstance(build_named("complete", 2), build_named("complete", 2))
    dot = fs_to_dot(inst)
    assert '"12" -- "21";' in dot
