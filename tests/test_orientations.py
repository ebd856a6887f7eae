import gc
import itertools
import math
import random
import time
from collections import deque

import pytest

from claims import checked_phi, class_extensions, toggle
from conftest import FROZEN_CYCLE5_COMPONENT, SPIDER_TREE_5, random_graph
from fsgraph import (
    Graph,
    InvalidArgumentError,
    InvalidMoveError,
    Orientation,
    Permutation,
    ResourceLimitError,
    build_named,
    enumerate_acyclic,
    linear_extensions,
    orientation_from_permutation,
    partition_by_moves,
    phi,
    structure_report,
    tutte_eval,
)
from fsgraph.iso import enumerate_nonisomorphic
from fsgraph.config import DEFAULT_CLOSURE_CAP
from fsgraph.orientations import (
    _KEY_TABLES,
    _ORDER_TABLES,
    _flip_masks,
    _flip_selections,
    _gc_paused,
    _incidence,
    _move_classes,
    _order_keys,
    _orders_by_orientation,
    _vertex_orders,
)


# -- orientations from permutations ---------------------------------------------


def test_identity_orients_path_forward():
    o = orientation_from_permutation(build_named("path", 3), Permutation.parse("123"))
    assert o.directed_edges() == ((1, 2), (2, 3))


def test_orientation_follows_word_order():
    # Entries appear in the order 5, 3, 1, 4, 2, so every complete-graph edge
    # points from the earlier entry to the later one.
    o = orientation_from_permutation(build_named("complete", 5), Permutation.parse("53142"))
    expected = {
        (5, 3), (5, 1), (5, 4), (5, 2),
        (3, 1), (3, 4), (3, 2),
        (1, 4), (1, 2),
        (4, 2),
    }
    assert set(o.directed_edges()) == expected
    assert o.is_acyclic()


def test_word_is_extension_of_its_orientation():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(1, 7)
        g = random_graph(rng, n)
        word = list(range(1, n + 1))
        rng.shuffle(word)
        sigma = Permutation(word)
        o = orientation_from_permutation(g, sigma)
        exts = linear_extensions(o)
        assert sigma in exts and len(exts) >= 1


def test_extensions_of_one_orientation_collapse():
    # All words with the same induced orientation form exactly its extension set.
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = random_graph(rng, n)
        buckets = {}
        for word in itertools.permutations(range(1, n + 1)):
            sigma = Permutation(word)
            o = orientation_from_permutation(g, sigma)
            buckets.setdefault(o.bits, set()).add(sigma)
        for bits, words in buckets.items():
            assert linear_extensions(Orientation(g, bits)) == frozenset(words)


def test_first_entry_is_source_last_is_sink():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        word = list(range(1, n + 1))
        rng.shuffle(word)
        o = orientation_from_permutation(g, Permutation(word))
        assert word[0] in o.sources()
        assert word[-1] in o.sinks()


# -- acyclicity ------------------------------------------------------------------


def test_every_tree_orientation_is_acyclic():
    tree = SPIDER_TREE_5
    for bits in range(1 << tree.edge_count):
        assert Orientation(tree, bits).is_acyclic()


def test_directed_triangle_is_cyclic():
    # Edge order on K_3 is (1,2), (1,3), (2,3); direct 1->2, 2->3, 3->1.
    o = Orientation(build_named("complete", 3), 0b010)
    assert set(o.directed_edges()) == {(1, 2), (3, 1), (2, 3)}
    assert not o.is_acyclic()
    with pytest.raises(InvalidArgumentError):
        linear_extensions(o)


def test_enumerate_counts():
    assert len(enumerate_acyclic(build_named("complete", 3))) == 6
    assert len(enumerate_acyclic(Graph(4))) == 1
    k4 = build_named("complete", 4)
    assert len(enumerate_acyclic(k4)) == math.factorial(4)


def test_enumerate_matches_tutte_on_all_small_graphs():
    for n in range(1, 6):
        for g in enumerate_nonisomorphic(n):
            assert len(enumerate_acyclic(g)) == tutte_eval(g, 2, 0)


def test_enumerate_refuses_past_the_closure_cap():
    # An 18-edge perfect matching has 2^18 acyclic orientations: counted,
    # then refused before any is listed.
    matching = Graph(36, [(2 * i + 1, 2 * i + 2) for i in range(18)])
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"2\^18 acyclic orientations exceed"):
        enumerate_acyclic(matching)
    assert time.perf_counter() - start < 1


def test_forest_rank_refuses_before_the_tutte_count(monkeypatch):
    # T(2, 0) >= 2^(n - c), so G(30, p) and G(40, p) are refused before the
    # Tutte evaluation runs (it took 0.45-0.75 s to hit its own cap there).
    import fsgraph.orientations as orientations

    def refuse(*args):
        raise AssertionError("tutte_eval ran")

    monkeypatch.setattr(orientations, "tutte_eval", refuse)
    for n, p in ((30, 0.15), (40, 0.5)):
        g = random_graph(random.Random(f"{n}:{p}"), n, p)
        with pytest.raises(ResourceLimitError, match=rf"at least 2\^{n - 1} acyclic orientations exceed"):
            enumerate_acyclic(g)
        with pytest.raises(ResourceLimitError, match="acyclic orientations exceed"):
            partition_by_moves(g, "toric")
    # Exact on forests: a 17-edge matching has 2^17 acyclic orientations.
    with pytest.raises(ResourceLimitError, match=r"^2\^17 acyclic orientations exceed"):
        partition_by_moves(Graph(34, [(2 * i + 1, 2 * i + 2) for i in range(17)]), "double_flip")


def test_extension_listing_respects_vertex_cap():
    with pytest.raises(ResourceLimitError):
        linear_extensions(Orientation(Graph(11), 0))


def test_enumerate_big_edge_route():
    # 7 vertices, 17 edges: more edges than a 2^m filter can afford.
    g = build_named("complete", 7)
    pruned = Graph(7, list(g.edges)[:17])
    orientations = enumerate_acyclic(pruned)
    assert len(orientations) == tutte_eval(pruned, 2, 0)
    assert all(o.is_acyclic() for o in orientations)
    assert [o.bits for o in orientations] == sorted({o.bits for o in orientations})


# -- flips -------------------------------------------------------------------------


def test_flip_isolated_vertex_is_identity():
    g = Graph(3, [(1, 2)])
    o = Orientation(g, 0)
    assert o.flip(3) == o


def test_flip_source_of_path():
    o = Orientation(build_named("path", 3), 0)  # 1->2->3
    flipped = o.flip(1)
    assert set(flipped.directed_edges()) == {(2, 1), (2, 3)}
    assert flipped.is_acyclic()
    assert flipped.flip(1) == o


def test_flip_rejects_interior_vertex():
    o = Orientation(build_named("path", 3), 0)
    with pytest.raises(InvalidMoveError):
        o.flip(2)


def test_flip_tracks_cyclic_shift():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 7)
        g = random_graph(rng, n)
        word = list(range(1, n + 1))
        rng.shuffle(word)
        sigma = Permutation(word)
        o = orientation_from_permutation(g, sigma)
        assert o.flip(sigma(1)) == orientation_from_permutation(g, sigma.cyclic_shift())


def test_complete_graphs_admit_no_double_flip():
    for n in (1, 2, 3, 4):
        g = build_named("complete", n)
        for o in enumerate_acyclic(g):
            for u in o.sources():
                for v in o.sinks():
                    with pytest.raises(InvalidMoveError):
                        o.double_flip(u, v)


def test_double_flip_reverses():
    g = SPIDER_TREE_5
    o = orientation_from_permutation(g, Permutation.parse("12345"))
    u = o.sources()[0]
    v = next(s for s in o.sinks() if s != u and not g.has_edge(u, s))
    moved = o.double_flip(u, v)
    assert moved.is_acyclic()
    assert moved.double_flip(v, u) == o


def test_ab_flip_specializations():
    g = SPIDER_TREE_5
    for o in enumerate_acyclic(g):
        assert o.ab_flip((), ()) == o
        for u in o.sources():
            assert o.ab_flip((u,), ()) == o.flip(u)
        for u in o.sources():
            for v in o.sinks():
                if u != v and not g.has_edge(u, v):
                    assert o.ab_flip((u,), (v,)) == o.double_flip(u, v)


# -- partitions ----------------------------------------------------------------------


def test_triangle_partitions():
    k3 = build_named("complete", 3)
    assert partition_by_moves(k3, "toric").class_count == 2
    double = partition_by_moves(k3, "double_flip")
    assert double.class_count == 6
    assert all(len(cls) == 1 for cls in double.classes)


def test_spider_tree_partitions():
    toric = partition_by_moves(SPIDER_TREE_5, "toric")
    double = partition_by_moves(SPIDER_TREE_5, "double_flip")
    assert toric.class_count == 1
    assert double.class_count == 5
    assert sum(len(c) for c in double.classes) == 16  # 2^4 orientations of a tree


def test_partition_covers_acyclic_exactly():
    rng = random.Random(12)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 5))
        acyc = {o.bits for o in enumerate_acyclic(g)}
        for kind in ("toric", "double_flip", "local_double_flip"):
            part = partition_by_moves(g, kind)
            seen = [o.bits for cls in part.classes for o in cls]
            assert sorted(seen) == sorted(acyc)
            assert len(seen) == len(set(seen))


def test_refinement_chain_small_graphs():
    for n in range(1, 6):
        for g in enumerate_nonisomorphic(n):
            toric = partition_by_moves(g, "toric")
            double = partition_by_moves(g, "double_flip")
            local = partition_by_moves(g, "local_double_flip")
            for cls in double.classes:
                owners = {toric.class_index(o) for o in cls}
                assert len(owners) == 1
            for cls in local.classes:
                owners = {double.class_index(o) for o in cls}
                assert len(owners) == 1


def test_zero_one_flip_classes_are_toric():
    for n in range(1, 5):
        for g in enumerate_nonisomorphic(n):
            toric = partition_by_moves(g, "toric")
            zo = partition_by_moves(g, "ab_flip", a=0, b=1)
            assert [tuple(o.bits for o in c) for c in toric.classes] == [
                tuple(o.bits for o in c) for c in zo.classes
            ]


def test_one_one_flip_classes_are_double_flip():
    for n in range(1, 5):
        for g in enumerate_nonisomorphic(n):
            double = partition_by_moves(g, "double_flip")
            oo = partition_by_moves(g, "ab_flip", a=1, b=1)
            assert [tuple(o.bits for o in c) for c in double.classes] == [
                tuple(o.bits for o in c) for c in oo.classes
            ]


def test_toric_class_splits_into_gcd_many_balanced_pieces():
    rng = random.Random(31)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 5))
        nu = structure_report(g).gcd_of_component_sizes
        toric = partition_by_moves(g, "toric")
        double = partition_by_moves(g, "double_flip")
        for t_idx, t_cls in enumerate(toric.classes):
            owners = {double.class_index(o) for o in t_cls}
            assert len(owners) == nu
            ext_counts = {
                len(class_extensions(double.classes[i])) for i in owners
            }
            assert len(ext_counts) == 1


def test_single_source_count_is_n_times_toric_count():
    for n in range(1, 6):
        for g in enumerate_nonisomorphic(n):
            if not structure_report(g).is_connected:
                continue
            single = sum(1 for o in enumerate_acyclic(g) if len(o.sources()) == 1)
            assert single == n * partition_by_moves(g, "toric").class_count


# -- linear extensions ------------------------------------------------------------------


def test_edgeless_extensions_are_everything():
    g = Graph(4)
    assert len(linear_extensions(Orientation(g, 0))) == 24


def test_total_order_has_unique_extension():
    o = Orientation(build_named("path", 5), 0)
    assert linear_extensions(o) == frozenset({Permutation.identity(5)})


def test_frozen_component_is_a_double_flip_class_extension_set():
    double = partition_by_moves(SPIDER_TREE_5, "double_flip")
    start = orientation_from_permutation(SPIDER_TREE_5, Permutation.parse("12345"))
    cls = double.classes[double.class_index(start)]
    assert class_extensions(cls) == FROZEN_CYCLE5_COMPONENT


def test_class_extension_union_is_disjoint():
    double = partition_by_moves(SPIDER_TREE_5, "double_flip")
    for cls in double.classes:
        per_orientation = [linear_extensions(o) for o in cls]
        assert sum(len(s) for s in per_orientation) == len(
            class_extensions(cls)
        )


# -- toggles ------------------------------------------------------------------------------


def test_toggle_fixes_comparable_pairs():
    o = Orientation(build_named("path", 3), 0)  # forces 1 < 2 < 3
    sigma = Permutation.parse("123")
    assert toggle(o, sigma, 1) == sigma
    assert toggle(o, sigma, 2) == sigma


def test_toggle_swaps_incomparable_pairs_and_is_involutive():
    g = Graph(3, [(1, 2)])  # 3 is incomparable to everything
    o = Orientation(g, 0)
    sigma = Permutation.parse("132")
    moved = toggle(o, sigma, 2)
    assert moved == Permutation.parse("123")
    assert toggle(o, moved, 2) == sigma


def test_toggles_reach_all_extensions():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        o = rng.choice(enumerate_acyclic(g))
        exts = linear_extensions(o)
        start = min(exts)
        seen = {start}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for i in range(1, n):
                nxt = toggle(o, cur, i)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        assert seen == exts


# -- the source-flip successor map ---------------------------------------------------------


def test_phi_cycles_triangle_classes():
    k3 = build_named("complete", 3)
    toric = partition_by_moves(k3, "toric")
    double = partition_by_moves(k3, "double_flip")
    for idx in range(double.class_count):
        orbit = [idx]
        cur = idx
        for _ in range(3):
            cur = checked_phi(double, cur)
            orbit.append(cur)
        assert orbit[3] == idx
        assert len(set(orbit[:3])) == 3
        owner = {toric.class_index(double.classes[i][0]) for i in orbit[:3]}
        assert len(owner) == 1


def test_phi_orbit_tiles_toric_class_when_connected():
    for n in range(1, 6):
        for g in enumerate_nonisomorphic(n):
            if not structure_report(g).is_connected:
                continue
            toric = partition_by_moves(g, "toric")
            double = partition_by_moves(g, "double_flip")
            for t_cls in toric.classes:
                base = double.class_index(t_cls[0])
                orbit = []
                cur = base
                for _ in range(n):
                    orbit.append(cur)
                    cur = checked_phi(double, cur)
                assert cur == base
                tiled = sorted(
                    o.bits for i in set(orbit) for o in double.classes[i]
                )
                assert tiled == sorted(o.bits for o in t_cls)


def test_phi_successor_extensions_are_shift_images():
    # Advancing a double-flip class corresponds to rotating the words of
    # its extension set.
    for g in (SPIDER_TREE_5, Graph(6, [(1, 2), (2, 3), (4, 5)])):
        double = partition_by_moves(g, "double_flip")
        for idx in range(double.class_count):
            succ = phi(double, idx)
            shifted = {
                p.cyclic_shift()
                for p in class_extensions(double.classes[idx])
            }
            assert shifted == class_extensions(double.classes[succ])


def test_phi_identity_on_single_vertex():
    part = partition_by_moves(Graph(1), "double_flip")
    assert part.class_count == 1
    assert checked_phi(part, 0) == 0


def test_edgeless_graph_degenerates_to_one_class():
    g = Graph(4)
    assert len(enumerate_acyclic(g)) == 1
    for kind, extra in (
        ("toric", {}),
        ("double_flip", {}),
        ("local_double_flip", {}),
        ("ab_flip", {"a": 1, "b": 1}),
    ):
        assert partition_by_moves(g, kind, **extra).class_count == 1
    part = partition_by_moves(g, "double_flip")
    assert checked_phi(part, 0) == 0


# -- textual form ----------------------------------------------------------------------------


def test_orientation_string_round_trip():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6))
        bits = rng.randrange(1 << g.edge_count)
        o = Orientation(g, bits)
        assert Orientation.from_string(g, str(o)) == o


def test_orientation_string_format():
    o = Orientation(build_named("path", 3), 0b10)
    assert str(o) == "1>2,3>2"


# -- mask-based enumerator and closure against per-orientation references --------------


def _filtered_acyclic(g):
    """Reference enumerator: every direction vector, kept when acyclic."""
    return [bits for bits in range(1 << g.edge_count) if Orientation(g, bits).is_acyclic()]


def _seeded_graphs(seed, sizes):
    """One random labelled graph per (n, m) in sizes."""
    rng = random.Random(seed)
    return [
        Graph(n, rng.sample(list(itertools.combinations(range(1, n + 1), 2)), m))
        for n, m in sizes
    ]


def test_enumerate_matches_exhaustive_filter():
    graphs = [g for n in range(1, 7) for g in enumerate_nonisomorphic(n)]
    graphs += _seeded_graphs(
        41, [(7, 12), (7, 16), (8, 14), (8, 16), (9, 11), (9, 16), (10, 13), (10, 16)]
    )
    for g in graphs:
        assert [o.bits for o in enumerate_acyclic(g)] == _filtered_acyclic(g), g.edges


def _degree_sources_sinks(o):
    indeg = [0] * o.graph.n
    outdeg = [0] * o.graph.n
    for tail, head in o.directed_edges():
        outdeg[tail - 1] += 1
        indeg[head - 1] += 1
    n = o.graph.n
    return (
        tuple(v + 1 for v in range(n) if indeg[v] == 0),
        tuple(v + 1 for v in range(n) if outdeg[v] == 0),
    )


def test_sources_and_sinks_match_degrees():
    rng = random.Random(43)
    sizes = [(n, m) for n in range(2, 9) for m in range(0, min(14, n * (n - 1) // 2) + 1, 3)]
    for g in _seeded_graphs(42, sizes):
        for _ in range(10):
            o = Orientation(g, rng.randrange(1 << g.edge_count))   # cyclic ones too
            assert (o.sources(), o.sinks()) == _degree_sources_sinks(o)


def _edge_flip(o, vertices):
    """Reverse every edge at the given 1-indexed vertices, edge by edge."""
    bits = o.bits
    for t, (a, b) in enumerate(o.graph.edges):
        for w in vertices:
            if w in (a, b):
                bits ^= 1 << t
    return bits


def _reference_moves(o, kind, a, b, comp_id):
    """The moves of one orientation, from its directed edges alone."""
    g = o.graph
    src, snk = _degree_sources_sinks(o)
    if kind == "toric":
        return [_edge_flip(o, (v,)) for v in sorted(set(src) | set(snk))]
    if kind in ("double_flip", "local_double_flip"):
        return [
            _edge_flip(o, (u, v))
            for u in src
            for v in snk
            if u != v
            and not g.has_edge(u, v)
            and (kind == "double_flip" or comp_id[u] == comp_id[v])
        ]
    moves = []
    for na, nb in [(a, b)] if a == b else [(a, b), (b, a)]:
        for us in itertools.combinations(src, na):
            for vs in itertools.combinations(snk, nb):
                chosen = us + vs
                if len(set(chosen)) < len(chosen):
                    continue
                if any(g.has_edge(x, y) for x, y in itertools.combinations(chosen, 2)):
                    continue
                moves.append(_edge_flip(o, chosen))
    return moves


def _reference_partition(g, kind, a=None, b=None):
    """Breadth-first closure one Orientation at a time, over the filtered
    acyclic set; classes as sorted bit tuples in order of least member."""
    comp_id = {}
    for i, comp in enumerate(structure_report(g).components):
        for v in comp:
            comp_id[v] = i
    acyclic = _filtered_acyclic(g)
    assigned = set()
    classes = []
    for start in acyclic:
        if start in assigned:
            continue
        members = {start}
        queue = deque([start])
        while queue:
            cur = Orientation(g, queue.popleft())
            for nxt in _reference_moves(cur, kind, a, b, comp_id):
                assert Orientation(g, nxt).is_acyclic()
                if nxt not in members:
                    members.add(nxt)
                    queue.append(nxt)
        assigned |= members
        classes.append(tuple(sorted(members)))
    return sorted(classes)


def test_partition_matches_orientation_closure():
    graphs = [g for n in range(1, 6) for g in enumerate_nonisomorphic(n)]
    graphs += _seeded_graphs(44, [(6, 6), (6, 9), (6, 11), (7, 7), (7, 10), (8, 8), (8, 11)])
    for g in graphs:
        cases = [(kind, None, None) for kind in ("toric", "double_flip", "local_double_flip")]
        cases += [
            ("ab_flip", a, b) for a, b in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (3, 0))
        ]
        for kind, a, b in cases:
            got = [tuple(o.bits for o in cls) for cls in partition_by_moves(g, kind, a, b).classes]
            assert got == _reference_partition(g, kind, a, b), (g.edges, kind, a, b)


def test_flip_generator_agrees_with_ab_flip():
    # For every (a, b, local) flip, the moves `_flip_masks` lists, each
    # taking the bits with bits & mask == want to bits ^ mask, are one end
    # of every legal ab_flip call: a call of a sources and b sinks, or of b
    # sources and a sinks, that reverses some edge (inside one component
    # when local) is a listed move of the orientation or the reverse of a
    # listed move of its image, and every listed move of an orientation is
    # such a call.  No move is listed twice or together with its reverse,
    # and every illegal call raises.
    graphs = _seeded_graphs(45, [(3, 2), (4, 3), (5, 4), (6, 7), (7, 8), (8, 9), (8, 12)])
    # Isolated vertices, and three or more components.
    graphs += [Graph(5), Graph(6, [(1, 2), (2, 3)]), Graph(7, [(1, 2), (3, 4), (5, 6)])]
    rng = random.Random(46)
    flips = [(0, 1, False), (1, 1, False), (1, 1, True), (0, 0, False), (1, 0, False)]
    flips += [(2, 1, False), (2, 1, True), (2, 2, False), (3, 0, False)]
    for g in graphs:
        comp_id = {v: i for i, comp in enumerate(structure_report(g).components) for v in comp}
        orientations = list(enumerate_acyclic(g))
        if len(orientations) > 12:
            orientations = rng.sample(orientations, 12)
        for a, b, local in flips:
            moves = _flip_masks(g, a, b, local)
            assert all(mask and want & ~mask == 0 for mask, want in moves)
            assert len({(mask, min(want, want ^ mask)) for mask, want in moves}) == len(moves)

            def listed(bits):
                return {bits ^ mask for mask, want in moves if bits & mask == want}

            for o in orientations:
                src, snk = _degree_sources_sinks(o)
                legal = set()
                for na, nb in {(a, b), (b, a)}:
                    for us in itertools.combinations(range(1, g.n + 1), na):
                        for vs in itertools.combinations(range(1, g.n + 1), nb):
                            chosen = us + vs
                            if (
                                len(set(chosen)) < len(chosen)
                                or any(g.has_edge(x, y) for x, y in itertools.combinations(chosen, 2))
                                or not set(us) <= set(src)
                                or not set(vs) <= set(snk)
                            ):
                                with pytest.raises(InvalidMoveError):
                                    o.ab_flip(us, vs)
                                continue
                            image = o.ab_flip(us, vs)
                            assert image.bits == _edge_flip(o, chosen)
                            assert image.ab_flip(vs, us) == o
                            if image == o or local and len({comp_id[w] for w in chosen}) > 1:
                                continue
                            legal.add(image.bits)
                            assert image.bits in listed(o.bits) or o.bits in listed(image.bits), (
                                g.edges, o.bits, us, vs, local
                            )
                assert listed(o.bits) <= legal, (g.edges, o.bits, a, b, local)


def _bfs_move_classes(g, a, b, local, acyclic):
    """Plain breadth-first closure under two-way (a, b, local)-flips, with
    the moves listed from the direction bits alone: classes as sorted bit
    tuples in order of least member."""
    comp_id = {v - 1: i for i, comp in enumerate(structure_report(g).components) for v in comp}
    edge_bits = [0] * g.n
    for t, (u, w) in enumerate(g._edges):
        edge_bits[u] |= 1 << t
        edge_bits[w] |= 1 << t

    def moves(bits):
        heads = {w if not bits >> t & 1 else u for t, (u, w) in enumerate(g._edges)}
        tails = {u if not bits >> t & 1 else w for t, (u, w) in enumerate(g._edges)}
        src = [v for v in range(g.n) if v not in heads]
        snk = [v for v in range(g.n) if v not in tails]
        out = []
        for na, nb in {(a, b), (b, a)}:
            for us in itertools.combinations(src, na):
                for vs in itertools.combinations(snk, nb):
                    chosen = us + vs
                    if len(set(chosen)) < len(chosen):
                        continue
                    if any(g._adj[u] >> w & 1 for u, w in itertools.combinations(chosen, 2)):
                        continue
                    if local and len({comp_id[v] for v in chosen}) > 1:
                        continue
                    flipped = bits
                    for v in chosen:
                        flipped ^= edge_bits[v]
                    out.append(flipped)
        return out

    assigned = set()
    classes = []
    for start in acyclic:
        if start in assigned:
            continue
        members = {start}
        queue = deque([start])
        while queue:
            for nxt in moves(queue.popleft()):
                if nxt not in members:
                    members.add(nxt)
                    queue.append(nxt)
        assigned |= members
        classes.append(tuple(sorted(members)))
    return classes


def test_union_find_closure_matches_a_breadth_first_closure():
    sizes = [(n, m) for n in range(2, 9) for m in (n - 1, n + 2, 2 * n) if m <= n * (n - 1) // 2]
    graphs = _seeded_graphs(48, sizes)
    # Isolated vertices (a flip may fill up with them), and local flips
    # across three or more components.
    graphs += _seeded_graphs(49, [(7, 2), (8, 3), (9, 4), (10, 5)])
    graphs += [
        Graph(4),
        Graph(6, [(1, 2), (2, 3)]),
        Graph(7, [(1, 2), (3, 4), (5, 6)]),
        Graph(8, [(1, 2), (2, 3), (1, 3), (4, 5), (6, 7)]),
        Graph(9, [(1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)]),
    ]
    flips = [(0, 1, False), (1, 1, False), (1, 1, True), (2, 1, False), (2, 2, False), (3, 0, False)]
    flips += [(0, 1, True), (2, 1, True), (1, 2, True), (2, 2, True), (1, 3, False)]
    for g in graphs:
        acyclic = [o.bits for o in enumerate_acyclic(g)]
        for a, b, local in flips:
            got = _move_classes(g, a, b, local, acyclic)
            assert got == _bfs_move_classes(g, a, b, local, acyclic), (g.edges, a, b, local)
    # An edgeless graph has no move (every selection has mask 0); a closure
    # that tried each of its 99 540 double-flip selections took 23 ms here
    # (2-core Xeon), this one takes about 0.1 ms.
    start = time.perf_counter()
    assert _move_classes(Graph(316), 1, 1, False, [0]) == [(0,)]
    assert time.perf_counter() - start < 0.023


def test_flip_selection_cap_bounds_the_work_per_orientation():
    # An edgeless graph has one orientation and passes the edge cap, so only
    # the C(n, a) C(n - a, b) selection count (doubled when a != b) bounds it.
    assert partition_by_moves(Graph(316), "double_flip").class_count == 1   # 99540 choices
    with pytest.raises(ResourceLimitError):
        partition_by_moves(Graph(317), "local_double_flip")   # 100172
    assert partition_by_moves(Graph(67), "ab_flip", 3, 0).class_count == 1   # 95810
    with pytest.raises(ResourceLimitError):
        partition_by_moves(Graph(68), "ab_flip", 0, 3)   # 100232
    with pytest.raises(ResourceLimitError):
        partition_by_moves(Graph(24), "ab_flip", 4, 4)
    # More flipped vertices than the graph has: no move, one class per orientation.
    path = build_named("path", 3)
    assert partition_by_moves(path, "ab_flip", 10**9, 0).class_count == 4


def test_flip_selections_count_non_adjacent_choices():
    # Against a direct count of the ordered (sources, sinks) choices.
    rng = random.Random(41)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8)))
        for a, b in ((0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (0, 3)):
            want = 0
            for picks in {(0,) * a + (1,) * b, (0,) * b + (1,) * a}:
                for chosen in itertools.permutations(range(g.n), a + b):
                    sources = chosen[: picks.count(0)]
                    sinks = chosen[picks.count(0):]
                    independent = all(
                        not g._adj[u] >> v & 1 for u, v in itertools.combinations(chosen, 2)
                    )
                    ordered = list(sources) == sorted(sources) and list(sinks) == sorted(sinks)
                    want += independent and ordered
            assert _flip_selections(g, a, b) == want, (g.edges, a, b)


def test_closure_cap_bounds_orientations_times_selections():
    # A 13-edge perfect matching has 2^13 orientations and 13728 (1, 2)-flip
    # selections, each within the old per-factor caps.
    matching = Graph(26, [(2 * i + 1, 2 * i + 2) for i in range(13)])
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="8192 acyclic orientations exceed"):
        partition_by_moves(matching, "ab_flip", 1, 2)
    assert time.perf_counter() - start < 1
    # A complete graph has no two non-adjacent vertices: no (1, 1) selection.
    assert _flip_selections(build_named("complete", 7), 1, 1) == 0


def test_flip_with_no_legal_selection_answers_at_once():
    # A 16-edge perfect matching has no 18 pairwise non-adjacent vertices,
    # so no (9, 9)-flip applies and each of its 2^16 orientations is a
    # class; listing the moves would walk its 3^16 smaller independent sets.
    matching = Graph(32, [(2 * i + 1, 2 * i + 2) for i in range(16)])
    assert _flip_selections(matching, 9, 9) == 0
    start = time.perf_counter()
    partition = partition_by_moves(matching, "ab_flip", 9, 9)
    assert time.perf_counter() - start < 2
    assert partition.class_count == 65536
    assert all(len(cls) == 1 for cls in partition.classes)


def test_move_closure_asserts_that_moves_stay_in_the_acyclic_set():
    # Handing the closure an incomplete set makes a legal flip land outside it.
    path = build_named("path", 3)
    with pytest.raises(AssertionError, match="acyclicity"):
        _move_classes(path, 0, 1, False, [0])


def test_listings_leave_no_reference_cycles():
    # A cycle would keep its intermediate lists alive until the next collection.
    from fsgraph.theorems import cycle_fs_structure, path_fs_structure

    y = Graph(6, [(1, 2), (3, 4), (2, 5)])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        kept = [
            linear_extensions(Orientation(y, 0)),
            enumerate_acyclic(y),
            partition_by_moves(y, "double_flip"),
            path_fs_structure(y, include_classes=True),
            cycle_fs_structure(y, include_classes=True),
        ]
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert kept


def _listings(y):
    from fsgraph.theorems import cycle_fs_structure, path_fs_structure

    return (
        lambda: path_fs_structure(y, include_classes=True),
        lambda: cycle_fs_structure(y, include_classes=True),
        lambda: enumerate_acyclic(y),
        lambda: partition_by_moves(y, "double_flip"),
    )


def test_listings_leave_the_collector_as_they_found_it():
    enabled = gc.isenabled()
    try:
        for state in (True, False):
            gc.enable() if state else gc.disable()
            for build in _listings(Graph(5, [(1, 2), (3, 4)])):
                assert build()
                assert gc.isenabled() is state
            with _gc_paused():
                with _gc_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert gc.isenabled() is state
    finally:
        gc.enable() if enabled else gc.disable()


def test_a_failing_listing_restores_the_collector(monkeypatch):
    from fsgraph import orientations, theorems

    def fail(*args):
        assert not gc.isenabled()
        raise RuntimeError("listing failed")

    monkeypatch.setattr(theorems, "_orders_by_orientation", fail)
    monkeypatch.setattr(orientations, "_acyclic_bits", fail)
    enabled = gc.isenabled()
    try:
        for state in (True, False):
            gc.enable() if state else gc.disable()
            for build in _listings(Graph(5, [(1, 2), (3, 4)])):
                with pytest.raises(RuntimeError, match="listing failed"):
                    build()
                assert gc.isenabled() is state
    finally:
        gc.enable() if enabled else gc.disable()


def test_dropped_seven_vertex_listings_leave_no_cyclic_garbage():
    # The complement has 18 edges and 3216 acyclic orientations.
    y = Graph(7, [(1, 2), (3, 4), (5, 6)])
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for build in _listings(y)[:2]:
            assert len(build().classes) > 1
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# -- the shared vertex-order table -----------------------------------------------


def _reference_orders_by_orientation(graph: Graph) -> dict[int, list[Permutation]]:
    """The grouping with every vertex order built per call: a fresh bytes
    word and Permutation per leaf, as before the orders were shared."""
    n = graph.n
    inc, low, _ = _incidence(graph)
    seen = [0] * (1 << n)
    steps = []
    for p in range(1 << n):
        if p:
            seen[p] = seen[p & (p - 1)] | inc[(p & -p).bit_length() - 1]
        steps.append([(p | 1 << v, low[v] & seen[p]) for v in range(n) if not p >> v & 1])
    last = [step[0][1] if step else 0 for step in steps]
    states = [(0, 0)]
    for _ in range(n - 2):
        states = [(q, bits | add) for p, bits in states for q, add in steps[p]]
    words = map(bytes, itertools.permutations(range(1, n + 1)))
    new = Permutation._from_word
    groups: dict[int, list[Permutation]] = {}
    for p, bits in states:
        for q, add in steps[p]:
            key = bits | add | last[q]
            group = groups.get(key)
            if group is None:
                groups[key] = [new(next(words))]
            else:
                group.append(new(next(words)))
    return groups


def _group_words(groups):
    return [(key, [p.word for p in group]) for key, group in groups.items()]


def test_shared_orders_match_per_call_construction():
    # Keys, key order, list order and words, on every class with n <= 6.
    graphs = [g for n in range(1, 7) for g in enumerate_nonisomorphic(n)]
    graphs += _seeded_graphs(51, [(7, 4), (7, 9), (7, 13), (7, 18), (8, 6), (8, 12), (8, 20)])
    for g in graphs:
        got = _orders_by_orientation(g)
        assert _group_words(got) == _group_words(_reference_orders_by_orientation(g)), g.edges
        assert len(got) == tutte_eval(g, 2, 0)


def test_listings_at_one_n_equal_listings_from_a_fresh_table():
    from fsgraph.theorems import cycle_fs_structure, path_fs_structure

    rng = random.Random(52)
    ys = [random_graph(rng, n, p) for n in (6, 7) for p in (0.3, 0.55, 0.8)]

    def listings(y):
        return (
            path_fs_structure(y, include_classes=True),
            cycle_fs_structure(y, include_classes=True),
        )

    shared = [listings(y) for y in ys]
    fresh = []
    for y in ys:
        _ORDER_TABLES.clear()
        fresh.append(listings(y))
    assert shared == fresh


def test_memoised_orders_build_no_permutation(monkeypatch):
    first = _orders_by_orientation(build_named("cycle", 7))

    def refuse(*args):
        raise AssertionError("a Permutation was built")

    monkeypatch.setattr(Permutation, "_from_word", refuse)
    monkeypatch.setattr(Permutation, "__new__", refuse)
    again = _orders_by_orientation(build_named("path", 7))
    table = _ORDER_TABLES[7]
    assert sum(map(len, again.values())) == len(table) == 5040
    assert {id(p) for group in again.values() for p in group} == {id(p) for p in table}
    assert {id(p) for group in first.values() for p in group} == {id(p) for p in table}


def test_orders_group_by_induced_orientation_with_eight_byte_keys():
    # 34 edges need 8-byte key slots; sampled orders land in the group of
    # the orientation they induce.
    (g,) = _seeded_graphs(53, [(9, 34)])
    groups = _orders_by_orientation(g)
    assert len(groups) == tutte_eval(g, 2, 0)
    assert sum(map(len, groups.values())) == math.factorial(9)
    rng = random.Random(54)
    for key in rng.sample(sorted(groups), 50):
        group = groups[key]
        assert group == sorted(group)
        for p in rng.sample(group, min(4, len(group))):
            assert orientation_from_permutation(g, p).bits == key


# -- the kept key table -----------------------------------------------------------


def _induced_bits(g, orders):
    return [orientation_from_permutation(g, p).bits for p in orders]


def test_order_keys_are_the_induced_orientations():
    # Every order's key, on every class with n <= 6 and on seeded n = 7, 8
    # graphs, all cut out of the kept K_n keys.
    graphs = [g for n in range(1, 7) for g in enumerate_nonisomorphic(n)]
    graphs += _seeded_graphs(55, [(7, 3), (7, 11), (7, 18), (8, 9), (8, 22)])
    for g in graphs:
        keys = _order_keys(g)
        assert len(keys) == math.factorial(g.n)
        assert list(keys) == _induced_bits(g, _vertex_orders(g.n)), g.edges
    assert all(n in _KEY_TABLES for n in range(1, 9))


def test_order_keys_past_the_kept_bound_pack_the_graph_alone():
    # A sparse n = 9 graph: its keys are packed per call, and no K_9 table is kept.
    (g,) = _seeded_graphs(56, [(9, 10)])
    keys = _order_keys(g)
    assert len(keys) == math.factorial(9)
    rng = random.Random(57)
    ranks = sorted(rng.sample(range(len(keys)), 50))
    wanted = set(ranks)
    orders = [Permutation(w) for i, w in enumerate(itertools.permutations(range(1, 10))) if i in wanted]
    assert [keys[i] for i in ranks] == _induced_bits(g, orders)
    assert 9 not in _KEY_TABLES


def test_listings_at_one_n_share_one_key_table():
    first = _orders_by_orientation(build_named("cycle", 7))
    table = _KEY_TABLES[7]
    again = _orders_by_orientation(build_named("complete", 7))
    assert _KEY_TABLES[7] is table
    assert len(first) == 2**7 - 2 and len(again) == math.factorial(7)


def test_order_tables_stop_at_eight_factorial():
    _orders_by_orientation(build_named("path", 8))
    assert len(_ORDER_TABLES[8]) == math.factorial(8)
    groups = _orders_by_orientation(build_named("path", 9))
    assert len(groups) == 2**8
    assert sum(map(len, groups.values())) == math.factorial(9)
    assert max(_ORDER_TABLES) == 8 and max(_KEY_TABLES) == 8
    assert all(len(table) <= math.factorial(8) for table in _ORDER_TABLES.values())


def test_orientation_cap_bounds_the_flip_closure():
    # A perfect matching with m edges has 2^m acyclic orientations and
    # passes the edge cap; only the orientation count bounds its closure.
    def matching(m):
        return Graph(2 * m, [(2 * i + 1, 2 * i + 2) for i in range(m)])

    # K_7: 7! orientations, 14 toric selections each.
    assert math.factorial(7) * (1 + 14) <= DEFAULT_CLOSURE_CAP
    assert partition_by_moves(build_named("complete", 7), "toric").class_count == 720
    assert partition_by_moves(matching(15), "ab_flip", 0, 0).class_count == 2**15
    for m in (16, 18):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="acyclic orientations exceed"):
            partition_by_moves(matching(m), "toric")
        assert time.perf_counter() - start < 1
