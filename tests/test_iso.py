import itertools
import math
import random
import time

import pytest

from conftest import PAW, PETERSEN, random_graph, shuffled_copy
from fsgraph import Graph, ResourceLimitError, build_named, disjoint_union, iso
from fsgraph.iso import (
    NONISOMORPHIC_COUNTS,
    canonical_form,
    enumerate_nonisomorphic,
    is_cycle_graph,
    is_dynkin_graph,
    is_isomorphic,
    is_lollipop_graph,
    is_path_graph,
    is_star_graph,
    is_theta0_graph,
    refined_form,
)


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7))
        assert canonical_form(g) == canonical_form(shuffled_copy(g, rng))


def test_canonical_form_separates_same_degree_sequence():
    # Two 2-regular graphs on 6 vertices: a hexagon vs two triangles.
    hexagon = build_named("cycle", 6)
    triangles = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert sorted(hexagon.degrees()) == sorted(triangles.degrees())
    assert canonical_form(hexagon) != canonical_form(triangles)
    assert not is_isomorphic(hexagon, triangles)


def test_enumeration_matches_known_counts():
    for n in range(1, 7):
        assert len(enumerate_nonisomorphic(n)) == NONISOMORPHIC_COUNTS[n]


def test_enumeration_is_irredundant_and_complete_at_4():
    reps = enumerate_nonisomorphic(4)
    forms = {canonical_form(g) for g in reps}
    assert len(forms) == len(reps)
    # Every labeled graph on 4 vertices matches exactly one representative.
    pairs = list(itertools.combinations(range(1, 5), 2))
    for mask in range(1 << 6):
        g = Graph(4, [e for t, e in enumerate(pairs) if mask >> t & 1])
        assert canonical_form(g) in forms


def tadpole(cycle: int, tail: int) -> Graph:
    """A cycle on 1..cycle with a path of `tail` vertices hanging off vertex 1."""
    edges = [(i, i + 1) for i in range(1, cycle)] + [(cycle, 1)]
    edges += [(1 if i == cycle + 1 else i - 1, i) for i in range(cycle + 1, cycle + tail + 1)]
    return Graph(cycle + tail, edges)


def spider(*legs: int) -> Graph:
    """Paths of the given lengths joined at a hub, vertex 1."""
    edges, v = [], 1
    for length in legs:
        prev = 1
        for _ in range(length):
            v += 1
            edges.append((prev, v))
            prev = v
    return Graph(v, edges)


def test_family_recognizers():
    rng = random.Random(4)
    cases = [
        (build_named("path", 6), is_path_graph),
        (build_named("cycle", 6), is_cycle_graph),
        (build_named("star", 6), is_star_graph),
        (build_named("lollipop", k=3, m=3), is_lollipop_graph),
        (build_named("dynkin_d", 6), is_dynkin_graph),
    ]
    cases += [(tadpole(3, tail), is_lollipop_graph) for tail in range(1, 8)]
    cases += [(spider(1, 1, k), is_dynkin_graph) for k in range(1, 10)]
    cases += [
        (build_named("path", 2000), is_path_graph),
        (build_named("cycle", 2000), is_cycle_graph),
        (build_named("lollipop", k=1997, m=3), is_lollipop_graph),
        (build_named("dynkin_d", 2000), is_dynkin_graph),
    ]
    for g, predicate in cases:
        assert predicate(g), g
        assert predicate(shuffled_copy(g, rng)), g


def test_recognizers_reject_lookalikes():
    rng = random.Random(5)
    # Tadpoles with longer cycles, and a paw beside a 10-cycle, have the
    # lollipop's edge count and degrees; a claw beside a 4-cycle and the
    # other three-legged spiders have those of D_n.
    assert sorted(tadpole(4, 2).degrees()) == sorted(build_named("lollipop", k=3, m=3).degrees())
    paw_and_cycle = disjoint_union(PAW, build_named("cycle", 10))
    assert sorted(paw_and_cycle.degrees()) == sorted(build_named("lollipop", k=11, m=3).degrees())
    claw_and_cycle = disjoint_union(build_named("star", 4), build_named("cycle", 4))
    assert sorted(claw_and_cycle.degrees()) == sorted(build_named("dynkin_d", 8).degrees())
    cases = [(tadpole(c, tail), is_lollipop_graph) for c in range(4, 9) for tail in (1, 2, 5)]
    cases += [(paw_and_cycle, is_lollipop_graph), (claw_and_cycle, is_dynkin_graph)]
    cases += [(spider(*legs), is_dynkin_graph) for legs in ((1, 2, 2), (2, 2, 2), (1, 2, 4))]
    # Each family on 1500 vertices beside a 500-cycle has the edge count
    # and degrees of the family on 2000 vertices, but is disconnected.
    ring = build_named("cycle", 500)
    cases += [
        (disjoint_union(build_named("path", 1500), ring), is_path_graph),
        (disjoint_union(build_named("cycle", 1500), ring), is_cycle_graph),
        (disjoint_union(build_named("lollipop", k=1497, m=3), ring), is_lollipop_graph),
        (disjoint_union(build_named("dynkin_d", 1500), ring), is_dynkin_graph),
    ]
    for g, predicate in cases:
        assert not predicate(g), g
        assert not predicate(shuffled_copy(g, rng)), g
    assert not is_path_graph(build_named("star", 5))
    assert not is_cycle_graph(build_named("path", 4))
    # Disconnected 2-regular graph is not a cycle.
    assert not is_cycle_graph(Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]))


def test_recognizers_test_degrees_before_building_a_report():
    star = build_named("star", 2000)
    assert not is_path_graph(star) and not is_cycle_graph(star)
    assert not is_lollipop_graph(star) and not is_dynkin_graph(star)
    assert star._report is None


def test_recognizers_match_isomorphism_exhaustively():
    theta0 = build_named("theta0")
    for n in range(3, 8):
        lollipop = build_named("lollipop", k=n - 3, m=3) if n >= 4 else None
        dynkin = build_named("dynkin_d", n)
        for g in enumerate_nonisomorphic(n):
            assert is_lollipop_graph(g) == (lollipop is not None and is_isomorphic(g, lollipop))
            assert is_dynkin_graph(g) == is_isomorphic(g, dynkin)
            assert is_theta0_graph(g) == (n == 7 and is_isomorphic(g, theta0))


def test_small_coincidences():
    # The 3-vertex star and 3-vertex spindle both collapse to the path.
    assert is_path_graph(build_named("star", 3))
    assert is_path_graph(build_named("dynkin_d", 3))
    # The 4-vertex spindle is the 4-star.
    assert is_star_graph(build_named("dynkin_d", 4))
    assert is_isomorphic(build_named("dynkin_d", 4), build_named("star", 4))


def test_theta0_recognizer():
    g = build_named("theta0")
    rng = random.Random(9)
    assert is_theta0_graph(g)
    assert is_theta0_graph(shuffled_copy(g, rng))
    assert not is_theta0_graph(build_named("cycle", 7))


def theta(*lengths: int) -> Graph:
    """Paths with the given numbers of edges joining hub 1 to hub 2."""
    edges, v = [], 2
    for length in lengths:
        prev = 1
        for _ in range(length - 1):
            v += 1
            edges.append((prev, v))
            prev = v
        edges.append((prev, 2))
    return Graph(v, edges)


def test_theta0_recognizer_rejects_lookalikes():
    # Seven vertices, eight edges and degrees 2, 2, 2, 2, 2, 3, 3 each:
    # theta0 is theta(2, 3, 3); theta(2, 2, 4) has hubs with two common
    # neighbours, theta(1, 3, 4) and theta(1, 2, 5) have adjacent hubs
    # (the latter with exactly one common neighbour), two triangles
    # joined by a 2-path have cut vertices, and K_4 minus an edge beside
    # a triangle is disconnected.
    rng = random.Random(10)
    assert is_isomorphic(theta(2, 3, 3), build_named("theta0"))
    dumbbell = Graph(7, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)])
    split = Graph(7, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (5, 6), (6, 7), (5, 7)])
    for g in (theta(2, 2, 4), theta(1, 3, 4), theta(1, 2, 5), dumbbell, split):
        assert sorted(g.degrees()) == sorted(build_named("theta0").degrees())
        assert not is_theta0_graph(g), g
        assert not is_theta0_graph(shuffled_copy(g, rng)), g
    for _ in range(10):
        assert is_theta0_graph(shuffled_copy(theta(2, 3, 3), rng))


def test_canonical_form_refuses_past_the_cap_up_front():
    for refused in (
        lambda: canonical_form(PETERSEN),
        lambda: canonical_form(build_named("cycle", 9)),
        lambda: enumerate_nonisomorphic(9),
    ):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            refused()
        assert time.perf_counter() - start < 0.1


def test_refined_form_is_sound():
    rng = random.Random(23)
    agreements = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
        h = shuffled_copy(g, rng) if rng.random() < 0.5 else random_graph(rng, n)
        if refined_form(g) == refined_form(h):
            agreements += 1
            assert is_isomorphic(g, h)
    assert agreements > 50
    hexagon = build_named("cycle", 6)
    triangles = Graph(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert refined_form(hexagon) != refined_form(triangles)


# -- automorphism generators -------------------------------------------------------


def _chain_order(n, gens):
    """Product over k of the orbit length of k under the generators fixing
    0..k-1: |Aut| when gens form the stabiliser chain's strong generators."""
    order = 1
    for k in range(n):
        fixing = [p for p in gens if all(p[i] == i for i in range(k))]
        order *= len(iso._orbit(fixing, k))
    return order


def _maps_edges_onto_edges(g, perm):
    edges = {frozenset(e) for e in g._edges}
    return {frozenset((perm[a], perm[b])) for a, b in g._edges} == edges


def test_automorphism_generators_reproduce_group_orders():
    rng = random.Random(24)
    cases = [(build_named("path", n), 2) for n in (2, 5, 8)]
    cases += [(build_named("cycle", n), 2 * n) for n in (3, 6, 9)]
    cases += [(build_named("star", n), math.factorial(n - 1)) for n in (3, 6, 9)]
    cases += [(build_named("complete", n), math.factorial(n)) for n in (1, 5, 9)]
    cases += [(Graph(n), math.factorial(n)) for n in (1, 4, 9)]
    cases += [(PETERSEN, 120)]
    for g, order in cases:
        for h in (g, shuffled_copy(g, rng)):
            gens = iso._automorphism_generators(h)
            assert len(gens) <= max(h.n - 1, 0)
            assert all(_maps_edges_onto_edges(h, p) for p in gens)
            assert _chain_order(h.n, gens) == order, (h.edges, gens)


def test_automorphism_generators_match_brute_force_on_small_classes():
    for n in range(1, 6):
        for g in enumerate_nonisomorphic(n):
            gens = iso._automorphism_generators(g)
            assert all(_maps_edges_onto_edges(g, p) for p in gens)
            brute = sum(
                _maps_edges_onto_edges(g, p) for p in itertools.permutations(range(n))
            )
            assert _chain_order(n, gens) == brute, g.edges


def test_automorphism_search_keeps_what_it_found_when_the_budget_runs_out(monkeypatch):
    petersen = iso._automorphism_generators(PETERSEN)
    for budget in (0, 1, 5, 20):
        monkeypatch.setattr(iso, "AUTOMORPHISM_NODE_BUDGET", budget)
        gens = iso._automorphism_generators(PETERSEN)
        assert gens == petersen[: len(gens)]
        assert all(_maps_edges_onto_edges(PETERSEN, p) for p in gens)
    monkeypatch.setattr(iso, "AUTOMORPHISM_NODE_BUDGET", 0)
    assert iso._automorphism_generators(PETERSEN) == []
