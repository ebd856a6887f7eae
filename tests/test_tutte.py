import math
import random

from fsgraph import Graph, build_named, disjoint_union, enumerate_acyclic, partition_by_moves, tutte_eval
from fsgraph.iso import enumerate_nonisomorphic


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    return Graph(n, edges)


def cycle_polynomial(m: int, x: int, y: int) -> int:
    return sum(x**k for k in range(1, m)) + y


def test_cycle_values():
    for m in range(3, 21):
        g = build_named("cycle", m)
        assert tutte_eval(g, 1, 0) == m - 1
        assert tutte_eval(g, 2, 0) == 2**m - 2
        for x, y in ((0, 0), (1, 1), (2, 2), (3, 1), (1, 3)):
            assert tutte_eval(g, x, y) == cycle_polynomial(m, x, y)


def test_tree_values():
    rng = random.Random(6)
    for _ in range(15):
        n = rng.randint(1, 9)
        t = random_tree(rng, n) if n > 1 else Graph(1)
        e = t.edge_count
        assert tutte_eval(t, 2, 0) == 2**e
        for x in (0, 1, 3, 5):
            assert tutte_eval(t, x, 7) == x**e


def test_triangle_values():
    k3 = build_named("complete", 3)
    assert tutte_eval(k3, 2, 0) == 6
    assert tutte_eval(k3, 1, 0) == 2


def test_complete_graph_acyclic_counts():
    for n in range(1, 8):
        assert tutte_eval(build_named("complete", n), 2, 0) == math.factorial(n)


def test_disconnected_graphs_multiply():
    a = build_named("complete", 3)
    b = build_named("cycle", 4)
    both = disjoint_union(a, b)
    for x, y in ((2, 0), (1, 0), (2, 2), (0, 3)):
        assert tutte_eval(both, x, y) == tutte_eval(a, x, y) * tutte_eval(b, x, y)


def test_matches_orientation_count_exhaustively():
    for n in range(1, 6):
        for g in enumerate_nonisomorphic(n):
            assert tutte_eval(g, 2, 0) == len(enumerate_acyclic(g))


def test_matches_toric_class_count_exhaustively():
    for n in range(1, 6):
        for g in enumerate_nonisomorphic(n):
            assert tutte_eval(g, 1, 0) == partition_by_moves(g, "toric").class_count


def test_loopy_contractions_handled():
    # Contracting one edge of a doubled path creates a loop internally; the
    # diamond graph forces that path through the recursion.
    diamond = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)])
    assert tutte_eval(diamond, 2, 0) == len(enumerate_acyclic(diamond))
    assert tutte_eval(diamond, 1, 0) == partition_by_moves(diamond, "toric").class_count
