import math
import random

from conftest import random_graph, shuffled_copy
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


# -- reference: deletion-contraction that re-splits at every node -----------------


def _reference_tutte(g: Graph, x: int, y: int) -> int:
    """Deletion-contraction that splits its multigraph into components at
    every recursion node, with a union-find and a depth-first bridge test;
    kept as an independent check on the split-once recursion."""
    memo: dict = {}

    def pieces(n, edges):
        parent = list(range(n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        groups: dict = {}
        for a, b in edges:
            groups.setdefault(find(a), []).append((a, b))
        out = []
        for root in sorted(groups):
            verts = sorted({v for e in groups[root] for v in e})
            relabel = {v: i for i, v in enumerate(verts)}
            piece = (tuple(sorted((relabel[a], relabel[b]))) for a, b in groups[root])
            out.append((len(verts), tuple(sorted(piece))))
        return out

    def is_bridge(edges, e):
        if edges.count(e) > 1:
            return False
        remaining = list(edges)
        remaining.remove(e)
        adj: dict = {}
        for u, v in remaining:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        stack, seen = [e[0]], {e[0]}
        while stack:
            u = stack.pop()
            if u == e[1]:
                return False
            for w in adj.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return True

    def contract(edges, e):
        a, b = e
        out = [tuple(sorted((a if u == b else u, a if v == b else v))) for u, v in edges]
        verts = sorted({v for edge in out for v in edge} | {a})
        relabel = {v: i for i, v in enumerate(verts)}
        return tuple(sorted((relabel[u], relabel[v]) for u, v in out))

    def rec(n, edges):
        if not edges:
            return 1
        split = pieces(n, edges)
        if len(split) > 1:
            return math.prod(rec(*piece) for piece in split)
        n, edges = split[0]
        loops = sum(1 for a, b in edges if a == b)
        if loops:
            return 0 if y == 0 else y**loops * rec(n, tuple(e for e in edges if e[0] != e[1]))
        if (n, edges) not in memo:
            e, rest = edges[0], edges[1:]
            if is_bridge(edges, e):
                value = x * rec(n - 1, contract(rest, e))
            else:
                value = rec(n, rest) + rec(n - 1, contract(rest, e))
            memo[n, edges] = value
        return memo[n, edges]

    return rec(g.n, tuple(g._edges))


REFERENCE_POINTS = ((2, 0), (1, 0), (0, 0), (1, 1), (2, 2), (3, 1), (1, 3), (0, 3))


def test_matches_the_per_node_split_reference_on_small_classes():
    for n in range(1, 7):
        for g in enumerate_nonisomorphic(n):
            for x, y in REFERENCE_POINTS:
                assert tutte_eval(g, x, y) == _reference_tutte(g, x, y), (g.edges, x, y)


def test_matches_the_reference_on_graphs_with_several_components():
    rng = random.Random(31)
    for _ in range(40):
        target = rng.randint(6, 10)
        g = Graph(1)
        while g.n < target:
            size = rng.randint(1, min(4, target - g.n))
            piece = random_graph(rng, size, rng.choice([0.4, 0.7, 1.0])) if size > 1 else Graph(1)
            g = disjoint_union(g, piece)
        g = shuffled_copy(g, rng)
        assert 0 in g.degrees()
        for x, y in ((2, 0), (1, 0), (2, 2), (0, 3)):
            assert tutte_eval(g, x, y) == _reference_tutte(g, x, y), (g.edges, x, y)
