"""Shared fixtures and frozen reference data for the test suite."""

from __future__ import annotations

import itertools
import random

from fsgraph import Graph, Permutation

# The 5-vertex worked example used throughout: a spider tree whose
# complement is the partner graph of the cycle-position instance.  The
# 24-permutation component below was frozen after cross-checking it both
# against brute-force search and against the orientation-class structure;
# it is the component of 12345 in FS(Cycle_5, SPIDER_COMPLEMENT_5).
SPIDER_TREE_5 = Graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
SPIDER_COMPLEMENT_5 = SPIDER_TREE_5.complement()

FROZEN_CYCLE5_COMPONENT = frozenset(
    Permutation.parse(w)
    for w in (
        "12354 12345 52341 25341 52314 25314 52134 25134 21534 54312 45312 41532 "
        "54132 14532 45132 51432 15432 24351 42315 24315 42135 24135 21435 42351"
    ).split()
)

PETERSEN = Graph(
    10,
    [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
     (6, 8), (8, 10), (7, 10), (7, 9), (6, 9)],
)
PAW = Graph(4, [(1, 2), (1, 3), (2, 3), (3, 4)])   # a triangle with one pendant edge


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return Graph(n, edges)


def shuffled_copy(g: Graph, rng: random.Random) -> Graph:
    """g with its vertex labels permuted at random."""
    labels = list(range(1, g.n + 1))
    rng.shuffle(labels)
    return g.relabel(dict(zip(range(1, g.n + 1), labels)))


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Random graph conditioned on connectivity (resamples until connected)."""
    from fsgraph import structure_report

    while True:
        g = random_graph(rng, n, p)
        if structure_report(g).is_connected:
            return g


def dense_partner_pair(n: int, seed: int) -> tuple[Graph, Graph]:
    """X: a Hamiltonian cycle plus G(n, 0.2) chords.  Y: the complement of
    the 3-regular circulant joining i to i +- 1 and i + n/2 (n even), so
    min degree n - 4 lets the fiber induction of decide run."""
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


def has_hamiltonian_path(g: Graph) -> bool:
    """Whether some vertex order walks along edges of g; a brute-force
    filter that keeps the seeded pair streams of the connectivity tests."""
    return any(
        all(map(g.has_edge, order, order[1:]))
        for order in itertools.permutations(range(1, g.n + 1))
    )
