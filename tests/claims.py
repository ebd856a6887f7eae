"""Checkers of the paper's claims, written on the library's public API and
shared by the unit tests and the acceptance battery."""

from __future__ import annotations

import itertools
import math

from fsgraph import FSInstance, Graph, induced_subgraph, linear_extensions, phi, structure_report
from fsgraph.fscore import component_count
from fsgraph.theorems import _components_without, _count_margin_matrices, _separating_path


def class_extensions(cls) -> frozenset:
    """The linear extensions of a class of orientations (a disjoint union)."""
    return frozenset().union(*map(linear_extensions, cls))


def toggle(o, sigma, i: int):
    """Swap positions i and i + 1 of the linear extension sigma of o when
    their entries are incomparable in o's reachability order."""
    if o.reachability()[sigma.word[i - 1] - 1] >> (sigma.word[i] - 1) & 1:
        return sigma
    return sigma.apply_transposition(i, i + 1)


def checked_phi(partition, class_id: int) -> int:
    """phi of a double-flip class, after checking that flipping any source
    of any member lands in the same class."""
    target = phi(partition, class_id)
    for member in partition.classes[class_id]:
        for s in member.sources():
            assert partition.class_index(member.flip(s)) == target, (class_id, str(member), s)
    return target


def margin_count(x: Graph, y: Graph, x0: int, y0: int) -> int:
    """Margin matrices of the cut vertices x0 of X and y0 of Y: row sums
    the component sizes of X - x0, column sums those of Y - y0."""
    rows = tuple(m.bit_count() for m in _components_without(x, x0))
    cols = tuple(m.bit_count() for m in _components_without(y, y0))
    return _count_margin_matrices(rows, cols, {})


def reference_cut_path(x: Graph) -> tuple[int, tuple[int, ...] | None]:
    """(d, path) of the longest usable cut path, by the walk the certificate
    is defined by, on neighbors() and degree(): from every cut vertex in
    ascending order through every neighbour in ascending order, continuing
    while the current vertex has degree 2, the first strictly longer
    separating path winning."""
    cuts = sorted(structure_report(x).cut_vertices)
    if not cuts:
        return 0, None
    best = (1, (cuts[0],))
    for s in cuts:
        for u in x.neighbors(s):
            path = [s, u]
            prev, cur = s, u
            while True:
                if cur in cuts and len(path) > best[0] and _separating_path(x, tuple(path)):
                    best = (len(path), tuple(path))
                if x.degree(cur) != 2:
                    break
                a, b = x.neighbors(cur)
                nxt = b if a == prev else a
                if nxt in path:
                    break
                path.append(nxt)
                prev, cur = cur, nxt
    return best


def _ordered_set_partitions(universe: tuple[int, ...], sizes: tuple[int, ...]):
    if not sizes:
        yield ()
        return
    for chosen in itertools.combinations(universe, sizes[0]):
        rest = tuple(v for v in universe if v not in chosen)
        for tail in _ordered_set_partitions(rest, sizes[1:]):
            yield (chosen,) + tail


def decomposition_check(x: Graph, y: Graph) -> bool:
    """The component-count identity along the components X_1, ..., X_k of
    a disconnected X: FS(X, Y) has as many components as the sum, over
    ordered set partitions (P_1, ..., P_k) of V(Y) with |P_i| = |X_i|, of
    the product of the component counts of FS(X_i, Y[P_i])."""
    factors = [induced_subgraph(x, comp)[0] for comp in structure_report(x).components]
    total = sum(
        math.prod(
            component_count(FSInstance(xi, induced_subgraph(y, part)[0]))
            for xi, part in zip(factors, parts)
        )
        for parts in _ordered_set_partitions(tuple(range(1, y.n + 1)), tuple(g.n for g in factors))
    )
    return total == component_count(FSInstance(x, y))
