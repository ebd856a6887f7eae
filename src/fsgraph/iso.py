"""Canonical labeling, isomorphism tests, family recognizers, and
small-graph enumeration.

One color refinement splits the vertices into classes.  ``refined_form``
relabels class by class (by old label inside a class): one refinement,
sound (equal forms mean isomorphic graphs) but not complete, which is
enough for the hereditary memo keys in :mod:`fsgraph.theorems`.
``canonical_form`` takes the minimum over every class-respecting
relabeling: exact, but a product of class-size factorials (n! on
vertex-transitive graphs), so it refuses past ``CANONICAL_ORDER_CAP``;
enumeration up to n = 8 and ``is_isomorphic`` use it.  The family
recognizers read structure directly in O(n + m).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import Graph, _component_masks

CanonicalForm = tuple[int, tuple[tuple[int, int], ...]]

# Most class-respecting relabelings canonical_form will try: 8! keeps every
# graph on up to 8 vertices, the edgeless and complete graphs included.
CANONICAL_ORDER_CAP = math.factorial(8)


def _refine_colors(n: int, adj: tuple[int, ...], initial: list) -> list[int]:
    """Iterated neighborhood refinement; returns stable integer colors."""
    palette = {c: i for i, c in enumerate(sorted(set(initial)))}
    colors = [palette[c] for c in initial]
    while True:
        signatures = []
        for v in range(n):
            nbr = adj[v]
            sig = []
            while nbr:
                bit = nbr & -nbr
                nbr &= nbr - 1
                sig.append(colors[bit.bit_length() - 1])
            signatures.append((colors[v], tuple(sorted(sig))))
        palette = {s: i for i, s in enumerate(sorted(set(signatures)))}
        new_colors = [palette[s] for s in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def _initial_colors(g: Graph) -> list:
    """A cheap isomorphism-invariant seed: degree, triangle count through
    the vertex, and the size of the vertex's connected component."""
    n = g.n
    adj = g._adj
    comp_size = [0] * n
    seen = 0
    for v in range(n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = comp
        while frontier:
            w = frontier & -frontier
            frontier &= frontier - 1
            new = adj[w.bit_length() - 1] & ~comp
            comp |= new
            frontier |= new
        size = comp.bit_count()
        m = comp
        while m:
            bit = m & -m
            m &= m - 1
            comp_size[bit.bit_length() - 1] = size
        seen |= comp
    tri = [0] * n
    for a, b in g._edges:
        common = adj[a] & adj[b]
        tri[a] += common.bit_count()
        tri[b] += common.bit_count()
    return [(adj[v].bit_count(), tri[v], comp_size[v]) for v in range(n)]


def _refined_classes(g: Graph) -> list[list[int]]:
    """The vertices grouped by refined color: classes in color order, each
    class in increasing label order."""
    colors = _refine_colors(g.n, g._adj, _initial_colors(g))
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    return [by_color[c] for c in sorted(by_color)]


def _relabeled(g: Graph, order) -> CanonicalForm:
    """g with vertex order[i] renamed i + 1, as (n, sorted edge tuple)."""
    position = [0] * g.n
    for new, old in enumerate(order, start=1):
        position[old] = new
    edges = ((position[a], position[b]) for a, b in g._edges)
    return (g.n, tuple(sorted((a, b) if a < b else (b, a) for a, b in edges)))


def refined_form(g: Graph) -> CanonicalForm:
    """g relabeled class by class in refined-color order."""
    return _relabeled(g, [v for cls in _refined_classes(g) for v in cls])


def canonical_form(g: Graph) -> CanonicalForm:
    """A labeling-independent fingerprint: (n, canonical edge tuple)."""
    classes = _refined_classes(g)
    orders = math.prod(math.factorial(len(cls)) for cls in classes)
    if orders > CANONICAL_ORDER_CAP:
        raise ResourceLimitError(f"canonical form needs {orders} > {CANONICAL_ORDER_CAP} relabelings")
    return min(
        _relabeled(g, [v for part in parts for v in part])
        for parts in itertools.product(*(itertools.permutations(cls) for cls in classes))
    )


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g) == canonical_form(h)


# -- family recognizers -------------------------------------------------------


def is_path_graph(g: Graph) -> bool:
    if g.n == 1:
        return g.edge_count == 0
    if g.edge_count != g.n - 1:
        return False
    degs = sorted(g.degrees())
    if degs[:2] != [1, 1] or any(d != 2 for d in degs[2:]):
        return False
    return len(_cheap_components(g)) == 1


def is_cycle_graph(g: Graph) -> bool:
    return (
        g.n >= 3
        and g.edge_count == g.n
        and all(d == 2 for d in g.degrees())
        and len(_cheap_components(g)) == 1
    )


def is_star_graph(g: Graph) -> bool:
    """A star with at least 3 vertices (smaller stars are paths)."""
    return g.n >= 3 and g.edge_count == g.n - 1 and max(g.degrees()) == g.n - 1


def is_lollipop_graph(g: Graph) -> bool:
    """Isomorphic to a triangle with a tail of n-3 >= 1?  Connected with n
    edges and degrees 1, 3, 2, ..., 2 is a cycle with a tail at the
    degree-3 hub; a triangle at the hub fixes the cycle length."""
    n = g.n
    if n < 4 or g.edge_count != n:
        return False
    degs = g.degrees()
    if sorted(degs) != [1] + [2] * (n - 2) + [3] or len(_cheap_components(g)) != 1:
        return False
    nbrs = g._adj[degs.index(3)]
    return any(g._adj[v] & nbrs for v in range(n) if nbrs >> v & 1)


def is_dynkin_graph(g: Graph) -> bool:
    """Isomorphic to D_n (D_3 is the path)?  A tree with degrees 1, 1, 1,
    3, 2, ..., 2 is a spider with three legs at the degree-3 hub; two
    leaves at the hub make the legs (1, 1, n-3)."""
    n = g.n
    if n == 3:
        return is_path_graph(g)
    if n < 4 or g.edge_count != n - 1:
        return False
    degs = g.degrees()
    if sorted(degs) != [1, 1, 1] + [2] * (n - 4) + [3] or len(_cheap_components(g)) != 1:
        return False
    nbrs = g._adj[degs.index(3)]
    return sum(1 for v in range(n) if nbrs >> v & 1 and degs[v] == 1) >= 2


def is_theta0_graph(g: Graph) -> bool:
    """Isomorphic to theta0?  A biconnected graph with degrees 2, 2, 2, 2,
    2, 3, 3 is a theta graph: three internally disjoint paths joining the
    two degree-3 hubs, with five interior vertices among them.  Hubs that
    are not adjacent and share exactly one neighbour make the interiors
    (1, 2, 2)."""
    if g.n != 7 or g.edge_count != 8:
        return False
    degs = g.degrees()
    if sorted(degs) != [2] * 5 + [3] * 2:
        return False
    # Biconnected: no vertex deletion disconnects what is left, which with
    # minimum degree 2 also rules out a disconnected g.
    adj = g._adj
    if any(len(_component_masks(adj, 0b1111111 & ~(1 << v))) != 1 for v in range(7)):
        return False
    a, b = (v for v in range(7) if degs[v] == 3)
    return not adj[a] >> b & 1 and (adj[a] & adj[b]).bit_count() == 1


def _cheap_components(g: Graph) -> list[int]:
    return _component_masks(g._adj, (1 << g.n) - 1)


# -- exhaustive enumeration up to isomorphism ---------------------------------

# Known counts of simple graphs up to isomorphism, used as a self-check.
NONISOMORPHIC_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


@lru_cache(maxsize=None)
def enumerate_nonisomorphic(n: int) -> tuple[Graph, ...]:
    """All graphs on n vertices up to isomorphism, canonically labeled.

    Built by augmenting each (n-1)-vertex representative with one new
    vertex attached to every possible neighborhood, then deduplicating by
    canonical form.  Deterministic order: by edge count, then edge tuple.
    Refuses up front past n = 8, where the edgeless graph's canonical
    form alone would exceed the relabeling cap.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be positive, got {n}")
    if math.factorial(n) > CANONICAL_ORDER_CAP:
        raise ResourceLimitError(f"enumeration up to isomorphism is capped at n <= 8, got {n}")
    if n == 1:
        return (Graph(1),)
    seen: dict[CanonicalForm, Graph] = {}
    for parent in enumerate_nonisomorphic(n - 1):
        base_edges = list(parent.edges)
        for neighborhood in range(1 << (n - 1)):
            edges = base_edges + [
                (v + 1, n) for v in range(n - 1) if neighborhood >> v & 1
            ]
            form = canonical_form(Graph(n, edges))
            if form not in seen:
                seen[form] = Graph(form[0], form[1])
    result = tuple(sorted(seen.values(), key=lambda g: (g.edge_count, g.edges)))
    expected = NONISOMORPHIC_COUNTS.get(n)
    if expected is not None and len(result) != expected:
        raise AssertionError(
            f"graph enumeration produced {len(result)} classes on {n} vertices, expected {expected}"
        )
    return result
