"""Canonical labeling, isomorphism tests, family recognizers, and
small-graph enumeration.

One color refinement splits the vertices into classes.  ``refined_form``
relabels class by class (by old label inside a class): one refinement,
sound (equal forms mean isomorphic graphs) but not complete, which is
enough for the memo keys of the fiber induction in :mod:`fsgraph.theorems`.
``canonical_form`` takes the minimum over every class-respecting
relabeling: exact, but a product of class-size factorials (n! on
vertex-transitive graphs), so it refuses past ``CANONICAL_ORDER_CAP``;
enumeration up to n = 8 and ``is_isomorphic`` use it.
``_automorphism_generators`` reuses the refinement to prune a search for
generators of Aut(g), which the component sweep of :mod:`fsgraph.fscore`
uses to search one component per symmetry orbit.  The family
recognizers test edge counts and degrees first and only then read
connectivity from the graph's kept structure report.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import Graph, _component_masks, _mask_to_vertices, structure_report

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
    for comp in _component_masks(adj, (1 << n) - 1):
        for v in _mask_to_vertices(comp):
            comp_size[v - 1] = comp.bit_count()
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


# -- automorphism generators -----------------------------------------------------

# Most search nodes _automorphism_generators visits for one graph; no graph
# on up to 10 vertices tried needed more than 42.  Past it the generators
# found so far are returned: a subgroup, whose smaller orbits are still sound.
AUTOMORPHISM_NODE_BUDGET = 1_000


def _orbit(gens, v: int) -> set[int]:
    """The orbit of vertex v under the group generated by gens."""
    orbit = {v}
    frontier = [v]
    for u in frontier:
        for gen in gens:
            w = gen[u]
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def _preserves_edges(adj: tuple[int, ...], perm) -> bool:
    """Does the bijection perm map every neighbourhood onto the image's?"""
    for v, nbrs in enumerate(adj):
        image = 0
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            image |= 1 << perm[low.bit_length() - 1]
        if image != adj[perm[v]]:
            return False
    return True


def _automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g), each the tuple of 0-indexed vertex images.

    A stabiliser chain, from vertex n - 1 down to 0: at level k every
    generator found so far fixes 0..k-1, and one automorphism fixing
    0..k-1 is searched for each target in k's refined class not yet in
    k's orbit.  Each new generator merges two orbits of the group found so
    far, so there are at most n - 1, and the product over k of the orbit
    length of k under the generators fixing 0..k-1 is |Aut(g)|.  The group
    is never enumerated.  After AUTOMORPHISM_NODE_BUDGET search nodes the
    generators found so far are returned; nothing raises.
    """
    n = g.n
    adj = g._adj
    colors = _refine_colors(n, adj, _initial_colors(g))
    pair_adj = adj + tuple(m << n for m in adj)
    budget = [AUTOMORPHISM_NODE_BUDGET]
    gens: list[tuple[int, ...]] = []
    for k in range(n - 1, -1, -1):
        orbit = _orbit(gens, k)
        fixed = [(v, v) for v in range(k)]
        for t in range(k + 1, n):
            if colors[t] != colors[k] or t in orbit:
                continue
            found = _extend(adj, pair_adj, colors, fixed + [(k, t)], budget)
            if found is not None:
                gens.append(found)
                orbit = _orbit(gens, k)
            elif budget[0] <= 0:
                return gens
    return gens


def _extend(adj, pair_adj, colors, pairs, budget: list[int]) -> tuple[int, ...] | None:
    """An automorphism mapping each source of `pairs` to its target, or None
    when there is none or budget[0], the nodes left, runs out.

    A node individualizes the pairs in two copies of the graph and refines
    them together (McKay, "Practical graph isomorphism", 1981): such an
    automorphism maps each vertex into its own colour.  The node tries the
    map that pairs each colour's vertices in label order, then branches on
    the least vertex of a colour with more than one.  Only a map that
    passes :func:`_preserves_edges` is returned.
    """
    if budget[0] <= 0:
        return None
    budget[0] -= 1
    n = len(adj)
    initial = [(c, 0) for c in colors] * 2
    for i, (v, w) in enumerate(pairs, start=1):
        initial[v] = (colors[v], i)
        initial[n + w] = (colors[w], i)
    joint = _refine_colors(2 * n, pair_adj, initial)
    cells: dict[int, tuple[list[int], list[int]]] = {}
    for v in range(n):
        cells.setdefault(joint[v], ([], []))[0].append(v)
    for w in range(n):
        cell = cells.get(joint[n + w])
        if cell is None:
            return None
        cell[1].append(w)
    if any(len(sources) != len(targets) for sources, targets in cells.values()):
        return None
    perm = [0] * n
    for sources, targets in cells.values():
        for v, w in zip(sources, targets):
            perm[v] = w
    if _preserves_edges(adj, perm):
        return tuple(perm)
    split = [sources[0] for sources, _ in cells.values() if len(sources) > 1]
    if not split:
        return None
    v = min(split)
    for w in cells[joint[v]][1]:
        found = _extend(adj, pair_adj, colors, pairs + [(v, w)], budget)
        if found is not None or budget[0] <= 0:
            return found
    return None


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
    return structure_report(g).is_connected


def is_cycle_graph(g: Graph) -> bool:
    return (
        g.n >= 3
        and g.edge_count == g.n
        and all(d == 2 for d in g.degrees())
        and structure_report(g).is_connected
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
    if sorted(degs) != [1] + [2] * (n - 2) + [3] or not structure_report(g).is_connected:
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
    if sorted(degs) != [1, 1, 1] + [2] * (n - 4) + [3] or not structure_report(g).is_connected:
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
    if sorted(degs) != [2] * 5 + [3] * 2 or not structure_report(g).is_biconnected:
        return False
    adj = g._adj
    a, b = (v for v in range(7) if degs[v] == 3)
    return not adj[a] >> b & 1 and (adj[a] & adj[b]).bit_count() == 1


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
