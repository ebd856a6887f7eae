"""Exact Tutte polynomial evaluation by deletion and contraction.

The public entry point takes a simple graph, but contraction creates
parallel edges and loops, so the recursion runs on an internal multigraph
(a sorted tuple of endpoint pairs, loops as (v, v)).  Results are exact
Python integers; the evaluations used elsewhere in the package are
T(2, 0), which counts acyclic orientations, and T(1, 0), which counts
flip-equivalence classes of acyclic orientations.

Memoization is keyed on the connected multigraph as the recursion holds
it, ``(n, edges)``: contraction and the split into components already
relabel every piece to 0..n-1 with sorted edges, so equal keys are
identical multigraphs.  No isomorphism search is done: a canonical
relabeling costs up to n! per node on symmetric graphs, and even color
refinement alone, without the minimum, cost more than the extra hits it
bought on the path and cycle count workloads.
"""

from __future__ import annotations

from .graphs import Graph

MultiEdges = tuple[tuple[int, int], ...]


def tutte_eval(g: Graph, x: int, y: int) -> int:
    """T_G(x, y) for integer x, y; the product over components when G is
    disconnected."""
    edges = tuple((a, b) for a, b in g._edges)
    memo: dict = {}
    return _tutte(g.n, edges, x, y, memo)


def _tutte(n: int, edges: MultiEdges, x: int, y: int, memo: dict) -> int:
    if not edges:
        return 1

    # Split into connected pieces (isolated vertices contribute factor 1).
    pieces = _edge_components(n, edges)
    if len(pieces) > 1:
        result = 1
        for piece_edges, piece_n in pieces:
            result *= _tutte(piece_n, piece_edges, x, y, memo)
            if result == 0:
                return 0
        return result
    edges, n = pieces[0]

    loops = sum(1 for a, b in edges if a == b)
    if loops:
        if y == 0:
            return 0
        rest = tuple(e for e in edges if e[0] != e[1])
        return y**loops * _tutte(n, rest, x, y, memo)

    key = (n, edges)
    if key in memo:
        return memo[key]

    e = edges[0]
    rest = edges[1:]
    if _is_bridge(n, edges, e):
        value = x * _tutte(n - 1, _contract(rest, e), x, y, memo)
    else:
        value = _tutte(n, rest, x, y, memo) + _tutte(n - 1, _contract(rest, e), x, y, memo)
    memo[key] = value
    return value


def _edge_components(n: int, edges: MultiEdges) -> list[tuple[MultiEdges, int]]:
    """Partition the edges by connected component, each relabeled compactly."""
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[tuple[int, int]]] = {}
    for a, b in edges:
        groups.setdefault(find(a), []).append((a, b))
    pieces = []
    for root in sorted(groups):
        piece = groups[root]
        verts = sorted({v for e in piece for v in e})
        relabel = {v: i for i, v in enumerate(verts)}
        relabeled = tuple(
            sorted(
                (relabel[a], relabel[b]) if relabel[a] <= relabel[b] else (relabel[b], relabel[a])
                for a, b in piece
            )
        )
        pieces.append((relabeled, len(verts)))
    return pieces


def _is_bridge(n: int, edges: MultiEdges, e: tuple[int, int]) -> bool:
    """A non-loop edge is a bridge iff it has no parallel copy and removing
    it disconnects its endpoints."""
    if edges.count(e) > 1:
        return False
    a, b = e
    remaining = list(edges)
    remaining.remove(e)
    adj: dict[int, set[int]] = {}
    for u, v in remaining:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    stack = [a]
    seen = {a}
    while stack:
        u = stack.pop()
        if u == b:
            return False
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def _contract(edges: MultiEdges, e: tuple[int, int]) -> MultiEdges:
    """Identify the endpoints of e (already removed from edges); parallel
    edges between the merged ends become loops."""
    a, b = e
    out = []
    for u, v in edges:
        if u == b:
            u = a
        if v == b:
            v = a
        if u > v:
            u, v = v, u
        out.append((u, v))
    # Compact the labels so memo keys stay small.
    verts = sorted({v for edge in out for v in edge} | {a})
    relabel = {v: i for i, v in enumerate(verts)}
    return tuple(sorted((relabel[u], relabel[v]) for u, v in out))

