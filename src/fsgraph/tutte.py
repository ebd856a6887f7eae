"""Exact Tutte polynomial evaluation by deletion and contraction.

The public entry point takes a simple graph, but contraction creates
parallel edges and loops, so the recursion runs on an internal multigraph
(a sorted tuple of endpoint pairs, loops as (v, v)).  Results are exact
Python integers; the evaluations used elsewhere in the package are
T(2, 0), which counts acyclic orientations, and T(1, 0), which counts
flip-equivalence classes of acyclic orientations.

T is multiplicative over components, so ``tutte_eval`` splits the graph
once and relabels each piece 0..n-1 with sorted edges.  From there the
recursion stays connected: it deletes an edge only when the edge is not
a bridge, and contraction never disconnects.  Both keep the labels
compact and the edges sorted, so the memo key ``(n, edges)`` names one
connected multigraph, and equal keys are identical multigraphs.  No
isomorphism search is done: a canonical relabeling costs up to n! per
node on symmetric graphs, and even color refinement alone, without the
minimum, cost more than the extra hits it bought on the path and cycle
count workloads.
"""

from __future__ import annotations

from .graphs import Graph, _component_masks

MultiEdges = tuple[tuple[int, int], ...]


def tutte_eval(g: Graph, x: int, y: int) -> int:
    """T_G(x, y) for integer x, y; the product over components when G is
    disconnected."""
    memo: dict = {}
    result = 1
    for mask in _component_masks(g._adj, (1 << g.n) - 1):
        # A vertex's new label is the number of component vertices below it.
        edges = tuple(
            ((mask & (1 << a) - 1).bit_count(), (mask & (1 << b) - 1).bit_count())
            for a, b in g._edges
            if mask >> a & 1
        )
        result *= _tutte(mask.bit_count(), edges, x, y, memo)
        if result == 0:
            break
    return result


def _tutte(n: int, edges: MultiEdges, x: int, y: int, memo: dict) -> int:
    """T(x, y) of the connected multigraph on 0..n-1 with these edges."""
    loops = sum(1 for a, b in edges if a == b)
    if loops:
        if y == 0:
            return 0
        rest = tuple(e for e in edges if e[0] != e[1])
        return y**loops * _tutte(n, rest, x, y, memo)
    if not edges:
        return 1

    key = (n, edges)
    if key in memo:
        return memo[key]

    e = edges[0]
    rest = edges[1:]
    if _is_bridge(n, rest):
        value = x * _tutte(n - 1, _contract(rest, e), x, y, memo)
    else:
        value = _tutte(n, rest, x, y, memo) + _tutte(n - 1, _contract(rest, e), x, y, memo)
    memo[key] = value
    return value


def _is_bridge(n: int, rest: MultiEdges) -> bool:
    """Whether the removed edge was a bridge of the connected multigraph:
    the other edges leave it disconnected."""
    adj = [0] * n
    for a, b in rest:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return len(_component_masks(adj, (1 << n) - 1)) > 1


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
