"""Independent reference answers, written without importing fsgraph.

Every check in the benchmark compares the package's answer with a value
computed here, so a reference never shares code with the route being
timed.  Graphs are plain ``(n, edges)`` pairs with 1-indexed edges.

* ``acyclic_orientation_count`` is T(2, 0): an inclusion-exclusion over
  independent sets, O(3^n).
* ``flip_class_count`` is T(1, 0): per connected component, the number
  of acyclic orientations whose only source is the component's least
  vertex, again by inclusion-exclusion over independent sets.
* ``fs_components`` is a plain breadth-first search over all n! label
  words, returning the sorted component sizes of FS(X, Y).
"""

from __future__ import annotations

import itertools
import math
from collections import deque


def adjacency_masks(n: int, edges) -> list[int]:
    adj = [0] * n
    for a, b in edges:
        adj[a - 1] |= 1 << (b - 1)
        adj[b - 1] |= 1 << (a - 1)
    return adj


def complement_edges(n: int, edges) -> list[tuple[int, int]]:
    present = {(min(a, b), max(a, b)) for a, b in edges}
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in present]


def component_masks(n: int, adj: list[int], vertex_mask: int | None = None) -> list[int]:
    """Connected components, as bitmasks, of the subgraph induced on
    vertex_mask (default: every vertex)."""
    if vertex_mask is None:
        vertex_mask = (1 << n) - 1
    comps = []
    remaining = vertex_mask
    while remaining:
        comp = frontier = remaining & -remaining
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = adj[v] & vertex_mask & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        remaining &= ~comp
    return comps


def _independent_table(n: int, adj: list[int]) -> bytearray:
    indep = bytearray(1 << n)
    indep[0] = 1
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        indep[mask] = indep[rest] and not (adj[low] & rest)
    return indep


def _acyclic_table(n: int, adj: list[int]) -> tuple[list[int], bytearray]:
    """a[S] = number of acyclic orientations of the subgraph induced on S:
    a(S) = sum over nonempty independent I in S of (-1)^(|I|+1) a(S - I),
    where I is the set of vertices forced to be sources."""
    indep = _independent_table(n, adj)
    a = [0] * (1 << n)
    a[0] = 1
    for s in range(1, 1 << n):
        total = 0
        sub = s
        while sub:
            if indep[sub]:
                if sub.bit_count() & 1:
                    total += a[s ^ sub]
                else:
                    total -= a[s ^ sub]
            sub = (sub - 1) & s
        a[s] = total
    return a, indep


def acyclic_orientation_count(n: int, edges) -> int:
    """T_G(2, 0)."""
    a, _ = _acyclic_table(n, adjacency_masks(n, edges))
    return a[(1 << n) - 1]


def flip_class_count(n: int, edges) -> int:
    """T_G(1, 0): the product over components C of the number of acyclic
    orientations of C whose unique source is min(C)."""
    adj = adjacency_masks(n, edges)
    a, indep = _acyclic_table(n, adj)
    result = 1
    for comp in component_masks(n, adj):
        q = comp & -comp
        rest = comp ^ q
        count = 0
        sub = rest
        while True:
            chosen = sub | q
            if indep[chosen]:
                sign = 1 if chosen.bit_count() & 1 else -1
                count += sign * a[comp ^ chosen]
            if sub == 0:
                break
            sub = (sub - 1) & rest
        result *= count
    return result


def component_size_gcd(n: int, edges) -> int:
    return math.gcd(*(m.bit_count() for m in component_masks(n, adjacency_masks(n, edges))))


def is_bipartite(n: int, edges) -> bool:
    adj = adjacency_masks(n, edges)
    color = [-1] * n
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in range(n):
                if adj[v] >> u & 1:
                    if color[u] < 0:
                        color[u] = 1 - color[v]
                        stack.append(u)
                    elif color[u] == color[v]:
                        return False
    return True


def is_biconnected(n: int, edges) -> bool:
    adj = adjacency_masks(n, edges)
    if n < 3 or len(component_masks(n, adj)) != 1:
        return False
    full = (1 << n) - 1
    return all(len(component_masks(n, adj, full & ~(1 << v))) == 1 for v in range(n))


def is_cycle(n: int, edges) -> bool:
    adj = adjacency_masks(n, edges)
    return (
        n >= 3
        and len(edges) == n
        and all(m.bit_count() == 2 for m in adj)
        and len(component_masks(n, adj)) == 1
    )


def _friendly_moves(n: int, xedges, yedges):
    positions = [(a - 1, b - 1) for a, b in xedges]
    return positions, adjacency_masks(n, yedges)


def _search(start: bytes, positions, friends, seen: set) -> int:
    """Add the component of the label word ``start`` to ``seen``; return
    its size."""
    seen.add(start)
    queue = deque([start])
    size = 0
    while queue:
        cur = queue.popleft()
        size += 1
        for i, j in positions:
            if friends[cur[i]] >> cur[j] & 1:
                nxt = bytearray(cur)
                nxt[i], nxt[j] = cur[j], cur[i]
                nxt = bytes(nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return size


def fs_components(n: int, xedges, yedges) -> list[int]:
    """Sorted component sizes of FS(X, Y) by exhaustive search."""
    positions, friends = _friendly_moves(n, xedges, yedges)
    seen: set[bytes] = set()
    sizes = []
    for word in itertools.permutations(range(n)):
        word = bytes(word)
        if word not in seen:
            sizes.append(_search(word, positions, friends, seen))
    return sorted(sizes)


def fs_is_connected(n: int, xedges, yedges) -> bool:
    """Whether one search from the identity reaches all n! words."""
    positions, friends = _friendly_moves(n, xedges, yedges)
    return _search(bytes(range(n)), positions, friends, set()) == math.factorial(n)
