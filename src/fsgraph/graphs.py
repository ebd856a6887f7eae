"""Simple undirected graphs on the vertex set {1, ..., n}.

Adjacency is stored as one bitmask per vertex (0-indexed internally,
1-indexed at the API), because constant-time neighborhood tests dominate
every enumeration loop in this package.  Graphs are immutable and
hashable, so they can be shared freely and used as cache keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable

from .errors import InvalidArgumentError

NAMED_FAMILIES = (
    "complete",
    "path",
    "cycle",
    "star",
    "complete_bipartite",
    "lollipop",
    "dynkin_d",
    "theta0",
    "edgeless",
)


class Graph:
    """An immutable simple graph on vertices 1..n (no loops, no multi-edges)."""

    __slots__ = ("n", "_adj", "_edges")

    n: int
    _adj: tuple[int, ...]          # _adj[v] has bit u set iff {v+1, u+1} is an edge
    _edges: tuple[tuple[int, int], ...]   # 0-indexed (a, b) with a < b, sorted

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if type(n) is not int:
            raise InvalidArgumentError(f"vertex count must be an integer, got {n!r}")
        if n < 1:
            raise InvalidArgumentError(f"vertex count must be positive, got {n}")
        adj = [0] * n
        edge_set: set[tuple[int, int]] = set()
        for e in edges:
            try:
                i, j = e
            except (TypeError, ValueError) as exc:
                raise InvalidArgumentError(f"bad edge {e!r}") from exc
            if type(i) is not int or type(j) is not int:
                raise InvalidArgumentError(f"edge {e!r} has a non-integer endpoint")
            if not (1 <= i <= n and 1 <= j <= n):
                raise InvalidArgumentError(f"edge {e!r} has an endpoint outside 1..{n}")
            if i == j:
                raise InvalidArgumentError(f"loop at vertex {i} is not allowed")
            a, b = (i - 1, j - 1) if i < j else (j - 1, i - 1)
            edge_set.add((a, b))
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        self.n = n
        self._adj = tuple(adj)
        self._edges = tuple(sorted(edge_set))

    @classmethod
    def _from_masks(cls, adj: tuple[int, ...]) -> "Graph":
        """Unchecked constructor from 0-indexed adjacency masks; the caller
        guarantees them symmetric, loop-free and inside range(len(adj))."""
        g = object.__new__(cls)
        g.n = len(adj)
        g._adj = tuple(adj)
        edges = []
        for a, mask in enumerate(g._adj):
            mask >>= a + 1
            while mask:
                low = mask & -mask
                mask ^= low
                edges.append((a, a + low.bit_length()))
        g._edges = tuple(edges)
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as sorted 1-indexed pairs (a, b) with a < b."""
        return tuple((a + 1, b + 1) for a, b in self._edges)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Internal 0-indexed bitmask adjacency; bit u of entry v means v~u."""
        return self._adj

    def has_edge(self, i: int, j: int) -> bool:
        self._check_vertex(i)
        self._check_vertex(j)
        return i != j and bool(self._adj[i - 1] >> (j - 1) & 1)

    def neighbors(self, i: int) -> tuple[int, ...]:
        self._check_vertex(i)
        mask = self._adj[i - 1]
        return tuple(v + 1 for v in range(self.n) if mask >> v & 1)

    def degree(self, i: int) -> int:
        self._check_vertex(i)
        return self._adj[i - 1].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self._adj)

    def _check_vertex(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise InvalidArgumentError(f"vertex {i} out of range 1..{self.n}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"

    # -- derived graphs ---------------------------------------------------

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph._from_masks(tuple(full & ~(m | 1 << a) for a, m in enumerate(self._adj)))

    def relabel(self, mapping: dict[int, int]) -> "Graph":
        """Apply a bijection old -> new on 1..n to all edges."""
        if sorted(mapping) != list(range(1, self.n + 1)) or sorted(mapping.values()) != list(
            range(1, self.n + 1)
        ):
            raise InvalidArgumentError("relabeling must be a bijection of 1..n")
        adj = [0] * self.n
        for a, b in self._edges:
            na, nb = mapping[a + 1] - 1, mapping[b + 1] - 1
            adj[na] |= 1 << nb
            adj[nb] |= 1 << na
        return Graph._from_masks(tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """The graph g + h with h's vertices shifted up by g.n."""
    return Graph._from_masks(g._adj + tuple(m << g.n for m in h._adj))


# -- named families --------------------------------------------------------


def build_named(
    family: str,
    n: int | None = None,
    *,
    k: int | None = None,
    m: int | None = None,
) -> Graph:
    """Construct one of the named graph families.

    Parameter conventions: ``path``/``cycle``/``star``/``complete``/
    ``edgeless``/``dynkin_d`` take ``n``; ``complete_bipartite`` takes the
    part size ``k`` together with ``n``; ``lollipop`` takes the tail length
    ``k`` and clique size ``m`` (so n = k + m); ``theta0`` is the fixed
    7-vertex graph made of two hubs joined by three internally disjoint
    paths with 1, 2 and 2 interior vertices.
    """
    if family not in NAMED_FAMILIES:
        raise InvalidArgumentError(f"unknown family {family!r}, expected one of {NAMED_FAMILIES}")

    if family == "lollipop":
        if k is None or m is None:
            raise InvalidArgumentError("lollipop needs tail length k and clique size m")
        if k < 0 or m < 1:
            raise InvalidArgumentError(f"lollipop needs k >= 0 and m >= 1, got k={k}, m={m}")
        if n is not None and n != k + m:
            raise InvalidArgumentError(f"lollipop has k+m={k + m} vertices, but n={n} given")
        n = k + m
        edges = [(i, i + 1) for i in range(1, k + 1)]
        edges += [(i, j) for i in range(k + 1, n + 1) for j in range(i + 1, n + 1)]
        return Graph(n, edges)

    if family == "theta0":
        if n is not None and n != 7:
            raise InvalidArgumentError("theta0 has exactly 7 vertices")
        hub_a, hub_b = 1, 7
        edges = [
            (hub_a, 2), (2, hub_b),
            (hub_a, 3), (3, 4), (4, hub_b),
            (hub_a, 5), (5, 6), (6, hub_b),
        ]
        return Graph(7, edges)

    if n is None:
        raise InvalidArgumentError(f"family {family!r} needs a vertex count n")
    if n < 1:
        raise InvalidArgumentError(f"vertex count must be positive, got {n}")

    if family == "edgeless":
        return Graph(n)
    if family == "complete":
        return Graph(n, ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))
    if family == "path":
        return Graph(n, ((i, i + 1) for i in range(1, n)))
    if family == "cycle":
        if n < 3:
            raise InvalidArgumentError(f"cycle needs n >= 3, got {n}")
        return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])
    if family == "star":
        return Graph(n, ((i, n) for i in range(1, n)))
    if family == "complete_bipartite":
        if k is None:
            raise InvalidArgumentError("complete_bipartite needs the part size k")
        if not 1 <= k <= n - 1:
            raise InvalidArgumentError(f"complete_bipartite needs 1 <= k <= n-1, got k={k}, n={n}")
        return Graph(n, ((i, j) for i in range(1, k + 1) for j in range(k + 1, n + 1)))
    if family == "dynkin_d":
        if n < 3:
            raise InvalidArgumentError(f"dynkin_d needs n >= 3, got {n}")
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
        return Graph(n, edges)

    raise AssertionError(f"unhandled family {family!r}")


# -- subgraphs --------------------------------------------------------------


def induced_subgraph(g: Graph, members: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on a nonempty vertex subset, plus the old->new map.

    The surviving vertices are relabeled 1..|S| in increasing order of
    their old labels.
    """
    member_set = set(members)
    if not member_set:
        raise InvalidArgumentError("cannot take the induced subgraph on an empty set")
    for v in member_set:
        g._check_vertex(v)
    ordered = sorted(member_set)
    mapping = {old: new for new, old in enumerate(ordered, start=1)}
    adj = g._adj
    sub = tuple(
        sum(1 << j for j, u in enumerate(ordered) if adj[v - 1] >> (u - 1) & 1) for v in ordered
    )
    return Graph._from_masks(sub), mapping


def _drop_vertex(adj: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Masks of the graph minus 0-indexed vertex v: the bits below v stay,
    the bits above it move down by one."""
    low = (1 << v) - 1
    return tuple(m & low | m >> 1 & ~low for m in adj[:v] + adj[v + 1 :])


def delete_vertex(g: Graph, v: int) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on everything but v (needs n >= 2), plus the
    old->new map."""
    g._check_vertex(v)
    if g.n == 1:
        raise InvalidArgumentError("cannot delete the only vertex")
    mapping = {u: u - (u > v) for u in range(1, g.n + 1) if u != v}
    return Graph._from_masks(_drop_vertex(g._adj, v - 1)), mapping


# -- structural report -------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    components: tuple[tuple[int, ...], ...]   # sorted vertices, by least vertex
    is_connected: bool
    is_bipartite: bool
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    cut_vertices: frozenset[int]
    is_biconnected: bool
    min_degree: int
    max_degree: int
    is_forest: bool
    tree_sizes: tuple[int, ...] | None
    gcd_of_component_sizes: int


def _component_masks(adj: tuple[int, ...], vertex_mask: int) -> list[int]:
    """Connected components of the sub-adjacency restricted to vertex_mask."""
    comps = []
    remaining = vertex_mask
    while remaining:
        seed = remaining & -remaining
        comp = seed
        frontier = seed
        while frontier:
            v = frontier & -frontier
            frontier &= frontier - 1
            new = adj[v.bit_length() - 1] & vertex_mask & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        remaining &= ~comp
    return comps


def _mask_to_vertices(mask: int) -> tuple[int, ...]:
    """The 1-indexed vertices of a mask, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        out.append(bit.bit_length())
    return tuple(out)


def structure_report(g: Graph) -> StructureReport:
    """All the structural predicates the connectivity theorems condition on."""
    n = g.n
    full = (1 << n) - 1
    comp_masks = _component_masks(g._adj, full)
    comp_masks.sort(key=lambda m: (m & -m))
    components = tuple(_mask_to_vertices(m) for m in comp_masks)
    sizes = [m.bit_count() for m in comp_masks]
    connected = len(comp_masks) == 1

    # Two-coloring; a bipartition here needs both parts nonempty, so a
    # single vertex is not bipartite and an edgeless graph on n >= 2 gets
    # one vertex moved across.
    color = [-1] * n
    bipartite = n >= 2
    for mask in comp_masks:
        if not bipartite:
            break
        seed = (mask & -mask).bit_length() - 1
        color[seed] = 0
        stack = [seed]
        while stack and bipartite:
            v = stack.pop()
            nbrs = g._adj[v] & mask
            while nbrs:
                u_bit = nbrs & -nbrs
                nbrs &= nbrs - 1
                u = u_bit.bit_length() - 1
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    bipartite = False
                    break
    bipartition = None
    if bipartite:
        side_a = [v + 1 for v in range(n) if color[v] == 0]
        side_b = [v + 1 for v in range(n) if color[v] == 1]
        if not side_b:
            side_b = [side_a.pop()]
        bipartition = (tuple(side_a), tuple(side_b))

    cut = []
    if n >= 2:
        base = len(comp_masks)
        for v in range(n):
            rest = full & ~(1 << v)
            if len(_component_masks(g._adj, rest)) > base:
                cut.append(v + 1)
    cut_vertices = frozenset(cut)

    degs = g.degrees()
    forest = g.edge_count == n - len(comp_masks)
    report = StructureReport(
        components=components,
        is_connected=connected,
        is_bipartite=bipartite,
        bipartition=bipartition,
        cut_vertices=cut_vertices,
        is_biconnected=n >= 2 and connected and not cut_vertices,
        min_degree=min(degs),
        max_degree=max(degs),
        is_forest=forest,
        tree_sizes=tuple(sorted(sizes)) if forest else None,
        gcd_of_component_sizes=math.gcd(*sizes),
    )
    return report


# -- Hamiltonian paths ----------------------------------------------------------


def _hamiltonian_paths(adj: tuple[int, ...]):
    """Yield the Hamiltonian paths of the mask graph as 0-indexed vertex
    tuples, in lexicographic order of the sequence; both traversal
    directions are produced."""
    n = len(adj)
    if n == 1:
        yield (0,)
        return
    for start in range(n):
        path = [start]
        visited = 1 << start
        pending = [adj[start] & ~visited]   # untried next vertices, per depth
        while pending:
            nbrs = pending[-1]
            if not nbrs:
                pending.pop()
                visited ^= 1 << path.pop()
                continue
            low = nbrs & -nbrs
            pending[-1] = nbrs ^ low
            path.append(low.bit_length() - 1)
            if len(path) == n:
                yield tuple(path)
                path.pop()
            else:
                visited |= low
                pending.append(adj[path[-1]] & ~visited)


def iter_hamiltonian_paths(g: Graph):
    """Yield Hamiltonian paths as 1-indexed vertex tuples, in lexicographic
    order of the sequence.  Both traversal directions are produced."""
    for path in _hamiltonian_paths(g._adj):
        yield tuple(v + 1 for v in path)


def has_hamiltonian_path(g: Graph) -> tuple[int, ...] | None:
    """First Hamiltonian path in deterministic search order, or None."""
    for path in iter_hamiltonian_paths(g):
        return path
    return None
