"""Simple undirected graphs on the vertex set {1, ..., n}.

Adjacency is stored as one bitmask per vertex (0-indexed internally,
1-indexed at the API), because constant-time neighborhood tests dominate
every enumeration loop in this package.  Graphs are immutable and
hashable, so they can be shared freely and used as cache keys.  A graph
is its masks: its edge list and its structure report are built on first
use and kept.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

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

    __slots__ = ("n", "_adj", "_edge_pairs", "_report")

    n: int
    _adj: tuple[int, ...]          # _adj[v] has bit u set iff {v+1, u+1} is an edge
    _edge_pairs: tuple[tuple[int, int], ...] | None   # kept by the first _edges read
    _report: StructureReport | None       # kept by the first structure_report(g)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if type(n) is not int:
            raise InvalidArgumentError(f"vertex count must be an integer, got {n!r}")
        if n < 1:
            raise InvalidArgumentError(f"vertex count must be positive, got {n}")
        adj = [0] * n
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
            adj[i - 1] |= 1 << j - 1
            adj[j - 1] |= 1 << i - 1
        self.n = n
        self._adj = tuple(adj)
        self._edge_pairs = None
        self._report = None

    @classmethod
    def _from_masks(cls, adj: Iterable[int]) -> "Graph":
        """Unchecked constructor from 0-indexed adjacency masks; the caller
        guarantees them symmetric, loop-free and inside range(len(adj))."""
        g = object.__new__(cls)
        g._adj = tuple(adj)
        g.n = len(g._adj)
        g._edge_pairs = None
        g._report = None
        return g

    @property
    def _edges(self) -> tuple[tuple[int, int], ...]:
        """0-indexed edges (a, b) with a < b, sorted; listed from the masks
        on first use and kept."""
        if self._edge_pairs is None:
            edges = []
            for a, mask in enumerate(self._adj):
                mask >>= a + 1
                while mask:
                    low = mask & -mask
                    mask ^= low
                    edges.append((a, a + low.bit_length()))
            self._edge_pairs = tuple(edges)
        return self._edge_pairs

    # -- basic queries ----------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as sorted 1-indexed pairs (a, b) with a < b."""
        return tuple((a + 1, b + 1) for a, b in self._edges)

    @property
    def edge_count(self) -> int:
        return sum(map(int.bit_count, self._adj)) >> 1

    def has_edge(self, i: int, j: int) -> bool:
        self._check_vertex(i)
        self._check_vertex(j)
        return i != j and bool(self._adj[i - 1] >> (j - 1) & 1)

    def neighbors(self, i: int) -> tuple[int, ...]:
        self._check_vertex(i)
        return _mask_to_vertices(self._adj[i - 1])

    def degree(self, i: int) -> int:
        self._check_vertex(i)
        return self._adj[i - 1].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self._adj))

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


def _clique_masks(n: int, first: int) -> list[int]:
    """Masks on n vertices of the clique on 0-indexed vertices first..n-1."""
    clique = (1 << n) - (1 << first)
    return [0] * first + [clique ^ 1 << v for v in range(first, n)]


def _with_edges(adj: list[int], edges: Iterable[tuple[int, int]]) -> Graph:
    """The graph of masks adj plus the trusted 1-indexed edges."""
    for i, j in edges:
        adj[i - 1] |= 1 << j - 1
        adj[j - 1] |= 1 << i - 1
    return Graph._from_masks(adj)


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
    for value in (n, k, m):
        if value is not None and type(value) is not int:
            raise InvalidArgumentError(f"family parameters must be integers, got {value!r}")

    if family == "lollipop":
        if k is None or m is None:
            raise InvalidArgumentError("lollipop needs tail length k and clique size m")
        if k < 0 or m < 1:
            raise InvalidArgumentError(f"lollipop needs k >= 0 and m >= 1, got k={k}, m={m}")
        if n is not None and n != k + m:
            raise InvalidArgumentError(f"lollipop has k+m={k + m} vertices, but n={n} given")
        return _with_edges(_clique_masks(k + m, k), ((i, i + 1) for i in range(1, k + 1)))

    if family == "theta0":
        if n is not None and n != 7:
            raise InvalidArgumentError("theta0 has exactly 7 vertices")
        hub_a, hub_b = 1, 7
        edges = [
            (hub_a, 2), (2, hub_b),
            (hub_a, 3), (3, 4), (4, hub_b),
            (hub_a, 5), (5, 6), (6, hub_b),
        ]
        return _with_edges([0] * 7, edges)

    if n is None:
        raise InvalidArgumentError(f"family {family!r} needs a vertex count n")
    if n < 1:
        raise InvalidArgumentError(f"vertex count must be positive, got {n}")

    if family == "edgeless":
        return Graph._from_masks([0] * n)
    if family == "complete":
        return Graph._from_masks(_clique_masks(n, 0))
    if family == "path":
        return _with_edges([0] * n, ((i, i + 1) for i in range(1, n)))
    if family == "cycle":
        if n < 3:
            raise InvalidArgumentError(f"cycle needs n >= 3, got {n}")
        return _with_edges([0] * n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])
    if family == "star":
        return _with_edges([0] * n, ((i, n) for i in range(1, n)))
    if family == "complete_bipartite":
        if k is None:
            raise InvalidArgumentError("complete_bipartite needs the part size k")
        if not 1 <= k <= n - 1:
            raise InvalidArgumentError(f"complete_bipartite needs 1 <= k <= n-1, got k={k}, n={n}")
        left = (1 << k) - 1
        right = (1 << n) - 1 ^ left
        return Graph._from_masks([right] * k + [left] * (n - k))
    if family == "dynkin_d":
        if n < 3:
            raise InvalidArgumentError(f"dynkin_d needs n >= 3, got {n}")
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
        return _with_edges([0] * n, edges)

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


class StructureReport(NamedTuple):
    components: tuple[tuple[int, ...], ...]   # sorted vertices, by least vertex
    is_connected: bool
    is_bipartite: bool
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    cut_vertices: frozenset[int]
    is_biconnected: bool
    min_degree: int
    max_degree: int
    is_forest: bool
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
    """All the structural predicates the connectivity theorems condition on,
    from one iterative depth-first search per component (Hopcroft and
    Tarjan, "Efficient algorithms for graph manipulation", CACM 1973).  The
    first call builds the report and keeps it on g; every later call
    returns it.

    - Each search starts at the least vertex not yet seen, so the
      components come in order of least vertex.
    - The two-colouring is by depth parity: the graph is bipartite exactly
      when no edge joins two vertices of equal parity, and side A holds the
      even depths.  A bipartition needs both parts nonempty, so a single
      vertex is not bipartite and an edgeless graph on n >= 2 vertices
      gets its largest vertex moved to side B.
    - Cut vertices come from lowpoints, each kept as the mask of vertices
      that a finished subtree's edges reach.  A vertex other than the root
      is a cut vertex when the subtree of one of its children reaches none
      of its proper ancestors; the root is one when it has a second child.
      A depth-first search of an undirected graph leaves no cross edges,
      so what a subtree reaches among the vertices seen before its parent
      p was discovered lies among p's proper ancestors: each vertex keeps
      the mask seen before it, and no mask of the search path is kept.

    The search takes few Python steps per vertex: it walks the current
    vertex with a stack of its ancestors, seeds each vertex's lowpoint
    mask with its neighbourhood (a finished vertex ORs its mask into its
    parent's), and swaps the masks of the current depth's side and the
    other side at each step down or up.  A connected graph's one component
    and an empty cut set are written out directly, and the degrees are
    counted once for the minimum, the maximum and the edge count.
    """
    if g._report is not None:
        return g._report
    adj = g._adj
    n = g.n
    full = (1 << n) - 1
    low = list(adj)   # per vertex: what its edges and finished subtrees reach
    before = [0] * n  # per vertex: what was seen before it was discovered
    comp_masks = []
    here = there = 0  # vertices at the current vertex's depth parity, and at the other
    clash = 0         # nonzero once an edge joins two equal depths
    cut = 0
    seen = 0
    while seen != full:
        root = ~seen & seen + 1
        start = seen
        seen |= root
        here |= root
        r = root.bit_length() - 1
        if adj[r]:
            stack = []   # the proper ancestors of v, root first
            v = r
            while True:
                fresh = adj[v] & ~seen
                if fresh:
                    bit = fresh & -fresh
                    u = bit.bit_length() - 1
                    clash |= adj[u] & there
                    there |= bit
                    here, there = there, here
                    before[u] = seen
                    seen |= bit
                    stack.append(v)
                    v = u
                    continue
                if not stack:
                    break
                p = stack.pop()
                here, there = there, here
                if stack:
                    reach = low[v]
                    if not reach & before[p]:
                        cut |= 1 << p
                    low[p] |= reach
                elif adj[r] & ~seen:
                    cut |= root
                v = p
        comp_masks.append(seen ^ start)
    connected = len(comp_masks) == 1

    bipartite = n >= 2 and not clash
    bipartition = None
    if bipartite:
        side_a = _mask_to_vertices(here)   # the roots' side: even depths
        side_b = _mask_to_vertices(there)
        if not side_b:
            side_a, side_b = side_a[:-1], side_a[-1:]
        bipartition = (side_a, side_b)

    degs = g.degrees()
    if connected:
        components = (tuple(range(1, n + 1)),)
        gcd = n
    else:
        components = tuple(map(_mask_to_vertices, comp_masks))
        gcd = math.gcd(*map(int.bit_count, comp_masks))
    g._report = StructureReport(
        components,
        connected,
        bipartite,
        bipartition,
        frozenset(_mask_to_vertices(cut)) if cut else frozenset(),
        n >= 2 and connected and not cut,
        min(degs),
        max(degs),
        sum(degs) >> 1 == n - len(comp_masks),
        gcd,
    )
    return g._report

