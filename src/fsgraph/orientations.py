"""Orientations of a graph and the flip moves that act on the acyclic ones.

An orientation is a bit vector over the graph's canonical edge order
(lexicographic on sorted endpoint pairs): bit t clear means the t-th edge
runs low -> high, bit t set means high -> low.  Partition kinds are
(a, b, local) flips: a sources and b sinks (or b sources and a sinks),
distinct and pairwise non-adjacent, flipped at once, inside one component
when local.  Classes are keyed and sorted by the bit vector, so all
outputs are order-stable.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import sys

from .config import DEFAULT_CLOSURE_CAP, DEFAULT_EXTENSION_VERTEX_CAP
from .errors import InvalidArgumentError, InvalidMoveError, ResourceLimitError
from .graphs import Graph, _component_masks, _mask_to_vertices, build_named, structure_report
from .perms import _ORDER_TABLE_MAX_N, Permutation, lex_words
from .tutte import tutte_eval

# Each partition kind as an (a, b, local) flip; ab_flip takes a and b from the caller.
_KINDS = {
    "toric": (0, 1, False),
    "double_flip": (1, 1, False),
    "local_double_flip": (1, 1, True),
    "ab_flip": None,
}
PARTITION_KINDS = tuple(_KINDS)


class Orientation:
    """A direction for every edge of a fixed graph (not necessarily acyclic)."""

    __slots__ = ("graph", "bits", "_reach")

    def __init__(self, graph: Graph, bits: int):
        if bits < 0 or bits >> graph.edge_count:
            raise InvalidArgumentError(
                f"direction bits {bits:#x} out of range for {graph.edge_count} edges"
            )
        self.graph = graph
        self.bits = bits
        self._reach: tuple[int, ...] | None = None

    @classmethod
    def _from_bits(cls, graph: Graph, bits: int) -> "Orientation":
        # Trusted fast path: callers guarantee 0 <= bits < 2 ** graph.edge_count.
        o = object.__new__(cls)
        o.graph = graph
        o.bits = bits
        o._reach = None
        return o

    # -- directions --------------------------------------------------------

    def directed_edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as 1-indexed (tail, head) pairs in canonical edge order."""
        out = []
        for t, (a, b) in enumerate(self.graph._edges):
            if self.bits >> t & 1:
                out.append((b + 1, a + 1))
            else:
                out.append((a + 1, b + 1))
        return tuple(out)

    def _out_masks(self) -> list[int]:
        out = [0] * self.graph.n
        for t, (a, b) in enumerate(self.graph._edges):
            if self.bits >> t & 1:
                out[b] |= 1 << a
            else:
                out[a] |= 1 << b
        return out

    def _masks(self) -> tuple[list[int], int, int]:
        """Incident-edge masks per vertex, and the source and sink masks.
        A clear bit points low -> high, so v is a source exactly when the
        set bits among its edges are those where v is the high endpoint."""
        inc, low, high = _incidence(self.graph)
        src = snk = 0
        for v, e in enumerate(inc):
            d = self.bits & e
            if d == high[v]:
                src |= 1 << v
            if d == low[v]:
                snk |= 1 << v
        return inc, src, snk

    def sources(self) -> tuple[int, ...]:
        """Vertices of in-degree 0 (isolated vertices count)."""
        return _mask_to_vertices(self._masks()[1])

    def sinks(self) -> tuple[int, ...]:
        return _mask_to_vertices(self._masks()[2])

    def is_acyclic(self) -> bool:
        return len(self._topological_order()) == self.graph.n

    def reachability(self) -> tuple[int, ...]:
        """Bitmask per vertex of everything strictly reachable from it (cached)."""
        if self._reach is None:
            n = self.graph.n
            out = self._out_masks()
            reach = [0] * n
            order = self._topological_order()
            if len(order) != n:
                raise InvalidArgumentError("orientation contains a directed cycle")
            for v in reversed(order):
                r = out[v]
                m = out[v]
                while m:
                    bit = m & -m
                    m &= m - 1
                    r |= reach[bit.bit_length() - 1]
                reach[v] = r
            self._reach = tuple(reach)
        return self._reach

    def _topological_order(self) -> list[int]:
        """Kahn's algorithm: the vertices that never lie downstream of a
        directed cycle, in topological order; all n of them exactly when
        the orientation is acyclic."""
        n = self.graph.n
        out = self._out_masks()
        indeg = [0] * n
        for t, (a, b) in enumerate(self.graph._edges):
            indeg[a if self.bits >> t & 1 else b] += 1
        ready = [v for v in range(n) if indeg[v] == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            m = out[v]
            while m:
                bit = m & -m
                m &= m - 1
                u = bit.bit_length() - 1
                indeg[u] -= 1
                if indeg[u] == 0:
                    ready.append(u)
        return order

    # -- flip moves ---------------------------------------------------------

    def flip(self, v: int) -> "Orientation":
        """Reverse every edge at v; v must currently be a source or a sink."""
        return self.ab_flip((v,), ()) if v in self.sources() else self.ab_flip((), (v,))

    def double_flip(self, u: int, v: int) -> "Orientation":
        """Flip the source u into a sink and the sink v into a source;
        u and v must be distinct and non-adjacent."""
        return self.ab_flip((u,), (v,))

    def ab_flip(self, sources_to_flip, sinks_to_flip) -> "Orientation":
        """Simultaneously flip a set of sources and a set of sinks; all the
        chosen vertices must be distinct and pairwise non-adjacent."""
        us = tuple(sorted(sources_to_flip))
        vs = tuple(sorted(sinks_to_flip))
        chosen = us + vs
        for w in chosen:
            self.graph._check_vertex(w)
        if len(set(chosen)) != len(chosen):
            raise InvalidMoveError("flip sets must be disjoint")
        for x, y in itertools.combinations(chosen, 2):
            if self.graph.has_edge(x, y):
                raise InvalidMoveError(f"vertices {x} and {y} are adjacent")
        inc, src, snk = self._masks()
        for ws, ends, name in ((us, src, "source"), (vs, snk, "sink")):
            for w in ws:
                if not ends >> (w - 1) & 1:
                    raise InvalidMoveError(f"vertex {w} is not a {name}")
        bits = self.bits
        for w in chosen:
            bits ^= inc[w - 1]
        return Orientation(self.graph, bits)

    # -- identity, order, text ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Orientation)
            and self.bits == other.bits
            and self.graph == other.graph
        )

    def __lt__(self, other: "Orientation") -> bool:
        return self.bits < other.bits

    def __hash__(self) -> int:
        return hash((self.graph, self.bits))

    def __repr__(self) -> str:
        return f"Orientation({self})"

    def __str__(self) -> str:
        return ",".join(f"{t}>{h}" for t, h in self.directed_edges())

    @classmethod
    def from_string(cls, graph: Graph, text: str) -> "Orientation":
        parts = [p for p in text.strip().split(",") if p]
        if len(parts) != graph.edge_count:
            raise InvalidArgumentError(
                f"expected {graph.edge_count} directed edges, got {len(parts)}"
            )
        bits = 0
        for t, part in enumerate(parts):
            try:
                tail_s, head_s = part.split(">")
                tail, head = int(tail_s), int(head_s)
            except ValueError as exc:
                raise InvalidArgumentError(f"bad directed edge {part!r}") from exc
            a, b = graph._edges[t]
            if (tail - 1, head - 1) == (b, a):
                bits |= 1 << t
            elif (tail - 1, head - 1) != (a, b):
                raise InvalidArgumentError(
                    f"edge {part!r} does not match canonical edge {(a + 1, b + 1)}"
                )
        return cls(graph, bits)


def orientation_from_permutation(graph: Graph, sigma: Permutation) -> Orientation:
    """The acyclic orientation whose linear extensions include sigma: each
    edge points from the endpoint appearing earlier in the word."""
    if graph.n != sigma.n:
        raise InvalidArgumentError(
            f"graph has {graph.n} vertices but permutation has length {sigma.n}"
        )
    position = [0] * graph.n
    for pos, value in enumerate(sigma.word):
        position[value - 1] = pos
    bits = 0
    for t, (a, b) in enumerate(graph._edges):
        if position[a] > position[b]:
            bits |= 1 << t
    return Orientation(graph, bits)


def _incidence(graph: Graph) -> tuple[list[int], list[int], list[int]]:
    """Per vertex, the edge bits of its edges, of those where it is the low
    endpoint and of those where it is the high endpoint."""
    low = [0] * graph.n
    high = [0] * graph.n
    for t, (a, b) in enumerate(graph._edges):
        low[a] |= 1 << t
        high[b] |= 1 << t
    return [lo | hi for lo, hi in zip(low, high)], low, high


@contextlib.contextmanager
def _gc_paused():
    """Keep the cyclic garbage collector off for the block, then turn it
    back on only if it was on at entry, so nested pauses and callers that
    turned it off themselves are left as they were.

    Listings build tens of thousands of acyclic containers (orientations,
    tuples, frozensets), each of which would count towards a collection
    that finds nothing to free; any cycle made in the block is still
    collected after it.  Another thread toggling the collector meanwhile
    is not guarded against."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _check_closure_cap(count: int, selections: int = 0, flip: tuple[int, int] = (0, 0)) -> None:
    """Refuse a closure over `count` acyclic orientations that tries
    `selections` flip selections at each, when count * (1 + selections)
    exceeds DEFAULT_CLOSURE_CAP.  A listing is a closure with no selections."""
    if count * (1 + selections) > DEFAULT_CLOSURE_CAP:
        each = f" with {selections} {flip}-flip selections each" if selections else ""
        raise ResourceLimitError(
            f"{count} acyclic orientations exceed the cap of {DEFAULT_CLOSURE_CAP} closure steps{each}"
        )


def _check_forest_rank(graph: Graph) -> None:
    """Refuse before T(2, 0) is taken when its lower bound 2^(n - c) for c
    components already exceeds DEFAULT_CLOSURE_CAP: a spanning forest has
    n - c edges, and each of its 2^(n - c) orientations extends to an
    acyclic one (orient the other edges along a topological order of the
    forest's).  The bound is exact on forests.  The message writes it as
    2^rank, since its decimal digits can pass Python's int-to-str limit."""
    rank = graph.n - len(structure_report(graph).components)
    if 1 << rank > DEFAULT_CLOSURE_CAP:
        least = "" if rank == graph.edge_count else "at least "
        raise ResourceLimitError(
            f"{least}2^{rank} acyclic orientations exceed the cap of {DEFAULT_CLOSURE_CAP} closure steps"
        )


def _acyclic_bits(graph: Graph) -> list[int]:
    """Direction bit vectors of all acyclic orientations, ascending.

    Backtracks over the edges from the last to the first, trying low -> high
    before high -> low, so the vectors come out sorted.  ``reach[v]`` is the
    set of vertices v reaches (v included) through the edges placed so far;
    a -> b is placed only when b cannot reach a.  One of the two directions
    always passes, so every branch ends in an acyclic orientation and the
    cost is O(count * m * n) (cf. Squire, "Generating the acyclic
    orientations of a graph", J. Algorithms 1998).
    """
    edges = graph._edges
    out: list[int] = []
    stack = [(len(edges) - 1, 0, [1 << v for v in range(graph.n)])]
    while stack:
        t, bits, reach = stack.pop()
        if t < 0:
            out.append(bits)
            continue
        a, b = edges[t]
        # Pushed first, popped second: high -> low, legal when a cannot reach b.
        if not reach[a] >> b & 1:
            ra = reach[a]
            stack.append(
                (t - 1, bits | 1 << t, [r | ra if r >> b & 1 else r for r in reach])
            )
        if not reach[b] >> a & 1:
            rb = reach[b]
            stack.append((t - 1, bits, [r | rb if r >> a & 1 else r for r in reach]))
    return out


def enumerate_acyclic(graph: Graph) -> tuple[Orientation, ...]:
    """All acyclic orientations, sorted by direction bit vector; refused up
    front when their count T(2, 0) exceeds DEFAULT_CLOSURE_CAP."""
    _check_forest_rank(graph)
    _check_closure_cap(tutte_eval(graph, 2, 0))
    with _gc_paused():
        return tuple(map(Orientation._from_bits, itertools.repeat(graph), _acyclic_bits(graph)))


# The n! vertex orders of [n] as Permutations in lexicographic order, kept
# per n up to perms' _ORDER_TABLE_MAX_N (8! orders, about 4 MB for all
# n <= 8).  Permutations are immutable, so every listing may share them.
_ORDER_TABLES: dict[int, tuple[Permutation, ...]] = {}


def _vertex_orders(n: int):
    """An iterator over the n! vertex orders of [n] in lexicographic order:
    over the memoised table for n <= _ORDER_TABLE_MAX_N, else built lazily.
    The words come from `lex_words` without keeping its bytes table, so a
    process that only lists orders keeps one copy of the words."""
    table = _ORDER_TABLES.get(n)
    if table is not None:
        return iter(table)
    orders = map(Permutation._from_word, lex_words(n, keep=False))
    if n > _ORDER_TABLE_MAX_N:
        return orders
    table = _ORDER_TABLES[n] = tuple(orders)
    return iter(table)


# memoryview formats of unsigned slots of 1, 2, 4 and 8 bytes.
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
# Per n <= _ORDER_TABLE_MAX_N: K_n's packed keys, their slot width, a 1 in every slot.
_KEY_TABLES: dict[int, tuple[int, int, int]] = {}


def _packed_keys(graph: Graph) -> tuple[int, int]:
    """The direction bits each vertex order induces on `graph`, one slot
    per order (slot i for the i-th in lexicographic order) in a big
    integer; and the slot width in bytes.  The orders of a vertex set S
    are, for each v of S in increasing order, v followed by the orders of
    S - v.  Putting v first sets exactly the bits of the edges (u, v) with
    u < v and u in S, so ``packed[S]`` concatenates, over those v,
    ``packed[S - v]`` with that constant ORed into every slot; it is built
    for all S by increasing size, two sizes kept at a time."""
    n = graph.n
    _, low, high = _incidence(graph)
    width = next(w for w in _SLOT_FORMATS if graph.edge_count <= 8 * w)   # n <= 10, so <= 45 edges
    slot = 8 * width
    lows = [0] * (1 << n)   # lows[S]: the edges whose low endpoint lies in S
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for s in range(1, 1 << n):
        lows[s] = lows[s & (s - 1)] | low[(s & -s).bit_length() - 1]
        by_size[s.bit_count()].append(s)
    packed: list[int | None] = [0] * (1 << n)
    for size in range(1, n + 1):
        block = math.factorial(size - 1) * slot   # bits of the orders of S - v
        ones = ((1 << block) - 1) // ((1 << slot) - 1)   # a 1 in each slot
        for s in by_size[size]:
            keys = 0
            for j, v in enumerate(_mask_to_vertices(s)):
                first = (high[v - 1] & lows[s]) * ones | packed[s ^ 1 << (v - 1)]
                keys |= first << j * block
            packed[s] = keys
        for s in by_size[size - 1]:
            packed[s] = None
    return packed[-1], width


def _order_keys(graph: Graph) -> memoryview:
    """The keys of `_orders_by_orientation`, one per vertex order."""
    n = graph.n
    if n > _ORDER_TABLE_MAX_N:
        keys, width = _packed_keys(graph)
    else:
        if n not in _KEY_TABLES:
            table, width = _packed_keys(build_named("complete", n))
            ones = int.from_bytes((1).to_bytes(width, "little") * math.factorial(n), "little")
            _KEY_TABLES[n] = (table, width, ones)
        table, width, ones = _KEY_TABLES[n]
        runs: dict[int, int] = {}   # gap p(t) - t -> the edges t with that gap
        for t, (a, b) in enumerate(graph._edges):
            gap = a * (2 * n - a - 3) // 2 + b - 1 - t   # p(t): K_n's index of pair (a, b)
            runs[gap] = runs.get(gap, 0) | 1 << t
        keys = 0
        for gap, mask in runs.items():
            keys |= table >> gap & mask * ones
    return memoryview(keys.to_bytes(math.factorial(n) * width, sys.byteorder)).cast(_SLOT_FORMATS[width])


def _orders_by_orientation(graph: Graph) -> dict[int, list[Permutation]]:
    """All n! vertex orders, grouped by the direction bits of the acyclic
    orientation each one induces (edges point from the earlier vertex).

    The keys are exactly the acyclic orientations, and each group is the
    set of linear extensions of its key, listed in lexicographic order.
    Each order's key is one slot of a big integer (`_packed_keys`).  For
    n <= 8 the keys of K_n are packed once per process and kept (21 KB at
    n = 7, 172 KB at n = 8, as much again for the 1 in every slot); edge t
    of the graph is K_n's pair p(t) >= t, so each run of edges with one gap
    p(t) - t is cut out by one shift of K_n's keys, masked to those edges
    in every slot.  Past 8 the graph's own edges are packed per call and
    nothing is kept.  `_vertex_orders` shares the Permutations likewise.
    """
    groups: dict[int, list[Permutation]] = {}
    for key, order in zip(_order_keys(graph), _vertex_orders(graph.n)):
        group = groups.get(key)
        if group is None:
            groups[key] = [order]
        else:
            group.append(order)
    return groups


class OrientationPartition:
    """A partition of Acyc(G) into equivalence classes of one move kind."""

    __slots__ = ("graph", "kind", "a", "b", "classes", "_index")

    def __init__(
        self,
        graph: Graph,
        kind: str,
        classes: tuple[tuple[Orientation, ...], ...],
        a: int | None = None,
        b: int | None = None,
    ):
        self.graph = graph
        self.kind = kind
        self.a = a
        self.b = b
        self.classes = classes
        self._index = {o.bits: i for i, cls in enumerate(classes) for o in cls}

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_index(self, orientation: Orientation) -> int:
        if orientation.graph != self.graph or orientation.bits not in self._index:
            raise InvalidArgumentError("orientation is not part of this partition")
        return self._index[orientation.bits]


def _independent_tuples(out: list, chosen: tuple, cand: int, room: list, sizes: range) -> None:
    """Append to `out` every extension of `chosen` by vertices of `cand`,
    picked in increasing order, whose length lies in `sizes`.  Every pick
    narrows `cand` to what lies above it and to the pick's `room`."""
    if len(chosen) in sizes:
        out.append(chosen)
    if len(chosen) + 1 >= sizes.stop:
        return
    while cand:
        bit = cand & -cand
        cand ^= bit
        v = bit.bit_length() - 1
        _independent_tuples(out, chosen + (v,), cand & room[v], room, sizes)


def _flip_masks(graph: Graph, a: int, b: int, local: bool) -> set[tuple[int, int]]:
    """The distinct moves of the (a, b, local)-flips of `graph`, one pair
    (mask, want) each: the orientations with ``bits & mask == want`` are
    those where the move applies, and it takes them to ``bits ^ mask``.

    A selection is a + b distinct, pairwise non-adjacent vertices split
    into a sources and b sinks (inside one component when local).  Its
    vertices share no edge, so mask is the OR of their incident-edge bits,
    and want the OR of ``high[u]`` over the sources u and ``low[v]`` over
    the sinks v.  An isolated vertex is always a source and a sink and
    flips no edge, so only the vertices with edges are listed; the rest of
    a selection is any isolated vertices, and a selection of isolated
    vertices alone (mask 0) moves nothing and is left out.  The reverse
    of a move is (mask, want ^ mask), the flip of b sources and a sinks
    that joins the same pairs, so each move is kept once, by its lesser
    want, and the (b, a) splits need no listing of their own.
    """
    k = a + b
    if k > graph.n:
        return set()
    adj = graph._adj
    inc, low, high = _incidence(graph)
    touched = sum(1 << v for v, nbrs in enumerate(adj) if nbrs)
    # room[v]: the vertices with edges that a selection holding v may still hold.
    room = [touched & ~m for m in adj]
    if local:
        # Isolated vertices are components of their own: none can join.
        for comp in _component_masks(adj, touched):
            for v in _mask_to_vertices(comp):
                room[v - 1] &= comp
        least = k
    else:
        # Isolated vertices fill up what a pick of vertices with edges leaves.
        least = max(1, k - (graph.n - touched.bit_count()))
    picks: list[tuple[int, ...]] = []
    _independent_tuples(picks, (), touched, room, range(least, k + 1))
    moves = set()
    for chosen in picks:
        mask = 0
        for v in chosen:
            mask |= inc[v]
        for s in range(max(0, len(chosen) - b), min(a, len(chosen)) + 1):
            for sources in itertools.combinations(chosen, s):
                want = 0
                for v in chosen:
                    want |= high[v] if v in sources else low[v]
                moves.add((mask, min(want, want ^ mask)))
    return moves


def _move_classes(
    graph: Graph, a: int, b: int, local: bool, acyclic: list[int]
) -> list[tuple[int, ...]]:
    """Close the sorted acyclic direction vectors under (a, b, local)-flips;
    the classes come as sorted bit tuples in order of least member.

    The closure runs one move of `_flip_masks` at a time: a union-find over
    the positions in `acyclic` joins every vector the move applies to with
    its image, so the work is the vector count times the move count, which
    DEFAULT_CLOSURE_CAP bounds.  Each move stands for its reverse too, so
    the sets are the classes of the two-way closure.  A union hangs the
    larger root under the smaller, so every root is the least position of
    its class and every parent lies below its child; one ascending pass
    then points each position at its root.  Grouping the vectors in
    ascending order opens each class at its least member and appends the
    rest in order."""
    index = {bits: i for i, bits in enumerate(acyclic)}
    parent = list(range(len(acyclic)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for mask, want in _flip_masks(graph, a, b, local):
        for bits in [x for x in acyclic if x & mask == want]:
            j = index.get(bits ^ mask)
            assert j is not None, "flip move broke acyclicity"
            root, other = find(index[bits]), find(j)
            if other < root:
                root, other = other, root
            if other != root:
                parent[other] = root
    classes: dict[int, list[int]] = {}
    for i, bits in enumerate(acyclic):
        root = parent[i] = parent[parent[i]]
        group = classes.get(root)
        if group is None:
            classes[root] = [bits]
        else:
            group.append(bits)
    return [tuple(group) for group in classes.values()]


def _independent_sets(adj: tuple[int, ...], mask: int, k: int, memo: dict) -> list[int]:
    """Numbers of independent sets of sizes 0..k among the vertices of
    mask: the product over its components, each split on a vertex v of
    largest degree into the sets without v and those with v and none of
    its neighbours.  ``memo`` maps component masks to their counts."""
    counts = [1] + [0] * k
    for comp in _component_masks(adj, mask):
        part = memo.get(comp)
        if part is None:
            v = max(_mask_to_vertices(comp), key=lambda u: (adj[u - 1] & comp).bit_count()) - 1
            without = _independent_sets(adj, comp & ~(1 << v), k, memo)
            inside = _independent_sets(adj, comp & ~adj[v] & ~(1 << v), k, memo)
            part = memo[comp] = [without[0]] + [without[i] + inside[i - 1] for i in range(1, k + 1)]
        counts = [sum(counts[i] * part[j - i] for i in range(j + 1)) for j in range(k + 1)]
    return counts


def _flip_selections(graph: Graph, a: int, b: int) -> int:
    """Ways to pick the vertices one (a, b)-flip could flip in some
    orientation: a + b pairwise distinct, non-adjacent vertices, split into
    a sources and b sinks (or, when a != b, b sources and a sinks).  The
    closure cap multiplies T(2, 0) by this count, which bounds the moves
    `_move_classes` scans the orientations for: `_flip_masks` lists a move
    and its reverse once, leaves out the picks of isolated vertices alone
    and merges picks that differ only in isolated vertices.  Isolated
    vertices are counted in one binomial, so only the vertices with edges
    are split.  Callers check the forest rank first (`_check_forest_rank`),
    which leaves at most 16 forest edges and 32 vertices with edges."""
    k = a + b
    if k > graph.n:
        return 0
    adj = graph._adj
    isolated = adj.count(0)
    touched = sum(1 << v for v, nbrs in enumerate(adj) if nbrs)
    sets = _independent_sets(adj, touched, min(k, touched.bit_count()), {})
    count = sum(c * math.comb(isolated, k - j) for j, c in enumerate(sets))
    return count * math.comb(k, a) * (1 if a == b else 2)


def partition_by_moves(
    graph: Graph,
    kind: str,
    a: int | None = None,
    b: int | None = None,
) -> OrientationPartition:
    """Group the acyclic orientations into classes reachable by the chosen
    move kind, via a union-find closure (no symmetry shortcuts).  Kinds
    are (a, b, local) flips; only ab_flip takes a and b from the caller.  The
    closure lists the T(2, 0) acyclic orientations and scans them once per
    flip move, so it refuses up front when T(2, 0) times one plus the flip
    selections exceeds DEFAULT_CLOSURE_CAP, and before taking T(2, 0) when
    its forest-rank bound already does."""
    if kind not in _KINDS:
        raise InvalidArgumentError(f"kind must be one of {PARTITION_KINDS}, got {kind!r}")
    if kind != "ab_flip" and (a, b) != (None, None):
        raise InvalidArgumentError(f"{kind} takes no sizes a and b")
    flip_a, flip_b, local = _KINDS[kind] or (a, b, False)
    if flip_a is None or flip_b is None or flip_a < 0 or flip_b < 0:
        raise InvalidArgumentError("ab_flip needs non-negative sizes a and b")
    _check_forest_rank(graph)
    count = tutte_eval(graph, 2, 0)   # T(2, 0): the orientations the closure visits
    selections = _flip_selections(graph, flip_a, flip_b)
    _check_closure_cap(count, selections, (flip_a, flip_b))
    with _gc_paused():
        acyclic = _acyclic_bits(graph)
        if selections:
            classes = _move_classes(graph, flip_a, flip_b, local, acyclic)
        else:
            # No a + b vertices are pairwise non-adjacent, so no move
            # applies; listing the moves would still walk every smaller
            # independent set, 3^m of them on an m-edge matching.
            classes = [(bits,) for bits in acyclic]
        orient = Orientation._from_bits
        orientations = tuple(tuple(map(orient, itertools.repeat(graph), cls)) for cls in classes)
    return OrientationPartition(graph, kind, orientations, a=a, b=b)


def linear_extensions(o: Orientation) -> frozenset[Permutation]:
    """All vertex orders compatible with every directed reachability of o."""
    n = o.graph.n
    if n > DEFAULT_EXTENSION_VERTEX_CAP:
        raise ResourceLimitError(
            f"linear extension listing capped at n <= {DEFAULT_EXTENSION_VERTEX_CAP}"
        )
    if not o.is_acyclic():
        raise InvalidArgumentError("cyclic orientations have no linear extensions")
    pred = [0] * n
    for tail, head in o.directed_edges():
        pred[head - 1] |= 1 << (tail - 1)
    out: list[Permutation] = []
    word = bytearray(n)

    def place(depth: int, used: int):
        if depth == n:
            out.append(Permutation._from_word(bytes(word)))
            return
        for v in range(n):
            bit = 1 << v
            if used & bit or (pred[v] & ~used):
                continue
            word[depth] = v + 1
            place(depth + 1, used | bit)

    place(0, 0)
    del place   # place refers to itself through its closure; break that cycle
    return frozenset(out)


def phi(partition: OrientationPartition, class_id: int) -> int:
    """Advance a double-flip class by turning one source into a sink.

    Well-defined on double-flip classes: the landing class does not depend
    on the member or the source chosen, so the first source of the least
    member is flipped.
    """
    if partition.kind != "double_flip":
        raise InvalidArgumentError("phi acts on double-flip partitions")
    if not 0 <= class_id < partition.class_count:
        raise InvalidArgumentError(f"class id {class_id} out of range")
    rep = partition.classes[class_id][0]
    return partition.class_index(rep.flip(rep.sources()[0]))
