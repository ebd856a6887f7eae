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

import itertools
import math

from .config import DEFAULT_CLOSURE_CAP, DEFAULT_EXTENSION_VERTEX_CAP
from .errors import InvalidArgumentError, InvalidMoveError, ResourceLimitError
from .graphs import Graph, _component_masks, _mask_to_vertices
from .perms import Permutation
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
        """Incident-edge masks per vertex, and the source and sink masks."""
        inc, low, high = _incidence(self.graph)
        src, snk = _ends(self.bits, inc, low, high)
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


def _ends(bits: int, inc, low, high) -> tuple[int, int]:
    """Source and sink masks of the orientation with direction bits `bits`.
    A clear bit points low -> high, so v is a source exactly when the set
    bits among its edges are those where v is the high endpoint."""
    src = snk = 0
    for v, e in enumerate(inc):
        d = bits & e
        if d == high[v]:
            src |= 1 << v
        if d == low[v]:
            snk |= 1 << v
    return src, snk


def _check_closure_cap(count: int, selections: int = 0, flip: tuple[int, int] = (0, 0)) -> None:
    """Refuse a closure over `count` acyclic orientations that tries
    `selections` flip selections at each, when count * (1 + selections)
    exceeds DEFAULT_CLOSURE_CAP.  A listing is a closure with no selections."""
    if count * (1 + selections) > DEFAULT_CLOSURE_CAP:
        each = f" with {selections} {flip}-flip selections each" if selections else ""
        raise ResourceLimitError(
            f"{count} acyclic orientations exceed the cap of {DEFAULT_CLOSURE_CAP} closure steps{each}"
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
    _check_closure_cap(tutte_eval(graph, 2, 0))
    return tuple(Orientation(graph, bits) for bits in _acyclic_bits(graph))


# The n! vertex orders of [n] as Permutations in lexicographic order, kept
# per n up to _ORDER_TABLE_MAX_N (8! orders, about 4 MB for all n <= 8).
# Permutations are immutable, so every listing may share them.
_ORDER_TABLE_MAX_N = 8
_ORDER_TABLES: dict[int, tuple[Permutation, ...]] = {}


def _vertex_orders(n: int):
    """An iterator over the n! vertex orders of [n] in lexicographic order:
    over the memoised table for n <= _ORDER_TABLE_MAX_N, else built lazily."""
    table = _ORDER_TABLES.get(n)
    if table is not None:
        return iter(table)
    orders = map(Permutation._from_word, map(bytes, itertools.permutations(range(1, n + 1))))
    if n > _ORDER_TABLE_MAX_N:
        return orders
    table = _ORDER_TABLES[n] = tuple(orders)
    return iter(table)


def _orders_by_orientation(graph: Graph) -> dict[int, list[Permutation]]:
    """All n! vertex orders, grouped by the direction bits of the acyclic
    orientation each one induces (edges point from the earlier vertex).

    The keys are exactly the acyclic orientations, and each group is the
    set of linear extensions of its key, listed in lexicographic order.
    The orders grow one position at a time, in lexicographic order, as
    (placed vertex mask, bits so far) pairs.  Placing v after the vertices
    in p sets the bits of v's low-endpoint edges whose other endpoint is in
    p; ``steps[p]`` tabulates that, with the next mask, per free vertex.
    The Permutations come from `_vertex_orders`, so for n <= 8 they are
    built once per process and shared by every listing at that n.
    """
    n = graph.n
    inc, low, _ = _incidence(graph)
    seen = [0] * (1 << n)   # seen[p]: bits of the edges at the vertices of p
    steps = []
    for p in range(1 << n):
        if p:
            seen[p] = seen[p & (p - 1)] | inc[(p & -p).bit_length() - 1]
        steps.append([(p | 1 << v, low[v] & seen[p]) for v in range(n) if not p >> v & 1])
    # last[q]: the bits set by placing the one vertex left out of q (0 if none).
    last = [step[0][1] if step else 0 for step in steps]
    states = [(0, 0)]
    for _ in range(n - 2):
        states = [(q, bits | add) for p, bits in states for q, add in steps[p]]
    # The last two placements run in this loop, so the n! leaves are never
    # stored; they come in the same order as the vertex orders.
    orders = _vertex_orders(n)
    groups: dict[int, list[Permutation]] = {}
    for p, bits in states:
        for q, add in steps[p]:
            key = bits | add | last[q]
            group = groups.get(key)
            if group is None:
                groups[key] = [next(orders)]
            else:
                group.append(next(orders))
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

    def to_json_dict(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.kind == "ab_flip":
            data["a"] = self.a
            data["b"] = self.b
        data["classes"] = [[str(o) for o in cls] for cls in self.classes]
        return data


def _flips(out: list, bits: int, free: int, picks, ends, room, inc, pool=-1, cand=0) -> None:
    """Append to `out` every flip of `bits` that takes one vertex of
    ``ends[p]`` per entry p of `picks` (0: the sources, 1: the sinks).  A
    pool is picked in increasing order: `cand` is what is left of `pool`
    above its last pick.  Every pick narrows `free` by its `room`."""
    if not picks:
        out.append(bits)
        return
    if picks[0] != pool:
        pool, cand = picks[0], ends[picks[0]]
    cand &= free
    rest = picks[1:]
    if not rest:
        while cand:
            bit = cand & -cand
            cand ^= bit
            out.append(bits ^ inc[bit.bit_length() - 1])
        return
    while cand:
        bit = cand & -cand
        cand ^= bit
        v = bit.bit_length() - 1
        _flips(out, bits ^ inc[v], free & room[v], rest, ends, room, inc, pool, cand)


def _flip_moves(graph: Graph, a: int, b: int, local: bool):
    """The one-way (a, b, local)-flip generator of `graph`: a function from
    direction bits to their flips of a sources and b sinks, one per choice
    of vertices.

    The reverse of such a flip flips the b new sources and the a new
    sinks, so a move and its reverse are never both generated: the moves
    of b sources and a sinks are left out, and when a == b so are the
    flips whose least chosen vertex is a sink.  Every move of the closure
    is still generated from one of its two ends, which is all that
    `_move_classes` needs.
    """
    adj = graph._adj
    inc, low, high = _incidence(graph)
    full = (1 << graph.n) - 1
    # room[v]: the vertices a flip that picks v may still pick.
    room = [full & ~m & ~(1 << v) for v, m in enumerate(adj)]
    if local:
        for mask in _component_masks(adj, full):
            for v in _mask_to_vertices(mask):
                room[v - 1] &= mask
    # Past n there are no a + b distinct vertices; 0 picks a source, 1 a sink.
    if a + b > graph.n:
        return lambda bits: []
    picks = (0,) * a + (1,) * b
    # When a == b the least source is picked first and the rest lie above it.
    above = [room[v] & ~((2 << v) - 1) for v in range(graph.n)] if a == b and a else None

    def moves(bits: int) -> list[int]:
        ends = _ends(bits, inc, low, high)
        out: list[int] = []
        if above is None:
            _flips(out, bits, full, picks, ends, room, inc)
            return out
        src = ends[0]
        while src:
            bit = src & -src
            src ^= bit
            v = bit.bit_length() - 1
            _flips(out, bits ^ inc[v], above[v], picks[1:], ends, room, inc)
        return out

    return moves


def _move_classes(
    graph: Graph, a: int, b: int, local: bool, acyclic: list[int]
) -> list[tuple[int, ...]]:
    """Close the sorted acyclic direction vectors under (a, b, local)-flips;
    the classes come as sorted bit tuples in order of least member.

    A union-find over the positions in `acyclic` joins every vector with
    its one-way moves; a move and its reverse join the same pair, so the
    sets are the classes of the two-way closure.  Grouping the vectors in
    ascending order opens each class at its least member and appends the
    rest in order."""
    moves = _flip_moves(graph, a, b, local)
    index = {bits: i for i, bits in enumerate(acyclic)}
    parent = list(range(len(acyclic)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, bits in enumerate(acyclic):
        root = find(i)
        for nxt in moves(bits):
            j = index.get(nxt)
            assert j is not None, "flip move broke acyclicity"
            other = find(j)
            if other != root:
                parent[other] = root
    classes: dict[int, list[int]] = {}
    for i, bits in enumerate(acyclic):
        classes.setdefault(find(i), []).append(bits)
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
    a sources and b sinks (or, when a != b, b sources and a sinks).
    Isolated vertices are counted in one binomial, so only the vertices
    with edges are split.  Callers count first: T(2, 0) >= 2^(n - c) for
    c components (deleting a non-bridge edge never raises the count), so a
    count within DEFAULT_CLOSURE_CAP leaves at most 16 forest edges and at
    most 32 vertices with edges."""
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
    closure visits each of the T(2, 0) acyclic orientations once and tries
    its flip selections, so it refuses up front when T(2, 0) times one
    plus the selections exceeds DEFAULT_CLOSURE_CAP."""
    if kind not in _KINDS:
        raise InvalidArgumentError(f"kind must be one of {PARTITION_KINDS}, got {kind!r}")
    if kind != "ab_flip" and (a, b) != (None, None):
        raise InvalidArgumentError(f"{kind} takes no sizes a and b")
    flip_a, flip_b, local = _KINDS[kind] or (a, b, False)
    if flip_a is None or flip_b is None or flip_a < 0 or flip_b < 0:
        raise InvalidArgumentError("ab_flip needs non-negative sizes a and b")
    count = tutte_eval(graph, 2, 0)   # T(2, 0): the orientations the closure visits
    _check_closure_cap(count)   # first, since it bounds the work of _flip_selections
    selections = _flip_selections(graph, flip_a, flip_b)
    _check_closure_cap(count, selections, (flip_a, flip_b))
    classes = _move_classes(graph, flip_a, flip_b, local, _acyclic_bits(graph))
    orientations = tuple(tuple(Orientation(graph, bits) for bits in cls) for cls in classes)
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
