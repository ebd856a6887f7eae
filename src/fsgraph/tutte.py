"""Exact Tutte polynomial evaluation by deletion and contraction of
parallel classes.

The public entry point takes a simple graph.  Contraction creates
parallel edges, so the recursion runs on a multigraph on 0..k-1 kept as
two tuples indexed by vertex: ``low[b]``, the mask of b's neighbours
a < b, and, when y != 0, ``rows[b]``, which holds k - 1 for the class of
k edges between a < b in its bit slot a.  A whole class P of k edges
between u and v is deleted or contracted at once (Haggard, Pearce and
Royle, "Computing Tutte polynomials", ACM TOMS 2010):

    P not a bridge:  T(G) = T(G - P) + (1 + y + ... + y^(k-1)) T(G / P)
    P a bridge:      T(G) = (x + y + ... + y^(k-1)) T(G / P)

G - P removes the k edges.  G / P merges u into v, and the classes from u
and from v to a common neighbour add their sizes, so no loops arise.  At
y = 0 both weights ignore k: a class acts as one edge, multiplicities are
not tracked, and the memo key is ``low`` alone.  For y != 0 it is
``(low, rows)``.

T is multiplicative over components, so ``tutte_eval`` splits the graph
once and relabels each piece 0..k-1.  A tree on k vertices needs no
recursion: all its k - 1 edges are bridges, so T = x^(k-1).  On any other
piece the recursion stays connected: it deletes a class only when it is
not a bridge, and contraction never disconnects.  Each step takes the
last vertex u and its highest neighbour v.  Every other neighbour of u
lies below v, so the contraction drops u's entries and changes only v's,
and the labels stay 0..k-1 without renumbering; equal memo keys are
identical multigraphs.  Working down from the last vertex eliminates one
vertex at a time, which shares far more subproblems than merging the
highest neighbour into the lowest vertex: on a G(14, 1/2) with 34 edges
the memo held 3 607 graphs at (2, 0), against 39 326.  P is not a bridge
when u and v have a common neighbour, and is one when v is u's only
neighbour; otherwise a mask search from u without P decides.  No
isomorphism search is done: a canonical relabeling costs up to n! per
node on symmetric graphs.

The memo holds one entry per distinct multigraph the recursion reaches.
A call that would store more than DEFAULT_TUTTE_NODE_CAP of them raises
ResourceLimitError, and so does one that recurses deeper than the
interpreter allows (a cycle of about 1000 vertices), so every
evaluation answers or refuses in bounded time and memory.
"""

from __future__ import annotations

from .config import DEFAULT_TUTTE_NODE_CAP
from .errors import ResourceLimitError
from .graphs import Graph, _component_masks


def tutte_eval(g: Graph, x: int, y: int) -> int:
    """T_G(x, y) for integer x, y; the product over components when G is
    disconnected."""
    rec = _Recursion(x, y, g.edge_count)
    result = 1
    for mask in _component_masks(g._adj, (1 << g.n) - 1):
        # A vertex's new label is the number of component vertices below it.
        low = [0] * mask.bit_count()
        for a, b in g._edges:
            if mask >> a & 1:
                low[(mask & (1 << b) - 1).bit_count()] |= 1 << (mask & (1 << a) - 1).bit_count()
        edges = sum(map(int.bit_count, low))
        if edges == len(low) - 1:
            # A tree: every edge is a bridge, so T = x^edges.
            result *= x**edges
        else:
            try:
                result *= rec.eval(tuple(low), None if y == 0 else (0,) * len(low))
            except RecursionError:
                # Each level removes a class or a vertex, so a long cycle
                # runs deeper than the interpreter allows.
                raise ResourceLimitError(
                    f"Tutte evaluation on {len(low)} vertices exceeds the recursion depth limit"
                ) from None
        if result == 0:
            break
    return result


def _joined_without(low: tuple[int, ...], v: int) -> bool:
    """Whether the last vertex u still reaches its neighbour v once the
    edges uv are removed (that is, whether uv is not a bridge)."""
    u = len(low) - 1
    full = list(low)
    for w in range(u):
        m = low[w]
        while m:
            bit = m & -m
            m ^= bit
            full[bit.bit_length() - 1] |= 1 << w
    target = 1 << v
    seen = 1 << u
    frontier = low[u] & ~target
    while frontier:
        seen |= frontier
        reach = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            reach |= full[bit.bit_length() - 1]
        if reach & target:
            return True
        frontier = reach & ~seen
    return False


class _Recursion:
    """One memoised recursion at a fixed (x, y), shared by the components
    of one call on a graph with `edges` edges."""

    __slots__ = ("x", "y", "memo", "width")

    def __init__(self, x: int, y: int, edges: int):
        self.x = x
        self.y = y
        self.memo: dict = {}
        # A slot holds a class size less one, at most edges - 1.
        self.width = max(edges, 1).bit_length()

    def eval(self, low: tuple[int, ...], rows: tuple[int, ...] | None) -> int:
        """T(x, y) of the connected multigraph with these lower-neighbour
        masks and multiplicity rows (None at y = 0, where every class
        counts as one edge)."""
        key = low if rows is None else (low, rows)
        memo = self.memo
        value = memo.get(key)
        if value is not None:
            return value
        u = len(low) - 1
        if not u:
            return 1
        nu = low[u]
        v = nu.bit_length() - 1
        # Every other neighbour of u lies below v, so the merge changes only
        # v's mask.  A common neighbour closes a triangle through uv.
        rest = nu ^ 1 << v
        common = rest & low[v]
        bridge = not rest or not common and not _joined_without(low, v)
        contracted_low = low[:v] + (low[v] | rest,) + low[v + 1:u]
        k = 1
        if rows is None:
            contracted = self.eval(contracted_low, None)
        else:
            width = self.width
            below_v = (1 << v * width) - 1
            row_u = rows[u]
            k = (row_u >> v * width) + 1
            # The class uw joins the class vw: the sizes less one add, plus
            # one more where w is a common neighbour.
            row_v = rows[v] + (row_u & below_v)
            while common:
                bit = common & -common
                common ^= bit
                row_v += 1 << (bit.bit_length() - 1) * width
            contracted = self.eval(contracted_low, rows[:v] + (row_v,) + rows[v + 1:u])
            rows = rows[:u] + (row_u & below_v,)
        # y + ... + y^(k-1): the loops the other edges of P become in G / P.
        loops = sum(self.y**i for i in range(1, k)) if k > 1 else 0
        if bridge:
            value = (self.x + loops) * contracted
        else:
            value = self.eval(low[:u] + (rest,), rows) + (1 + loops) * contracted
        if len(memo) >= DEFAULT_TUTTE_NODE_CAP:
            raise ResourceLimitError(
                f"Tutte evaluation exceeds the cap of {DEFAULT_TUTTE_NODE_CAP} recursion nodes"
            )
        memo[key] = value
        return value
