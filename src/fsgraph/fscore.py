"""Direct construction and exploration of friends-and-strangers graphs.

Vertices of FS(X, Y) are permutations; two are adjacent when they differ
by swapping the entries across one edge of X whose two entries are
adjacent in Y.  A state is the permutation word packed into bytes, so
swapping the entries at two positions exchanges two byte values: each
ordered Y edge (a, b) owns a ``bytes.translate`` table exchanging a and
b, and one lookup in the flat table list both tests Y-adjacency and
yields the swap, one C call per friendly swap.  Components are
discovered by breadth-first search with a single visited hash set for
the whole sweep; nothing materializes the edge set.  A sweep runs one
BFS per symmetry orbit of components: the images of a component under
the generators of Aut(X) x Aut(Y) are marked seen by mapping its
states.  Seeding the searches in lexicographic order makes a BFS start
at its component's least permutation, an image takes the least of its
mapped states, and reports list the representatives sorted, so every
report is deterministic.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .config import DEFAULT_CONFIG, RunConfig
from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import Graph, _component_masks, induced_subgraph, structure_report
from .iso import _automorphism_generators
from .perms import Permutation


class FSInstance:
    """The pair (X, Y) defining FS(X, Y); X supplies positions, Y labels."""

    __slots__ = ("x", "y", "n", "_xedges", "_swaps")

    def __init__(self, x: Graph, y: Graph):
        if x.n != y.n:
            raise InvalidArgumentError(
                f"X has {x.n} vertices but Y has {y.n}; they must agree"
            )
        self.x = x
        self.y = y
        self.n = x.n
        self._xedges = x._edges          # 0-indexed position pairs
        self._swaps = None               # swap tables, built on first search

    def __repr__(self) -> str:
        return f"FSInstance(x={self.x!r}, y={self.y!r})"


@dataclass(frozen=True)
class ComponentReport:
    component_count: int
    sizes: tuple[int, ...]                 # multiset, ascending
    # Lexicographically least, in order; None only from a sweep whose
    # component count exceeded its representative cap.
    representatives: tuple[Permutation, ...] | None
    explored_vertices: int

    def to_json_dict(self, n: int, config: RunConfig = DEFAULT_CONFIG) -> dict:
        """The report as JSON.  When the representatives were withheld, the
        sizes come as ascending [size, multiplicity] pairs, with the
        listing cap of `config` named in the error."""
        data: dict = {"n": n, "component_count": self.component_count}
        if self.representatives is not None:
            data["sizes"] = list(self.sizes)
            data["representatives"] = [str(p) for p in self.representatives]
            return data
        data["sizes"] = None
        data["size_counts"] = sorted(map(list, Counter(self.sizes).items()))
        data["representatives"] = None
        data["representatives_error"] = (
            f"{self.component_count} components exceed the listing cap of {config.listing_cap}"
        )
        return data


def _state_of(sigma: Permutation) -> bytes:
    return bytes(v - 1 for v in sigma.word)


def _perm_of(state: bytes) -> Permutation:
    return Permutation._from_word(bytes(v + 1 for v in state))


def _check_statespace(n: int, config: RunConfig) -> int:
    total = math.factorial(n)
    if total > config.state_cap:
        raise ResourceLimitError(
            f"{n}! = {total} states exceeds the configured cap of {config.state_cap}"
        )
    return total


def _swap_tables(inst: FSInstance) -> list[bytes | None]:
    """Entry a * n + b is the 256-byte table exchanging byte values a and b
    when a and b are adjacent in Y, else None."""
    swaps = inst._swaps
    if swaps is None:
        n = inst.n
        swaps = [None] * (n * n)
        for a, b in inst.y._edges:
            table = bytearray(range(256))
            table[a] = b
            table[b] = a
            swaps[a * n + b] = swaps[b * n + a] = bytes(table)
        inst._swaps = swaps
    return swaps


def _expand(inst: FSInstance, state: bytes) -> list[bytes]:
    swaps = _swap_tables(inst)
    n = inst.n
    out = []
    for i, j in inst._xedges:
        table = swaps[state[i] * n + state[j]]
        if table is not None:
            out.append(state.translate(table))
    return out


def friendly_neighbors(inst: FSInstance, sigma: Permutation) -> list[Permutation]:
    """Neighbors of sigma in FS(X, Y), ordered by the X edge performing the swap."""
    if sigma.n != inst.n:
        raise InvalidArgumentError(
            f"permutation length {sigma.n} does not match n = {inst.n}"
        )
    return [_perm_of(s) for s in _expand(inst, _state_of(sigma))]


def _bfs_from(inst: FSInstance, start: bytes, seen: set[bytes], cap: int) -> list[bytes]:
    """The component of start in BFS order, adding its states to seen; start
    must not be in seen yet."""
    xedges = inst._xedges
    swaps = _swap_tables(inst)
    n = inst.n
    seen.add(start)
    comp = [start]
    for cur in comp:        # the list grows while it is walked: the BFS queue
        for i, j in xedges:
            table = swaps[cur[i] * n + cur[j]]
            if table is not None:
                s = cur.translate(table)
                if s not in seen:
                    if len(comp) >= cap:
                        raise ResourceLimitError(
                            f"component search exceeded the cap of {cap} states"
                        )
                    seen.add(s)
                    comp.append(s)
    return comp


def component_of(
    inst: FSInstance, sigma: Permutation, config: RunConfig = DEFAULT_CONFIG
) -> frozenset[Permutation]:
    """Everything reachable from sigma by friendly swaps."""
    if sigma.n != inst.n:
        raise InvalidArgumentError(
            f"permutation length {sigma.n} does not match n = {inst.n}"
        )
    states = _bfs_from(inst, _state_of(sigma), set(), config.state_cap)
    return frozenset(_perm_of(s) for s in states)


# What probing one image of a component costs, in BFS swap tests (timed on
# n = 9 sweeps whose components are all single states).  An orbit is closed
# only when one BFS of its component, |C| * |E(X)| swap tests, costs more
# than probing an image under every generator; otherwise each component is
# searched, as cheaply as its images would be probed.
_POSITION_PROBE_COST = 4
_LABEL_PROBE_COST = 2


def _state_maps(inst: FSInstance) -> list[tuple[object, bytes | None]]:
    """Automorphisms of FS(X, Y) acting on states, one per generator of
    Aut(X) and of Aut(Y): a position generator alpha moves the entry at
    position alpha(i) to position i, (itemgetter(*alpha), None); a label
    generator beta relabels every entry, (None, its translate table)."""
    maps: list[tuple[object, bytes | None]] = [
        (itemgetter(*alpha), None) for alpha in _automorphism_generators(inst.x)
    ]
    for beta in _automorphism_generators(inst.y):
        maps.append((None, bytes(beta) + bytes(range(inst.n, 256))))
    return maps


def iter_component_states(inst: FSInstance, config: RunConfig = DEFAULT_CONFIG):
    """Yield (least state, size) per component, in discovery order,
    covering all n! permutations.

    A component is found by BFS from the least word not yet seen.  For
    alpha in Aut(X) and beta in Aut(Y), sigma -> beta . sigma . alpha is
    an automorphism of FS(X, Y), so the component's images under the
    generators of both groups are components of the same size.  Each new
    image is marked seen and yielded in turn, and its own images are
    taken, until the orbit is closed; an image whose first state is
    already seen is a known component.  The sweep stops as soon as the
    components found cover all n! states, so no later start is examined.
    """
    total = _check_statespace(inst.n, config)
    seen: set[bytes] = set()
    cap = config.state_cap
    maps = None
    for word in itertools.permutations(range(inst.n)):
        start = bytes(word)
        if start in seen:
            continue
        comp = _bfs_from(inst, start, seen, cap)
        yield start, len(comp)
        if len(seen) == total:
            return
        if maps is None:
            maps = _state_maps(inst)
            probes = sum(
                _POSITION_PROBE_COST if table is None else _LABEL_PROBE_COST for _, table in maps
            )
            edges = len(inst._xedges)
        if len(comp) * edges <= probes:
            continue
        orbit = [comp]
        while orbit:
            states = orbit.pop()
            for getter, table in maps:
                if getter is None:
                    if states[0].translate(table) in seen:
                        continue
                    image = [s.translate(table) for s in states]
                else:
                    if bytes(getter(states[0])) in seen:
                        continue
                    image = [bytes(w) for w in map(getter, states)]
                seen.update(image)
                yield min(image), len(image)
                if len(seen) == total:
                    return
                orbit.append(image)


def components(inst: FSInstance, config: RunConfig = DEFAULT_CONFIG) -> ComponentReport:
    """Exhaustive component sweep of all n! vertices."""
    return _component_sweep(inst, config, math.inf)


def _component_sweep(inst: FSInstance, config: RunConfig, rep_cap: float) -> ComponentReport:
    """components(inst, config), with representatives None when there are
    more than rep_cap components: least states are kept only while they
    fit the cap, and no Permutation is built past it."""
    sizes = []
    least = []
    for start, size in iter_component_states(inst, config):
        sizes.append(size)
        if len(least) < rep_cap:
            least.append(start)
    fits = len(sizes) <= rep_cap
    return ComponentReport(
        component_count=len(sizes),
        sizes=tuple(sorted(sizes)),
        representatives=tuple(map(_perm_of, sorted(least))) if fits else None,
        explored_vertices=sum(sizes),
    )


def is_connected(inst: FSInstance, config: RunConfig = DEFAULT_CONFIG) -> bool:
    """Single BFS from the identity; connected iff it reaches all n! states."""
    total = _check_statespace(inst.n, config)
    start = bytes(range(inst.n))
    return len(_bfs_from(inst, start, set(), config.state_cap)) == total


def component_count(inst: FSInstance, config: RunConfig = DEFAULT_CONFIG) -> int:
    """Number of components, counted over the sweep without building
    representatives or sizes."""
    return sum(1 for _ in iter_component_states(inst, config))


def inverse_isomorphism_check(inst: FSInstance, config: RunConfig = DEFAULT_CONFIG) -> bool:
    """Verify that inversion maps the edges of FS(X, Y) bijectively onto the
    edges of FS(Y, X)."""
    _check_statespace(inst.n, config)
    flipped = FSInstance(inst.y, inst.x)
    forward_half_edges = 0
    backward_half_edges = 0
    for word in itertools.permutations(range(inst.n)):
        state = bytes(word)
        image = _state_of(_perm_of(state).inverse())
        neighbors = _expand(inst, state)
        image_neighbors = set(_expand(flipped, image))
        forward_half_edges += len(neighbors)
        backward_half_edges += len(image_neighbors)
        for nb in neighbors:
            if _state_of(_perm_of(nb).inverse()) not in image_neighbors:
                return False
    return forward_half_edges == backward_half_edges


# -- cut-vertex incidence matrices --------------------------------------------


def _count_margin_matrices(rows: tuple[int, ...], cols: tuple[int, ...], memo: dict) -> int:
    if not rows:
        return 1 if all(c == 0 for c in cols) else 0
    key = (rows, tuple(sorted(cols)))
    if key in memo:
        return memo[key]
    target = rows[0]
    rest = rows[1:]
    total = 0

    def distribute(idx: int, remaining: int, current: tuple[int, ...]):
        nonlocal total
        if idx == len(cols) - 1:
            if remaining <= cols[idx]:
                reduced = tuple(
                    c - (current + (remaining,))[t] for t, c in enumerate(cols)
                )
                total += _count_margin_matrices(rest, reduced, memo)
            return
        for take in range(min(remaining, cols[idx]) + 1):
            distribute(idx + 1, remaining - take, current + (take,))

    distribute(0, target, ())
    memo[key] = total
    return total


def incidence_matrix_count(x: Graph, y: Graph, x0: int, y0: int) -> int:
    """Number of nonnegative integer matrices whose row sums are the
    component sizes of X - x0 and whose column sums are those of Y - y0.
    This counts the reachability classes frozen by the two cut vertices, a
    lower bound on the number of components of FS(X, Y)."""
    if x.n != y.n:
        raise InvalidArgumentError("X and Y must have the same number of vertices")
    rx = structure_report(x)
    ry = structure_report(y)
    if x0 not in rx.cut_vertices:
        raise InvalidArgumentError(f"vertex {x0} is not a cut vertex of X")
    if y0 not in ry.cut_vertices:
        raise InvalidArgumentError(f"vertex {y0} is not a cut vertex of Y")
    row_sums = _deleted_component_sizes(x, x0)
    col_sums = _deleted_component_sizes(y, y0)
    return _count_margin_matrices(tuple(row_sums), tuple(col_sums), {})


def _deleted_component_sizes(g: Graph, v: int) -> tuple[int, ...]:
    """Component sizes of g minus vertex v, in order of least vertex."""
    rest = ((1 << g.n) - 1) & ~(1 << (v - 1))
    return tuple(m.bit_count() for m in _component_masks(g._adj, rest))


# -- component-count identity for disconnected X ------------------------------


def _ordered_set_partitions(universe: tuple[int, ...], sizes: tuple[int, ...]):
    if not sizes:
        yield ()
        return
    first, rest = sizes[0], sizes[1:]
    for chosen in itertools.combinations(universe, first):
        chosen_set = set(chosen)
        remaining = tuple(v for v in universe if v not in chosen_set)
        for tail in _ordered_set_partitions(remaining, rest):
            yield (chosen,) + tail


def decomposition_check(x: Graph, y: Graph, config: RunConfig = DEFAULT_CONFIG) -> bool:
    """Check the component-count identity that splits FS(X, Y) along the
    components of a disconnected X: the total equals the sum, over ordered
    set partitions of V(Y) with matching sizes, of the product of the
    factor component counts."""
    if x.n != y.n:
        raise InvalidArgumentError("X and Y must have the same number of vertices")
    rx = structure_report(x)
    if rx.is_connected:
        raise InvalidArgumentError("decomposition check needs a disconnected X")
    direct = component_count(FSInstance(x, y), config)

    factors = []
    for comp in rx.components:
        sub, _ = induced_subgraph(x, comp)
        factors.append(sub)
    sizes = tuple(g.n for g in factors)

    cache: dict[tuple, int] = {}

    def factor_count(xi: Graph, members: tuple[int, ...]) -> int:
        sub_y, _ = induced_subgraph(y, members)
        key = (xi.edges, xi.n, sub_y._adj)
        if key not in cache:
            cache[key] = component_count(FSInstance(xi, sub_y), config)
        return cache[key]

    total = 0
    universe = tuple(range(1, y.n + 1))
    for parts in _ordered_set_partitions(universe, sizes):
        product = 1
        for xi, members in zip(factors, parts):
            product *= factor_count(xi, members)
            if product == 0:
                break
        total += product
    return total == direct


# -- DOT export ----------------------------------------------------------------

FS_DOT_MAX_N = 5


def fs_to_dot(inst: FSInstance, config: RunConfig = DEFAULT_CONFIG) -> str:
    """DOT rendering of the whole FS(X, Y); gated to tiny n."""
    if inst.n > FS_DOT_MAX_N:
        raise ResourceLimitError(f"DOT export limited to n <= {FS_DOT_MAX_N}")
    _check_statespace(inst.n, config)
    lines = ["graph FS {"]
    for word in itertools.permutations(range(inst.n)):
        state = bytes(word)
        lines.append(f'  "{_perm_of(state)}";')
    for word in itertools.permutations(range(inst.n)):
        state = bytes(word)
        me = _perm_of(state)
        for nb in _expand(inst, state):
            if state < nb:
                lines.append(f'  "{me}" -- "{_perm_of(nb)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
