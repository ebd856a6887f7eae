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
from .graphs import Graph, _component_masks
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


# Maps each byte value v to v + 1: a state's word as a permutation's.
_PLUS_ONE = bytes(range(1, 256)) + b"\x00"


def _perm_of(state: bytes) -> Permutation:
    return Permutation._from_word(state.translate(_PLUS_ONE))


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


# -- cut-vertex incidence matrices --------------------------------------------


def _count_margin_matrices(rows: tuple[int, ...], cols: tuple[int, ...], memo: dict) -> int:
    """Number of nonnegative integer matrices with row sums `rows` and
    column sums `cols`.  With the component sizes of X - x0 and Y - y0 as
    margins (x0, y0 cut vertices), this counts the reachability classes
    the two cut vertices freeze, a lower bound on the components of
    FS(X, Y)."""
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


def _deleted_component_sizes(g: Graph, v: int) -> tuple[int, ...]:
    """Component sizes of g minus vertex v, in order of least vertex."""
    rest = ((1 << g.n) - 1) & ~(1 << (v - 1))
    return tuple(m.bit_count() for m in _component_masks(g._adj, rest))


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
