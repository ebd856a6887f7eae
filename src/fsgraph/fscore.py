"""Direct construction and exploration of friends-and-strangers graphs.

Vertices of FS(X, Y) are permutations; two are adjacent when they differ
by swapping the entries across one edge of X whose two entries are
adjacent in Y.  A search state is the permutation's one-line word as
plain bytes (values 1..n), so swapping the entries at two positions
exchanges two byte values: each ordered Y edge (a, b) owns a
``bytes.translate`` table exchanging a and b, and one lookup in the flat
table list both tests Y-adjacency and yields the swap, one C call per
friendly swap; a state becomes a Permutation without conversion.
Components are discovered by breadth-first search with a single visited
hash set for the whole sweep; nothing materializes the edge set.  A
sweep runs one BFS per symmetry orbit of components: the images of a
component under the generators of Aut(X) x Aut(Y) are marked seen by
mapping its states, one C-level ``map`` per image.  Seeding the searches
in lexicographic order makes a BFS start at its component's least
permutation, an image takes the least of its mapped states, and reports
list the representatives sorted, so every report is deterministic.

The start words come from ``perms.lex_words``, which keeps the n! words
for n <= 8 (about 2.4 MB at n = 8).  A kept word caches its hash on its
first lookup, so later sweeps test it against the visited set without
hashing; the table is built on a process's first sweep at that n, so it
pays only in a process that sweeps more than once at the same n <= 8.
At n = 9 and above the words are built afresh on every sweep.
"""

from __future__ import annotations

import math
from itertools import filterfalse, repeat
from operator import itemgetter
from typing import NamedTuple

from .config import DEFAULT_CONFIG, RunConfig
from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import Graph
from .iso import _automorphism_generators
from .perms import Permutation, lex_words


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


class ComponentReport(NamedTuple):
    component_count: int
    sizes: tuple[int, ...]                 # multiset, ascending
    # Lexicographically least, in order; None only from a sweep whose
    # component count exceeded its representative cap.
    representatives: tuple[Permutation, ...] | None
    explored_vertices: int


def _check_statespace(n: int, config: RunConfig) -> int:
    total = math.factorial(n)
    if total > config.state_cap:
        raise ResourceLimitError(
            f"the state count {n}! exceeds the configured cap of {config.state_cap}"
        )
    return total


def _swap_tables(inst: FSInstance) -> list[bytes | None]:
    """Entry a * (n + 1) + b, for labels a and b in 1..n, is the 256-byte
    table exchanging byte values a and b when a and b are adjacent in Y,
    else None."""
    swaps = inst._swaps
    if swaps is None:
        stride = inst.n + 1
        swaps = [None] * (stride * stride)
        for a, b in inst.y.edges:
            table = bytearray(range(256))
            table[a] = b
            table[b] = a
            swaps[a * stride + b] = swaps[b * stride + a] = bytes(table)
        inst._swaps = swaps
    return swaps


def _expand(inst: FSInstance, state: bytes) -> list[bytes]:
    swaps = _swap_tables(inst)
    stride = inst.n + 1
    out = []
    for i, j in inst._xedges:
        table = swaps[state[i] * stride + state[j]]
        if table is not None:
            out.append(state.translate(table))
    return out


def friendly_neighbors(inst: FSInstance, sigma: Permutation) -> list[Permutation]:
    """Neighbors of sigma in FS(X, Y), ordered by the X edge performing the swap."""
    if sigma.n != inst.n:
        raise InvalidArgumentError(
            f"permutation length {sigma.n} does not match n = {inst.n}"
        )
    return [Permutation._from_word(s) for s in _expand(inst, bytes(sigma))]


def _bfs_from(inst: FSInstance, start: bytes, seen: set[bytes], cap: int) -> list[bytes]:
    """The component of start in BFS order, adding its states to seen; start
    must not be in seen yet."""
    xedges = inst._xedges
    swaps = _swap_tables(inst)
    stride = inst.n + 1
    seen.add(start)
    comp = [start]
    for cur in comp:        # the list grows while it is walked: the BFS queue
        for i, j in xedges:
            table = swaps[cur[i] * stride + cur[j]]
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
    states = _bfs_from(inst, bytes(sigma), set(), config.state_cap)
    return frozenset(map(Permutation._from_word, states))


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
    generator beta relabels every entry, (None, its translate table on the
    labels 1..n)."""
    maps: list[tuple[object, bytes | None]] = [
        (itemgetter(*alpha), None) for alpha in _automorphism_generators(inst.x)
    ]
    for beta in _automorphism_generators(inst.y):
        table = b"\x00" + bytes(v + 1 for v in beta) + bytes(range(inst.n + 1, 256))
        maps.append((None, table))
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
    # The unseen words, tested in C as the loop asks for each next start.
    for start in filterfalse(seen.__contains__, lex_words(inst.n)):
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
                    image = list(map(bytes.translate, states, repeat(table)))
                else:
                    if bytes(getter(states[0])) in seen:
                        continue
                    image = list(map(bytes, map(getter, states)))
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
        representatives=tuple(map(Permutation._from_word, sorted(least))) if fits else None,
        explored_vertices=sum(sizes),
    )


def is_connected(inst: FSInstance, config: RunConfig = DEFAULT_CONFIG) -> bool:
    """Single BFS from the identity; connected iff it reaches all n! states."""
    total = _check_statespace(inst.n, config)
    start = bytes(range(1, inst.n + 1))
    return len(_bfs_from(inst, start, set(), config.state_cap)) == total


def component_count(inst: FSInstance, config: RunConfig = DEFAULT_CONFIG) -> int:
    """Number of components, counted over the sweep without building
    representatives or sizes."""
    return sum(1 for _ in iter_component_states(inst, config))


# -- DOT export ----------------------------------------------------------------

FS_DOT_MAX_N = 5


def fs_to_dot(inst: FSInstance, config: RunConfig = DEFAULT_CONFIG) -> str:
    """DOT rendering of the whole FS(X, Y); gated to tiny n."""
    if inst.n > FS_DOT_MAX_N:
        raise ResourceLimitError(f"DOT export limited to n <= {FS_DOT_MAX_N}")
    _check_statespace(inst.n, config)
    states = tuple(lex_words(inst.n))
    lines = ["graph FS {"]
    lines.extend(f'  "{Permutation._from_word(state)}";' for state in states)
    for state in states:
        me = Permutation._from_word(state)
        for nb in _expand(inst, state):
            if state < nb:
                lines.append(f'  "{me}" -- "{Permutation._from_word(nb)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
