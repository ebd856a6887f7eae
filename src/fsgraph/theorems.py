"""Exact structural results about the components of FS(X, Y).

Each operation here is a fast path whose answer is pinned down by a
structure theorem: the path case counts acyclic orientations of the
complement, the cycle case counts double-flip classes (equivalently,
flip classes times the gcd of the complement's component sizes), the
star case applies the classical puzzle classification for biconnected
partners, and a battery of certificates decides connectivity for broad
families.  Every route is cross-validated against the brute-force search
in :mod:`fsgraph.fscore` by the test suite; nothing here ever invents a
count the theorems do not force.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .config import (
    DEFAULT_CONFIG,
    DEFAULT_EXTENSION_VERTEX_CAP,
    DEFAULT_HEREDITARY_BASE,
    DEFAULT_HEREDITARY_NODE_BUDGET,
    RunConfig,
)
from .errors import InvalidArgumentError
from .fscore import (
    FSInstance,
    _count_margin_matrices,
    _deleted_component_sizes,
    is_connected,
)
from .graphs import (
    Graph,
    StructureReport,
    _component_masks,
    _drop_vertex,
    _hamiltonian_paths,
    _mask_to_vertices,
    has_hamiltonian_path,
    structure_report,
)
from .iso import (
    is_cycle_graph,
    is_dynkin_graph,
    is_lollipop_graph,
    is_path_graph,
    is_star_graph,
    is_theta0_graph,
    refined_form,
)
from .orientations import Orientation, _move_classes, _orders_by_orientation
from .perms import Permutation
from .tutte import tutte_eval

__all__ = [
    "ConnectivityVerdict",
    "PathStructure",
    "CycleStructure",
    "StarStructure",
    "CutPathCertificate",
    "HereditaryResult",
    "tutte_eval",
    "path_fs_structure",
    "cycle_fs_structure",
    "star_fs_structure",
    "cut_path_certificate",
    "decide_connectivity",
    "hereditary_sufficiency",
]


# -- path case -----------------------------------------------------------------


@dataclass(frozen=True)
class PathStructure:
    component_count: int
    # One entry per acyclic orientation of the complement: the orientation
    # together with the set of permutations forming that component.
    classes: tuple[tuple[Orientation, frozenset[Permutation]], ...] | None
    listing_error: str | None = None


def path_fs_structure(
    y: Graph, include_classes: bool = False, config: RunConfig = DEFAULT_CONFIG
) -> PathStructure:
    """Components of FS(Path_n, Y): one per acyclic orientation of the
    complement of Y, with vertex set the orientation's linear extensions."""
    comp = y.complement()
    count = tutte_eval(comp, 2, 0)
    if not include_classes:
        return PathStructure(count, None)
    error = _listing_error(y.n, config)
    if error is not None:
        return PathStructure(count, None, error)
    groups = _orders_by_orientation(comp)
    if len(groups) != count:
        raise AssertionError(
            f"orientation count {len(groups)} disagrees with T(2,0) = {count}"
        )
    # Popping frees each group's list as soon as its frozenset exists.
    classes = tuple(
        (Orientation(comp, bits), frozenset(groups.pop(bits))) for bits in sorted(groups)
    )
    return PathStructure(count, classes)


def _listing_error(n: int, config: RunConfig) -> str | None:
    if n > DEFAULT_EXTENSION_VERTEX_CAP:
        return f"listing capped at n <= {DEFAULT_EXTENSION_VERTEX_CAP}"
    if math.factorial(n) > config.listing_cap:
        return f"{n}! exceeds the listing cap of {config.listing_cap}"
    return None


# -- cycle case ----------------------------------------------------------------


@dataclass(frozen=True)
class CycleStructure:
    component_count: int
    nu: int
    toric_count: int
    # One entry per double-flip class of the complement's acyclic
    # orientations: the class members and their pooled linear extensions.
    classes: tuple[tuple[tuple[Orientation, ...], frozenset[Permutation]], ...] | None
    listing_error: str | None = None


def cycle_fs_structure(
    y: Graph, include_classes: bool = False, config: RunConfig = DEFAULT_CONFIG
) -> CycleStructure:
    """Components of FS(Cycle_n, Y): one per double-flip class of the
    complement's acyclic orientations; their number is the flip-class
    count T(1, 0) times the gcd of the complement's component sizes."""
    if y.n < 3:
        raise InvalidArgumentError(f"the cycle case needs n >= 3, got {y.n}")
    comp = y.complement()
    nu = math.gcd(*(m.bit_count() for m in _component_masks(comp._adj, (1 << comp.n) - 1)))
    toric_count = tutte_eval(comp, 1, 0)
    count = toric_count * nu
    if not include_classes:
        return CycleStructure(count, nu, toric_count, None)
    error = _listing_error(y.n, config)
    if error is not None:
        return CycleStructure(count, nu, toric_count, None, error)
    groups = _orders_by_orientation(comp)
    members = _move_classes(comp, 1, 1, False, sorted(groups))
    if len(members) != count:
        raise AssertionError(
            f"double-flip classes ({len(members)}) disagree with "
            f"T(1,0) * nu = {toric_count} * {nu}"
        )
    classes = tuple(
        (
            tuple(Orientation(comp, bits) for bits in cls),
            frozenset(itertools.chain.from_iterable(groups.pop(bits) for bits in cls)),
        )
        for cls in members
    )
    return CycleStructure(count, nu, toric_count, classes)


def _cycle_rule(y: Graph) -> tuple[bool, StructureReport]:
    """The cycle-case verdict for partner y, with the structure report of
    its complement that decides it."""
    report = structure_report(y.complement())
    return report.is_forest and report.gcd_of_component_sizes == 1, report


# -- star case -----------------------------------------------------------------


@dataclass(frozen=True)
class StarStructure:
    component_count: int
    sizes: tuple[int, ...] | None   # None when the classification fixes only the count


def star_fs_structure(y: Graph) -> StarStructure | None:
    """Components of FS(Star_n, Y) for biconnected Y; None when Y is not
    biconnected (callers fall back to brute force).

    Classification: a cycle partner splits into (n-2)! components of size
    n(n-1); the 7-vertex theta exception has exactly 6 components (the
    classification does not fix their sizes); otherwise 2 halves of size
    n!/2 when Y is bipartite and a single component when it is not.
    """
    if y.n < 3:
        raise InvalidArgumentError(f"the star case needs n >= 3, got {y.n}")
    return _star_structure(y, structure_report(y))


def _star_structure(y: Graph, report: StructureReport) -> StarStructure | None:
    """star_fs_structure(y), given y's structure report."""
    n = y.n
    if not report.is_biconnected:
        return None
    if is_cycle_graph(y):
        count = math.factorial(n - 2)
        return StarStructure(count, (n * (n - 1),) * count)
    if n == 7 and is_theta0_graph(y):
        return StarStructure(6, None)
    if report.is_bipartite:
        half = math.factorial(n) // 2
        return StarStructure(2, (half, half))
    return StarStructure(1, (math.factorial(n),))


# -- disconnection certificates --------------------------------------------------


@dataclass(frozen=True)
class CutPathCertificate:
    d: int
    path: tuple[int, ...] | None


def _vertex_components(x: Graph, removed: int) -> list[frozenset[int]]:
    mask = ((1 << x.n) - 1) & ~(1 << (removed - 1))
    return [frozenset(_mask_to_vertices(m)) for m in _component_masks(x._adj, mask)]


def _separating_path(x: Graph, path: tuple[int, ...]) -> bool:
    """Check the trapping conditions that make a candidate cut path usable:
    some start-side component R (off the path) exists at the first vertex,
    and deleting each later path vertex leaves R plus the traversed prefix
    as a union of whole components.  A plain chord or a detour around the
    path breaks this and the label-trapping argument with it."""
    d = len(path)
    if d == 1:
        return True
    first_parts = _vertex_components(x, path[0])
    candidates = [part for part in first_parts if path[1] not in part]
    for start_side in candidates:
        ok = True
        for i in range(2, d + 1):
            trapped = start_side | frozenset(path[: i - 1])
            for part in _vertex_components(x, path[i - 1]):
                overlap = len(part & trapped)
                if overlap and overlap != len(part):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def cut_path_certificate(x: Graph) -> CutPathCertificate:
    """Longest usable cut path: endpoints are cut vertices, interior
    vertices have degree exactly 2, and every prefix of the path separates
    the start side from the rest (d = 0 when X has no cut vertex).

    Interior vertices have a forced continuation, so walking from every
    cut vertex through every neighbor enumerates all candidates; each
    candidate is then vetted by the separation check above.
    """
    return _cut_path(x, structure_report(x))


def _cut_path(x: Graph, report: StructureReport) -> CutPathCertificate:
    """cut_path_certificate(x), given x's structure report."""
    cuts = sorted(report.cut_vertices)
    if not cuts:
        return CutPathCertificate(0, None)
    cut_set = set(cuts)
    best = (1, (cuts[0],))
    for s in cuts:
        for u in x.neighbors(s):
            path = [s, u]
            prev, cur = s, u
            while True:
                if (
                    cur in cut_set
                    and len(path) > best[0]
                    and _separating_path(x, tuple(path))
                ):
                    best = (len(path), tuple(path))
                if x.degree(cur) != 2:
                    break
                a, b = x.neighbors(cur)
                nxt = b if a == prev else a
                if nxt in path:
                    break
                path.append(nxt)
                prev, cur = cur, nxt
    return CutPathCertificate(best[0], best[1])


def bipartite_disconnection(
    x: Graph, y: Graph, rx: StructureReport, ry: StructureReport
) -> dict | None:
    """Both graphs bipartite on n >= 3 vertices forces a parity invariant
    that splits FS(X, Y)."""
    if x.n < 3:
        return None
    if rx.is_bipartite and ry.is_bipartite:
        return {
            "x_bipartition": [list(part) for part in rx.bipartition],
            "y_bipartition": [list(part) for part in ry.bipartition],
        }
    return None


def cut_path_disconnection(
    x: Graph, y: Graph, rx: StructureReport, ry: StructureReport
) -> dict | None:
    """A cut path of length d in X plus a vertex of degree <= d in Y pins
    that vertex's label, splitting FS(X, Y)."""
    cert = _cut_path(x, rx)
    if cert.d < 1:
        return None
    if ry.min_degree > cert.d:
        return None
    y0 = next(v for v in range(1, y.n + 1) if y.degree(v) == ry.min_degree)
    return {"d": cert.d, "path": list(cert.path), "low_degree_vertex": y0}


def cut_vertex_disconnection(
    x: Graph, y: Graph, rx: StructureReport, ry: StructureReport
) -> dict | None:
    """Cut vertices on both sides force at least the margin-matrix count of
    components (always >= 2): matrices whose row sums are the component
    sizes of X - x0 and whose column sums are those of Y - y0."""
    if x.n < 3:
        return None
    if not (rx.is_connected and ry.is_connected and rx.cut_vertices and ry.cut_vertices):
        return None
    x0 = min(rx.cut_vertices)
    y0 = min(ry.cut_vertices)
    bound = _count_margin_matrices(
        _deleted_component_sizes(x, x0), _deleted_component_sizes(y, y0), {}
    )
    return {"x_cut_vertex": x0, "y_cut_vertex": y0, "component_lower_bound": bound}


# -- connectivity decision -------------------------------------------------------


@dataclass(frozen=True)
class ConnectivityVerdict:
    status: str                    # "connected" | "disconnected" | "unknown"
    theorem: str | None = None
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        return {"status": self.status, "theorem": self.theorem, "witness": self.witness}


def _family_verdict(
    a: Graph, b: Graph, side: str, report: Callable[[Graph], StructureReport]
) -> ConnectivityVerdict | None:
    """Exact characterizations when the position graph `a` is a named family;
    ``report`` gives a graph's structure report."""
    n = a.n
    if is_path_graph(a):
        missing = b.complement().edge_count
        return ConnectivityVerdict(
            "connected" if missing == 0 else "disconnected",
            "path-needs-complete",
            {"side": side, "complement_edges": missing},
        )
    if n >= 3 and is_cycle_graph(a):
        ok, report = _cycle_rule(b)
        return ConnectivityVerdict(
            "connected" if ok else "disconnected",
            "cycle-complement-forest",
            {
                "side": side,
                "complement_is_forest": report.is_forest,
                "component_size_gcd": report.gcd_of_component_sizes,
            },
        )
    if n >= 3 and is_star_graph(a):
        structure = _star_structure(b, report(b))
        if structure is not None:
            return ConnectivityVerdict(
                "connected" if structure.component_count == 1 else "disconnected",
                "star-biconnected",
                {"side": side, "component_count": structure.component_count},
            )
        return None
    if n >= 4 and is_lollipop_graph(a):
        min_deg = min(b.degrees())
        return ConnectivityVerdict(
            "connected" if min_deg >= n - 2 else "disconnected",
            "lollipop-min-degree",
            {"side": side, "min_degree": min_deg, "threshold": n - 2},
        )
    # The n = 4 spindle is the star on 4 vertices and is handled above; the
    # min-degree characterization for this family is applied from n = 5 up.
    if n >= 5 and is_dynkin_graph(a):
        min_deg = min(b.degrees())
        return ConnectivityVerdict(
            "connected" if min_deg >= n - 2 else "disconnected",
            "dynkin-min-degree",
            {"side": side, "min_degree": min_deg, "threshold": n - 2},
        )
    return None


def decide_connectivity(
    x: Graph, y: Graph, config: RunConfig = DEFAULT_CONFIG
) -> ConnectivityVerdict:
    """Decide connectivity of FS(X, Y) without brute force where a theorem
    applies; returns status "unknown" when no certificate fires.

    Certificate order is fixed: tiny cases, exact families on either side,
    disconnection certificates (disconnected factor, double bipartite, cut
    path + low degree, cut vertices on both sides), then the hereditary
    sufficiency recursion on each side whose X has a Hamiltonian path.
    A side is skipped unless its partner has minimum degree at least
    n - DEFAULT_HEREDITARY_BASE + 1, without which the recursion cannot
    succeed (see :func:`_hereditary_can_prove`).  Each graph's structure
    report is built at most once.
    """
    if x.n != y.n:
        raise InvalidArgumentError("X and Y must have the same number of vertices")
    n = x.n
    if n == 1:
        return ConnectivityVerdict("connected", "tiny", {"n": 1})
    if n == 2:
        ok = x.edge_count == 1 and y.edge_count == 1
        return ConnectivityVerdict(
            "connected" if ok else "disconnected", "tiny", {"n": 2}
        )

    report = lru_cache(maxsize=None)(structure_report)
    for a, b, side in ((x, y, "x"), (y, x, "y")):
        verdict = _family_verdict(a, b, side, report)
        if verdict is not None:
            return verdict

    rx = report(x)
    ry = report(y)
    if not rx.is_connected or not ry.is_connected:
        return ConnectivityVerdict(
            "disconnected",
            "disconnected-factor",
            {"x_connected": rx.is_connected, "y_connected": ry.is_connected},
        )
    witness = bipartite_disconnection(x, y, rx, ry)
    if witness is not None:
        return ConnectivityVerdict("disconnected", "bipartite-parity", witness)
    witness = cut_path_disconnection(x, y, rx, ry)
    if witness is not None:
        witness = dict(witness, side="x")
        return ConnectivityVerdict("disconnected", "cut-path-degree", witness)
    witness = cut_path_disconnection(y, x, ry, rx)
    if witness is not None:
        witness = dict(witness, side="y")
        return ConnectivityVerdict("disconnected", "cut-path-degree", witness)
    witness = cut_vertex_disconnection(x, y, rx, ry)
    if witness is not None:
        return ConnectivityVerdict("disconnected", "cut-vertex-margins", witness)

    for a, b, side in ((x, y, "x"), (y, x, "y")):
        if not _hereditary_can_prove(b) or has_hamiltonian_path(a) is None:
            continue
        result = hereditary_sufficiency(a, b, config=config)
        if result.proven_connected:
            return ConnectivityVerdict(
                "connected",
                "hereditary-extension",
                {"side": side, "trace": list(result.trace)},
            )

    return ConnectivityVerdict("unknown")


def _hereditary_can_prove(y: Graph) -> bool:
    """Necessary condition for hereditary_sufficiency(x, y) to prove FS(X, Y)
    connected with the default base: min degree of y >= n - base + 1.

    Write base = DEFAULT_HEREDITARY_BASE (at least 2) and m for the size of
    a pair (xa, ya) inside the recursion.

    - When m > base, ``prove(xa, ya)`` returns True only if ``ya`` is
      connected and every one-vertex deletion of ``ya`` is proven at size
      m - 1.
    - At a base size m >= 2, a connected FS(X', Y') forces Y' to be
      connected.
    - Memo hits reuse results for pairs with equal refined forms.  Those
      pairs are isomorphic, so the property carries over.
    - By induction, Y - S is connected for every S with |S| <= n - base.
    - Deleting the neighbours of a vertex of degree <= n - base leaves that
      vertex isolated among >= base vertices.  So min degree
      >= n - base + 1 is necessary.
    """
    return min(y.degrees()) > y.n - DEFAULT_HEREDITARY_BASE


# -- hereditary recursion ---------------------------------------------------------


@dataclass(frozen=True)
class HereditaryResult:
    proven_connected: bool
    trace: tuple[str, ...]


class _OutOfNodes(Exception):
    """The hereditary recursion used up its node budget."""


def hereditary_sufficiency(
    x: Graph,
    y: Graph,
    base_size: int = DEFAULT_HEREDITARY_BASE,
    config: RunConfig = DEFAULT_CONFIG,
    max_labelings: int = 24,
) -> HereditaryResult:
    """Prove FS(X, Y) connected by peeling Hamiltonian-path endpoints.

    A relabeling of X along one of its Hamiltonian paths certifies
    connectivity provided Y is connected and deleting any single vertex of
    Y leaves an instance that recurses successfully on (X minus the path's
    last vertex); at ``base_size`` vertices the recursion bottoms out in a
    brute-force search.  Failure to certify proves nothing.

    The recursion runs on 0-indexed adjacency-mask tuples, not on
    :class:`Graph` objects.  Three caches local to one call derive each
    graph's refined form, each Y's one-vertex deletions and each X's
    deduplicated path minors (X relabeled along one of its first
    ``max_labelings`` Hamiltonian paths, minus the last vertex) once.

    At most DEFAULT_HEREDITARY_NODE_BUDGET pairs are expanded (a base case,
    a disconnected partner or a memo hit is not an expansion).  When the
    budget runs out the result is "not proven", and the trace ends by
    saying so.
    """
    if x.n != y.n:
        raise InvalidArgumentError("X and Y must have the same number of vertices")
    if base_size < 1:
        raise InvalidArgumentError(f"base_size must be positive, got {base_size}")
    if has_hamiltonian_path(x) is None:
        raise InvalidArgumentError("the recursion needs X to have a Hamiltonian path")
    # Sound: FS(X, Y) connectivity depends only on the classes of X and Y.
    memo: dict = {}
    trace: list[str] = []
    expansions = 0

    @lru_cache(maxsize=None)
    def form(adj: tuple[int, ...]):
        return refined_form(Graph._from_masks(adj))

    @lru_cache(maxsize=None)
    def deletions(adj: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return tuple(_drop_vertex(adj, v) for v in range(len(adj)))

    @lru_cache(maxsize=None)
    def candidates(adj: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(labeling number, path minor) per path, the first of each form."""
        tried: set = set()
        found = []
        for labelings, path in zip(range(1, max_labelings + 1), _hamiltonian_paths(adj)):
            sub = _path_minor(adj, path)
            sub_form = form(sub)
            if sub_form not in tried:
                tried.add(sub_form)
                found.append((labelings, sub))
        return tuple(found)

    def prove(xa: tuple[int, ...], ya: tuple[int, ...]) -> bool:
        nonlocal expansions
        n = len(xa)
        if n <= base_size:
            key = (form(xa), form(ya))
            ok = memo.get(key)
            if ok is None:
                inst = FSInstance(Graph._from_masks(xa), Graph._from_masks(ya))
                ok = memo[key] = is_connected(inst, config)
            if len(trace) < 200:
                trace.append(f"base n={n}: brute force says {'connected' if ok else 'disconnected'}")
            return ok
        if len(_component_masks(ya, (1 << n) - 1)) != 1:
            if len(trace) < 200:
                trace.append(f"n={n}: partner graph disconnected, branch fails")
            return False
        key = (form(xa), form(ya))
        if key in memo:
            return memo[key]
        if expansions == DEFAULT_HEREDITARY_NODE_BUDGET:
            raise _OutOfNodes
        expansions += 1
        memo[key] = False
        ok = False
        for labelings, sub in candidates(xa):
            if all(prove(sub, yd) for yd in deletions(ya)):
                ok = True
                if len(trace) < 200:
                    trace.append(f"n={n}: certified via Hamiltonian relabeling #{labelings}")
                break
        if not ok and len(trace) < 200:
            trace.append(f"n={n}: no Hamiltonian relabeling certified the instance")
        memo[key] = ok
        return ok

    try:
        proven = prove(x._adj, y._adj)
    except _OutOfNodes:
        proven = False
        trace.append(
            f"node budget of {DEFAULT_HEREDITARY_NODE_BUDGET} expansions ran out: not proven"
        )
    return HereditaryResult(proven, tuple(trace))


def _path_minor(adj: tuple[int, ...], path: tuple[int, ...]) -> tuple[int, ...]:
    """Masks of the graph relabeled so that path[i] becomes vertex i, minus
    the path's last vertex."""
    position = [0] * len(path)
    for i, v in enumerate(path):
        position[v] = i
    keep = ~(1 << path[-1])
    rows = []
    for v in path[:-1]:
        nbrs = adj[v] & keep
        row = 0
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            row |= 1 << position[low.bit_length() - 1]
        rows.append(row)
    return tuple(rows)
