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
from functools import lru_cache
from typing import NamedTuple

from .config import (
    DEFAULT_CONFIG,
    DEFAULT_EXTENSION_VERTEX_CAP,
    DEFAULT_FIBER_BASE,
    DEFAULT_LISTING_CAP,
    RunConfig,
)
from .errors import InvalidArgumentError
from .fscore import FSInstance, is_connected
from .graphs import Graph, _component_masks, _drop_vertex, structure_report
from .iso import (
    is_cycle_graph,
    is_dynkin_graph,
    is_lollipop_graph,
    is_path_graph,
    is_star_graph,
    is_theta0_graph,
    refined_form,
)
from .orientations import Orientation, _gc_paused, _move_classes, _orders_by_orientation
from .perms import Permutation
from .tutte import tutte_eval

# -- path case -----------------------------------------------------------------


class PathStructure(NamedTuple):
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
    with _gc_paused():
        groups = _orders_by_orientation(comp)
        if len(groups) != count:
            raise AssertionError(
                f"orientation count {len(groups)} disagrees with T(2,0) = {count}"
            )
        # Popping frees each group's list as soon as its frozenset exists.
        keys = sorted(groups)
        classes = tuple(
            zip(
                map(Orientation._from_bits, itertools.repeat(comp), keys),
                map(frozenset, map(groups.pop, keys)),
            )
        )
    return PathStructure(count, classes)


def _listing_error(n: int, config: RunConfig) -> str | None:
    if n > DEFAULT_EXTENSION_VERTEX_CAP:
        return f"listing capped at n <= {DEFAULT_EXTENSION_VERTEX_CAP}"
    if math.factorial(n) > config.listing_cap:
        return f"{n}! exceeds the listing cap of {config.listing_cap}"
    return None


# -- cycle case ----------------------------------------------------------------


class CycleStructure(NamedTuple):
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
    nu = structure_report(comp).gcd_of_component_sizes
    toric_count = tutte_eval(comp, 1, 0)
    count = toric_count * nu
    if not include_classes:
        return CycleStructure(count, nu, toric_count, None)
    error = _listing_error(y.n, config)
    if error is not None:
        return CycleStructure(count, nu, toric_count, None, error)
    with _gc_paused():
        groups = _orders_by_orientation(comp)
        members = _move_classes(comp, 1, 1, False, sorted(groups))
        if len(members) != count:
            raise AssertionError(
                f"double-flip classes ({len(members)}) disagree with "
                f"T(1,0) * nu = {toric_count} * {nu}"
            )
        orient = Orientation._from_bits
        classes = tuple(
            # Most classes of a dense complement hold one orientation; they
            # skip the per-class iterators.
            ((orient(comp, cls[0]),), frozenset(groups.pop(cls[0])))
            if len(cls) == 1
            else (
                tuple(map(orient, itertools.repeat(comp), cls)),
                frozenset(itertools.chain.from_iterable(map(groups.pop, cls))),
            )
            for cls in members
        )
    return CycleStructure(count, nu, toric_count, classes)


# -- star case -----------------------------------------------------------------


class StarStructure(NamedTuple):
    component_count: int
    # None when the classification fixes only the count, or when there are
    # more than DEFAULT_LISTING_CAP components (a cycle partner on n >= 10).
    sizes: tuple[int, ...] | None


def star_fs_structure(y: Graph) -> StarStructure | None:
    """Components of FS(Star_n, Y) for biconnected Y; None when Y is not
    biconnected (callers fall back to brute force).

    Classification: a cycle partner splits into (n-2)! components of size
    n(n-1); the 7-vertex theta exception has exactly 6 components (the
    classification does not fix their sizes); otherwise 2 halves of size
    n!/2 when Y is bipartite and a single component when it is not.  The
    sizes are withheld past DEFAULT_LISTING_CAP components.
    """
    n = y.n
    if n < 3:
        raise InvalidArgumentError(f"the star case needs n >= 3, got {n}")
    report = structure_report(y)
    if not report.is_biconnected:
        return None
    if is_cycle_graph(y):
        count = math.factorial(n - 2)
        sizes = (n * (n - 1),) * count if count <= DEFAULT_LISTING_CAP else None
        return StarStructure(count, sizes)
    if n == 7 and is_theta0_graph(y):
        return StarStructure(6, None)
    if report.is_bipartite:
        half = math.factorial(n) // 2
        return StarStructure(2, (half, half))
    return StarStructure(1, (math.factorial(n),))


def family_component_count(family: str, y: Graph) -> int | None:
    """Components of FS(F, Y) for F the path, cycle or star on Y's
    vertices, by the theorem of that family; None where the theorem says
    nothing (the cycle and the star on n < 3, a star partner that is not
    biconnected)."""
    if family == "path":
        return path_fs_structure(y).component_count
    if family not in ("cycle", "star"):
        raise InvalidArgumentError(f"no component theorem for family {family!r}")
    if y.n < 3:
        return None
    if family == "cycle":
        return cycle_fs_structure(y).component_count
    structure = star_fs_structure(y)
    return None if structure is None else structure.component_count


# -- disconnection certificates --------------------------------------------------


class CutPathCertificate(NamedTuple):
    d: int
    path: tuple[int, ...] | None


def _components_without(g: Graph, v: int) -> list[int]:
    """Vertex masks of the components of g - v, in order of least vertex."""
    return _component_masks(g._adj, ((1 << g.n) - 1) & ~(1 << (v - 1)))


def _separating_path(x: Graph, path: tuple[int, ...]) -> bool:
    """Check the trapping conditions that make a candidate cut path usable:
    some start-side component R (off the path) exists at the first vertex,
    and deleting each later path vertex leaves R plus the traversed prefix
    as a union of whole components.  A plain chord or a detour around the
    path breaks this and the label-trapping argument with it."""
    if len(path) == 1:
        return True
    for start_side in _components_without(x, path[0]):
        if start_side >> (path[1] - 1) & 1:
            continue
        trapped = start_side
        for prev, v in zip(path, path[1:]):
            trapped |= 1 << (prev - 1)
            if any(part & trapped not in (0, part) for part in _components_without(x, v)):
                break
        else:
            return True
    return False


def cut_path_certificate(x: Graph) -> CutPathCertificate:
    """Longest usable cut path: endpoints are cut vertices, interior
    vertices have degree exactly 2, and every prefix of the path separates
    the start side from the rest (d = 0 when X has no cut vertex).

    Interior vertices have a forced continuation, so walking from every
    cut vertex through every neighbor enumerates all candidates; each
    candidate is then vetted by the separation check above.  The walk
    reads the adjacency masks: the cut set, each start's neighbours (in
    ascending order) and the path so far are masks, and a degree-2
    vertex's continuation is its neighbourhood minus the vertex before it.
    """
    cuts = sorted(structure_report(x).cut_vertices)
    if not cuts:
        return CutPathCertificate(0, None)
    adj = x._adj
    cut_mask = sum(1 << (v - 1) for v in cuts)
    best = (1, (cuts[0],))
    for s in cuts:
        s_bit = 1 << (s - 1)
        nbrs = adj[s - 1]
        while nbrs:
            cur_bit = nbrs & -nbrs
            nbrs ^= cur_bit
            path = [s, cur_bit.bit_length()]
            walked = s_bit | cur_bit
            prev_bit = s_bit
            while True:
                if (
                    cur_bit & cut_mask
                    and len(path) > best[0]
                    and _separating_path(x, tuple(path))
                ):
                    best = (len(path), tuple(path))
                ahead = adj[path[-1] - 1]
                if ahead.bit_count() != 2:
                    break
                ahead ^= prev_bit
                if ahead & walked:
                    break
                path.append(ahead.bit_length())
                walked |= ahead
                prev_bit, cur_bit = cur_bit, ahead
    return CutPathCertificate(best[0], best[1])


def bipartite_disconnection(x: Graph, y: Graph) -> dict | None:
    """Both graphs bipartite on n >= 3 vertices forces a parity invariant
    that splits FS(X, Y)."""
    if x.n < 3:
        return None
    rx, ry = structure_report(x), structure_report(y)
    if rx.is_bipartite and ry.is_bipartite:
        return {
            "x_bipartition": [list(part) for part in rx.bipartition],
            "y_bipartition": [list(part) for part in ry.bipartition],
        }
    return None


def cut_path_disconnection(x: Graph, y: Graph) -> dict | None:
    """A cut path of length d in X plus a vertex of degree <= d in Y pins
    that vertex's label, splitting FS(X, Y)."""
    cert = cut_path_certificate(x)
    if cert.d < 1:
        return None
    degrees = y.degrees()
    min_degree = min(degrees)
    if min_degree > cert.d:
        return None
    y0 = degrees.index(min_degree) + 1
    return {"d": cert.d, "path": list(cert.path), "low_degree_vertex": y0}


def cut_vertex_disconnection(x: Graph, y: Graph) -> dict | None:
    """Cut vertices on both sides force at least the margin-matrix count of
    components (always >= 2): matrices whose row sums are the component
    sizes of X - x0 and whose column sums are those of Y - y0."""
    if x.n < 3:
        return None
    rx, ry = structure_report(x), structure_report(y)
    if not (rx.is_connected and ry.is_connected and rx.cut_vertices and ry.cut_vertices):
        return None
    x0 = min(rx.cut_vertices)
    y0 = min(ry.cut_vertices)
    bound = _count_margin_matrices(
        tuple(m.bit_count() for m in _components_without(x, x0)),
        tuple(m.bit_count() for m in _components_without(y, y0)),
        {},
    )
    return {"x_cut_vertex": x0, "y_cut_vertex": y0, "component_lower_bound": bound}


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


# -- connectivity decision -------------------------------------------------------


class ConnectivityVerdict(NamedTuple):
    status: str                    # "connected" | "disconnected" | "unknown"
    theorem: str | None = None
    witness: dict | None = None


def _family_verdict(a: Graph, b: Graph, side: str) -> ConnectivityVerdict | None:
    """Exact characterizations when the position graph `a` is a named family.
    Every family recognised here has n - 1 or n edges."""
    n = a.n
    if not n - 1 <= a.edge_count <= n:
        return None
    if is_path_graph(a):
        missing = n * (n - 1) // 2 - b.edge_count
        return ConnectivityVerdict(
            "connected" if missing == 0 else "disconnected",
            "path-needs-complete",
            {"side": side, "complement_edges": missing},
        )
    if n >= 3 and is_cycle_graph(a):
        report = structure_report(b.complement())
        forest, gcd = report.is_forest, report.gcd_of_component_sizes
        return ConnectivityVerdict(
            "connected" if forest and gcd == 1 else "disconnected",
            "cycle-complement-forest",
            {"side": side, "complement_is_forest": forest, "component_size_gcd": gcd},
        )
    if n >= 3 and is_star_graph(a):
        structure = star_fs_structure(b)
        if structure is not None:
            return ConnectivityVerdict(
                "connected" if structure.component_count == 1 else "disconnected",
                "star-biconnected",
                {"side": side, "component_count": structure.component_count},
            )
        return None
    # Connected exactly when the partner's minimum degree reaches n - 2,
    # each family from its least n.  The n = 4 spindle is the star on 4
    # vertices and is handled above, so the Dynkin rule starts at n = 5.
    for recognize, least, theorem in (
        (is_lollipop_graph, 4, "lollipop-min-degree"),
        (is_dynkin_graph, 5, "dynkin-min-degree"),
    ):
        if n >= least and recognize(a):
            min_deg = min(b.degrees())
            return ConnectivityVerdict(
                "connected" if min_deg >= n - 2 else "disconnected",
                theorem,
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
    path + low degree, cut vertices on both sides), then the fiber
    induction of :func:`_fiber_induction`.  The induction runs only when
    one side has minimum degree at least n - 4: a cost policy, not a
    soundness condition, as the induction is sound on any pair.
    ``config.state_cap`` bounds both the induction's work and each of its
    brute-force base cases.

    The star rule, the disconnection certificates and the reach test of
    the induction read each graph's structure report (components,
    two-colouring, cut vertices and degrees), which the first of them
    builds and the graph keeps.
    """
    if x.n != y.n:
        raise InvalidArgumentError("X and Y must have the same number of vertices")
    verdict = _certificate_chain(x, y)
    if verdict.status != "unknown":
        return verdict
    reach = max(structure_report(x).min_degree, structure_report(y).min_degree)
    witness = _fiber_induction(x, y, config) if reach >= x.n - 4 else None
    if witness is None:
        return verdict
    return ConnectivityVerdict("connected", "fiber-induction", witness)


def _certificate_chain(x: Graph, y: Graph) -> ConnectivityVerdict:
    """The certificates of :func:`decide_connectivity` that need no search,
    in its order; "unknown" when none fires."""
    n = x.n
    if n == 1:
        return ConnectivityVerdict("connected", "tiny", {"n": 1})
    if n == 2:
        ok = x.edge_count == 1 and y.edge_count == 1
        return ConnectivityVerdict(
            "connected" if ok else "disconnected", "tiny", {"n": 2}
        )

    for a, b, side in ((x, y, "x"), (y, x, "y")):
        verdict = _family_verdict(a, b, side)
        if verdict is not None:
            return verdict

    rx = structure_report(x)
    ry = structure_report(y)
    if not rx.is_connected or not ry.is_connected:
        return ConnectivityVerdict(
            "disconnected",
            "disconnected-factor",
            {"x_connected": rx.is_connected, "y_connected": ry.is_connected},
        )
    witness = bipartite_disconnection(x, y)
    if witness is not None:
        return ConnectivityVerdict("disconnected", "bipartite-parity", witness)
    witness = cut_path_disconnection(x, y)
    if witness is not None:
        witness = dict(witness, side="x")
        return ConnectivityVerdict("disconnected", "cut-path-degree", witness)
    witness = cut_path_disconnection(y, x)
    if witness is not None:
        witness = dict(witness, side="y")
        return ConnectivityVerdict("disconnected", "cut-path-degree", witness)
    witness = cut_vertex_disconnection(x, y)
    if witness is not None:
        return ConnectivityVerdict("disconnected", "cut-vertex-margins", witness)
    return ConnectivityVerdict("unknown")


# -- fiber induction --------------------------------------------------------------


def _fiber_induction(x: Graph, y: Graph, config: RunConfig = DEFAULT_CONFIG) -> dict | None:
    """Witness {"side", "vertex", "fibers", "work"} that FS(X, Y) is
    connected, or None when the induction proves nothing.

    Fix a vertex v with a neighbour u in X.  The states with sigma(v) = w
    form a fiber isomorphic to FS(X - v, Y - w), and for each Y-edge ww'
    some state has sigma(v) = w and sigma(u) = w', whose swap joins the two
    fibers.  So FS(X, Y) is connected when Y is connected and every fiber
    is, and since FS(X, Y) is isomorphic to FS(Y, X) a vertex may be
    peeled from either side.

    A pair is settled by the certificate chain, else by brute force at
    DEFAULT_FIBER_BASE vertices or fewer, else by peeling each non-cut,
    non-isolated vertex, X's side first, then Y's, in ascending order,
    skipping peeled graphs whose refined forms repeat; a peel succeeds
    when every distinct fiber is proven.  One memo, keyed by the
    unordered pair of refined forms (equal forms mean isomorphic graphs),
    serves the whole call.  The recursion runs on adjacency-mask tuples.

    Work counts brute-force states (n! per base case), n per chain call
    on n vertices and n**3 // 16 per refined form on n vertices: up to n
    refinement rounds over up to n**2 / 2 edges, where 8 edge visits take
    about as long as one state searched.  Once the work reaches
    ``config.state_cap`` nothing more is proven; it passes the cap by at
    most one form, chain call or base case.  The witness names the top
    peel (side and vertex None when the chain or the brute force settled
    the pair itself), its number of distinct fibers, and the work spent.
    """
    memo: dict = {}
    work = 0
    graphs = {x._adj: x, y._adj: y}   # so that X and Y keep their reports

    def graph(adj: tuple[int, ...]) -> Graph:
        if adj not in graphs:
            graphs[adj] = Graph._from_masks(adj)
        return graphs[adj]

    @lru_cache(maxsize=None)
    def form(adj: tuple[int, ...]):
        nonlocal work
        work += len(adj) ** 3 // 16
        return refined_form(graph(adj))

    def settle(xa: tuple[int, ...], ya: tuple[int, ...]) -> bool:
        fx, fy = form(xa), form(ya)
        key = (fx, fy) if fx <= fy else (fy, fx)
        if key not in memo:
            memo[key] = prove(xa, ya) is not None
        return memo[key]

    def prove(xa: tuple[int, ...], ya: tuple[int, ...]) -> tuple | None:
        """(side, vertex, fibers) of a proof that FS(xa, ya) is connected."""
        nonlocal work
        if work >= config.state_cap:
            return None
        n = len(xa)
        work += n
        status = _certificate_chain(graph(xa), graph(ya)).status
        if status == "unknown" and n <= DEFAULT_FIBER_BASE:
            work += math.factorial(n)
            connected = is_connected(FSInstance(graph(xa), graph(ya)), config)
            status = "connected" if connected else "disconnected"
        if status != "unknown":
            return (None, None, 0) if status == "connected" else None
        # The chain has ruled out a disconnected X or Y here.
        for side, a, b in (("x", xa, ya), ("y", ya, xa)):
            cut = structure_report(graph(a)).cut_vertices
            peeled = set()
            for v in range(n):
                if work >= config.state_cap:
                    return None
                if v + 1 in cut or not a[v]:
                    continue
                sub = _drop_vertex(a, v)
                if form(sub) in peeled:
                    continue
                peeled.add(form(sub))
                # The cap may cut the fibers short; then they prove nothing.
                fibers = {
                    form(bw): bw
                    for bw in (_drop_vertex(b, w) for w in range(n))
                    if work < config.state_cap
                }
                if work < config.state_cap and all(
                    settle(sub, bw) for bw in fibers.values()
                ):
                    return side, v + 1, len(fibers)
        return None

    top = prove(x._adj, y._adj)
    if top is None:
        return None
    return {"side": top[0], "vertex": top[1], "fibers": top[2], "work": work}
