"""End-to-end acceptance battery.

Each test here is one acceptance criterion, run at full scale with exact
assertions: the brute-force component search is the oracle and every
structural fast path must reproduce it on the nose.  One PASS/FAIL line
is printed per criterion (visible with ``pytest -s`` or in captured
output).
"""

from __future__ import annotations

import math
import random
import time
from collections import deque

import pytest

from claims import checked_phi, class_extensions, decomposition_check, margin_count, toggle
from conftest import (
    FROZEN_CYCLE5_COMPONENT,
    SPIDER_COMPLEMENT_5,
    has_hamiltonian_path,
    random_graph,
)
from fsgraph import (
    FSInstance,
    Graph,
    Permutation,
    build_named,
    component_of,
    components,
    cycle_fs_structure,
    decide_connectivity,
    enumerate_acyclic,
    is_connected,
    linear_extensions,
    orientation_from_permutation,
    partition_by_moves,
    path_fs_structure,
    star_fs_structure,
    structure_report,
    tutte_eval,
)
from fsgraph.iso import enumerate_nonisomorphic, is_cycle_graph
from fsgraph.theorems import (
    _fiber_induction,
    bipartite_disconnection,
    cut_path_disconnection,
    cut_vertex_disconnection,
)

pytestmark = pytest.mark.acceptance

def _verdict(label: str, body):
    start = time.time()
    try:
        summary = body()
    except BaseException:
        print(f"acceptance [{label}]: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"acceptance [{label}]: PASS — {summary} ({time.time() - start:.1f}s)")


# -- 1: path positions ----------------------------------------------------------


def test_acceptance_path_counts():
    def body():
        start = time.time()
        checked = 0
        for n in range(1, 8):
            x = build_named("path", n)
            for y in enumerate_nonisomorphic(n):
                brute = components(FSInstance(x, y)).component_count
                comp = y.complement()
                assert brute == len(enumerate_acyclic(comp)) == tutte_eval(comp, 2, 0), (
                    n,
                    y.edges,
                )
                assert brute == path_fs_structure(y).component_count
                checked += 1
        elapsed = time.time() - start
        assert elapsed < 600.0
        return f"{checked} instances, three routes equal"

    _verdict("path components = acyclic orientations = T(2,0)", body)


# -- 2: cycle positions -----------------------------------------------------------


def test_acceptance_cycle_counts():
    def body():
        checked = 0
        for n in range(3, 8):
            x = build_named("cycle", n)
            for y in enumerate_nonisomorphic(n):
                brute = components(FSInstance(x, y)).component_count
                comp = y.complement()
                nu = structure_report(comp).gcd_of_component_sizes
                assert brute == tutte_eval(comp, 1, 0) * nu, (n, y.edges)
                assert brute == partition_by_moves(comp, "double_flip").class_count
                checked += 1
        return f"{checked} instances, both routes equal"

    _verdict("cycle components = T(1,0) * gcd = double-flip classes", body)


# -- 3: the frozen 5-cycle component ------------------------------------------------


def test_acceptance_frozen_component():
    def body():
        inst = FSInstance(build_named("cycle", 5), SPIDER_COMPLEMENT_5)
        comp = component_of(inst, Permutation.parse("12345"))
        assert comp == FROZEN_CYCLE5_COMPONENT
        return f"component of 12345 matches all {len(comp)} frozen words"

    _verdict("frozen 24-permutation component reproduced", body)


# -- 4: star positions ----------------------------------------------------------------


def test_acceptance_star_classification():
    def body():
        for n in (4, 5, 6):
            rep = components(FSInstance(build_named("star", n), build_named("cycle", n)))
            assert rep.component_count == math.factorial(n - 2)
            assert rep.sizes == (n * (n - 1),) * math.factorial(n - 2)
        start = time.time()
        rep = components(FSInstance(build_named("star", 7), build_named("theta0")))
        elapsed = time.time() - start
        assert rep.component_count == 6
        assert elapsed < 10.0
        swept = 0
        for n in (5, 6):
            x = build_named("star", n)
            for y in enumerate_nonisomorphic(n):
                report = structure_report(y)
                if not report.is_biconnected or is_cycle_graph(y):
                    continue
                rep = components(FSInstance(x, y))
                structure = star_fs_structure(y)
                assert structure is not None
                assert rep.component_count == structure.component_count, y.edges
                if report.is_bipartite:
                    assert rep.component_count == 2
                    assert rep.sizes == (math.factorial(n) // 2,) * 2
                else:
                    assert rep.component_count == 1
                swept += 1
        return f"cycle partners at n=4,5,6; theta in {elapsed:.2f}s; {swept} biconnected partners"

    _verdict("star-position classification exact", body)


# -- 5, 6: tail characterizations at n = 6 ----------------------------------------------


def _characterization_sweep(x: Graph, threshold: int) -> int:
    checked = 0
    for y in enumerate_nonisomorphic(6):
        truth = is_connected(FSInstance(x, y))
        assert truth == (structure_report(y).min_degree >= threshold), y.edges
        verdict = decide_connectivity(x, y)
        assert verdict.status != "unknown", y.edges
        assert (verdict.status == "connected") == truth, y.edges
        checked += 1
    return checked


def test_acceptance_lollipop_characterization():
    def body():
        checked = _characterization_sweep(build_named("lollipop", k=3, m=3), 4)
        return f"{checked} partner graphs, threshold 4, decide always definite"

    _verdict("clique-tail characterization at n=6", body)


def test_acceptance_dynkin_characterization():
    def body():
        checked = _characterization_sweep(build_named("dynkin_d", 6), 4)
        return f"{checked} partner graphs, threshold 4, decide always definite"

    _verdict("forked-tail characterization at n=6", body)


# -- 7: disconnection certificates never lie ----------------------------------------------


def test_acceptance_disconnection_certificates():
    def body():
        rng = random.Random(77)
        fired = {"bipartite": 0, "cut_path": 0, "cut_vertex": 0}
        margin_checks = 0
        plan = [(5, 400), (6, 400), (7, 200)]
        for n, count in plan:
            for _ in range(count):
                p = rng.choice([0.25, 0.4, 0.55, 0.7])
                x = random_graph(rng, n, p)
                y = random_graph(rng, n, rng.choice([0.25, 0.4, 0.55, 0.7]))
                brute = None

                def brute_count():
                    nonlocal brute
                    if brute is None:
                        brute = components(FSInstance(x, y)).component_count
                    return brute

                rx = structure_report(x)
                ry = structure_report(y)
                if bipartite_disconnection(x, y) is not None:
                    fired["bipartite"] += 1
                    assert brute_count() >= 2, (x.edges, y.edges)
                if (
                    cut_path_disconnection(x, y) is not None
                    or cut_path_disconnection(y, x) is not None
                ):
                    fired["cut_path"] += 1
                    assert brute_count() >= 2, (x.edges, y.edges)
                witness = cut_vertex_disconnection(x, y)
                if witness is not None:
                    fired["cut_vertex"] += 1
                    assert brute_count() >= 2, (x.edges, y.edges)
                    assert witness["component_lower_bound"] == margin_count(
                        x, y, witness["x_cut_vertex"], witness["y_cut_vertex"]
                    )
                if (
                    rx.is_connected
                    and ry.is_connected
                    and rx.cut_vertices
                    and ry.cut_vertices
                ):
                    for x0 in rx.cut_vertices:
                        for y0 in ry.cut_vertices:
                            bound = margin_count(x, y, x0, y0)
                            assert bound >= 2
                            assert bound <= brute_count(), (x.edges, y.edges, x0, y0)
                            margin_checks += 1
        assert all(v > 0 for v in fired.values()), fired
        return f"1000 instances, fired {fired}, {margin_checks} margin bounds held"

    _verdict("disconnection certificates confirmed by brute force", body)


def test_acceptance_tutte_routes_on_connected_graphs():
    def body():
        checked = 0
        for n in range(1, 7):
            for g in enumerate_nonisomorphic(n):
                if not structure_report(g).is_connected:
                    continue
                assert len(enumerate_acyclic(g)) == tutte_eval(g, 2, 0), g.edges
                assert (
                    partition_by_moves(g, "toric").class_count == tutte_eval(g, 1, 0)
                ), g.edges
                checked += 1
        return f"{checked} connected graphs up to n=6, both evaluations match"

    _verdict("Tutte evaluations count orientations and flip classes", body)


# -- 8: flip-class structure ------------------------------------------------------------------


def test_acceptance_flip_class_structure():
    def body():
        connected_checked = 0
        for n in range(1, 6):
            for g in enumerate_nonisomorphic(n):
                toric = partition_by_moves(g, "toric")
                double = partition_by_moves(g, "double_flip")
                # double-flip classes refine flip classes
                for cls in double.classes:
                    assert len({toric.class_index(o) for o in cls}) == 1
                # each flip class splits into gcd-many balanced double-flip classes
                nu = structure_report(g).gcd_of_component_sizes
                for t_cls in toric.classes:
                    owners = {double.class_index(o) for o in t_cls}
                    assert len(owners) == nu, (g.edges, nu)
                    counts = {
                        len(class_extensions(double.classes[i])) for i in owners
                    }
                    assert len(counts) == 1, g.edges
                if structure_report(g).is_connected:
                    connected_checked += 1
                    for t_cls in toric.classes:
                        base = double.class_index(t_cls[0])
                        orbit = []
                        cur = base
                        for _ in range(n):
                            orbit.append(cur)
                            cur = checked_phi(double, cur)
                        assert cur == base
                        covered = sorted(
                            o.bits for i in set(orbit) for o in double.classes[i]
                        )
                        assert covered == sorted(o.bits for o in t_cls), g.edges
        return f"all graphs on <= 5 vertices, {connected_checked} connected ones orbit-tiled"

    _verdict("flip-class orbits, refinement, and balanced splitting", body)


# -- 9: toggle transitivity ----------------------------------------------------------------------


def test_acceptance_toggle_transitivity():
    def body():
        rng = random.Random(909)
        for trial in range(200):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            word = list(range(1, n + 1))
            rng.shuffle(word)
            sigma = Permutation(word)
            o = orientation_from_permutation(g, sigma)
            exts = linear_extensions(o)
            seen = {sigma}
            queue = deque([sigma])
            while queue:
                cur = queue.popleft()
                for i in range(1, n):
                    nxt = toggle(o, cur, i)
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            assert seen == exts, (g.edges, str(sigma))
        return "200 random orientations, toggle closure equals extension set"

    _verdict("toggle moves span every extension set", body)


# -- 10: fiber induction --------------------------------------------------------------------------


def test_acceptance_hereditary_recursion():
    def body():
        for n in (6, 7):
            x = build_named("lollipop", k=n - 3, m=3)
            for missing_edges in range(0, n // 2 + 1):
                complement = Graph(
                    n, [(2 * i + 1, 2 * i + 2) for i in range(missing_edges)]
                )
                y = complement.complement()
                assert structure_report(y).min_degree >= n - 2
                assert _fiber_induction(x, y) is not None, (n, missing_edges)
        rng = random.Random(1010)
        done = 0
        proven = 0
        while done < 500:
            n = rng.randint(4, 7)
            x = random_graph(rng, n, rng.choice([0.4, 0.55, 0.7]))
            if not has_hamiltonian_path(x):
                continue
            y = random_graph(rng, n, rng.choice([0.4, 0.55, 0.7]))
            done += 1
            if _fiber_induction(x, y) is not None:
                proven += 1
                assert is_connected(FSInstance(x, y)), (x.edges, y.edges)
        # Peeling only Hamiltonian-path ends of X, down to a 5-vertex base,
        # proves 160 of these pairs; the fiber induction subsumes that.
        assert proven >= 160
        return f"rich partners proven at n=6,7; fuzz 500 instances, {proven} proofs all confirmed"

    _verdict("fiber induction proves and never overclaims", body)


# -- 11: component-count identity for split positions ------------------------------------------------


def test_acceptance_split_position_identity():
    def body():
        rng = random.Random(1111)
        done = 0
        while done < 100:
            n = rng.randint(2, 6)
            x = random_graph(rng, n, rng.choice([0.15, 0.3, 0.45]))
            if structure_report(x).is_connected:
                continue
            y = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            assert decomposition_check(x, y), (x.edges, y.edges)
            done += 1
        return "100 disconnected-position instances satisfy the identity exactly"

    _verdict("ordered-partition component identity", body)
