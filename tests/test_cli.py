import ast
import contextlib
import importlib.util
import io
import json
import math
import random
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import PAW, PETERSEN, dense_partner_pair
from fsgraph.cli import _COMMANDS, _parser, _plain_args, main, read_graph
from fsgraph.config import DEFAULT_VERTEX_CAP
from fsgraph.graphio import graph_to_json_dict, to_graph6
from fsgraph import Graph, Orientation, build_named, disjoint_union
from fsgraph.graphs import NAMED_FAMILIES

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_spec_forms(tmp_path):
    k6 = build_named("complete", 6)
    assert read_graph("family:complete:6") == k6
    assert read_graph(json.dumps(graph_to_json_dict(k6))) == k6
    assert read_graph(to_graph6(k6)) == k6
    f = tmp_path / "g.json"
    f.write_text(json.dumps(graph_to_json_dict(k6)))
    assert read_graph(f"@{f}") == k6
    assert read_graph("family:lollipop:3,3") == build_named("lollipop", k=3, m=3)
    assert read_graph("family:theta0") == build_named("theta0")
    assert read_graph("family:complete_bipartite:2,5") == build_named(
        "complete_bipartite", 5, k=2
    )


def test_tutte_eval_command(capsys):
    code, out, _ = run_cli(capsys, "tutte", "eval", "--g", "family:cycle:6", "--x", "1", "--y", "0")
    assert code == 0
    assert out.strip() == "5"


def test_decide_command(capsys):
    k6 = json.dumps(graph_to_json_dict(build_named("complete", 6)))
    code, out, _ = run_cli(capsys, "decide", "--x", "family:lollipop:3,3", "--y", k6)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "connected"
    assert payload["theorem"] == "lollipop-min-degree"
    code, out, _ = run_cli(capsys, "decide", "--x", "family:star:30", "--y", "family:cycle:30")
    assert code == 0
    assert json.loads(out) == {
        "status": "disconnected",
        "theorem": "star-biconnected",
        "witness": {"side": "x", "component_count": math.factorial(28)},
    }


def test_cycle_structure_command(capsys):
    y = json.dumps(
        {"n": 5, "edges": [[1, 3], [1, 4], [1, 5], [2, 4], [2, 5], [4, 5]]}
    )
    code, out, _ = run_cli(capsys, "cycle", "structure", "--y", y)
    assert code == 0
    assert json.loads(out) == {"component_count": 5, "nu": 5, "toric_count": 1}
    for cap, listed in (("120", True), ("119", False)):
        code, out, _ = run_cli(capsys, "cycle", "structure", "--y", y, "--list", "--listing-cap", cap)
        payload = json.loads(out)
        assert code == 0 and (payload["classes"] is not None) == listed
    assert payload["classes_error"] == "5! exceeds the listing cap of 119"


def test_fs_components_command(capsys):
    code, out, _ = run_cli(
        capsys, "fs", "components", "--x", "family:star:5", "--y", "family:cycle:5"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 5
    assert payload["component_count"] == 6
    assert payload["sizes"] == [20] * 6
    assert len(payload["representatives"]) == 6


def test_fs_components_honours_the_listing_cap(capsys):
    argv = ("fs", "components", "--x", "family:star:5", "--y", "family:cycle:5")
    listed = (
        '{"n": 5, "component_count": 6, "sizes": [20, 20, 20, 20, 20, 20], '
        '"representatives": ["12345", "12435", "13245", "13425", "14235", "14325"]}\n'
    )
    for cap in ("6", "7"):
        code, out, _ = run_cli(capsys, *argv, "--listing-cap", cap)
        assert code == 0 and out == listed
    code, out, _ = run_cli(capsys, *argv, "--listing-cap", "5")
    assert code == 0
    assert out == (
        '{"n": 5, "component_count": 6, "sizes": null, "size_counts": [[20, 6]], '
        '"representatives": null, '
        '"representatives_error": "6 components exceed the listing cap of 5"}\n'
    )
    code, out, _ = run_cli(
        capsys, "fs", "components", "--x", "family:edgeless:8", "--y", "family:edgeless:8"
    )
    payload = json.loads(out)
    assert code == 0 and payload["component_count"] == 40320
    assert payload["sizes"] is None and payload["size_counts"] == [[1, 40320]]
    assert payload["representatives"] is None
    assert payload["representatives_error"] == "40320 components exceed the listing cap of 10000"
    assert len(out) < 300
    # Unequal sizes are counted in ascending order of size.
    argv = ("fs", "components", "--x", "family:path:4", "--y", "family:path:4")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["sizes"] == [1, 1, 3, 3, 3, 3, 5, 5]
    code, out, _ = run_cli(capsys, *argv, "--listing-cap", "7")
    assert code == 0 and json.loads(out)["size_counts"] == [[1, 2], [3, 4], [5, 2]]


def test_fs_connected_command(capsys):
    code, out, _ = run_cli(
        capsys, "fs", "connected", "--x", "family:path:4", "--y", "family:path:4"
    )
    assert code == 0
    assert json.loads(out) == {"n": 4, "connected": False}


def test_fs_neighbors_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "fs",
        "neighbors",
        "--x",
        "family:path:3",
        "--y",
        "family:path:3",
        "--sigma",
        "123",
    )
    assert code == 0
    assert json.loads(out) == {"sigma": "123", "neighbors": ["213", "132"]}


def test_star_structure_command(capsys):
    code, out, _ = run_cli(capsys, "star", "structure", "--y", "family:theta0")
    assert code == 0
    assert json.loads(out) == {"applicable": True, "component_count": 6, "sizes": None}
    # 28! components of a cycle partner: the count alone.
    code, out, _ = run_cli(capsys, "star", "structure", "--y", "family:cycle:30")
    assert code == 0
    assert json.loads(out) == {
        "applicable": True, "component_count": math.factorial(28), "sizes": None
    }
    code, out, _ = run_cli(capsys, "star", "structure", "--y", "family:path:5")
    assert code == 0
    assert json.loads(out) == {"applicable": False}


def test_path_structure_listing(capsys):
    code, out, _ = run_cli(
        capsys, "path", "structure", "--y", "family:complete:3", "--list"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["component_count"] == 1
    assert payload["classes"] == [
        {"orientation": "", "extensions": ["123", "132", "213", "231", "312", "321"]}
    ]
    code, out, _ = run_cli(
        capsys, "path", "structure", "--y", "family:complete:3", "--list", "--listing-cap", "5"
    )
    assert code == 0
    assert out == (
        '{"component_count": 1, "classes": null, '
        '"classes_error": "3! exceeds the listing cap of 5"}\n'
    )


def test_acyc_commands(capsys):
    code, out, _ = run_cli(capsys, "acyc", "enumerate", "--g", "family:complete:3")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6 and len(payload["orientations"]) == 6

    code, out, _ = run_cli(
        capsys, "acyc", "partition", "--g", "family:complete:3", "--kind", "toric"
    )
    payload = json.loads(out)
    assert payload["kind"] == "toric" and len(payload["classes"]) == 2

    code, out, _ = run_cli(
        capsys, "acyc", "partition", "--g", "family:path:3", "--kind", "ab_flip",
        "--a", "1", "--b", "1",
    )
    payload = json.loads(out)
    assert payload["kind"] == "ab_flip" and payload["a"] == 1

    code, out, _ = run_cli(capsys, "acyc", "phi", "--g", "family:complete:3")
    payload = json.loads(out)
    assert payload["class_count"] == 6
    assert sorted(payload["phi"]) == sorted(range(6))


def test_acyc_partition_refuses_before_enumerating_flip_selections(capsys):
    # One orientation and no edges, but C(24, 4) C(20, 4) selections per orientation.
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "acyc", "partition", "--g", "family:edgeless:24", "--kind", "ab_flip",
        "--a", "4", "--b", "4",
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "") and "selections" in err
    code, out, err = run_cli(capsys, "acyc", "partition", "--g", "family:path:3", "--kind", "ab_flip")
    assert (code, out) == (2, "") and "a and b" in err
    # Only ab_flip takes sizes; every other kind refuses them.
    for kind in ("toric", "double_flip", "local_double_flip"):
        for sizes in (("--a", "5", "--b", "7"), ("--a", "0")):
            code, out, err = run_cli(capsys, "acyc", "partition", "--g", "family:path:3", "--kind", kind, *sizes)
            assert (code, out) == (2, "") and f"{kind} takes no sizes" in err


def test_acyc_partition_refuses_too_many_orientations(capsys):
    # An 18-edge perfect matching: 2^18 acyclic orientations, counted first.
    matching = json.dumps(graph_to_json_dict(Graph(36, [(2 * i + 1, 2 * i + 2) for i in range(18)])))
    for argv in (("partition", "--kind", "toric"), ("phi",)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "acyc", argv[0], "--g", matching, *argv[1:])
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "") and "2^18 acyclic orientations" in err


def test_acyc_partition_and_phi_refuse_long_paths(capsys):
    # 2^14999 orientations: the message writes the bound, not its digits.
    for argv in (("partition", "--kind", "toric"), ("phi",)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "acyc", argv[0], "--g", "family:path:15000", *argv[1:])
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "") and "2^14999 acyclic orientations" in err


def test_oversized_graphs_are_refused_before_they_are_built(capsys):
    # K_100000 would take about 1.25 GB of adjacency masks.
    big = json.dumps({"n": 100_000, "edges": []})
    for argv in (
        ("decide", "--x", "family:complete:100000", "--y", "family:complete:100000"),
        ("tutte", "eval", "--g", big, "--x", "1", "--y", "1"),
        ("path", "structure", "--y", "family:lollipop:15000,6000"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "") and f"vertices, past the cap of {DEFAULT_VERTEX_CAP}" in err, argv


def test_tutte_eval_answers_on_long_trees(capsys):
    for spec, edges in (("family:path:1500", 1499), ("family:star:3000", 2999)):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "tutte", "eval", "--g", spec, "--x", "2", "--y", "0")
        assert time.perf_counter() - start < 1
        assert (code, json.loads(out)) == (0, 2**edges), spec


def test_acyc_partition_refuses_orientations_times_selections(capsys):
    # A 13-edge perfect matching: 2^13 orientations, 13728 (1, 2)-flip selections each.
    matching = json.dumps(graph_to_json_dict(Graph(26, [(2 * i + 1, 2 * i + 2) for i in range(13)])))
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "acyc", "partition", "--g", matching, "--kind", "ab_flip", "--a", "1", "--b", "2"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "") and "8192 acyclic orientations" in err and "13728" in err


def test_dot_outputs(capsys):
    code, out, _ = run_cli(
        capsys,
        "fs",
        "components",
        "--x",
        "family:complete:2",
        "--y",
        "family:complete:2",
        "--format",
        "dot",
    )
    assert code == 0
    assert out.startswith("graph FS {")
    code, out, _ = run_cli(
        capsys, "path", "structure", "--y", "family:complete:4", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph complement {")


@pytest.mark.parametrize(
    "argv, edges",
    [
        # The complement of a path on 1000 vertices has 498501 edges.
        (("path", "structure", "--y", "family:path:1000"), 498501),
        (("cycle", "structure", "--y", "family:path:1000"), 498501),
        (("path", "structure", "--y", "family:path:200", "--listing-cap", "19700"), 19701),
        # star structure takes no cap flag and draws Y itself under the default cap.
        (("star", "structure", "--y", "family:complete:200"), 19900),
    ],
)
def test_dot_drawings_past_the_listing_cap_exit_3_up_front(capsys, argv, edges):
    # The drawing's text grows as n^2; it was written in full before the cap.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--format", "dot")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("resource limit:") and f"{edges} edges" in err


def test_dot_drawings_at_the_listing_cap_are_written(capsys):
    code, out, _ = run_cli(
        capsys, "path", "structure", "--y", "family:path:200", "--listing-cap", "19701",
        "--format", "dot",
    )
    assert code == 0
    assert out.count(" -- ") == 19701
    code, out, _ = run_cli(capsys, "star", "structure", "--y", "family:complete:141", "--format", "dot")
    assert code == 0
    assert out.startswith("graph partner {") and out.count(" -- ") == 9870


def test_exit_code_invalid_argument(capsys):
    code, _, err = run_cli(capsys, "decide", "--x", "family:path:3", "--y", "family:path:4")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "tutte", "eval", "--g", "family:cycle:2", "--x", "1", "--y", "0")
    assert code == 2


def test_out_of_range_permutation_values_exit_2(capsys):
    for sigma in ("1,300", "1,-2"):
        code, out, err = run_cli(
            capsys, "fs", "neighbors", "--x", "family:path:2", "--y", "family:path:2", "--sigma", sigma
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: permutation images must be integers")


def test_oracle_sweep_refuses_negative_counts(capsys):
    for flag in ("--random", "--max-n"):
        code, out, err = run_cli(capsys, "oracle-sweep", flag, "-2")
        assert (code, out) == (2, "")
        assert f"{flag} must be non-negative" in err


def test_exit_code_resource_limit(capsys):
    code, _, err = run_cli(
        capsys, "fs", "components", "--x", "family:path:10", "--y", "family:path:10"
    )
    assert code == 3
    assert "resource limit" in err


def test_state_cap_flag(capsys):
    code, _, _ = run_cli(
        capsys,
        "fs",
        "connected",
        "--x",
        "family:complete:6",
        "--y",
        "family:complete:6",
        "--state-cap",
        "10",
    )
    assert code == 3
    # Every command that takes the flag refuses a 1-state budget on an
    # input it answers at the default cap.
    small_inputs = (
        ("fs", "components", "--x", "family:star:4", "--y", "family:cycle:4"),
        ("fs", "connected", "--x", "family:path:3", "--y", "family:path:3"),
        # K_4 / K_4 reaches the fiber induction, whose n <= 6 base case searches.
        ("decide", "--x", "family:complete:4", "--y", "family:complete:4"),
        ("oracle-sweep", "--max-n", "3"),
    )
    for argv in small_inputs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        code, out, err = run_cli(capsys, *argv, "--state-cap", "1")
        assert code == 3 and out == "" and "exceeds the configured cap of 1" in err


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(
        capsys, "fs", "components", "--x", "family:cycle:5", "--y", "family:star:5"
    )
    _, second, _ = run_cli(
        capsys, "fs", "components", "--x", "family:cycle:5", "--y", "family:star:5"
    )
    assert first == second


def test_oracle_sweep_command(capsys):
    code, out, _ = run_cli(capsys, "oracle-sweep", "--max-n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == []
    # 52 partner classes on n <= 5 for the path, 49 on n >= 3 for the
    # cycle, and the 14 biconnected ones for the star.
    assert payload["checked"] == 115


def test_oracle_sweep_with_random(capsys):
    code, out, _ = run_cli(
        capsys,
        "oracle-sweep",
        "--max-n",
        "3",
        "--random",
        "5",
        "--random-n",
        "5",
        "--seed",
        "7",
    )
    assert code == 0
    assert json.loads(out)["mismatches"] == []


def test_oracle_sweep_refuses_random_sweeps_past_the_state_cap(capsys):
    # 10**7 graphs x 3 families x 6! states would run for hours; the
    # refusal comes before any search.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle-sweep", "--max-n", "0", "--random", "10000000")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: ") and "exceeds the configured cap of 400000" in err
    # The bound counts families and honours --state-cap: 2 x 1 x 4! = 48.
    argv = ("oracle-sweep", "--max-n", "0", "--random", "2", "--random-n", "4", "--families", "path")
    assert run_cli(capsys, *argv, "--state-cap", "48")[0] == 0
    assert run_cli(capsys, *argv, "--state-cap", "47")[0] == 3
    code, out, err = run_cli(capsys, "oracle-sweep", "--random", "1", "--random-n", "0")
    assert (code, out) == (2, "")


def test_decide_on_symmetric_and_disconnected_inputs_is_fast(capsys):
    paw_and_cycle = disjoint_union(PAW, build_named("cycle", 10))
    cases = (
        ("family:complete:10", to_graph6(PETERSEN), "connected"),
        (to_graph6(paw_and_cycle), "family:complete:14", "disconnected"),
    )
    for x, y, status in cases:
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "decide", "--x", x, "--y", y)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert json.loads(out)["status"] == status
    assert json.loads(out)["theorem"] == "disconnected-factor"


def _sparse_hamiltonian_graph(rng: random.Random, n: int, p: float) -> Graph:
    """A random Hamiltonian cycle with one triangle chord plus G(n, p)
    chords: biconnected, not bipartite and in no named family, so decide
    runs its whole certificate chain."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {frozenset(e) for e in zip(order, order[1:] + order[:1])}
    edges.add(frozenset((order[0], order[2])))
    edges.update(
        frozenset((i, j))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    )
    return Graph(n, [tuple(e) for e in edges])


def test_decide_fiber_budget_is_the_state_cap(capsys):
    # The n = 16 dense pair needs 426 750 units of fiber work, past the
    # default cap of 400 000.
    x, y = (json.dumps(graph_to_json_dict(g)) for g in dense_partner_pair(16, 16))
    code, out, _ = run_cli(capsys, "decide", "--x", x, "--y", y)
    assert code == 0 and json.loads(out)["status"] == "unknown"
    code, out, _ = run_cli(capsys, "decide", "--x", x, "--y", y, "--state-cap", "1000000")
    payload = json.loads(out)
    assert code == 0
    assert (payload["status"], payload["theorem"]) == ("connected", "fiber-induction")
    assert payload["witness"]["work"] > 400_000


def test_decide_answers_sparse_large_pairs_in_bounded_time(capsys):
    rng = random.Random(16)
    for n in (16, 30, 40):
        for _ in range(3):
            x, y = (to_graph6(_sparse_hamiltonian_graph(rng, n, 0.1)) for _ in "xy")
            start = time.perf_counter()
            code, out, _ = run_cli(capsys, "decide", "--x", x, "--y", y)
            assert time.perf_counter() - start < 5, (n, x, y)
            assert code == 0
            assert json.loads(out)["status"] == "unknown", (n, x, y)


def test_decide_answers_a_long_path_against_a_long_cycle_in_bounded_time(capsys):
    # The path rule counts the complement's edges without building the
    # complement, whose 4.5 million edges took about 500 MB.
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "decide", "--x", "family:path:3000", "--y", "family:cycle:3000")
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5
    assert peak < 20 * 2**20
    assert code == 0
    assert json.loads(out)["witness"] == {"side": "x", "complement_edges": 4_495_500}


def test_star_partner_cycle_answers_in_bounded_time(capsys):
    # The star rule reads the cycle's structure report; one search per
    # cut-vertex candidate took 1.7 s per command at n = 1500.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "star", "structure", "--y", "family:cycle:1500")
    assert code == 0 and json.loads(out)["component_count"] == math.factorial(1498)
    code, out, _ = run_cli(capsys, "decide", "--x", "family:star:1500", "--y", "family:cycle:1500")
    assert code == 0 and json.loads(out)["status"] == "disconnected"
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "argv",
    [
        ("star", "structure", "--y", "family:cycle:1700"),
        ("decide", "--x", "family:star:2000", "--y", "family:cycle:2000"),
        ("fs", "components", "--x", "family:path:1800", "--y", "family:complete:1800"),
    ],
)
def test_counts_past_the_int_to_str_limit_exit_3(capsys, argv):
    # 1698!, 1998! and 1800! each have more than 4300 decimal digits.
    # Refused up front: K_1800 is built as masks, not as its 1.6 million edges.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1


def test_tutte_and_structure_commands_answer_or_refuse_in_bounded_time(capsys):
    # Seeded G(n, 1/2) and G(n, 0.15) at n = 16, 30, 40: every Tutte
    # evaluation, and every acyclic listing or flip closure that counts
    # with one, either answers or meets a cap (exit 3).
    for n in (16, 30, 40):
        for p in (0.5, 0.15):
            rng = random.Random(f"{n}:{p}")
            g = Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < p])
            spec = json.dumps(graph_to_json_dict(g))
            for argv in (
                ("tutte", "eval", "--g", spec, "--x", "2", "--y", "0"),
                ("tutte", "eval", "--g", spec, "--x", "1", "--y", "1"),
                ("path", "structure", "--y", spec),
                ("cycle", "structure", "--y", spec),
                ("acyc", "enumerate", "--g", spec),
                ("acyc", "partition", "--g", spec, "--kind", "toric"),
                ("acyc", "partition", "--g", spec, "--kind", "ab_flip", "--a", "2", "--b", "2"),
                ("acyc", "phi", "--g", spec),
            ):
                start = time.perf_counter()
                code, _, _ = run_cli(capsys, *argv)
                assert time.perf_counter() - start < 10, (n, p, argv[:2], argv[4:])
                assert code in (0, 3), (n, p, argv[:2], argv[4:])


def test_oracle_sweep_refuses_past_eight_vertices(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle-sweep", "--max-n", "9")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert "n <= 8" in err


def test_family_parameter_table_covers_exactly_the_named_families(capsys):
    built = {
        "complete": build_named("complete", 5),
        "path": build_named("path", 5),
        "cycle": build_named("cycle", 5),
        "star": build_named("star", 5),
        "edgeless": build_named("edgeless", 5),
        "dynkin_d": build_named("dynkin_d", 5),
        "lollipop": build_named("lollipop", k=2, m=3),
        "complete_bipartite": build_named("complete_bipartite", 5, k=2),
    }
    assert set(built) | {"theta0"} == set(NAMED_FAMILIES)
    for name, g in built.items():
        params = "2,3" if name == "lollipop" else "2,5" if name == "complete_bipartite" else "5"
        assert read_graph(f"family:{name}:{params}") == g, name
    assert read_graph("family:theta0") == read_graph("family:theta0:7") == build_named("theta0")
    bad_specs = (
        "family:path", "family:path:5,5", "family:lollipop:3", "family:lollipop:1,2,3",
        "family:complete_bipartite:5", "family:cycle:x", "family:star:5.0",
        "family:theta0:8", "family:theta0:7,7", "family:nosuch:3", "family:",
    )
    for spec in bad_specs:
        code, out, err = run_cli(capsys, "decide", "--x", spec, "--y", "family:complete:5")
        assert (code, out) == (2, ""), spec
        assert err.startswith("error: "), spec


def test_family_spec_refuses_trailing_fields(capsys):
    for spec in ("family:path:3:9", "family:path:3:", "family:theta0:7:7", "family:complete:3::"):
        code, out, err = run_cli(capsys, "decide", "--x", spec, "--y", "family:complete:3")
        assert (code, out) == (2, ""), spec
        assert err.startswith("error: too many fields in family spec"), spec


def test_acyc_enumerate_counts_before_listing(capsys):
    # 2^20 - 2 acyclic orientations: far past the listing cap, so only counted.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "acyc", "enumerate", "--g", "family:cycle:20")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == (
        '{"count": 1048574, "orientations": null, "orientations_error": '
        '"1048574 orientations exceed the listing cap of 10000"}\n'
    )
    c4 = build_named("cycle", 4)
    code, out, _ = run_cli(capsys, "acyc", "enumerate", "--g", "family:cycle:4", "--listing-cap", "14")
    assert json.loads(out) == {
        "count": 14,
        "orientations": [
            str(o) for bits in range(16) if (o := Orientation(c4, bits)).is_acyclic()
        ],
    }
    code, out, _ = run_cli(capsys, "acyc", "enumerate", "--g", "family:cycle:4", "--listing-cap", "13")
    assert code == 0 and out == (
        '{"count": 14, "orientations": null, '
        '"orientations_error": "14 orientations exceed the listing cap of 13"}\n'
    )
    # K_8 has 28 edges and 8! acyclic orientations: counted, and listed
    # when the listing cap allows.
    code, out, _ = run_cli(capsys, "acyc", "enumerate", "--g", "family:complete:8")
    assert code == 0 and out == (
        '{"count": 40320, "orientations": null, '
        '"orientations_error": "40320 orientations exceed the listing cap of 10000"}\n'
    )
    code, out, _ = run_cli(capsys, "acyc", "enumerate", "--g", "family:complete:8", "--listing-cap", "40320")
    listed = json.loads(out)["orientations"]
    k8 = build_named("complete", 8)
    assert code == 0 and len(set(listed)) == 40320
    assert all(Orientation.from_string(k8, o).is_acyclic() for o in listed)
    # A listing cap past the closure cap does not lift it.
    code, out, err = run_cli(capsys, "acyc", "enumerate", "--g", "family:cycle:20", "--listing-cap", "2000000")
    assert (code, out) == (3, "") and "1048574 acyclic orientations exceed" in err


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_answers_like_a_fresh_one():
    k5 = json.dumps(graph_to_json_dict(build_named("complete", 5)))
    calls = [
        ["acyc", "enumerate", "--g", "family:path:3", "--listing-cap", "3"],
        ["acyc", "enumerate", "--g", "family:cycle:4"],
        ["tutte", "eval", "--g", "family:cycle:6", "--x", "1", "--y", "0"],
        ["decide", "--x", "family:lollipop:3,2", "--y", k5],
        ["path", "structure", "--y", "family:complete:3", "--list"],
        ["cycle", "structure", "--y", "family:path:4", "--format", "dot"],
        ["acyc", "partition", "--g", "family:path:3", "--kind", "ab_flip", "--a", "1", "--b", "1"],
        ["fs", "connected", "--x", "family:complete:6", "--y", "family:complete:6", "--state-cap", "10"],
        ["fs", "connected", "--x", "family:cycle:4", "--y", "family:complete:4"],
        ["decide", "--x", "family:path:3", "--y", "family:path:4"],
        ["acyc", "phi"],
        ["star", "structure", "--y", "family:cycle:5"],
    ]
    fresh = []
    for argv in calls:
        _parser.cache_clear()
        fresh.append(_run_captured(argv))
    assert all(_parser(words) is _parser(words) for words in _COMMANDS)
    assert [_run_captured(argv) for argv in calls] == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 0, 0, 3, 0, 2, 2, 0]


@pytest.mark.parametrize("argv", [["--help"], ["acyc", "enumerate", "--help"]])
def test_help_goes_to_the_current_stdout(argv):
    main(["tutte", "eval", "--g", "family:path:3", "--x", "2", "--y", "0"])   # parser built
    for _ in range(2):
        code, out, _ = _run_captured(argv)
        assert code == 0
        assert out.startswith("usage: fsgraph")


# The cap flags each subcommand accepts: exactly the caps that bound its
# work.  Each pairing is shown live (the flag at a small value changes the
# answer) by test_state_cap_flag, test_fs_components_honours_the_listing_cap,
# test_path_structure_listing, test_cycle_structure_command and
# test_acyc_enumerate_counts_before_listing.
CAP_FLAGS = {
    "fs components": {"--state-cap", "--listing-cap"},
    "fs connected": {"--state-cap"},
    "fs neighbors": set(),
    "path structure": {"--listing-cap"},
    "cycle structure": {"--listing-cap"},
    "star structure": set(),
    "acyc enumerate": {"--listing-cap"},
    "acyc partition": set(),
    "acyc phi": set(),
    "tutte eval": set(),
    "decide": {"--state-cap"},
    "oracle-sweep": {"--state-cap"},
}


def test_cap_flags_match_the_inventory():
    assert {" ".join(words) for words in _COMMANDS} == set(CAP_FLAGS)
    for words, (_, _, flags) in _COMMANDS.items():
        command = " ".join(words)
        assert {flag for flag in flags if flag.endswith("-cap")} == CAP_FLAGS[command], command
        help_text = _parser(words).format_help()
        for flag in ("--state-cap", "--listing-cap"):
            assert (flag in help_text) == (flag in CAP_FLAGS[command]), (command, flag)
    # A flag a command does not honour is an argparse error (exit 2).
    argv = ["tutte", "eval", "--g", "family:path:3", "--x", "2", "--y", "0", "--state-cap", "5"]
    code, out, err = _run_captured(argv)
    assert code == 2 and out == ""
    assert err == (
        "usage: fsgraph tutte eval [-h] --g G --x X --y Y\n"
        "fsgraph tutte eval: error: unrecognized arguments: --state-cap 5\n"
    )


@pytest.mark.parametrize("argv", [[], ["bogus"], ["acyc"]])
def test_missing_or_unknown_command_prints_usage_and_exits_2(argv):
    code, out, err = _run_captured(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: fsgraph")


def test_group_help_lists_its_commands():
    code, out, _ = _run_captured(["acyc", "--help"])
    assert code == 0
    assert out.startswith("usage: fsgraph") and "partition" in out


def test_flag_syntax_that_argparse_accepts():
    # --flag=value and an unambiguous abbreviation of a long flag.
    code, out, _ = _run_captured(
        ["fs", "components", "--x=family:path:3", "--y", "family:path:3", "--listing", "1"]
    )
    assert code == 0
    assert json.loads(out)["representatives_error"] == "2 components exceed the listing cap of 1"
    code, out, err = _run_captured(["tutte", "eval", "--g", "family:path:3", "--x", "a", "--y", "0"])
    assert (code, out) == (2, "") and "invalid int value: 'a'" in err
    code, out, _ = _run_captured(["tutte", "eval", "--x", "a"])
    assert (code, out) == (2, "")


def test_graph_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"n":3}')
    code, out, err = run_cli(capsys, "decide", "--x", f"@{bad}", "--y", "family:path:3")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read graph file")


def test_decide_answers_a_long_cycle_against_a_long_path_within_a_second(capsys):
    # The cycle rule reads the report of the path's complement, built as
    # masks; listing its 4.5 million edges took seconds.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "decide", "--x", "family:cycle:3000", "--y", "family:path:3000")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["theorem"] == "cycle-complement-forest"


# -- plain argv against argparse ---------------------------------------------------


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _argv_literals() -> list[list[str]]:
    """Every argv written out in this file: the arguments of run_cli calls
    and every tuple or list literal that starts with a command.  A
    name or other expression in one stands for the value "3"; an argv
    with a starred part is skipped (its parts are literals of their own)."""
    found = []
    for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Tuple, ast.List)):
            items = node.elts
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_cli":
            items = node.args[1:]
        else:
            continue
        if not items or any(isinstance(item, ast.Starred) for item in items):
            continue
        argv = [
            item.value if isinstance(item, ast.Constant) and isinstance(item.value, str) else "3"
            for item in items
        ]
        if tuple(argv[:2]) in _COMMANDS or tuple(argv[:1]) in _COMMANDS:
            found.append(argv)
    return found


def _argparse_vars(words, rest):
    """vars() of argparse's namespace for rest, or None when it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(_parser(words).parse_args(rest))
    except SystemExit:
        return None


def _plain_or_same(argv):
    """_plain_args of argv, checked to be None or argparse's answer with
    the same names, values and value types."""
    words = next(w for w in (tuple(argv[:2]), tuple(argv[:1])) if w in _COMMANDS)
    rest = argv[len(words):]
    fast = _plain_args(words, rest)
    if fast is not None:
        typed = {name: (type(v), v) for name, v in vars(fast).items()}
        slow = _argparse_vars(words, rest)
        assert slow is not None and typed == {name: (type(v), v) for name, v in slow.items()}, argv
    return fast


# (argv, whether the table parses it without argparse)
CRAFTED_ARGV = [
    (["fs", "components", "--x=family:path:3", "--y", "family:path:3"], False),
    (["fs", "components", "--x", "family:path:3", "--y", "family:path:3", "--listing", "1"], False),
    (["fs", "components", "--x", "family:path:3", "--y", "family:path:3", "--list", "1"], False),
    (["path", "structure", "--y", "family:path:3", "--list"], True),
    (["path", "structure", "--y", "family:path:3", "--list", "--list"], True),
    (["path", "structure", "--y", "family:path:3", "--list", "yes"], False),
    (["decide", "--x", "family:path:3", "--y", "family:path:3", "--x", "family:cycle:3"], True),
    (["decide", "--x", "family:path:3", "--y"], False),
    (["decide", "--x", "family:path:3"], False),
    (["decide", "--x", "--y", "family:path:3"], False),
    (["tutte", "eval", "--g", "family:path:3", "--x", "-1", "--y", "0"], False),
    (["tutte", "eval", "--g", "family:path:3", "--x", " 2", "--y", "1_0"], True),
    (["tutte", "eval", "--g", "family:path:3", "--x", "two", "--y", "0"], False),
    (["tutte", "eval", "--g", "family:path:3", "--x", "", "--y", "0"], False),
    (["decide", "--x", "family:path:3", "--y", "family:path:3", "--z", "1"], False),
    (["decide", "--x", "family:path:3", "--y", "family:path:3", "--"], False),
    (["decide", "-h"], False),
    (["decide", "--help"], False),
    (["decide", "--x", "", "--y", "family:path:3"], True),
    (["acyc", "partition", "--g", "family:path:3", "--kind", "toric"], True),
    (["acyc", "partition", "--g", "family:path:3", "--kind", "torus"], False),
    (["oracle-sweep"], True),
    (["oracle-sweep", "--max-n", "2", "--families", "path", "--state-cap", "50"], True),
]


def test_plain_argv_parses_like_argparse():
    battery = list(_load_script("cli_digest").battery())
    assert len(battery) == 5282
    # The digest covers the table path: no battery call falls back.
    assert all(_plain_or_same(argv) is not None for argv in battery)
    literals = _argv_literals()
    assert len(literals) > 80
    for argv in literals:
        _plain_or_same(argv)
    for argv, plain in CRAFTED_ARGV:
        assert (_plain_or_same(argv) is not None) == plain, argv


@pytest.mark.parametrize("argv", [argv for argv, _ in CRAFTED_ARGV])
def test_crafted_argv_answers_as_through_argparse(argv, monkeypatch):
    # Exit status, stdout and stderr equal those of argparse parsing alone.
    fast = _run_captured(argv)
    monkeypatch.setattr("fsgraph.cli._plain_args", lambda words, rest: None)
    assert fast == _run_captured(argv)
