import contextlib
import io
import json
import random
import time

import pytest

from conftest import PAW, PETERSEN
from fsgraph.cli import _COMMANDS, _FAMILY_PARAM_COUNT, _parser, main, read_graph
from fsgraph.graphio import graph_to_json_dict, to_graph6
from fsgraph import Graph, Orientation, build_named, disjoint_union
from fsgraph.graphs import NAMED_FAMILIES


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
        assert (code, out) == (3, "") and "262144 acyclic orientations" in err


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
        # K_4 / K_4 reaches the hereditary rung, whose n <= 5 base case searches.
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
    code, out, _ = run_cli(capsys, "oracle-sweep", "--max-n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == []
    assert payload["checked"] > 0


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


def test_family_parameter_table_covers_exactly_the_named_families():
    assert set(_FAMILY_PARAM_COUNT) == set(NAMED_FAMILIES)


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
