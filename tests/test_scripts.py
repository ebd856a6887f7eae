"""The scripts under scripts/ refuse oversized runs the way the CLI does:
one line on stderr and exit status 3, no traceback; the CLI digest does
not depend on the hash seed, the decide digest prints its pin, and the
decide and listing layer timers and the sweep counter print one JSON
object."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, hash_seed=None):
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("component_tables.py", ("--n", "9", "--family", "cycle")),
        ("biconnected_conjecture_hunt.py", ("--max-n", "9")),
    ],
)
def test_script_refuses_past_eight_vertices(name, args):
    done = run_script(name, *args)
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("resource limit:")
    assert done.stdout == ""


def test_component_tables_small_run_agrees():
    done = run_script("component_tables.py", "--n", "4", "--family", "path")
    assert done.returncode == 0
    assert done.stdout.rstrip().endswith("mismatches: 0")


def test_cli_digest_does_not_depend_on_the_hash_seed():
    # CLI output must not follow set or dict hash order.
    outputs = []
    for seed in ("0", "12345"):
        done = run_script("cli_digest.py", hash_seed=seed)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    # The pin changes only on purpose, with any change to CLI stdout or exit codes.
    assert outputs[0] == (
        "5282 calls sha256 254d91e1e0f850a5cef62e3ff5cf5b4a00b8c6fdcdb904c52f7d12c9f5b54e4c\n"
    )
    assert outputs[0] == outputs[1]


def test_decide_digest_hashes_the_benchmark_corpus():
    done = run_script("decide_digest.py")
    assert done.returncode == 0, done.stderr
    # The pin changes only on purpose, with any change to decide's stdout or exit codes.
    assert done.stdout == (
        "600 calls sha256 f66c01f50a282428db27690b41d3fac1bf11549954a4e56abb9816a940b35661\n"
    )


def test_decide_layers_times_each_layer_of_the_corpus():
    done = run_script("decide_layers.py", "--seed", "3")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["workload"], report["seed"], report["pairs"], report["rounds"]) == (
        "decide", 3, 200, 30,
    )
    layers = report["us_per_pair"]
    assert set(layers) == {"graph6_decode", "structure_report", "decide_chain", "cli_main"}
    assert all(type(us) is float and us > 0 for us in layers.values())


def test_listing_layers_times_each_layer_of_the_listings():
    done = run_script("listing_layers.py", "--seed", "3", "--rounds", "1")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["workload"], report["seed"], report["listings"], report["rounds"]) == (
        "theorems", 3, 54, 1,
    )
    rows = report["by_stratum"]
    assert {name.split()[0] for name in rows} == {"path_classes", "cycle_classes"}
    assert sum(row["listings"] for row in rows.values()) == 54
    for row in rows.values():
        assert all(type(row[f"{layer}_us"]) is float and row[f"{layer}_us"] > 0 for layer in (
            "order_keys", "orders_by_orientation", "listing",
        ))
        assert row["gen0_collection_us"] >= 0


def test_sweep_layers_counts_the_oracle_sweep_per_n():
    done = run_script("sweep_layers.py", "--seed", "3")
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["workload"], report["seed"], report["ops"]) == ("oracle", 3, 107)
    rows = report["by_n"]
    assert sorted(rows) == ["7", "8", "9"]
    assert sum(row["ops"] for row in rows.values()) == 107
    for n, row in rows.items():
        # Every state is either expanded by a search or marked as an image.
        assert row["bfs_states"] + row["image_states"] == row["ops"] * math.factorial(int(n)), n
        assert row["start_words"] >= row["ops"] and row["components"] >= row["ops"], n
