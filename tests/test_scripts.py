"""The scripts under scripts/ refuse oversized runs the way the CLI does:
one line on stderr and exit status 3, no traceback; the CLI digest does
not depend on the hash seed."""

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
        "4784 calls sha256 5aa6ea9b03402c7f7f444269e7696c20a18b30393368b84f685e2d3e368fec48\n"
    )
    assert outputs[0] == outputs[1]
