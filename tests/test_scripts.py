"""The scripts under scripts/ refuse oversized runs the way the CLI does:
one line on stderr and exit status 3, no traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
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
