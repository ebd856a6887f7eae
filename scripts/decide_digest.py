#!/usr/bin/env python3
"""Hash the output of the benchmark's ``decide`` corpus.

Builds the ``decide`` corpus of ``perfbench/corpus.py`` for seeds 1, 2
and 3 (200 graph pairs each), runs ``fsgraph decide --x <graph6> --y
<graph6>`` on every pair through ``fsgraph.cli.main`` in one process,
and prints the number of calls and a SHA-256 over each call's argv, exit
status and standard output (standard error is dropped), hashed by the
``digest`` of ``scripts/cli_digest.py``.  Two source trees that
print the same digest give the same verdicts, theorems and witnesses on
the corpus the benchmark times.

Usage:
    python scripts/decide_digest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.dont_write_bytecode = True   # read perfbench/, write nothing there
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402  (perfbench/corpus.py, found through the path above)
from cli_digest import digest  # noqa: E402  (scripts/ is on the path of a script run)

SEEDS = (1, 2, 3)


def battery():
    """Yield the argv of every call, in corpus order, seed by seed."""
    for seed in SEEDS:
        for op in corpus.build("decide", seed):
            yield ["decide", "--x", corpus.graph6(op.n, op.x), "--y", corpus.graph6(op.n, op.y)]


def main() -> int:
    calls, hexdigest = digest(battery())
    print(f"{calls} calls sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
