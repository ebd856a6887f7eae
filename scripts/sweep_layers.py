#!/usr/bin/env python3
"""Count the work of ``fscore.components`` on the benchmark's oracle corpus.

Builds the ``oracle`` corpus of ``perfbench/corpus.py`` for one seed (107
``components`` ops at n = 7, 8 and 9) and runs each op's component sweep
once, counting per n:

- ``start_words``: the words the sweep draws from ``perms.lex_words`` while
  it looks for the next unseen start;
- ``bfs_states``: the states that breadth-first searches expand;
- ``image_states``: the states marked seen as orbit images of a searched
  component, with no search;
- ``components``: the components reported.

``bfs_states + image_states`` is ``ops * n!``.  The counts depend only on
the corpus and on the sweep's algorithm, not on timing, so two source trees
that print the same counts do the same search, word scan and image work.
The counting wrappers slow the sweep, so the script times nothing.

Usage:
    python scripts/sweep_layers.py [--seed 11]
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True   # read perfbench/, write nothing there
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402  (perfbench/corpus.py, found through the path above)
from fsgraph import Graph, fscore  # noqa: E402

FIELDS = ("ops", "start_words", "bfs_states", "image_states", "components")


def measure(seed: int) -> dict:
    ops = corpus.build("oracle", seed)
    counts = {n: Counter() for n in sorted({op.n for op in ops})}
    words, bfs = fscore.lex_words, fscore._bfs_from
    row = None

    def counted_words(n):
        for word in words(n):
            row["start_words"] += 1
            yield word

    def counted_bfs(*args):
        comp = bfs(*args)
        row["bfs_states"] += len(comp)
        return comp

    fscore.lex_words, fscore._bfs_from = counted_words, counted_bfs
    try:
        for op in ops:
            row = counts[op.n]
            inst = fscore.FSInstance(Graph(op.n, op.x), Graph(op.n, op.y))
            report = fscore.components(inst)
            row["ops"] += 1
            row["components"] += report.component_count
            row["states"] += report.explored_vertices
    finally:
        fscore.lex_words, fscore._bfs_from = words, bfs
    for row in counts.values():
        row["image_states"] = row["states"] - row["bfs_states"]
    return {
        "workload": "oracle",
        "seed": seed,
        "ops": len(ops),
        "by_n": {str(n): {field: row[field] for field in FIELDS} for n, row in counts.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="count the component sweep's work on the oracle corpus")
    p.add_argument("--seed", type=int, default=11, help="corpus seed (default 11)")
    args = p.parse_args(argv)
    print(json.dumps(measure(args.seed), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
