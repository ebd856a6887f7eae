#!/usr/bin/env python3
"""Time the layers of ``fsgraph decide`` on the benchmark's decide corpus.

Builds the ``decide`` corpus of ``perfbench/corpus.py`` for one seed (200
graph pairs) and times, per pair, four layers in turn:

- ``graph6_decode``: ``graphio.from_graph6`` on both graph6 strings;
- ``structure_report``: ``graphs.structure_report`` on both freshly
  decoded graphs (each report is built, none is read back);
- ``decide_chain``: ``theorems.decide_connectivity`` on a pair whose two
  reports are already built, so only the chain's own work is timed (the
  reports of graphs the chain derives, such as a complement, included);
- ``cli_main``: one whole ``fsgraph decide --x <graph6> --y <graph6>``
  call through ``cli.main``, standard output captured as the benchmark
  does.

Each layer runs over the whole corpus once per round, ROUNDS rounds (about
a second in all); a round's time is divided by the number of pairs, and the
median over the rounds is printed, in microseconds per pair, as one JSON
object.  Decoding and report building that a layer needs but does not time
happen before its clock starts.  Run it with each source tree's ``src`` on PYTHONPATH to
compare two trees.

Usage:
    python scripts/decide_layers.py [--seed 11]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True   # read perfbench/, write nothing there
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402  (perfbench/corpus.py, found through the path above)
from fsgraph import cli, graphio, graphs, theorems  # noqa: E402

ROUNDS = 30


def _per_pair_us(rounds: int, pairs: int, run_round) -> float:
    """Median over the rounds of run_round's time, in microseconds per pair;
    run_round(i) runs round i and returns its elapsed seconds."""
    return round(statistics.median(run_round(i) for i in range(rounds)) * 1e6 / pairs, 3)


def _decoded(texts):
    return [(graphio.from_graph6(x), graphio.from_graph6(y)) for x, y in texts]


def measure(seed: int, rounds: int) -> dict:
    texts = [(corpus.graph6(op.n, op.x), corpus.graph6(op.n, op.y)) for op in corpus.build("decide", seed)]
    pairs = len(texts)

    def decode(_):
        t0 = time.perf_counter()
        for x, y in texts:
            graphio.from_graph6(x)
            graphio.from_graph6(y)
        return time.perf_counter() - t0

    fresh = [_decoded(texts) for _ in range(rounds)]

    def report(i):
        batch = fresh[i]
        t0 = time.perf_counter()
        for x, y in batch:
            graphs.structure_report(x)
            graphs.structure_report(y)
        return time.perf_counter() - t0

    reported = [_decoded(texts) for _ in range(rounds)]
    for batch in reported:
        for x, y in batch:
            graphs.structure_report(x)
            graphs.structure_report(y)

    def chain(i):
        batch = reported[i]
        t0 = time.perf_counter()
        for x, y in batch:
            theorems.decide_connectivity(x, y)
        return time.perf_counter() - t0

    argvs = [["decide", "--x", x, "--y", y] for x, y in texts]

    def whole(_):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            for argv in argvs:
                cli.main(argv)
            return time.perf_counter() - t0

    whole(0)   # warm-up: lazily built parsers and caches
    return {
        "workload": "decide",
        "seed": seed,
        "pairs": pairs,
        "rounds": rounds,
        "us_per_pair": {
            "graph6_decode": _per_pair_us(rounds, pairs, decode),
            "structure_report": _per_pair_us(rounds, pairs, report),
            "decide_chain": _per_pair_us(rounds, pairs, chain),
            "cli_main": _per_pair_us(rounds, pairs, whole),
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="time the layers of fsgraph decide on the benchmark corpus")
    p.add_argument("--seed", type=int, default=11, help="corpus seed (default 11)")
    args = p.parse_args(argv)
    print(json.dumps(measure(args.seed, ROUNDS), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
