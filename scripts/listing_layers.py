#!/usr/bin/env python3
"""Time the layers of the path and cycle class listings on the benchmark's
theorems corpus.

Builds the ``theorems`` corpus of ``perfbench/corpus.py`` for one seed and
keeps its ``path_classes`` and ``cycle_classes`` ops (the n = 7 listings of
``theorems.path_fs_structure`` and ``cycle_fs_structure`` with
``include_classes=True``).  Per op and round it times, in turn:

- ``order_keys``: ``orientations._order_keys`` on the complement, the
  orientation key of every vertex order;
- ``orders_by_orientation``: ``orientations._orders_by_orientation`` on the
  complement, the keys and their grouping;
- ``listing``: the whole listing call, as the benchmark makes it;
- ``gen0_collection``: the time of the generation-0 collections that ran
  inside that listing call, read through ``gc.callbacks``.  A listing keeps
  the collector off while it builds its classes, and the first allocation
  after it turns the collector back on starts a collection over all of
  them.

The first two are timed with the collector paused, as the listing runs
them, so no collection falls inside them.  Per stratum (op kind and
complement edge count) the script prints, as one JSON object, the median
over every op and round of each layer, in microseconds.  Run it with each
source tree's ``src`` on PYTHONPATH to compare two trees; a tree whose
``orientations`` has no ``_order_keys`` (the keys packed inside
``_orders_by_orientation``) prints null for that layer.

Usage:
    python scripts/listing_layers.py [--seed 11] [--rounds 7]
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True   # read perfbench/, write nothing there
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus  # noqa: E402  (perfbench/corpus.py, found through the path above)
from fsgraph import Graph, orientations, theorems  # noqa: E402

LAYERS = ("order_keys", "orders_by_orientation", "listing", "gen0_collection")
KINDS = {
    "path_classes": theorems.path_fs_structure,
    "cycle_classes": theorems.cycle_fs_structure,
}


def _timed(fn, arg) -> float:
    t0 = time.perf_counter()
    fn(arg)
    return time.perf_counter() - t0


def _paused(fn, arg) -> float:
    with orientations._gc_paused():
        return _timed(fn, arg)


def measure(seed: int, rounds: int) -> dict:
    ops = [op for op in corpus.build("theorems", seed) if op.kind in KINDS]
    inputs = []
    for op in ops:
        y = Graph(op.n, op.y)
        comp = y.complement()
        inputs.append(((op.kind, comp.edge_count), KINDS[op.kind], y, comp))
    order_keys = getattr(orientations, "_order_keys", None)
    collecting = []   # [start time] while a gen-0 collection runs
    spent = [0.0]     # seconds of gen-0 collections since the last reset

    def on_gc(phase, info):
        if info["generation"] != 0:
            return
        if phase == "start":
            collecting.append(time.perf_counter())
        elif collecting:
            spent[0] += time.perf_counter() - collecting.pop()

    samples: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))

    for call in KINDS.values():   # warm-up: the kept tables of n = 7
        call(inputs[0][2], include_classes=True)
    gc.callbacks.append(on_gc)
    try:
        for _ in range(rounds):
            for stratum, call, y, comp in inputs:
                row = samples[stratum]
                if order_keys is not None:
                    row["order_keys"].append(_paused(order_keys, comp))
                row["orders_by_orientation"].append(_paused(orientations._orders_by_orientation, comp))
                spent[0] = 0.0
                row["listing"].append(_timed(lambda g: call(g, include_classes=True), y))
                row["gen0_collection"].append(spent[0])
    finally:
        gc.callbacks.remove(on_gc)
    by_stratum = {}
    for (kind, edges), row in sorted(samples.items()):
        by_stratum[f"{kind} mc={edges}"] = {"listings": len(row["listing"]) // rounds} | {
            f"{layer}_us": round(statistics.median(row[layer]) * 1e6, 1) if row[layer] else None
            for layer in LAYERS
        }
    return {
        "workload": "theorems",
        "seed": seed,
        "listings": len(inputs),
        "rounds": rounds,
        "by_stratum": by_stratum,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="time the layers of the class listings on the theorems corpus")
    p.add_argument("--seed", type=int, default=11, help="corpus seed (default 11)")
    p.add_argument("--rounds", type=int, default=7, help="rounds over the listings (default 7)")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    print(json.dumps(measure(args.seed, args.rounds), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
