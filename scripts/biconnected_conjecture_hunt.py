#!/usr/bin/env python3
"""Hunt for a disconnected FS(X, Y) with biconnected X and coprime-forest
complement Y.

Conjecturally, whenever the complement of Y is a forest whose tree sizes
are setwise coprime, FS(X, Y) is connected for every biconnected X.  No
theorem path in the package assumes this; this script just searches for a
counterexample at desk scale and reports what it saw.

Usage:
    python scripts/biconnected_conjecture_hunt.py [--max-n 6] [--trials 200] [--seed 0]
"""

from __future__ import annotations

import argparse
import random
import sys

from fsgraph import FSInstance, ResourceLimitError, is_connected, structure_report
from fsgraph.iso import enumerate_nonisomorphic


def coprime_forest_partners(n: int):
    for g in enumerate_nonisomorphic(n):
        comp = g.complement()
        report = structure_report(comp)
        if report.is_forest and report.gcd_of_component_sizes == 1:
            yield g


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--trials", type=int, default=200, help="random X per (n, Y)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        return hunt(args.max_n, args.trials, random.Random(args.seed))
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


def hunt(max_n: int, trials: int, rng: random.Random) -> int:
    if max_n >= 3:
        enumerate_nonisomorphic(max_n)   # refuses past n = 8 before any search
    checked = 0
    for n in range(3, max_n + 1):
        partners = list(coprime_forest_partners(n))
        biconnected_x = [
            x for x in enumerate_nonisomorphic(n) if structure_report(x).is_biconnected
        ]
        print(f"n={n}: {len(partners)} qualifying partners, {len(biconnected_x)} biconnected X")
        for y in partners:
            for x in biconnected_x:
                checked += 1
                if not is_connected(FSInstance(x, y)):
                    print("COUNTEREXAMPLE FOUND")
                    print("  X:", x.edges)
                    print("  Y:", y.edges)
                    return 1
        # a few random relabelings as a sanity check that labeling is irrelevant
        for _ in range(trials):
            y = rng.choice(partners)
            x = rng.choice(biconnected_x)
            labels = list(range(1, n + 1))
            rng.shuffle(labels)
            x = x.relabel(dict(zip(range(1, n + 1), labels)))
            checked += 1
            if not is_connected(FSInstance(x, y)):
                print("COUNTEREXAMPLE FOUND (relabelled)")
                print("  X:", x.edges)
                print("  Y:", y.edges)
                return 1
    print(f"no counterexample among {checked} instances")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
