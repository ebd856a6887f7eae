#!/usr/bin/env python3
"""Print component-count tables for FS(X, Y) with path/cycle/star positions.

For every partner graph Y on n vertices (one per isomorphism class), the
table shows the brute-force component count next to the theorem-route
count, so a glance confirms they agree.

Usage:
    python scripts/component_tables.py [--n 5] [--family path|cycle|star]
"""

from __future__ import annotations

import argparse
import sys

from fsgraph import (
    FSInstance,
    ResourceLimitError,
    build_named,
    family_component_count,
)
from fsgraph.fscore import component_count
from fsgraph.iso import enumerate_nonisomorphic


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--family", choices=("path", "cycle", "star"), default="cycle")
    args = parser.parse_args()
    if args.family in ("cycle", "star") and args.n < 3:
        parser.error("cycle and star positions need n >= 3")
    try:
        return print_table(args.family, args.n)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


def print_table(family: str, n: int) -> int:
    x = build_named(family, n)
    partners = enumerate_nonisomorphic(n)   # refuses past n = 8 before any output

    print(f"FS({family}_{n}, Y) over all {n}-vertex partner classes")
    print(f"{'edges of Y':<44} {'brute':>6} {'theorem':>8}")
    mismatches = 0
    for y in partners:
        fast = family_component_count(family, y)
        if fast is None:
            continue
        brute = component_count(FSInstance(x, y))
        flag = "" if fast == brute else "  <-- MISMATCH"
        if fast != brute:
            mismatches += 1
        label = ",".join(f"{a}{b}" for a, b in y.edges) or "(edgeless)"
        print(f"{label:<44} {brute:>6} {fast:>8}{flag}")
    print(f"mismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
