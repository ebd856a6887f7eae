#!/usr/bin/env python3
"""Hash the output of a fixed battery of CLI calls.

Runs every call through ``fsgraph.cli.main`` in one process and prints the
number of calls and a SHA-256 over each call's argv, exit status and
standard output (standard error is dropped).  Two source trees that print
the same digest answer the battery byte for byte alike, and two runs under
different ``PYTHONHASHSEED`` values that print the same digest show that
no output depends on set or dict hash order.

The battery, graphs given one per isomorphism class as inline JSON:

- ``path structure --list`` on every class with n <= 6, ``cycle structure
  --list`` and ``star structure`` on those with 3 <= n <= 6;
- ``acyc enumerate``, ``acyc partition`` (toric, double_flip,
  local_double_flip, and ab_flip with a = 2, b = 1) and ``acyc phi`` for
  n <= 5;
- ``tutte eval`` at (2, 0), (1, 0), (1, 1) and (2, 1) for n <= 6;
- ``fs components``, ``fs components --listing-cap 2`` and
  ``fs connected`` on every ordered pair of classes with n <= 4;
- ``decide`` on every ordered pair of classes with n <= 5, once with the
  graphs as inline JSON and once as graph6 strings, so that both parsers
  feed the certificate chain;
- ``decide`` on every ordered pair of named families (complete, path,
  cycle, star, edgeless, dynkin_d, lollipop with a triangle, and the
  complete bipartite graph with parts n // 2 and n - n // 2) at each
  6 <= n <= 12, with theta0 among them at n = 7, and ``star structure``
  on those families for n <= 9.

Usage:
    python scripts/cli_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from fsgraph import cli
from fsgraph.graphio import graph_to_json_dict, to_graph6
from fsgraph.iso import enumerate_nonisomorphic


def families(n: int) -> list[str]:
    """The named-family specs on n vertices, for 6 <= n <= 12."""
    names = ("complete", "path", "cycle", "star", "edgeless", "dynkin_d")
    specs = [f"family:{name}:{n}" for name in names]
    specs += [f"family:lollipop:{n - 3},3", f"family:complete_bipartite:{n // 2},{n}"]
    if n == 7:
        specs.append("family:theta0")
    return specs


def battery():
    """Yield the argv of every call, in a fixed order."""
    specs = {
        n: [json.dumps(graph_to_json_dict(g)) for g in enumerate_nonisomorphic(n)]
        for n in range(1, 7)
    }
    for n, graphs in specs.items():
        for y in graphs:
            yield ["path", "structure", "--y", y, "--list"]
            if n >= 3:
                yield ["cycle", "structure", "--y", y, "--list"]
                yield ["star", "structure", "--y", y]
    for n in range(1, 6):
        for g in specs[n]:
            yield ["acyc", "enumerate", "--g", g]
            for kind in ("toric", "double_flip", "local_double_flip"):
                yield ["acyc", "partition", "--g", g, "--kind", kind]
            yield ["acyc", "partition", "--g", g, "--kind", "ab_flip", "--a", "2", "--b", "1"]
            yield ["acyc", "phi", "--g", g]
    for graphs in specs.values():
        for g in graphs:
            for x, y in ((2, 0), (1, 0), (1, 1), (2, 1)):
                yield ["tutte", "eval", "--g", g, "--x", str(x), "--y", str(y)]
    for n in range(1, 5):
        for x in specs[n]:
            for y in specs[n]:
                yield ["fs", "components", "--x", x, "--y", y]
                yield ["fs", "components", "--x", x, "--y", y, "--listing-cap", "2"]
                yield ["fs", "connected", "--x", x, "--y", y]
    for n in range(1, 6):
        for x in specs[n]:
            for y in specs[n]:
                yield ["decide", "--x", x, "--y", y]
    for n in range(1, 6):
        graph6 = [to_graph6(g) for g in enumerate_nonisomorphic(n)]
        for x in graph6:
            for y in graph6:
                yield ["decide", "--x", x, "--y", y]
    for n in range(6, 13):
        for x in families(n):
            for y in families(n):
                yield ["decide", "--x", x, "--y", y]
    for n in range(6, 10):
        for y in families(n):
            yield ["star", "structure", "--y", y]


def digest(argvs) -> tuple[int, str]:
    """(number of calls, SHA-256 hex digest) of the calls in argvs."""
    h = hashlib.sha256()
    calls = 0
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        h.update(json.dumps([argv, code, out.getvalue()]).encode() + b"\n")
        calls += 1
    return calls, h.hexdigest()


def main() -> int:
    calls, hexdigest = digest(battery())
    print(f"{calls} calls sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
