"""How each kind of op calls fsgraph, what is kept of its answer, and how
the answer is checked.

``prepare`` turns an :class:`corpus.Op` into a zero-argument callable.  The
callable looks its entry point up on the fsgraph module at call time, so
the tracer's wrappers are seen when tracing is on.  ``summarize`` keeps a
small, comparable digest of the answer (so a run does not hold large
listings in memory), and ``check`` compares that digest with an
independent reference from :mod:`reference`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import reference as ref
from corpus import Op, family, graph6

# One small op of each kind, run once before timing so that lazy caches
# (such as the named-family canonical forms used by the recognisers)
# are filled.  The decide ops are at n = 8, the size the decide corpus
# uses, because those caches are keyed by n.
WARMUP = (
    Op("components", "warm-up", 5, family("path", 5), ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4))),
    Op("path_count", "warm-up", 6, None, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))),
    Op("cycle_count", "warm-up", 6, None, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))),
    Op("path_classes", "warm-up", 5, None, ((1, 2), (2, 3), (3, 4), (4, 5))),
    Op("cycle_classes", "warm-up", 5, None, ((1, 2), (2, 3), (3, 4), (4, 5))),
    Op("star", "warm-up", 7, None, ((1, 2), (1, 3), (1, 5), (2, 7), (3, 4), (4, 7), (5, 6), (6, 7))),
    Op("decide", "warm-up", 8, family("lollipop3", 8), tuple(ref.complement_edges(8, ()))),
    Op("decide", "warm-up", 8, family("dynkin_d", 8), tuple(ref.complement_edges(8, ()))),
)


def prepare(op: Op, fs):
    """A zero-argument callable running ``op`` against the fsgraph modules
    in ``fs`` (a namespace with attributes fscore, theorems, cli, Graph)."""
    y = fs.Graph(op.n, op.y)
    if op.kind == "components":
        x = fs.Graph(op.n, op.x)
        return lambda: fs.fscore.components(fs.fscore.FSInstance(x, y))
    if op.kind == "path_count":
        return lambda: fs.theorems.path_fs_structure(y)
    if op.kind == "cycle_count":
        return lambda: fs.theorems.cycle_fs_structure(y)
    if op.kind == "path_classes":
        return lambda: fs.theorems.path_fs_structure(y, include_classes=True)
    if op.kind == "cycle_classes":
        return lambda: fs.theorems.cycle_fs_structure(y, include_classes=True)
    if op.kind == "star":
        return lambda: fs.theorems.star_fs_structure(y)
    if op.kind == "decide":
        argv = ["decide", "--x", graph6(op.n, op.x), "--y", graph6(op.n, op.y)]

        def run_cli():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = fs.cli.main(argv)
            return code, out.getvalue()

        return run_cli
    raise ValueError(f"unknown op kind {op.kind!r}")


def summarize(op: Op, result) -> dict:
    """A small digest of the answer; ``decided`` is False for an
    "unknown" verdict or a listing refused by its cap."""
    if op.kind == "components":
        return {
            "count": result.component_count,
            "sizes": list(result.sizes),
            "explored": result.explored_vertices,
            "reps": len(result.representatives),
            "decided": True,
        }
    if op.kind in ("path_count", "cycle_count"):
        return {"count": result.component_count, "decided": True}
    if op.kind in ("path_classes", "cycle_classes"):
        if result.classes is None:
            return {"count": result.component_count, "decided": False}
        members = [perms for _, perms in result.classes]
        return {
            "count": result.component_count,
            "sizes": sorted(len(p) for p in members),
            "union": len(frozenset().union(*members)),
            "decided": True,
        }
    if op.kind == "star":
        if result is None:
            return {"count": None, "decided": False}
        sizes = None if result.sizes is None else sorted(result.sizes)
        return {"count": result.component_count, "sizes": sizes, "decided": True}
    if op.kind == "decide":
        code, text = result
        status = json.loads(text)["status"] if code == 0 else None
        return {"exit": code, "status": status, "decided": status in ("connected", "disconnected")}
    raise ValueError(f"unknown op kind {op.kind!r}")


def x_family(op: Op) -> str | None:
    for name in ("path", "cycle", "star"):
        if op.x == family(name, op.n):
            return name
    return None


def _path_count(n: int, y) -> int:
    """Components of FS(Path_n, Y): T(2, 0) of the complement of Y."""
    return ref.acyclic_orientation_count(n, ref.complement_edges(n, y))


def _cycle_count(n: int, y) -> int:
    """Components of FS(Cycle_n, Y): T(1, 0) of the complement of Y times
    the gcd of its component sizes."""
    comp = ref.complement_edges(n, y)
    return ref.flip_class_count(n, comp) * ref.component_size_gcd(n, comp)


def expected(op: Op) -> dict:
    """The reference answer for ``op``, computed without fsgraph."""
    n = op.n
    if op.kind == "decide":
        return {"connected": ref.fs_is_connected(n, op.x, op.y)}
    if op.kind == "components":
        xname = x_family(op)
        if xname == "path":
            return {"count": _path_count(n, op.y)}
        if xname == "cycle":
            return {"count": _cycle_count(n, op.y)}
        if xname == "star" and ref.is_biconnected(n, op.y):
            if ref.is_cycle(n, op.y):
                return {"count": math.factorial(n - 2)}
            return {"count": 2 if ref.is_bipartite(n, op.y) else 1}
        return {"sizes": ref.fs_components(n, op.x, op.y)}
    if op.kind == "path_count":
        return {"count": _path_count(n, op.y)}
    if op.kind == "cycle_count":
        return {"count": _cycle_count(n, op.y)}
    if op.kind in ("path_classes", "cycle_classes"):
        x = family("path" if op.kind == "path_classes" else "cycle", n)
        return {"sizes": ref.fs_components(n, x, op.y)}
    if op.kind == "star":
        return {"sizes": ref.fs_components(n, family("star", n), op.y)}
    raise ValueError(f"unknown op kind {op.kind!r}")


def check(op: Op, got: dict, want: dict | None) -> str | None:
    """None when ``got`` agrees with the reference ``want``, otherwise a
    one-line reason."""
    n = op.n
    if op.kind == "decide":
        if got["exit"] != 0:
            return f"exit code {got['exit']}"
        if got["decided"] and (got["status"] == "connected") != want["connected"]:
            return f"verdict {got['status']} but brute force says connected={want['connected']}"
        return None
    if op.kind == "components":
        total = math.factorial(n)
        if sum(got["sizes"]) != total or got["explored"] != total:
            return f"sizes sum to {sum(got['sizes'])}, explored {got['explored']}, expected {total}"
        if got["reps"] != got["count"] or len(got["sizes"]) != got["count"]:
            return "component count, sizes and representatives disagree"
    if not got["decided"]:
        return None
    if "count" in want and got["count"] != want["count"]:
        return f"count {got['count']}, reference {want['count']}"
    if "sizes" in want:
        if got["count"] != len(want["sizes"]):
            return f"count {got['count']}, reference {len(want['sizes'])}"
        if got.get("sizes") is not None and got["sizes"] != want["sizes"]:
            return "component sizes differ from the reference"
    if "union" in got and got["union"] != math.factorial(n):
        return f"listed classes cover {got['union']} permutations, expected {n}!"
    return None
