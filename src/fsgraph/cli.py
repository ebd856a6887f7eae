"""Command-line front end.

Graphs are accepted in three forms wherever a graph flag appears:
``family:NAME[:PARAMS]`` (for example ``family:lollipop:3,3``), an inline
JSON object ``{"n": ..., "edges": [[i, j], ...]}``, a graph6 string, or
``@FILE`` to read either textual form from a file.  All results are
printed as JSON on standard output; exit status is 0 on success, 2 on
invalid input (an unknown flag included), 3 when a resource cap refuses
the computation, and 1 when an oracle sweep finds a mismatch.

A command takes a cap flag only when the cap bounds its work:
``--state-cap`` (explored FS states) goes with ``fs components``,
``fs connected``, ``decide`` and ``oracle-sweep``, and ``--listing-cap``
(entries listed) with ``fs components``, ``path structure``,
``cycle structure`` and ``acyc enumerate``.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .config import RunConfig
from .errors import InvalidArgumentError, InvalidMoveError, ResourceLimitError
from .fscore import (
    FSInstance,
    _component_sweep,
    component_count,
    friendly_neighbors,
    fs_to_dot,
    is_connected,
)
from .graphio import parse_graph, to_dot
from .graphs import NAMED_FAMILIES, Graph, build_named
from .iso import enumerate_nonisomorphic
from .orientations import (
    PARTITION_KINDS,
    Orientation,
    _acyclic_bits,
    _check_closure_cap,
    partition_by_moves,
    phi,
)
from .perms import Permutation
from .theorems import (
    cycle_fs_structure,
    decide_connectivity,
    path_fs_structure,
    star_fs_structure,
    tutte_eval,
)

# Parameters each family takes in a ``family:<name>:<p1>,<p2>`` spec.
_FAMILY_PARAM_COUNT = {
    "complete": 1,
    "path": 1,
    "cycle": 1,
    "star": 1,
    "edgeless": 1,
    "dynkin_d": 1,
    "lollipop": 2,
    "complete_bipartite": 2,
    "theta0": 0,
}


def read_graph(spec: str) -> Graph:
    spec = spec.strip()
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                spec = fh.read().strip()
        except OSError as exc:
            raise InvalidArgumentError(f"cannot read graph file: {exc}") from exc
    if spec.startswith("family:"):
        return _family_graph(spec)
    return parse_graph(spec)


def _family_graph(spec: str) -> Graph:
    parts = spec.split(":")
    name = parts[1] if len(parts) > 1 else ""
    if name not in NAMED_FAMILIES:
        raise InvalidArgumentError(f"unknown family {name!r} in {spec!r}")
    raw_params = parts[2].split(",") if len(parts) > 2 and parts[2] else []
    try:
        params = [int(p) for p in raw_params]
    except ValueError as exc:
        raise InvalidArgumentError(f"non-integer family parameters in {spec!r}") from exc
    want = _FAMILY_PARAM_COUNT[name]
    if name == "theta0":
        if params not in ([], [7]):
            raise InvalidArgumentError("theta0 takes no parameters (or the fixed n=7)")
        return build_named("theta0")
    if len(params) != want:
        raise InvalidArgumentError(
            f"family {name} takes {want} parameter(s), got {len(params)} in {spec!r}"
        )
    if name == "lollipop":
        return build_named("lollipop", k=params[0], m=params[1])
    if name == "complete_bipartite":
        return build_named("complete_bipartite", params[1], k=params[0])
    return build_named(name, params[0])


def _emit(payload) -> None:
    if isinstance(payload, str):
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")
    else:
        sys.stdout.write(json.dumps(payload) + "\n")


# -- handlers ------------------------------------------------------------------


def _cmd_fs_components(args, config: RunConfig):
    inst = FSInstance(read_graph(args.x), read_graph(args.y))
    if args.format == "dot":
        return fs_to_dot(inst, config)
    return _component_sweep(inst, config, config.listing_cap).to_json_dict(inst.n, config)


def _cmd_fs_connected(args, config: RunConfig):
    inst = FSInstance(read_graph(args.x), read_graph(args.y))
    return {"n": inst.n, "connected": is_connected(inst, config)}


def _cmd_fs_neighbors(args, config: RunConfig):
    inst = FSInstance(read_graph(args.x), read_graph(args.y))
    sigma = Permutation.parse(args.sigma)
    return {
        "sigma": str(sigma),
        "neighbors": [str(p) for p in friendly_neighbors(inst, sigma)],
    }


def _cmd_path_structure(args, config: RunConfig):
    y = read_graph(args.y)
    if args.format == "dot":
        return to_dot(y.complement(), name="complement")
    result = path_fs_structure(y, include_classes=args.list, config=config)
    payload: dict = {"component_count": result.component_count}
    if args.list:
        if result.classes is None:
            payload["classes"] = None
            payload["classes_error"] = result.listing_error
        else:
            payload["classes"] = [
                {"orientation": str(o), "extensions": sorted(str(p) for p in exts)}
                for o, exts in result.classes
            ]
    return payload


def _cmd_cycle_structure(args, config: RunConfig):
    y = read_graph(args.y)
    if args.format == "dot":
        return to_dot(y.complement(), name="complement")
    result = cycle_fs_structure(y, include_classes=args.list, config=config)
    payload: dict = {
        "component_count": result.component_count,
        "nu": result.nu,
        "toric_count": result.toric_count,
    }
    if args.list:
        if result.classes is None:
            payload["classes"] = None
            payload["classes_error"] = result.listing_error
        else:
            payload["classes"] = [
                {
                    "orientations": [str(o) for o in cls],
                    "extensions": sorted(str(p) for p in exts),
                }
                for cls, exts in result.classes
            ]
    return payload


def _cmd_star_structure(args, config: RunConfig):
    y = read_graph(args.y)
    if args.format == "dot":
        return to_dot(y, name="partner")
    result = star_fs_structure(y)
    if result is None:
        return {"applicable": False}
    return {
        "applicable": True,
        "component_count": result.component_count,
        "sizes": list(result.sizes) if result.sizes is not None else None,
    }


def _cmd_acyc_enumerate(args, config: RunConfig):
    g = read_graph(args.g)
    count = tutte_eval(g, 2, 0)   # T(2, 0) counts them without listing
    payload: dict = {"count": count}
    if count <= config.listing_cap:
        _check_closure_cap(count)
        payload["orientations"] = [str(Orientation(g, bits)) for bits in _acyclic_bits(g)]
    else:
        payload["orientations"] = None
        payload["orientations_error"] = (
            f"{count} orientations exceed the listing cap of {config.listing_cap}"
        )
    return payload


def _cmd_acyc_partition(args, config: RunConfig):
    g = read_graph(args.g)
    partition = partition_by_moves(g, args.kind, a=args.a, b=args.b)
    return partition.to_json_dict()


def _cmd_acyc_phi(args, config: RunConfig):
    g = read_graph(args.g)
    partition = partition_by_moves(g, "double_flip")
    mapping = [phi(partition, i) for i in range(partition.class_count)]
    return {"class_count": partition.class_count, "phi": mapping}


def _cmd_tutte_eval(args, config: RunConfig):
    g = read_graph(args.g)
    return tutte_eval(g, args.x, args.y)


def _cmd_decide(args, config: RunConfig):
    verdict = decide_connectivity(read_graph(args.x), read_graph(args.y), config)
    return verdict.to_json_dict()


def _cmd_oracle_sweep(args, config: RunConfig):
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    for f in families:
        if f not in ("path", "cycle", "star"):
            raise InvalidArgumentError(f"unknown sweep family {f!r}")
    if args.max_n > 0:
        enumerate_nonisomorphic(args.max_n)   # refuses past n = 8 before any check
    checked = 0
    mismatches: list[dict] = []

    def check(family: str, y: Graph) -> None:
        nonlocal checked
        n = y.n
        if family == "path":
            x = build_named("path", n)
            expected = path_fs_structure(y).component_count
        elif family == "cycle":
            if n < 3:
                return
            x = build_named("cycle", n)
            expected = cycle_fs_structure(y).component_count
        else:
            if n < 3:
                return
            x = build_named("star", n)
            structure = star_fs_structure(y)
            if structure is None:
                return
            expected = structure.component_count
        actual = component_count(FSInstance(x, y), config)
        checked += 1
        if actual != expected:
            mismatches.append(
                {
                    "family": family,
                    "n": n,
                    "y_edges": [list(e) for e in y.edges],
                    "expected": expected,
                    "actual": actual,
                }
            )

    for n in range(1, args.max_n + 1):
        for y in enumerate_nonisomorphic(n):
            for family in families:
                check(family, y)
    if args.random:
        rng = random.Random(args.seed)
        n = args.random_n
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for _ in range(args.random):
            y = Graph(n, [e for e in pairs if rng.random() < 0.5])
            for family in families:
                check(family, y)
    payload = {"checked": checked, "mismatches": mismatches}
    return payload, (1 if mismatches else 0)


# -- parser ---------------------------------------------------------------------


def _add_state_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--state-cap", type=int, default=None, help="max explored FS states")


def _add_listing_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--listing-cap", type=int, default=None, help="max entries listed")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and it looks up sys.stdout and sys.stderr only when it
    writes."""
    parser = argparse.ArgumentParser(
        prog="fsgraph",
        description="Friends-and-strangers graph explorer and structure-theorem engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fs = sub.add_parser("fs", help="direct FS(X, Y) exploration")
    fs_sub = fs.add_subparsers(dest="fs_command", required=True)
    p = fs_sub.add_parser("components", help="exhaustive component report")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    _add_state_cap(p)
    _add_listing_cap(p)
    p.set_defaults(handler=_cmd_fs_components)
    p = fs_sub.add_parser("connected", help="single connectivity check")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_state_cap(p)
    p.set_defaults(handler=_cmd_fs_connected)
    p = fs_sub.add_parser("neighbors", help="friendly-swap neighbors of one permutation")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--sigma", required=True)
    p.set_defaults(handler=_cmd_fs_neighbors)

    path = sub.add_parser("path", help="path-position structure theorems")
    path_sub = path.add_subparsers(dest="path_command", required=True)
    p = path_sub.add_parser("structure", help="components of FS(Path_n, Y)")
    p.add_argument("--y", required=True)
    p.add_argument("--list", action="store_true", help="also list the component classes")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    _add_listing_cap(p)
    p.set_defaults(handler=_cmd_path_structure)

    cyc = sub.add_parser("cycle", help="cycle-position structure theorems")
    cyc_sub = cyc.add_subparsers(dest="cycle_command", required=True)
    p = cyc_sub.add_parser("structure", help="components of FS(Cycle_n, Y)")
    p.add_argument("--y", required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    _add_listing_cap(p)
    p.set_defaults(handler=_cmd_cycle_structure)

    star = sub.add_parser("star", help="star-position classification")
    star_sub = star.add_subparsers(dest="star_command", required=True)
    p = star_sub.add_parser("structure", help="components of FS(Star_n, Y), biconnected Y")
    p.add_argument("--y", required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(handler=_cmd_star_structure)

    acyc = sub.add_parser("acyc", help="acyclic orientations and flip classes")
    acyc_sub = acyc.add_subparsers(dest="acyc_command", required=True)
    p = acyc_sub.add_parser("enumerate", help="list all acyclic orientations")
    p.add_argument("--g", required=True)
    _add_listing_cap(p)
    p.set_defaults(handler=_cmd_acyc_enumerate)
    p = acyc_sub.add_parser("partition", help="equivalence classes under a flip move")
    p.add_argument("--g", required=True)
    p.add_argument(
        "--kind",
        choices=PARTITION_KINDS,
        default="toric",
    )
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.set_defaults(handler=_cmd_acyc_partition)
    p = acyc_sub.add_parser("phi", help="source-flip successor map on double-flip classes")
    p.add_argument("--g", required=True)
    p.set_defaults(handler=_cmd_acyc_phi)

    tutte = sub.add_parser("tutte", help="Tutte polynomial evaluation")
    tutte_sub = tutte.add_subparsers(dest="tutte_command", required=True)
    p = tutte_sub.add_parser("eval", help="evaluate T_G(x, y) exactly")
    p.add_argument("--g", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.set_defaults(handler=_cmd_tutte_eval)

    p = sub.add_parser("decide", help="theorem-backed connectivity verdict")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_state_cap(p)
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("oracle-sweep", help="cross-validate fast paths against brute force")
    p.add_argument("--max-n", type=int, default=5, help="largest n swept; at most 8, else exit 3")
    p.add_argument("--families", default="path,cycle,star")
    p.add_argument("--random", type=int, default=0, help="extra random labeled graphs")
    p.add_argument("--random-n", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    _add_state_cap(p)
    p.set_defaults(handler=_cmd_oracle_sweep)

    return parser


def _config_from_args(args) -> RunConfig:
    caps = {
        name: value
        for name in ("state_cap", "listing_cap")
        if (value := getattr(args, name, None)) is not None
    }
    return RunConfig(**caps)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        result = args.handler(args, config)
    except (InvalidArgumentError, InvalidMoveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    if isinstance(result, tuple):
        payload, code = result
    else:
        payload, code = result, 0
    _emit(payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
