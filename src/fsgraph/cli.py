"""Command-line front end.

Graphs are accepted in three forms wherever a graph flag appears:
``family:NAME[:PARAMS]`` (for example ``family:lollipop:3,3``), an inline
JSON object ``{"n": ..., "edges": [[i, j], ...]}``, a graph6 string, or
``@FILE`` to read either textual form from a file.  All results are
printed as JSON on standard output; exit status is 0 on success, 2 on
invalid input (an unknown command or flag included), 3 when a resource
cap refuses the computation, and 1 when an oracle sweep finds a mismatch.
Each command's words, handler, help line and flags appear once, in
``_COMMANDS``.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from collections import Counter

from .config import DEFAULT_CONFIG, RunConfig
from .errors import InvalidArgumentError, InvalidMoveError, ResourceLimitError
from .fscore import (
    ComponentReport,
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
    OrientationPartition,
    _acyclic_bits,
    _check_closure_cap,
    partition_by_moves,
    phi,
)
from .perms import Permutation
from .theorems import (
    ConnectivityVerdict,
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
        except (OSError, UnicodeDecodeError) as exc:
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


# -- JSON payloads ---------------------------------------------------------------


def _component_json(report: ComponentReport, n: int, config: RunConfig) -> dict:
    """A component report as JSON.  When the representatives were withheld,
    the sizes come as ascending [size, multiplicity] pairs, with the
    listing cap of `config` named in the error."""
    data: dict = {"n": n, "component_count": report.component_count}
    if report.representatives is not None:
        data["sizes"] = list(report.sizes)
        data["representatives"] = [str(p) for p in report.representatives]
        return data
    data["sizes"] = None
    data["size_counts"] = sorted(map(list, Counter(report.sizes).items()))
    data["representatives"] = None
    data["representatives_error"] = (
        f"{report.component_count} components exceed the listing cap of {config.listing_cap}"
    )
    return data


def _partition_json(partition: OrientationPartition) -> dict:
    data: dict = {"kind": partition.kind}
    if partition.kind == "ab_flip":
        data["a"] = partition.a
        data["b"] = partition.b
    data["classes"] = [[str(o) for o in cls] for cls in partition.classes]
    return data


def _verdict_json(verdict: ConnectivityVerdict) -> dict:
    return {"status": verdict.status, "theorem": verdict.theorem, "witness": verdict.witness}


# -- handlers ------------------------------------------------------------------


def _cmd_fs_components(args, config: RunConfig):
    inst = FSInstance(read_graph(args.x), read_graph(args.y))
    if args.format == "dot":
        return fs_to_dot(inst, config)
    return _component_json(_component_sweep(inst, config, config.listing_cap), inst.n, config)


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
    return _partition_json(partition_by_moves(g, args.kind, a=args.a, b=args.b))


def _cmd_acyc_phi(args, config: RunConfig):
    g = read_graph(args.g)
    partition = partition_by_moves(g, "double_flip")
    mapping = [phi(partition, i) for i in range(partition.class_count)]
    return {"class_count": partition.class_count, "phi": mapping}


def _cmd_tutte_eval(args, config: RunConfig):
    g = read_graph(args.g)
    return tutte_eval(g, args.x, args.y)


def _cmd_decide(args, config: RunConfig):
    return _verdict_json(decide_connectivity(read_graph(args.x), read_graph(args.y), config))


def _cmd_oracle_sweep(args, config: RunConfig):
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    for f in families:
        if f not in ("path", "cycle", "star"):
            raise InvalidArgumentError(f"unknown sweep family {f!r}")
    for flag, value in (("--max-n", args.max_n), ("--random", args.random)):
        if value < 0:
            raise InvalidArgumentError(f"{flag} must be non-negative, got {value}")
    if args.max_n > 0:
        enumerate_nonisomorphic(args.max_n)   # refuses past n = 8 before any check
    if args.random:
        _check_random_sweep(args.random, len(families), args.random_n, config)
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


def _check_random_sweep(count: int, families: int, n: int, config: RunConfig) -> None:
    """Refuse a random sweep whose searches would explore more than the
    state cap in all: one n! search per graph and family."""
    if n < 1:
        raise InvalidArgumentError(f"--random-n must be positive, got {n}")
    states = count * families
    k = 1
    while 0 < states <= config.state_cap and k < n:   # stops once past the cap
        k += 1
        states *= k
    if states > config.state_cap:
        raise ResourceLimitError(
            f"{count} random graphs x {families} families x {n}! states exceeds "
            f"the configured cap of {config.state_cap}"
        )


# -- command table ------------------------------------------------------------

_GRAPH = {"required": True}
_FORMAT = {"choices": ("json", "dot"), "default": "json"}
_STATE_CAP = {"type": int, "help": "max explored FS states"}
_LISTING_CAP = {"type": int, "help": "max entries listed"}
_LIST = {"action": "store_true", "help": "also list the component classes"}

# Command words -> (handler, one-line help, {flag: add_argument settings}).
# A command takes a cap flag only when the cap bounds its work.
_COMMANDS = {
    ("fs", "components"): (_cmd_fs_components, "exhaustive component report", {
        "--x": _GRAPH, "--y": _GRAPH, "--format": _FORMAT,
        "--state-cap": _STATE_CAP, "--listing-cap": _LISTING_CAP,
    }),
    ("fs", "connected"): (_cmd_fs_connected, "single connectivity check", {
        "--x": _GRAPH, "--y": _GRAPH, "--state-cap": _STATE_CAP,
    }),
    ("fs", "neighbors"): (_cmd_fs_neighbors, "friendly-swap neighbors of one permutation", {
        "--x": _GRAPH, "--y": _GRAPH, "--sigma": {"required": True},
    }),
    ("path", "structure"): (_cmd_path_structure, "components of FS(Path_n, Y)", {
        "--y": _GRAPH, "--list": _LIST, "--format": _FORMAT, "--listing-cap": _LISTING_CAP,
    }),
    ("cycle", "structure"): (_cmd_cycle_structure, "components of FS(Cycle_n, Y)", {
        "--y": _GRAPH, "--list": _LIST, "--format": _FORMAT, "--listing-cap": _LISTING_CAP,
    }),
    ("star", "structure"): (_cmd_star_structure, "components of FS(Star_n, Y), biconnected Y", {
        "--y": _GRAPH, "--format": _FORMAT,
    }),
    ("acyc", "enumerate"): (_cmd_acyc_enumerate, "list all acyclic orientations", {
        "--g": _GRAPH, "--listing-cap": _LISTING_CAP,
    }),
    ("acyc", "partition"): (_cmd_acyc_partition, "equivalence classes under a flip move", {
        "--g": _GRAPH,
        "--kind": {"choices": PARTITION_KINDS, "default": "toric"},
        "--a": {"type": int},
        "--b": {"type": int},
    }),
    ("acyc", "phi"): (_cmd_acyc_phi, "source-flip successor map on double-flip classes", {
        "--g": _GRAPH,
    }),
    ("tutte", "eval"): (_cmd_tutte_eval, "evaluate T_G(x, y) exactly", {
        "--g": _GRAPH,
        "--x": {"type": int, "required": True},
        "--y": {"type": int, "required": True},
    }),
    ("decide",): (_cmd_decide, "theorem-backed connectivity verdict", {
        "--x": _GRAPH, "--y": _GRAPH, "--state-cap": _STATE_CAP,
    }),
    ("oracle-sweep",): (_cmd_oracle_sweep, "cross-validate fast paths against brute force", {
        "--max-n": {"type": int, "default": 5, "help": "largest n swept; at most 8, else exit 3"},
        "--families": {"default": "path,cycle,star"},
        "--random": {"type": int, "default": 0, "help": "extra random labeled graphs"},
        "--random-n": {"type": int, "default": 6},
        "--seed": {"type": int, "default": 0},
        "--state-cap": _STATE_CAP,
    }),
}


@functools.cache
def _parser(words: tuple[str, ...]) -> argparse.ArgumentParser:
    """The flag parser of one command, built on first use: parsing leaves
    it unchanged, and it looks up sys.stdout and sys.stderr only when it
    writes."""
    _, help_line, flags = _COMMANDS[words]
    parser = argparse.ArgumentParser(prog=f"fsgraph {' '.join(words)}", description=help_line)
    for flag, settings in flags.items():
        parser.add_argument(flag, **settings)
    return parser


def _usage() -> str:
    width = max(len(" ".join(words)) for words in _COMMANDS)
    rows = "".join(
        f"  {' '.join(words):<{width}}  {help_line}\n" for words, (_, help_line, _) in _COMMANDS.items()
    )
    return (
        "usage: fsgraph <command> [options]\n\n"
        "Friends-and-strangers graph explorer and structure-theorem engine\n\n"
        f"commands:\n{rows}\nRun 'fsgraph <command> --help' for the flags of one command.\n"
    )


def _config_from_args(args) -> RunConfig:
    caps = {
        name: value
        for name in ("state_cap", "listing_cap")
        if (value := getattr(args, name, None)) is not None
    }
    return RunConfig(**caps) if caps else DEFAULT_CONFIG


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    words = next((w for w in (tuple(argv[:2]), tuple(argv[:1])) if w in _COMMANDS), None)
    if words is None:
        if {"-h", "--help"} & set(argv[:2]):
            sys.stdout.write(_usage())
            raise SystemExit(0)
        sys.stderr.write(_usage())
        raise SystemExit(2)
    args = _parser(words).parse_args(argv[len(words):])
    try:
        config = _config_from_args(args)
        result = _COMMANDS[words][0](args, config)
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
