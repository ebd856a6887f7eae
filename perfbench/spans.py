"""Span tracing at the boundaries between fsgraph's modules.

:class:`Tracer` replaces each public function of a layer module with a
wrapper *at every place a caller looks it up*: the defining module and
every fsgraph module that imported the name (``fsgraph.theorems.
canonical_form``, ``fsgraph.cli.parse_graph``, ...).  A wrapper records
one span: id, parent span, op id, name ``<layer>.<function>``, start and
end (``time.perf_counter``), and a small note taken from the result for
the few functions whose output counts work.  Generator functions such as
``iter_hamiltonian_paths`` are counted, not timed: their span has zero
length and their body runs in the caller's time.  ``perms`` is not
wrapped, so its time is counted inside its callers.

Spans stay in memory until the run ends.  ``layer_metrics`` derives every
per-layer number from the span list alone.
"""

from __future__ import annotations

import inspect
import time

LAYERS = ("fscore", "orientations", "tutte", "iso", "graphs", "theorems", "graphio", "cli")

THEOREMS = (
    "tiny",
    "path-needs-complete",
    "cycle-complement-forest",
    "star-biconnected",
    "lollipop-min-degree",
    "dynkin-min-degree",
    "disconnected-factor",
    "bipartite-parity",
    "cut-path-degree",
    "cut-vertex-margins",
    "hereditary-extension",
)

RECOGNIZERS = frozenset(
    f"iso.is_{name}_graph"
    for name in ("path", "cycle", "star", "complete", "lollipop", "dynkin", "theta0")
)


def _note_components(args, result):
    return [result.explored_vertices, result.explored_vertices * args[0].x.edge_count]


# Functions whose result carries a work count worth keeping on the span.
NOTES = {
    "fscore.components": _note_components,
    "orientations.enumerate_acyclic": lambda args, result: len(result),
    "orientations.linear_extensions": lambda args, result: len(result),
    "theorems.decide_connectivity": lambda args, result: result.theorem or result.status,
    "theorems.hereditary_sufficiency": lambda args, result: bool(result.proven_connected),
}

# Span record fields, kept as lists for speed.
ID, PARENT, OP, NAME, START, END, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [len(self.spans), parent, self.op_id, name, time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, fn):
        note = NOTES.get(name)

        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[NOTE] = note(args, result)
                return result
            finally:
                self.close(rec)

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            now = time.perf_counter()
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([len(self.spans), parent, self.op_id, name, now, now, None])
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap, in every module of ``modules``, each public callable that a
        layer module defines."""
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                layer = _layer_of(obj)
                if layer is None or attr.startswith("_"):
                    continue
                if id(obj) not in wrappers:
                    name = f"{layer}.{getattr(obj, '__name__', attr)}"
                    make = self._counted if inspect.isgeneratorfunction(obj) else self._timed
                    wrappers[id(obj)] = make(name, obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


def _layer_of(obj) -> str | None:
    if inspect.isclass(obj) or not callable(obj):
        return None
    module = getattr(obj, "__module__", None) or ""
    prefix, _, layer = module.rpartition(".")
    return layer if prefix == "fsgraph" and layer in LAYERS else None


# -- deriving metrics ---------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans are single-threaded and properly nested, so the children of one
    span never overlap each other."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def layer_metrics(spans: list[list], ops: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of a traced loop that ran ``ops`` ops in
    ``wall_s`` seconds.  ``bench.busy_s`` is the loop's own time: the wall
    time not covered by any layer's self time."""
    own = self_times(spans)
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    notes: dict[str, list] = {}
    for rec, t in zip(spans, own):
        name = rec[NAME]
        busy[name] = busy.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        if rec[NOTE] is not None:
            notes.setdefault(name, []).append(rec[NOTE])

    def layer_busy(layer: str) -> float:
        return sum(t for name, t in busy.items() if name.startswith(layer + "."))

    def layer_calls(layer: str) -> int:
        return sum(c for name, c in calls.items() if name.startswith(layer + "."))

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num * scale / den if den else 0.0

    states = sum(note[0] for note in notes.get("fscore.components", []))
    swaps = sum(note[1] for note in notes.get("fscore.components", []))
    orientations = sum(notes.get("orientations.enumerate_acyclic", []))
    extensions = sum(notes.get("orientations.linear_extensions", []))
    verdicts = notes.get("theorems.decide_connectivity", [])
    proven = notes.get("theorems.hereditary_sufficiency", [])
    tutte_spans = [rec for rec in spans if rec[NAME] == "tutte.tutte_eval"]
    hereditary_inclusive = sum(
        rec[END] - rec[START] for rec in spans if rec[NAME] == "theorems.hereditary_sufficiency"
    )
    layers_total = sum(layer_busy(layer) for layer in LAYERS)

    m = {
        "fscore.calls": layer_calls("fscore"),
        "fscore.busy_s": layer_busy("fscore"),
        "fscore.states": states,
        "fscore.states_per_s": per(states, busy.get("fscore.components", 0.0)),
        "fscore.swap_tests": swaps,
        "fscore.us_per_swap_test": per(busy.get("fscore.components", 0.0), swaps, 1e6),
        "orientations.calls": layer_calls("orientations"),
        "orientations.busy_s": layer_busy("orientations"),
        "orientations.orientations": orientations,
        "orientations.us_per_orientation": per(
            busy.get("orientations.enumerate_acyclic", 0.0), orientations, 1e6
        ),
        "orientations.extensions": extensions,
        "orientations.us_per_extension": per(
            busy.get("orientations.linear_extensions", 0.0), extensions, 1e6
        ),
        "tutte.calls": layer_calls("tutte"),
        "tutte.busy_s": layer_busy("tutte"),
        "tutte.max_call_ms": max((rec[END] - rec[START] for rec in tutte_spans), default=0.0) * 1e3,
        "iso.canonical_calls": calls.get("iso.canonical_form", 0),
        "iso.canonical_busy_s": busy.get("iso.canonical_form", 0.0),
        "iso.recognizer_calls": sum(c for name, c in calls.items() if name in RECOGNIZERS),
        "iso.recognizer_busy_s": sum(t for name, t in busy.items() if name in RECOGNIZERS),
        "iso.busy_s": layer_busy("iso"),
        "graphs.structure_report_calls": calls.get("graphs.structure_report", 0),
        "graphs.structure_report_per_op": per(calls.get("graphs.structure_report", 0), ops),
        "graphs.hamiltonian_calls": calls.get("graphs.iter_hamiltonian_paths", 0),
        "graphs.busy_s": layer_busy("graphs"),
        "theorems.busy_s": layer_busy("theorems"),
        "theorems.hereditary_calls": len(proven),
        "theorems.hereditary_proven_frac": per(sum(proven), len(proven)),
        "theorems.hereditary_share": per(hereditary_inclusive, wall_s),
        "theorems.unknown": sum(1 for v in verdicts if v == "unknown"),
        "theorems.unknown_frac": per(sum(1 for v in verdicts if v == "unknown"), len(verdicts)),
        "cli.busy_s": layer_busy("cli"),
        "graphio.parse_calls": calls.get("graphio.parse_graph", 0),
        "graphio.busy_s": layer_busy("graphio"),
        "bench.busy_s": wall_s - layers_total,
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
    }
    for theorem in THEOREMS:
        m[f"theorems.fired.{theorem}"] = sum(1 for v in verdicts if v == theorem)
    m["theorems.fired.other"] = sum(1 for v in verdicts if v not in THEOREMS and v != "unknown")
    return m
