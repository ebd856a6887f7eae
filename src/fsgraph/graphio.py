"""Graph serialization: JSON edge lists, graph6 strings, and DOT export.

The JSON schema is ``{"n": int, "edges": [[i, j], ...]}`` with 1-indexed
endpoints.  graph6 follows the standard 6-bit encoding and is accepted
only in its single-byte size form (n <= 62), which is plenty at desk
scale.
"""

from __future__ import annotations

import functools
import itertools
import json

from .config import DEFAULT_VERTEX_CAP
from .errors import InvalidArgumentError, ResourceLimitError
from .graphs import Graph

GRAPH6_MAX_N = 62


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[a, b] for a, b in g.edges]}


def graph_from_json_dict(data: object) -> Graph:
    if not isinstance(data, dict):
        raise InvalidArgumentError(f"graph JSON must be an object, got {type(data).__name__}")
    extra = set(data) - {"n", "edges"}
    if extra:
        raise InvalidArgumentError(f"unexpected graph JSON keys: {sorted(extra)}")
    if "n" not in data:
        raise InvalidArgumentError('graph JSON needs an "n" field')
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidArgumentError(f'"n" must be an integer, got {n!r}')
    if n > DEFAULT_VERTEX_CAP:
        raise ResourceLimitError(f"graph has {n} vertices, past the cap of {DEFAULT_VERTEX_CAP}")
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise InvalidArgumentError('"edges" must be a list of pairs')
    pairs = []
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
        ):
            raise InvalidArgumentError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return Graph(n, pairs)


def parse_graph_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"invalid JSON: {exc}") from exc
    return graph_from_json_dict(data)


def to_graph6(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise InvalidArgumentError(f"graph6 export limited to n <= {GRAPH6_MAX_N}")
    bits = [1 if g._adj[i] & j_bit else 0 for i, j_bit, _, _ in _graph6_pairs(g.n)]
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + g.n)]
    for t in range(0, len(bits), 6):
        value = 0
        for b in bits[t : t + 6]:
            value = value << 1 | b
        chars.append(chr(63 + value))
    return "".join(chars)


@functools.cache
def _graph6_pairs(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per vertex pair {i, j}, 0-indexed, in the order a graph6 body lists
    them (i < j, column by column for j = 1..n-1): (i, 1 << j, j, 1 << i)."""
    return tuple((i, 1 << j, j, 1 << i) for j in range(1, n) for i in range(j))


# Per graph6 byte value c (63..126): the six bits of c - 63, highest
# first, as bytes 0 and 1.
_GRAPH6_BITS = {c: bytes(c - 63 >> k & 1 for k in range(5, -1, -1)) for c in range(63, 127)}


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise InvalidArgumentError("empty graph6 string")
    data = s.encode("utf-8", "surrogatepass")   # non-ASCII encodes above 127
    if min(data) < 63 or max(data) > 126:
        raise InvalidArgumentError(f"invalid graph6 characters in {text!r}")
    n = data[0] - 63
    if n > GRAPH6_MAX_N:
        raise InvalidArgumentError(f"only the short graph6 size form (n <= {GRAPH6_MAX_N}) is supported")
    if n == 0:
        raise InvalidArgumentError("graph6 string encodes an empty vertex set")
    pairs = _graph6_pairs(n)
    need = (len(pairs) + 5) // 6
    if len(data) - 1 != need:
        raise InvalidArgumentError(
            f"graph6 body has {len(data) - 1} groups, expected {need} for n={n}"
        )
    # The body's bits, one byte each, select the pairs that are edges; the
    # padding bits past the last pair are ignored.
    bits = b"".join(map(_GRAPH6_BITS.__getitem__, data[1:]))
    adj = [0] * n
    for i, j_bit, j, i_bit in itertools.compress(pairs, bits):
        adj[i] |= j_bit
        adj[j] |= i_bit
    return Graph._from_masks(adj)


def parse_graph(text: str) -> Graph:
    """Accept either the JSON object form or a graph6 string."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return parse_graph_json(stripped)
    return from_graph6(stripped)


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    for v in range(1, g.n + 1):
        lines.append(f"  {v};")
    for a, b in g.edges:
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
