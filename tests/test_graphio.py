import json
import random

import pytest

from conftest import random_graph
from fsgraph import Graph, InvalidArgumentError, ResourceLimitError, build_named
from fsgraph.config import DEFAULT_VERTEX_CAP
from fsgraph.graphio import (
    from_graph6,
    graph_from_json_dict,
    graph_to_json_dict,
    parse_graph,
    parse_graph_json,
    to_dot,
    to_graph6,
)


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9))
        assert graph_from_json_dict(graph_to_json_dict(g)) == g


def test_json_rejects_malformed():
    with pytest.raises(InvalidArgumentError):
        parse_graph_json("not json")
    with pytest.raises(InvalidArgumentError):
        graph_from_json_dict({"edges": []})
    with pytest.raises(InvalidArgumentError):
        graph_from_json_dict({"n": 3, "edges": [[1, 2, 3]]})
    with pytest.raises(InvalidArgumentError):
        graph_from_json_dict({"n": 3, "edges": [[1, 1]]})
    with pytest.raises(InvalidArgumentError):
        graph_from_json_dict({"n": 2, "edges": [], "weights": []})


def test_json_refuses_oversized_vertex_counts():
    assert graph_from_json_dict({"n": DEFAULT_VERTEX_CAP, "edges": [[1, 2]]}).edge_count == 1
    with pytest.raises(ResourceLimitError, match="past the cap"):
        parse_graph_json(json.dumps({"n": DEFAULT_VERTEX_CAP + 1, "edges": []}))


def test_known_graph6_encodings():
    # Standard encodings: K_3 is "Bw", the 3-path 1-2-3 is "BW".
    assert to_graph6(build_named("complete", 3)) == "Bw"
    assert from_graph6("Bw") == build_named("complete", 3)
    assert from_graph6(to_graph6(build_named("path", 3))) == build_named("path", 3)


def test_graph6_round_trip():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12))
        assert from_graph6(to_graph6(g)) == g


def test_graph6_header_stripped():
    g = build_named("cycle", 5)
    assert from_graph6(">>graph6<<" + to_graph6(g)) == g


def test_graph6_rejects_bad_input():
    with pytest.raises(InvalidArgumentError):
        from_graph6("")
    with pytest.raises(InvalidArgumentError):
        from_graph6("B")  # truncated body
    with pytest.raises(InvalidArgumentError):
        from_graph6("\x01\x02")


def test_parse_graph_dispatches():
    g = build_named("cycle", 4)
    assert parse_graph('{"n": 4, "edges": [[1,2],[2,3],[3,4],[1,4]]}') == g
    assert parse_graph(to_graph6(g)) == g


def test_dot_output_contains_all_parts():
    g = Graph(3, [(1, 2)])
    dot = to_dot(g)
    assert "graph G {" in dot
    assert "1 -- 2;" in dot
    assert "3;" in dot  # isolated vertex still listed


def _reference_graph6_edges(text):
    """The 1-indexed edges a graph6 string lists, decoded bit by bit: the
    body's 6-bit groups, high bit first, give the pairs i < j column by
    column."""
    n = ord(text[0]) - 63
    bits = [ord(c) - 63 >> t & 1 for c in text[1:] for t in range(5, -1, -1)]
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    return [pair for pair, bit in zip(pairs, bits) if bit]


def test_graph6_round_trip_at_every_size():
    rng = random.Random(62)
    for n in range(1, 63):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, n, p)
            text = to_graph6(g)
            decoded = from_graph6(text)
            assert decoded == g
            assert decoded.edges == Graph(n, _reference_graph6_edges(text)).edges == g.edges
            assert decoded.degrees() == g.degrees()


def test_graph6_ignores_padding_bits():
    rng = random.Random(6)
    for n in range(2, 63):
        pad = -(n * (n - 1) // 2) % 6
        if not pad:
            continue
        g = random_graph(rng, n)
        text = to_graph6(g)
        padded = text[:-1] + chr(63 + (ord(text[-1]) - 63 | (1 << pad) - 1))
        assert padded != text
        assert from_graph6(padded) == g


@pytest.mark.parametrize(
    "text, message",
    [
        ("?", "empty vertex set"),
        ("~" + "?" * 316, "short graph6 size form"),
        ("D?", "body has 1 groups, expected 2 for n=5"),
        ("D????", "body has 4 groups, expected 2 for n=5"),
        ("D ?", "invalid graph6 characters"),
        ("D?\x7f", "invalid graph6 characters"),
        ("D?é", "invalid graph6 characters"),
        ("D?\udcff", "invalid graph6 characters"),
    ],
)
def test_graph6_errors_still_raise(text, message):
    with pytest.raises(InvalidArgumentError, match=message):
        from_graph6(text)
