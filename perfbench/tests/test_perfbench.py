"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import corpus  # noqa: E402
import ops as opkinds  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

fs = worker.load_package()


# -- corpus -------------------------------------------------------------------


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_same_corpus_hash(workload):
    first = corpus.corpus_hash(corpus.build(workload, 7))
    assert first == corpus.corpus_hash(corpus.build(workload, 7))
    assert first != corpus.corpus_hash(corpus.build(workload, 8))


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_has_at_least_100_ops(workload):
    assert len(corpus.build(workload, 1)) >= 100


def test_graph6_matches_the_package_encoder():
    from fsgraph.graphio import to_graph6

    rng = random.Random(3)
    for n in (1, 2, 5, 8, 11):
        edges = corpus.gnm(rng, n, n * (n - 1) // 4)
        assert corpus.graph6(n, edges) == to_graph6(fs.Graph(n, edges))


# -- references ---------------------------------------------------------------


@pytest.mark.parametrize("n", [3, 5, 8, 9])
def test_reference_tutte_closed_forms_on_cycles(n):
    ring = corpus.family("cycle", n)
    assert ref.acyclic_orientation_count(n, ring) == 2**n - 2
    assert ref.flip_class_count(n, ring) == n - 1
    complete = ref.complement_edges(n, ())
    assert ref.acyclic_orientation_count(n, complete) == math.factorial(n)


def test_references_agree_with_the_package_on_small_graphs():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(3, 6)
        x = corpus.gnm(rng, n, rng.randint(0, n * (n - 1) // 2))
        y = corpus.gnm(rng, n, rng.randint(0, n * (n - 1) // 2))
        g = fs.Graph(n, y)
        assert ref.acyclic_orientation_count(n, y) == fs.theorems.tutte_eval(g, 2, 0)
        assert ref.flip_class_count(n, y) == fs.theorems.tutte_eval(g, 1, 0)
        report = fs.fscore.components(fs.fscore.FSInstance(fs.Graph(n, x), g))
        assert ref.fs_components(n, x, y) == list(report.sizes)
        assert ref.fs_is_connected(n, x, y) == (report.component_count == 1)


# -- failures are counted -----------------------------------------------------


def _small_ops():
    rng = random.Random(5)
    return [
        corpus.Op("path_count", "t", 6, None, corpus.gnm(rng, 6, 9)),
        corpus.Op("cycle_count", "t", 6, None, corpus.gnm(rng, 6, 9)),
        corpus.Op("components", "t", 5, corpus.family("path", 5), corpus.gnm(rng, 5, 6)),
    ]


def _run(ops, expected_fn):
    calls = [opkinds.prepare(op, fs) for op in ops]
    records = worker.run_loop(calls, 0.0, summarize=lambda i, r: opkinds.summarize(ops[i], r))
    verdicts = worker.check_records(ops, records, expected_fn, opkinds.check)
    return records, verdicts


def test_correct_answers_pass():
    ops = _small_ops()
    records, verdicts = _run(ops, opkinds.expected)
    assert verdicts == [None, None, None]
    assert worker.end_to_end(records, verdicts, 1024)["ok_frac"] == 1.0


def test_wrong_or_raising_reference_counts_as_failure_and_run_goes_on():
    ops = _small_ops()

    def bad_expected(op):
        if op.kind == "path_count":
            return {"count": -1}
        if op.kind == "cycle_count":
            raise RuntimeError("reference broke")
        return opkinds.expected(op)

    records, verdicts = _run(ops, bad_expected)
    assert "reference -1" in verdicts[0]
    assert "reference broke" in verdicts[1]
    assert verdicts[2] is None
    metrics = worker.end_to_end(records, verdicts, 1024)
    assert metrics["ok_frac"] == pytest.approx(1 / 3)


def test_raising_op_is_a_failure_not_a_crash():
    def boom():
        raise ValueError("op broke")

    records = worker.run_loop([boom], 0.0, summarize=lambda i, r: r)
    assert isinstance(records[0]["outcome"], ValueError)
    op = _small_ops()[0]
    verdicts = worker.check_records([op], records, opkinds.expected, opkinds.check)
    assert verdicts[0].startswith("raised ValueError")


def test_run_loop_runs_whole_rounds_until_the_time_is_spent():
    calls = [lambda: 1, lambda: 2, lambda: 3]
    records = worker.run_loop(calls, 0.0)
    assert [len(r["samples"]) for r in records] == [1, 1, 1]
    records = worker.run_loop(calls, 0.02)
    counts = [len(r["samples"]) for r in records]
    assert min(counts) >= 2 and max(counts) - min(counts) <= 1


# -- spans --------------------------------------------------------------------


def _span(i, parent, name, start, end, note=None):
    return [i, parent, 0, name, start, end, note]


def test_self_time_arithmetic_on_a_synthetic_tree():
    tree = [
        _span(0, -1, "bench.op", 0.0, 10.0),
        _span(1, 0, "theorems.decide_connectivity", 1.0, 9.0, "unknown"),
        _span(2, 1, "graphs.structure_report", 2.0, 3.0),
        _span(3, 1, "iso.canonical_form", 4.0, 7.5),
        _span(4, 3, "graphs.iter_hamiltonian_paths", 5.0, 5.0),
        _span(5, 1, "fscore.is_connected", 8.0, 8.5),
    ]
    assert spans.self_times(tree) == [2.0, 3.0, 1.0, 3.5, 0.0, 0.5]
    m = spans.layer_metrics(tree, ops=1, wall_s=12.0)
    assert m["theorems.busy_s"] == 3.0
    assert m["graphs.busy_s"] == 1.0
    assert m["iso.canonical_busy_s"] == 3.5
    assert m["fscore.busy_s"] == 0.5
    assert m["graphs.hamiltonian_calls"] == 1
    assert m["theorems.unknown"] == 1
    # the loop's own time: the bench.op self time plus 2 s outside any span
    assert m["bench.busy_s"] == 4.0
    layers = sum(m[f"{layer}.busy_s"] for layer in spans.LAYERS)
    assert layers + m["bench.busy_s"] == m["trace.wall_s"] == 12.0


def test_tracer_wraps_at_the_lookup_site_and_restores():
    original = fs.theorems.structure_report
    tracer = spans.Tracer()
    tracer.install(fs.modules)
    try:
        assert fs.theorems.structure_report is not original
        x = fs.Graph(6, corpus.family("cycle", 6))
        y = fs.Graph(6, ref.complement_edges(6, ((1, 2),)))
        fs.theorems.decide_connectivity(x, y)
    finally:
        tracer.uninstall()
    assert fs.theorems.structure_report is original
    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"theorems.decide_connectivity", "iso.is_path_graph", "graphs.structure_report"} <= names
    root = tracer.spans[0]
    assert root[spans.NAME] == "theorems.decide_connectivity" and root[spans.PARENT] == -1
    assert all(rec[spans.PARENT] == 0 for rec in tracer.spans[1:] if rec[spans.NAME].startswith("iso."))
    verdict = root[spans.NOTE]
    assert verdict == "cycle-complement-forest"
