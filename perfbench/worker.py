"""One workload in one process: set up, run the timed loop, check answers.

Started by ``run.py``; prints one JSON line.  Stages, in order:

1. set-up: import fsgraph, build the corpus from the seed, build the
   input graphs, and run one untimed warm-up op of each kind.  The line
   reports the ``time.perf_counter`` reading at the end of set-up, which
   ``run.py`` subtracts from its own reading taken before starting this
   process (on Linux both read the same monotonic clock).
2. the timed loop: every op once per round, in corpus order, one caller,
   each op started after the previous one returned, until at least one
   round is complete and ``--seconds`` have passed.  Peak RSS is read
   right after this loop, before any reference is computed.
3. with ``--trace 1``, one more round with every layer wrapped (see
   spans.py); spans are written under ``.perfbench_out/``.
4. checks: every op is compared with its independent reference.
   Reference time is outside every metric.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"   # run outputs; ignored by git


def load_package():
    """Import fsgraph from the checkout's source tree."""
    sys.path.insert(0, str(ROOT / "src"))
    import fsgraph
    from fsgraph import cli, fscore, theorems

    modules = [getattr(fsgraph, name) for name in (
        "fscore", "orientations", "tutte", "iso", "graphs", "theorems", "graphio", "cli"
    )]
    return types.SimpleNamespace(Graph=fsgraph.Graph, fscore=fscore, theorems=theorems, cli=cli,
                                 modules=modules)


# Time of one calibrate() call on the machine the figures are scaled to.
CALIBRATION_REF_S = 0.00075


def calibrate() -> float:
    """Time a fixed piece of pure-Python work (integer arithmetic, bytes
    objects, a set) that does not depend on fsgraph.  The ratio of its
    time to CALIBRATION_REF_S is the machine's current slowdown."""
    t0 = time.perf_counter()
    seen = set()
    total = 0
    for i in range(5000):
        total += i * i
        seen.add(i.to_bytes(2, "little"))
    return time.perf_counter() - t0


def run_loop(calls, seconds: float, summarize=None):
    """Run ``calls`` in rounds, each op once per round, one op at a time,
    until at least one full round is done and ``seconds`` have passed.

    A calibrate() call runs between consecutive ops.  Each sample is the
    op's wall time scaled by CALIBRATION_REF_S over the mean of the two
    calibration times around it, so that the load other processes put on
    a shared machine cancels out.  Returns one record per op:
    {"samples": [scaled_s, ...], "raw": [wall_s, ...], "outcome": digest
    of the first answer, or the exception raised}.  A later answer that
    differs from the first is recorded as a ValueError."""
    records = [{"samples": [], "raw": [], "outcome": None} for _ in calls]
    start = time.perf_counter()
    before = calibrate()
    i = 0
    while i < len(calls) or time.perf_counter() - start < seconds:
        index = i % len(calls)
        i += 1
        rec = records[index]
        t0 = time.perf_counter()
        try:
            result = calls[index]()
        except Exception as exc:  # an op failure is counted, and the run goes on
            result, rec["outcome"] = None, exc
        latency = time.perf_counter() - t0
        after = calibrate()
        rec["raw"].append(latency)
        rec["samples"].append(latency * 2 * CALIBRATION_REF_S / (before + after))
        before = after
        if summarize is None or isinstance(rec["outcome"], Exception):
            continue
        try:
            digest = summarize(index, result)
        except Exception as exc:
            rec["outcome"] = exc
            continue
        if rec["outcome"] is None:
            rec["outcome"] = digest
        elif digest != rec["outcome"]:
            rec["outcome"] = ValueError("answer changed between rounds")
    return records


def run_traced(calls, tracer) -> float:
    """One round of every op with spans on; returns the round's wall time."""
    start = time.perf_counter()
    for index, call in enumerate(calls):
        tracer.op_id = index
        root = tracer.open("bench.op")
        try:
            call()
        except Exception:  # already counted by the untraced loop
            pass
        finally:
            tracer.close(root)
    return time.perf_counter() - start


def check_records(ops, records, expected_fn, check_fn) -> list[str | None]:
    """Compare every op's answer with its reference: a failure reason or
    None per op.  An undecided answer ("unknown", or a listing refused by
    its cap) gets no reference, only the checks that need none.  A
    reference that raises is a failure of that op, not of the run."""
    verdicts = []
    for op, rec in zip(ops, records):
        outcome = rec["outcome"]
        if isinstance(outcome, Exception):
            verdicts.append(f"raised {type(outcome).__name__}: {outcome}")
            continue
        try:
            want = expected_fn(op) if outcome["decided"] else None
            verdicts.append(check_fn(op, outcome, want))
        except Exception as exc:
            verdicts.append(f"check raised {type(exc).__name__}: {exc}")
    return verdicts


def end_to_end(records, verdicts, peak_rss_kb: int, key: str = "samples") -> dict[str, float]:
    """Each op's latency is the median of its samples over the rounds."""
    latencies = [statistics.median(rec[key]) for rec in records]
    decided = sum(
        1 for rec, why in zip(records, verdicts) if why is None and rec["outcome"]["decided"]
    )
    failed = sum(1 for why in verdicts if why is not None)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "lat_p50_ms": statistics.median(latencies) * 1e3,
        "lat_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024,
        "ok_frac": (len(records) - failed) / len(records),
        "decided_frac": decided / len(records),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import corpus
    import ops as opkinds

    fs = load_package()
    ops = corpus.build(args.workload, args.seed)
    calls = [opkinds.prepare(op, fs) for op in ops]
    for op in opkinds.WARMUP:
        if any(o.kind == op.kind for o in ops):
            opkinds.prepare(op, fs)()
    ready = time.perf_counter()
    speed = statistics.median(calibrate() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"ready": ready, "calibration_s": speed}))
        return 0

    def summarize(index, result):
        return opkinds.summarize(ops[index], result)

    records = run_loop(calls, args.seconds, summarize=summarize)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {
        "ready": ready,
        "calibration_s": speed,
        "workload": args.workload,
        "seed": args.seed,
        "corpus_sha256": corpus.corpus_hash(ops),
        "corpus_ops": len(ops),
        "rounds": min(len(rec["samples"]) for rec in records),
    }

    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(fs.modules)
        try:
            traced_wall = run_traced(calls, tracer)
        finally:
            tracer.uninstall()
        plain_wall = sum(rec["raw"][0] for rec in records)
        metrics = spans.layer_metrics(tracer.spans, len(calls), traced_wall)
        metrics["trace.overhead_frac"] = 1 - plain_wall / traced_wall
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        with gzip.open(span_file, "wt") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
        report["span_file"] = str(span_file.relative_to(ROOT))
        del tracer

    verdicts = check_records(ops, records, opkinds.expected, opkinds.check)
    e2e = end_to_end(records, verdicts, peak_rss_kb)
    if not args.trace:
        metrics = e2e
    report.update(
        attempted=sum(len(rec["samples"]) for rec in records),
        failed=sum(len(rec["samples"]) for rec, why in zip(records, verdicts) if why is not None),
        failures={str(i): why for i, why in enumerate(verdicts) if why is not None},
        metrics=metrics,
        end_to_end=e2e,
        end_to_end_unscaled=end_to_end(records, verdicts, peak_rss_kb, key="raw"),
        by_kind=_by_kind(ops, records),
    )
    print(json.dumps(report))
    return 0


def _by_kind(ops, records) -> dict[str, dict[str, float]]:
    """Op count and median latency per op kind, for the human-readable report."""
    groups: dict[str, list[float]] = {}
    for op, rec in zip(ops, records):
        groups.setdefault(op.kind, []).append(statistics.median(rec["samples"]))
    return {
        kind: {"ops": len(lats), "p50_ms": statistics.median(lats) * 1e3, "max_ms": max(lats) * 1e3}
        for kind, lats in sorted(groups.items())
    }


if __name__ == "__main__":
    sys.exit(main())
