"""fsgraph benchmark entry point.

    python3 perfbench/run.py --workload {oracle,theorems,decide} --seed N \
        --seconds S --trace {0,1}

Runs the workload in a fresh single-threaded worker process (worker.py)
and prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from a traced rerun of the same op sequence.

The metric names and units come from BENCHMARK.json at the repository
root.  ``setup_s`` is the median over SETUP_SAMPLES fresh processes of the time
from starting the process to the end of its set-up (import, corpus
generation, warm-up).  The lines before the JSON give the corpus hash,
the op count per kind and any failed checks; the worker's full report
is written to ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import WORKLOADS
from worker import CALIBRATION_REF_S, OUT_DIR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


def run_worker(args: list[str]) -> tuple[float, dict]:
    """Start worker.py with ``args``; return (perf_counter before start,
    its JSON report).  The worker runs with a fixed hash seed, so set and
    dict layouts, and with them timings, repeat from run to run."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_setup(started: float, report: dict) -> float:
    """Set-up time, scaled like the op latencies (see worker.calibrate)."""
    return (report["ready"] - started) * CALIBRATION_REF_S / report["calibration_s"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="fsgraph benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "fsgraph" / "__init__.py").is_file():
        sys.stderr.write(f"no fsgraph sources under {ROOT / 'src'}\n")
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            started, probe = run_worker([*common, "--seconds", "0", "--setup-only"])
            setups.append(scaled_setup(started, probe))
    started, report = run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)])
    setups.append(scaled_setup(started, report))

    measured = dict(report["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(f"workload {args.workload} seed {args.seed}: corpus_sha256 {report['corpus_sha256']} "
          f"({report['corpus_ops']} ops, {report['rounds']}+ rounds, {report['attempted']} op runs)")
    for kind, row in report["by_kind"].items():
        print(f"  {kind:14s} ops {row['ops']:4d}  p50 {row['p50_ms']:9.2f} ms  max {row['max_ms']:9.2f} ms")
    for index, why in report["failures"].items():
        print(f"  FAILED op {index}: {why}")
    if "span_file" in report:
        print(f"  spans written to {report['span_file']}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    OUT_DIR.mkdir(exist_ok=True)
    report.update(result=result, setup_samples_s=setups)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
