"""Time-to-verdict benchmark for the `gml` CLI.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each run starts fresh worker processes (`worker.py`), which import `gml`
from `src/`, generate the workload's queries from the seed, and drive
`gml.cli.main` in a closed loop, checking every answer.

--trace 0 prints the end-to-end metrics: set-up time (median over several
fresh workers), median and 90th-percentile time to verdict (refused and
errored queries rank slower than every answered one), the share of queries
decided, the share answered without error, and peak RSS.

--trace 1 runs the same stream with spans around every module boundary for
half the time, then replays exactly those queries untraced; it prints the
per-layer metrics and the tracing overhead.

--record writes the expected answers of the default seed to
expected/<workload>.txt (all queries of the stream, not time-limited).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from worker import QUERY_LIMIT_S  # noqa: E402

SETUP_REPS = 5  # fresh workers whose set-up time is measured (the main one included)
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def run_worker(workdir: str, name: str, args: list[str], timeout: float = WORKER_TIMEOUT_S) -> dict:
    out = os.path.join(workdir, f"{name}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--out", out,
           "--dir", os.path.join(workdir, name)] + args
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {name} did not finish within {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {name} failed with exit code {proc.returncode}:\n{proc.stderr}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(records: list, q: float) -> float:
    """Nearest-rank percentile of time to verdict.  A refused or errored
    query ranks slower than every answered one and reads as the per-query
    limit, so turning a refusal into an answer never raises a percentile."""
    ranked = sorted((0, lat) if outcome == "answered" else (1, QUERY_LIMIT_S) for lat, outcome, *_ in records)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)][1]


def expected_path(workload: str) -> str:
    return os.path.join(HERE, "expected", f"{workload}.txt")


def describe_run(doc: dict, workload: str, seed: int) -> tuple[int, int, int, int]:
    records = doc["queries"]
    outcomes = [r[1] for r in records]
    n, answered, refused, errors = (
        len(records), outcomes.count("answered"), outcomes.count("refused"), outcomes.count("error"))
    print(f"workload {workload}, seed {seed}: {n} queries in {doc['wall_s']:.1f} s "
          f"(answered {answered}, refused {refused}, error {errors}; "
          f"{sum(r[3] for r in records)} search components skipped)")
    checks = ", ".join(f"{k}={v}" for k, v in sorted(doc["checks"].items()))
    print(f"checks run: {checks or 'none'}")
    for err in doc["errors"]:
        print(f"error on query {err['query']}: exit {err['exit']} {err['problems']} {err['traceback'] or ''}")
    return n, answered, refused, errors


def _stream(workload: str, seed: int, expected: str | None) -> list[str]:
    args = ["--workload", workload, "--seed", str(seed)]
    if expected is None and seed == workloads.DEFAULT_SEED and os.path.exists(expected_path(workload)):
        expected = expected_path(workload)
    return args + (["--expected", expected] if expected else [])


def measure(workload: str, seed: int, seconds: float, workdir: str,
            count: int | None = None, expected: str | None = None) -> dict:
    """End-to-end metrics of one untraced run (of `count` queries instead of
    `seconds` when given)."""
    stream = _stream(workload, seed, expected)
    setups = [run_worker(workdir, f"setup{i}", stream + ["--setup-only"])["setup_s"]
              for i in range(SETUP_REPS - 1)]
    limit = ["--count", str(count)] if count else ["--seconds", str(seconds)]
    doc = run_worker(workdir, "main", stream + limit)
    setups.append(doc["setup_s"])
    n, answered, _, errors = describe_run(doc, workload, seed)
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh workers"),
        "query_p50_s": (percentile(doc["queries"], 0.5), "s", f"n={n}"),
        "query_p90_s": (percentile(doc["queries"], 0.9), "s", f"n={n}"),
        "decided_share": (answered / n, "share", f"{answered}/{n}"),
        "ok_share": ((n - errors) / n, "share", f"{n - errors}/{n}; error_share {errors / n:.4f}"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB", "ru_maxrss of the worker"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<16} {value:12.6f} {unit:<6} ({note})")
    return {
        "correct": errors == 0,
        "attempted": n,
        "failed": errors,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def measure_traced(workload: str, seed: int, seconds: float, workdir: str, count: int | None = None) -> dict:
    """Per-layer metrics of a traced run over half the time, and the tracing
    overhead against an untraced replay of the same queries."""
    stream = _stream(workload, seed, None)
    spans_path = os.path.join(ROOT, ".perfbench", f"spans-{workload}-{seed}.jsonl")
    limit = ["--count", str(count)] if count else ["--seconds", str(seconds / 2)]
    traced = run_worker(workdir, "traced", stream + limit + ["--trace", spans_path])
    n, _, _, errors = describe_run(traced, workload, seed)
    plain = run_worker(workdir, "plain", stream + ["--count", str(n)])
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics = traced["layers"]
    metrics["trace.overhead_s"]["value"] = overhead
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    for name, m in metrics.items():
        print(f"{name:<46} {m['value']:14.6f} {m['unit']:<6} -> {LAYER_METRICS[name][1]}")
    replay_errors = sum(1 for r in plain["queries"] if r[1] == "error")
    return {"correct": errors == 0 and replay_errors == 0, "attempted": n, "failed": errors, "metrics": metrics}


def record(workload: str, workdir: str) -> None:
    seed = workloads.DEFAULT_SEED
    cap = workloads.WORKLOADS[workload][1]
    doc = run_worker(workdir, "record", ["--workload", workload, "--seed", str(seed),
                                          "--count", str(cap), "--record", expected_path(workload)],
                     timeout=1800)
    describe_run(doc, workload, seed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gml", "cli.py")):
        print(f"no gml sources under {os.path.join(ROOT, 'src')}; run from a checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.record:
            record(args.workload, workdir)
            return 0
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
