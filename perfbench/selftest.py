"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload for a few queries, untraced and traced, and checks that
the report carries every metric BENCHMARK.json names with its unit; then
records the answers of a short default-seed stream, corrupts one of them,
and checks that the corrupted answer is counted as an error.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

QUERIES = {"certify": 80, "member": 15, "search": 12, "numeration": 12}


def fail(message: str) -> None:
    print(f"selftest failed: {message}", file=sys.stderr)
    sys.exit(1)


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{what}: reported {sorted(got.items())}, BENCHMARK.json names {sorted(want.items())}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        fail(f"{what}: a metric value is not a number")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if not {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS):
        fail("BENCHMARK.json lists a workload that workloads.py lacks")
    workdir = os.path.join(run.ROOT, ".perfbench", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    try:
        for name, count in QUERIES.items():
            result = run.measure(name, 2, 0, workdir, count=count)
            check_metrics(result, bench["end_to_end"], f"{name} untraced")
            if not result["correct"] or result["attempted"] != count:
                fail(f"{name}: {result}")
            if name == "certify" and result["metrics"]["decided_share"]["value"] >= 1:
                fail("the 3-atom checks of certify were not counted as refused")
            traced = run.measure_traced(name, 2, 0, workdir, count=count)
            check_metrics(traced, bench["per_layer"], f"{name} traced")
            if name == "member":
                layers = traced["metrics"]
                if layers["semantics.interpret.calls"]["value"] or layers["completion.restrict.calls"]["value"]:
                    fail("member reached the finite interpreter or a restriction")

        # a deliberately wrong expected answer must count as an error
        expected = os.path.join(workdir, "expected.txt")
        seed = workloads.DEFAULT_SEED
        run.run_worker(workdir, "record", ["--workload", "numeration", "--seed", str(seed),
                                           "--count", "4", "--record", expected])
        with open(expected, encoding="utf-8") as fh:
            lines = fh.readlines()
        code, digest = lines[2].split()
        lines[2] = f"{code} {'0' * len(digest) if digest != '0' * len(digest) else '1' * len(digest)}\n"
        with open(expected, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        result = run.measure("numeration", seed, 0, workdir, count=4, expected=expected)
        if result["correct"] or result["failed"] != 1 or result["metrics"]["ok_share"]["value"] != 0.75:
            fail(f"a wrong expected answer was not counted as one error: {result}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
