"""Paired, query-by-query timing of two `gml` trees in one process.

    python3 tools/paired_timing.py --base ../gml-parent --workload certify --seed 1 --count 600
    python3 tools/paired_timing.py --base ../gml-parent --workload search --stratum refuted-13

Loads the `src/gml` package of two checkouts under distinct package names,
replays a seeded `perfbench/workloads.py` stream through each tree's
`cli.main`, and for every query keeps the fastest of --rounds runs per
tree.  --stratum (repeatable) keeps only the named strata's queries, so a
claim about one stratum can be timed alone.  The tree that runs first
alternates from query to query and from round to round, so drift in the
host's speed falls on both sides alike.
Exit code and stdout must be equal on both trees for every run, or the
script stops.  It prints each side's p50 and p90 (nearest rank over the
per-query minima) and the median per-query ratio change/base, per stratum
and overall.  The per-query minimum drops the rounds in which the cyclic
garbage collector ran, so each side's total time over every run of every
round is printed too; the collector stays on throughout.

This is the noise-robust companion to `perfbench/run.py`: it measures the
program alone (no worker start-up, no answer checker, no RSS), with each
query timed against itself on the other tree.  It is stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402


def load_cli(checkout: str, name: str):
    """`cli.main` of the gml package under checkout/src/gml, imported as `name`."""
    package = os.path.join(os.path.abspath(checkout), "src", "gml")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli").main


def commands(queries, directory: str) -> list[list[str]]:
    """Each query's argv, with its pair written to a file as the benchmark's worker does."""
    paths: dict[str, str] = {}
    out = []
    for q in queries:
        argv = q.argv
        if q.pair is not None:
            text = json.dumps(q.pair, sort_keys=True)
            if text not in paths:
                paths[text] = os.path.join(directory, f"pair{len(paths)}.json")
                with open(paths[text], "w", encoding="utf-8") as fh:
                    fh.write(text)
            argv = [paths[text] if a == "{pair}" else a for a in argv]
        out.append(argv)
    return out


def run(main, argv: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def percentile(values: list[float], q: float) -> float:
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="checkout of the base tree (holding src/gml)")
    ap.add_argument("--change", default=ROOT, help="checkout of the changed tree (default: this one)")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--count", type=int, default=400, help="queries from the start of the stream")
    ap.add_argument("--rounds", type=int, default=3, help="runs per query and tree; the fastest is kept")
    ap.add_argument("--stratum", action="append", metavar="NAME",
                    help="replay only this stratum's queries (repeatable); --count then counts those")
    args = ap.parse_args(argv)

    queries = workloads.generate(args.workload, args.seed)
    if args.stratum:
        unknown = set(args.stratum) - {q.stratum for q in queries}
        if unknown:
            ap.error(f"no stratum {', '.join(sorted(unknown))} in {args.workload}; "
                     f"it has {', '.join(sorted({q.stratum for q in queries}))}")
        queries = [q for q in queries if q.stratum in args.stratum]
    queries = queries[: args.count]
    mains = {"base": load_cli(args.base, "gml_base"), "change": load_cli(args.change, "gml_change")}
    best: list[dict[str, float]] = []
    total = {"base": 0.0, "change": 0.0}
    with tempfile.TemporaryDirectory() as directory:
        for i, argv_i in enumerate(commands(queries, directory)):
            times = {"base": math.inf, "change": math.inf}
            for r in range(args.rounds):
                order = ("base", "change") if (i + r) % 2 == 0 else ("change", "base")
                answers = {}
                for side in order:
                    elapsed, code, stdout = run(mains[side], argv_i)
                    times[side] = min(times[side], elapsed)
                    total[side] += elapsed
                    answers[side] = (code, stdout)
                if answers["base"] != answers["change"]:
                    print(f"query {i} {argv_i}: answers differ\nbase:   {answers['base']}\nchange: {answers['change']}")
                    return 1
            best.append(times)

    print(f"workload {args.workload}, seed {args.seed}: {len(best)} queries, "
          f"fastest of {args.rounds} rounds each, equal exit code and stdout on every run")
    for side in ("base", "change"):
        values = [t[side] for t in best]
        print(f"{side:<7} p50 {percentile(values, 0.5) * 1e3:8.3f} ms   p90 {percentile(values, 0.9) * 1e3:8.3f} ms"
              f"   total {total[side]:8.3f} s over all rounds")
    print(f"total ratio change/base {total['change'] / total['base']:6.3f}")
    strata: dict[str, list[float]] = {}
    for q, t in zip(queries, best):
        strata.setdefault(q.stratum, []).append(t["change"] / t["base"])
    strata["all"] = [t["change"] / t["base"] for t in best]
    for stratum, ratios in strata.items():
        print(f"median ratio change/base {stratum:<16} {statistics.median(ratios):6.3f}  (n={len(ratios)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
