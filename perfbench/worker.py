"""One run of one workload, in a fresh process (so module caches start cold).

A single client in a closed loop: the next query starts when the previous
one has its verdict.  Each query is `gml.cli.main(argv)` with stdout and
stderr captured; its latency is the time of that call alone.  After the call
the answer is classified and checked; neither counts towards latency.

Writes one JSON document with the per-query outcomes to --out.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_QUERIES = 100
QUERY_LIMIT_S = 60
RUN_LIMIT_S = 110


class QueryTimeout(Exception):
    pass


class SkipCounter(logging.Handler):
    """Counts the search's `component N skipped` notices."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("component ") and " skipped" in record.getMessage():
            self.count += 1


def _on_alarm(signum, frame):
    raise QueryTimeout(f"no verdict within {QUERY_LIMIT_S} s")


def classify(q, code, stderr, skipped, problems, crashed) -> str:
    if crashed or problems:
        return "error"
    # the CLI's own message is the last line; a logged warning may precede it
    last = stderr.splitlines()[-1] if stderr else ""
    if code == 1 and last.startswith("bound too large:"):
        return "refused"
    if q.kind == "search" and code == 0 and skipped:
        return "refused"  # not found, but part of the range was never checked
    return "answered"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="scratch directory for pair files")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, help="issue exactly this many queries")
    ap.add_argument("--trace", help="write spans here and report per-layer metrics")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--expected", help="committed answers to compare with")
    ap.add_argument("--record", help="write the answers here instead of checking bytes")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    sys.path.insert(0, HERE)
    import gml
    import gml.cli
    import workloads

    queries = workloads.generate(args.workload, args.seed)
    os.makedirs(args.dir, exist_ok=True)
    paths: dict[str, str] = {}
    for q in queries:
        q.command = q.argv
        if q.pair is not None:
            text = json.dumps(q.pair, sort_keys=True)
            path = paths.get(text)
            if path is None:
                path = paths[text] = os.path.join(args.dir, f"pair{len(paths)}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
            q.command = [path if a == "{pair}" else a for a in q.argv]
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    import checker

    expected = checker.load_expected(args.expected, queries) if args.expected else None
    check = checker.Checker(gml, expected)
    skips = SkipCounter()
    logging.getLogger("gml.minmodel").addHandler(skips)
    cli_main = gml.cli.main
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(gml)
        tracer.install()
        cli_main = tracer.wrap(cli_main, "cli.main")
    signal.signal(signal.SIGALRM, _on_alarm)

    records, recorded, errors = [], [], []
    begun = time.perf_counter()
    for i, q in enumerate(queries):
        elapsed = time.perf_counter() - begun
        if args.count is not None:
            if i >= args.count:
                break
        elif (i >= MIN_QUERIES and elapsed >= args.seconds) or elapsed >= RUN_LIMIT_S:
            break
        if tracer is not None:
            tracer.query = i
        skips.count = 0
        out, err = io.StringIO(), io.StringIO()
        crashed = None
        signal.alarm(QUERY_LIMIT_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(q.command)
        except Exception:  # a traceback is an error outcome, not a benchmark failure
            code, crashed = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        signal.alarm(0)
        stdout, stderr = out.getvalue(), err.getvalue()
        skipped = skips.count
        problems = []
        if args.record:
            recorded.append((code, stdout))
        if not crashed:
            try:
                problems = check.check(i, q, code, stdout)
            except Exception:  # malformed output
                problems = ["unreadable answer: " + traceback.format_exc(limit=2)]
        outcome = classify(q, code, stderr, skipped, problems, crashed)
        if outcome == "error" and len(errors) < 5:
            errors.append({"query": i, "argv": q.command, "exit": code, "problems": problems, "traceback": crashed})
        records.append([latency, outcome, q.stratum, skipped])
    wall = time.perf_counter() - begun

    doc = {
        "setup_s": setup_s,
        "wall_s": wall,
        "queries": records,
        "checks": check.counts,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.record:
        if errors:
            print(f"not recording answers with errors: {errors}", file=sys.stderr)
            return 1
        checker.write_expected(args.record, args.workload, args.seed, queries, recorded)
    if tracer is not None:
        tracer.dump(args.trace)
        doc["layers"] = tracer.metrics(0.0, sum(r[3] for r in records))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
