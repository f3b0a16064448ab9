"""Batch command-line surface.

One subcommand per library capability, machine-readable output behind
--json, deterministic bytes for fixed inputs.  Exit codes: 0 on success,
1 when the checked property fails (a failing verdict, a violation report,
a membership not found), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import minmodel
from .approximation import (
    check_equation,
    check_inequation,
    extract_witness_subpair,
    member,
)
from .completion import (
    DEFAULT_CEILING,
    CeilingExceeded,
    count_up_to,
    element_str,
    elements_up_to,
    parse_element,
)
from .pairs import PartialPair, automorphisms, orbits, union, validate
from .semantics import Environment, interpret
from .terms import (
    ParseError,
    closed_term_texts,
    normalize,
    parse,
    print_term,
)

# No longer called here, but perfbench/spans.py patches this name on this
# module to trace calls into the term codec.
from .terms import enumerate_closed_terms  # noqa: F401


class UsageError(Exception):
    pass


def _emit(doc: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return
    for key, value in doc.items():
        if isinstance(value, (dict, list)):
            print(f"{key}: {json.dumps(value, sort_keys=True, separators=(',', ':'))}")
        else:
            print(f"{key}: {value}")


def _load_pair(path: str | None) -> PartialPair:
    if path is None:
        raise UsageError("this command needs --pair FILE")
    return PartialPair.load(path)


def _load_valid_pair(path: str | None) -> PartialPair:
    pair = _load_pair(path)
    report = validate(pair)
    if not report.ok:
        raise UsageError("invalid pair: " + "; ".join(report.violations))
    return pair


def _load_env(path: str | None, pair: PartialPair) -> Environment:
    if path is None:
        return Environment()
    return Environment.load(path, pair)


def _split_claim(text: str) -> tuple[str, str, str]:
    if "<=" in text:
        lhs, rhs = text.split("<=", 1)
        return lhs, rhs, "<="
    if "=" in text:
        lhs, rhs = text.split("=", 1)
        return lhs, rhs, "="
    raise UsageError('expected an (in)equation like "M = N" or "M <= N"')


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    top = argparse.ArgumentParser(prog="gml", description=__doc__)
    top.add_argument("--json", action="store_true", help="strict JSON on stdout")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, pair=False, env=False, rank=False, bounds=False, budget=False, count=False):
        if pair:
            p.add_argument("--pair", metavar="FILE")
        if env:
            p.add_argument("--env", metavar="FILE")
        if rank:
            p.add_argument("--rank", type=int, default=2, metavar="K")
        if bounds:
            p.add_argument("--kM", type=int, default=2, metavar="K")
            p.add_argument("--kN", type=int, default=4, metavar="K")
        if budget:
            p.add_argument("--budget", type=int, default=100, metavar="N")
        if count:
            p.add_argument("--count", action="store_true")

    p = sub.add_parser("parse", help="parse a term and print it back")
    p.add_argument("term")

    p = sub.add_parser("reduce", help="leftmost-outermost reduction under a step budget")
    common(p, budget=True)
    p.add_argument("term")

    p = sub.add_parser("interp", help="interpret a term in a finite pair")
    common(p, pair=True, env=True)
    p.add_argument("term")

    p = sub.add_parser("complete", help="enumerate completion elements up to a rank")
    common(p, pair=True, rank=True, count=True)

    p = sub.add_parser("member", help="bounded membership in a completion interpretation")
    common(p, pair=True, rank=True)
    p.add_argument("term")
    p.add_argument("element")

    p = sub.add_parser("witness", help="finite subpair certifying a membership")
    common(p, pair=True, rank=True)
    p.add_argument("term")
    p.add_argument("element")

    p = sub.add_parser("check", help="bounded (in)equation check with certificates")
    common(p, pair=True, bounds=True)
    p.add_argument("claim")

    p = sub.add_parser("enum-terms", help="first closed terms in code order")
    p.add_argument("limit", type=int)

    pair_cmd = sub.add_parser("pair", help="pair file utilities")
    pair_sub = pair_cmd.add_subparsers(dest="pair_command", required=True)
    for name in ("validate", "auts", "orbits"):
        q = pair_sub.add_parser(name)
        q.add_argument("--pair", metavar="FILE")
    q = pair_sub.add_parser("union")
    q.add_argument("first")
    q.add_argument("second")

    mm = sub.add_parser("minmodel", help="the prime-coded minimum-theory model")
    mm_sub = mm.add_subparsers(dest="mm_command", required=True)
    q = mm_sub.add_parser("search", help="scan components for an inequation counterexample")
    q.add_argument("--max-index", type=int, default=50, metavar="K")
    common(q, bounds=True)
    q.add_argument("claim")
    q = mm_sub.add_parser("pair", help="export the k-th relocated component")
    q.add_argument("index", type=int)

    return top


def _run(args: argparse.Namespace) -> tuple[dict, int]:
    cmd = args.command

    if cmd == "parse":
        t = parse(args.term)
        return ({"term": print_term(t)}, 0)

    if cmd == "reduce":
        result = normalize(parse(args.term), args.budget)
        return (
            {
                "status": result.status.value,
                "term": print_term(result.term),
                "steps": result.steps,
            },
            0,
        )

    if cmd == "interp":
        pair = _load_valid_pair(args.pair)
        env = _load_env(args.env, pair)
        out = interpret(parse(args.term), pair, env)
        return ({"atoms": sorted(pair.label(a) for a in out)}, 0)

    if cmd == "complete":
        pair = _load_valid_pair(args.pair)
        if args.count:
            return ({"count": count_up_to(pair, args.rank)}, 0)
        elems = elements_up_to(pair, args.rank)
        return ({"elements": [element_str(e, pair) for e in elems]}, 0)

    if cmd == "member":
        pair = _load_pair(args.pair)
        e = parse_element(args.element, pair)
        result = member(parse(args.term), pair, e, args.rank)
        doc = {"found": result.found, "bound": result.bound}
        if result.found:
            doc["rank"] = result.rank
        return (doc, 0 if result.found else 1)

    if cmd == "witness":
        pair = _load_pair(args.pair)
        e = parse_element(args.element, pair)
        t = parse(args.term)
        result = member(t, pair, e, args.rank)
        if not result.found:
            return ({"found": False, "bound": result.bound}, 1)
        subpair = extract_witness_subpair(t, pair, e, result.rank)
        return ({"found": True, "rank": result.rank, "witness_subpair": subpair.to_json()}, 0)

    if cmd == "check":
        pair = _load_pair(args.pair)
        lhs_text, rhs_text, op = _split_claim(args.claim)
        lhs, rhs = parse(lhs_text), parse(rhs_text)
        if op == "<=":
            verdict = check_inequation(lhs, rhs, pair, args.kM, args.kN)
            return (verdict.to_json(pair), 1 if verdict.failed else 0)
        fwd, bwd = check_equation(lhs, rhs, pair, args.kM, args.kN)
        failed = fwd.failed or bwd.failed
        return (
            {
                "equation": {"lhs": print_term(lhs), "rhs": print_term(rhs)},
                "kind": "fails_with_evidence" if failed else "holds_up_to",
                "forward": fwd.to_json(pair),
                "backward": bwd.to_json(pair),
            },
            1 if failed else 0,
        )

    if cmd == "enum-terms":
        if args.limit > DEFAULT_CEILING:
            raise CeilingExceeded(f"{args.limit} terms asked for, ceiling is {DEFAULT_CEILING}")
        return ({"terms": closed_term_texts(args.limit)}, 0)

    if cmd == "pair":
        if args.pair_command == "union":
            merged = union(PartialPair.load(args.first), PartialPair.load(args.second))
            return (merged.to_json(), 0)
        pair = _load_pair(args.pair)
        if args.pair_command == "validate":
            report = validate(pair)
            return (
                {"ok": report.ok, "violations": list(report.violations)},
                0 if report.ok else 1,
            )
        if args.pair_command == "auts":
            auts = automorphisms(pair)
            return (
                {
                    "count": len(auts),
                    "automorphisms": sorted(
                        [pair.label(m.mapping[a]) for a in sorted(pair.atoms)] for m in auts
                    ),
                },
                0,
            )
        report = orbits(pair)
        return ({"orbits": sorted(sorted(pair.label(a) for a in orbit) for orbit in report)}, 0)

    if cmd == "minmodel":
        if args.mm_command == "pair":
            component = minmodel.relocate(args.index)
            return (component.to_json(), 0)
        lhs_text, rhs_text, op = _split_claim(args.claim)
        lhs, rhs = parse(lhs_text), parse(rhs_text)
        if op == "=":
            # the least component where either inclusion fails; on a tie the
            # forward verdict is reported
            found = minmodel.search_counterexample(lhs, rhs, args.max_index, args.kM, args.kN)
            bound = args.max_index if found is None else found[0] - 1
            if bound >= 0:
                found = minmodel.search_counterexample(rhs, lhs, bound, args.kM, args.kN) or found
        else:
            found = minmodel.search_counterexample(lhs, rhs, args.max_index, args.kM, args.kN)
        if found is None:
            return ({"found": False, "max_index": args.max_index}, 0)
        index, verdict = found
        component = minmodel.enumerate_pair(index)
        return ({"found": True, "component": index, "verdict": verdict.to_json(component)}, 1)

    raise UsageError(f"unknown command {cmd!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        doc, code = _run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CeilingExceeded as exc:
        print(f"bound too large: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # term and element syntax are parsed recursively
        print("usage error: input nested too deeply", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    _emit(doc, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
