"""Batch command-line surface.

One subcommand per library capability, machine-readable output behind
--json, deterministic bytes for fixed inputs.  Exit codes: 0 on success,
1 when the checked property fails (a failing verdict, a violation report,
a membership not found), 2 on usage errors.  The command line is read by
parse_args against one declarative table, COMMANDS, which also gives the
-h listing.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

from . import approximation, minmodel, pairs
from .approximation import check_equation, check_inequation, member
from .completion import (
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

# No longer called here, but perfbench/spans.py patches these names on this
# module to trace calls into the term codec and the witness walker.
from .approximation import extract_witness_subpair  # noqa: F401
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


# The command table.  Each entry: the command's words, a one-line help, its
# options as (flag, type, default) and its positionals as (name, type).  An
# option's attribute is its flag without the dashes, "-" read as "_"; an option
# of type bool is a flag that takes no value.
_PAIR = ("--pair", str, None)
_RANK = ("--rank", int, 2)
_BOUNDS = (("--kM", int, approximation.DEFAULT_MEMBER_BOUND),
           ("--kN", int, approximation.DEFAULT_MEMBER_BOUND + approximation.DEFAULT_SLACK))
_TERM, _ELEMENT, _CLAIM = ("term", str), ("element", str), ("claim", str)

COMMANDS = (
    ("parse", "parse a term and print it back", (), (_TERM,)),
    ("reduce", "leftmost-outermost reduction under a step budget", (("--budget", int, 100),), (_TERM,)),
    ("interp", "interpret a term in a finite pair", (_PAIR, ("--env", str, None)), (_TERM,)),
    ("complete", "enumerate completion elements up to a rank", (_PAIR, _RANK, ("--count", bool, False)), ()),
    ("member", "bounded membership in a completion interpretation", (_PAIR, _RANK), (_TERM, _ELEMENT)),
    ("witness", "finite subpair certifying a membership", (_PAIR, _RANK), (_TERM, _ELEMENT)),
    ("check", "bounded (in)equation check with certificates", (_PAIR, *_BOUNDS), (_CLAIM,)),
    ("enum-terms", "first closed terms in code order", (), (("limit", int),)),
    ("pair validate", "every violated partial-pair condition", (_PAIR,), ()),
    ("pair auts", "the automorphisms of a pair", (_PAIR,), ()),
    ("pair orbits", "the orbits of a pair's automorphisms", (_PAIR,), ()),
    ("pair union", "the union of two pairs", (), (("first", str), ("second", str))),
    ("minmodel search", "scan components for an inequation counterexample",
     (("--max-index", int, 50), *_BOUNDS), (_CLAIM,)),
    ("minmodel pair", "export the k-th relocated component", (), (("index", int),)),
)

# A command's second word goes to this attribute of its first.
_GROUPS = {"pair": "pair_command", "minmodel": "mm_command"}

# flag -> (attribute, type); None stands for -h and --help
_HELP = {"-h": None, "--help": None}
_LEADING = {"--json": ("json", bool), **_HELP}


def _compile(words: str, options: tuple, positionals: tuple) -> tuple[dict, tuple, dict]:
    """(flags, positionals, defaults) of one command, for parse_args."""
    first, _, second = words.partition(" ")
    defaults = {"command": first, **({_GROUPS[first]: second} if second else {})}
    flags = dict(_HELP)
    for flag, kind, default in options:
        attr = flag[2:].replace("-", "_")
        flags[flag] = (attr, kind)
        defaults[attr] = default
    return flags, positionals, defaults


_TABLE = {words: _compile(words, options, positionals) for words, _, options, positionals in COMMANDS}

_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _option(word: str, flags: dict) -> tuple[str | None, str | None] | None:
    """None when word is a positional word, else (flag, value given after
    "="): flag None for an unknown option.  A unique prefix names its option,
    as "--max" names "--max-index"; an ambiguous one is an error."""
    if word[:1] != "-" or word in ("-", "--"):
        return None
    if word in flags:
        return word, None
    if word[1] != "-":  # one dash: -h takes whatever follows it as its value
        if word.startswith("-h"):
            return "-h", word[2:]
    else:
        flag, eq, value = word.partition("=")
        matches = [f for f in flags if f.startswith(flag)]
        if flag == "--" or len(matches) > 1:
            raise UsageError(f"ambiguous option {word}: could be {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    if _NEGATIVE_NUMBER(word) or " " in word:
        return None
    return None, None


def _typed(kind: type, text: str, what: str):
    if kind is str:
        return text
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{what} needs an integer, not {text!r}") from None


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The attributes _run reads, from argv walked once against COMMANDS;
    None when -h or --help asks for the listing.

    A leading --json, then the command's words, then its options and
    positionals in any order.  An option's value follows it or comes after
    "="; the last of a repeated option wins; after "--" every word is a
    positional; a negative number is a value, not an option.  As in argparse,
    unknown options and surplus words are reported only if no help request
    follows them, and a trailing "--" must come right after a positional.
    """
    values: dict = {"json": False}
    flags, spec, words = _LEADING, None, ""
    given: list = []
    unrecognized: list[str] = []
    last = -1  # index of the last positional that filled a slot
    rest = False  # past "--"
    i, n = 0, len(argv)
    while i < n:
        word = argv[i]
        i += 1
        found = None if rest else _option(word, flags)
        if found is None:
            if spec is None:
                words = f"{words} {word}" if words else word
                if words in _GROUPS:
                    flags = _HELP
                    continue
                spec = _TABLE.get(words)
                if spec is None:
                    raise UsageError(f"unknown command {words!r}; gml --help lists them")
                flags, positionals, defaults = spec
                values.update(defaults)
            elif word == "--" and not rest:
                rest = True
                if i == n and last != i - 2:  # argparse keeps such a "--" as a surplus word
                    raise UsageError("a trailing -- must follow a positional argument")
            elif len(given) < len(positionals):
                name, kind = positionals[len(given)]
                given.append(_typed(kind, word, name))
                last = i - 1
            else:
                unrecognized.append(word)
            continue
        flag, value = found
        if flag is None:
            unrecognized.append(word)
            continue
        target = flags[flag]
        if target is None:  # -h or --help
            if value is not None:
                raise UsageError(f"{flag} takes no value")
            for word in argv[i:]:  # what follows is still checked for ambiguous options
                if word == "--":
                    break
                _option(word, flags)
            return None
        attr, kind = target
        if kind is bool:
            if value is not None:
                raise UsageError(f"{flag} takes no value")
            values[attr] = True
            continue
        if value is None:
            if i == n or argv[i] == "--" or _option(argv[i], flags) is not None:
                raise UsageError(f"{flag} needs a value")
            value = argv[i]
            i += 1
        values[attr] = _typed(kind, value, flag)
    if spec is None:
        raise UsageError(f"{words} needs a subcommand" if words else "no command given; gml --help lists them")
    if unrecognized:
        raise UsageError(f"unrecognized arguments: {' '.join(unrecognized)}")
    if len(given) < len(positionals):
        raise UsageError(f"{words} needs {' '.join(name.upper() for name, _ in positionals)}")
    values.update(zip((name for name, _ in positionals), given))
    return SimpleNamespace(**values)


def usage() -> str:
    """The listing -h prints: one line per command, from COMMANDS."""
    rows = []
    for words, text, options, positionals in COMMANDS:
        shown = [f"[{flag}]" if kind is bool else f"[{flag} {'FILE' if default is None else default}]"
                 for flag, kind, default in options]
        rows.append((" ".join([words, *shown, *(name.upper() for name, _ in positionals)]), text))
    width = max(len(row) for row, _ in rows)
    return "\n".join([
        "usage: gml [--json] COMMAND [OPTION VALUE | OPTION=VALUE ...] ARGUMENT ...",
        "",
        "--json gives strict JSON on stdout; a bracketed option shows its default.",
        "Exit codes: 0 success, 1 the checked property fails, 2 usage error.",
        "",
        "commands:",
        *(f"  {row:<{width}}  {text}" for row, text in rows),
    ])


def _run(args: SimpleNamespace) -> tuple[dict, int]:
    cmd = args.command

    if cmd == "parse":
        t = parse(args.term)
        return ({"term": print_term(t)}, 0)

    if cmd == "reduce":
        if args.budget > pairs.DEFAULT_CEILING:
            raise CeilingExceeded(f"{args.budget} steps asked for, ceiling is {pairs.DEFAULT_CEILING}")
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
        probe = approximation._member_probe(t, pair, e, args.rank, Environment())
        if probe is None:
            return ({"found": False, "bound": args.rank}, 1)
        subpair = approximation._witness(probe, t, e, Environment())
        return ({"found": True, "rank": probe.k, "witness_subpair": subpair.to_json()}, 0)

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
        if args.limit > pairs.DEFAULT_CEILING:
            raise CeilingExceeded(f"{args.limit} terms asked for, ceiling is {pairs.DEFAULT_CEILING}")
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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(usage())
            return 0
        doc, code = _run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CeilingExceeded as exc:
        print(f"bound too large: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # the readers of outside text refuse deep nesting themselves
        limit = sys.getrecursionlimit()
        print(f"bound too large: nesting past the recursion limit of {limit}", file=sys.stderr)
        return 1
    except (ParseError, ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    _emit(doc, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
