"""Independent oracles and generators used to freeze expected values.

Everything here is written directly from the defining clauses, with no code
shared with the package internals: the interpreter quantifies over full
powersets, the completion oracle builds levels as raw nested tuples, the
coding generator filters every combination of entries, the closed-term
enumerator generates nameless trees size by size, and the codec oracles
decode every natural whole, name binders by rescanning the identifiers, and
filter by closedness afterwards; the reference listing scans every code and
gives up open ones at their first free variable; the reference printer reads
the concrete syntax off a term by cases on its nodes.  Seven exceptions: the
witness oracle walks the materialized restriction with the package's own
finite interpreter (both are checked against the naive oracles above), the
closure oracle scans keys through the coding handle it is given, the
abstraction oracle asks the package's evaluator one membership at a time,
the key oracle enumerates an application's function side with it, the
inequation oracle scans the package's whole left-side set, the search
oracle checks every component with the package's numeration and inequation
check, and the isomorphism oracle tries every bijection of two carriers
with the package's Morphism.  The argument-parser oracle is the argparse
parser the command line was read with before its declarative table.
"""

from __future__ import annotations

import argparse
import itertools
from functools import lru_cache
from math import isqrt
from random import Random

from gml import minmodel
from gml.approximation import (
    DEFAULT_MEMBER_BOUND,
    DEFAULT_SLACK,
    Evaluator,
    Verdict,
    approx_interpret,
    extract_witness_subpair,
    member,
)
from gml.completion import (
    DEFAULT_CEILING,
    BaseElement,
    CeilingExceeded,
    PairElement,
    apply_coding,
    base,
    elements_up_to,
    restrict,
)
from gml.pairs import Morphism, PartialPair, union
from gml.semantics import Environment, interpret
from gml.terms import Abs, App, LambdaTerm, Var, ident_of_nat, is_closed


# ---------------------------------------------------------------------------
# Naive interpretation: the clauses verbatim, powerset quantifier included.


def naive_interpret(t: LambdaTerm, pair: PartialPair, env: dict[str, frozenset[int]]) -> frozenset[int]:
    if isinstance(t, Var):
        return env.get(t.name, frozenset())
    if isinstance(t, App):
        fun = naive_interpret(t.fun, pair, env)
        arg = naive_interpret(t.arg, pair, env)
        out = set()
        for n in range(len(arg) + 1):
            for subset in itertools.combinations(sorted(arg), n):
                key_args = frozenset(subset)
                for alpha in pair.atoms:
                    if (key_args, alpha) in pair.coding and pair.coding[(key_args, alpha)] in fun:
                        out.add(alpha)
        return frozenset(out)
    out = set()
    for (key_args, alpha), v in pair.coding.items():
        if alpha in naive_interpret(t.body, pair, {**env, t.binder: key_args}):
            out.add(v)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Naive completion levels over raw tuples: ("b", atom) / ("p", args, res).


def naive_levels(pair: PartialPair, k: int) -> frozenset:
    def is_coded(args: frozenset, res) -> bool:
        if res[0] != "b" or any(e[0] != "b" for e in args):
            return False
        return (frozenset(e[1] for e in args), res[1]) in pair.coding

    level = frozenset(("b", a) for a in pair.atoms)
    for _ in range(k):
        new = set(level)
        members = sorted(level, key=repr)
        for n in range(len(members) + 1):
            for args in itertools.combinations(members, n):
                for res in members:
                    if not is_coded(frozenset(args), res):
                        new.add(("p", frozenset(args), res))
        level = frozenset(new)
    return level


# ---------------------------------------------------------------------------
# Witness subpairs by a walk over the whole rank-k restriction: at each node
# take the least coded key of the restriction (by sorted argument atoms) that
# supports the element, and recurse into the parts.


def restriction_witness(t: LambdaTerm, pair: PartialPair, e, k: int) -> PartialPair:
    r = restrict(pair, k)
    b = r.pair
    target = r.atom_of[e]
    assert target in interpret(t, b), "element not derivable at this rank"

    def keys_sorted(pred) -> list:
        return sorted(
            (key for key in b.coding if pred(key)),
            key=lambda key: (tuple(sorted(key[0])), key[1]),
        )

    def ex(node: LambdaTerm, env: Environment, alpha: int) -> PartialPair:
        if isinstance(node, Var):
            return PartialPair({alpha}, {})
        if isinstance(node, Abs):
            for bset, beta in keys_sorted(lambda key: b.coding[key] == alpha):
                inner = env.bind(node.binder, bset)
                if beta in interpret(node.body, b, inner):
                    step = PartialPair(bset | {beta, alpha}, {(bset, beta): alpha})
                    return union(ex(node.body, inner, beta), step)
            raise AssertionError("abstraction member without a coded preimage")
        arg_set = interpret(node.arg, b, env)
        fun_set = interpret(node.fun, b, env)
        for key in keys_sorted(
            lambda key: key[1] == alpha and key[0] <= arg_set and b.coding[key] in fun_set
        ):
            v = b.coding[key]
            out = union(PartialPair(key[0] | {alpha}, {key: v}), ex(node.fun, env, v))
            for w in sorted(key[0]):
                out = union(out, ex(node.arg, env, w))
            return out
        raise AssertionError("application member without a supporting key")

    found = ex(t, Environment(), target)
    return PartialPair(found.atoms, found.coding, labels={a: b.label(a) for a in found.atoms})


# ---------------------------------------------------------------------------
# The rank-k approximation of a closed term by membership queries alone.  At
# an abstraction this is the rule the evaluator first enumerated with: for
# every argument set over the level one rank down, one membership query per
# element of that level, refused when that level has more keys than the
# ceiling.  An application's members lie in the level one rank down (rank 0
# at k = 0): every key in the rank-k restriction has its result there.


def abstraction_by_membership(t: LambdaTerm, pair: PartialPair, k: int) -> frozenset:
    ev = Evaluator(pair, k)
    if not isinstance(t, Abs):
        return frozenset(e for e in elements_up_to(pair, max(k - 1, 0)) if ev.contains(t, {}, e))
    out = set()
    for (a, alpha), v in pair.coding.items():
        if ev.contains(t.body, {t.binder: frozenset(map(base, a))}, base(alpha)):
            out.add(base(v))
    if k >= 1:
        prev = elements_up_to(pair, k - 1)
        if 2 ** len(prev) * len(prev) > DEFAULT_CEILING:
            raise CeilingExceeded(f"abstraction over level {k - 1} is too large")
        for m in range(len(prev) + 1):
            for args in itertools.combinations(prev, m):
                inner = {t.binder: frozenset(args)}
                for alpha in prev:
                    e = apply_coding(pair, args, alpha)
                    if isinstance(e, PairElement) and ev.contains(t.body, inner, alpha):
                        out.add(e)
    return frozenset(out)


# ---------------------------------------------------------------------------
# The keys supporting e in an application, by enumerating its function side
# whole: the coded keys, then the pair elements (S, e) of the function side
# with S inside the argument side, sorted in witness order (S's elements in
# (rank, structural) order, compared lexicographically, a prefix first).


def supporting_keys_by_enumeration(ev: Evaluator, t: App, env: dict, e):
    if isinstance(e, BaseElement):
        for (a, alpha), v in ev.pair.coding.items():
            if alpha != e.atom:
                continue
            if ev.contains(t.fun, env, base(v)) and all(ev.contains(t.arg, env, base(x)) for x in a):
                yield frozenset(map(base, a)), base(v)
    if e.rank <= ev.k - 1:
        keys = [
            (w.args, w)
            for w in ev.enumerate(t.fun, env, ev.k)
            if isinstance(w, PairElement) and w.res is e and all(ev.contains(t.arg, env, x) for x in w.args)
        ]
        yield from sorted(keys, key=lambda kv: sorted((x.rank, x.sort_key()) for x in kv[0]))


# ---------------------------------------------------------------------------
# An inequation checked over the whole left side: the rank-k_lhs
# approximation of lhs enumerated, sorted in structural order, and scanned
# for the first element the rank-k_rhs evaluator of rhs rejects.  That is
# the least witness; its membership rank and witness subpair come from the
# package.  A refusal anywhere in the left side comes before any verdict.


def check_inequation_by_full_scan(
    lhs: LambdaTerm,
    rhs: LambdaTerm,
    p: PartialPair,
    k_lhs: int = DEFAULT_MEMBER_BOUND,
    k_rhs: int = DEFAULT_MEMBER_BOUND + DEFAULT_SLACK,
    ceiling: int = DEFAULT_CEILING,
) -> Verdict:
    if not is_closed(lhs) or not is_closed(rhs):
        raise ValueError("inequation checking expects closed terms")
    if k_rhs < k_lhs:
        raise ValueError("the right bound must be at least the left bound")
    lhs_set = approx_interpret(lhs, p, Environment(), k_lhs, ceiling)
    ev = Evaluator(p, k_rhs, ceiling)
    for candidate in sorted(lhs_set, key=lambda e: e.sort_key()):
        if not ev.contains(rhs, {}, candidate):
            found = member(lhs, p, candidate, k_lhs, ceiling=ceiling)
            subpair = extract_witness_subpair(lhs, p, candidate, found.rank, ceiling=ceiling)
            return Verdict(
                "fails_with_evidence", lhs, rhs, k_lhs, k_rhs,
                witness=candidate, member_rank=found.rank, witness_subpair=subpair,
            )
    return Verdict("holds_up_to", lhs, rhs, k_lhs, k_rhs)


# ---------------------------------------------------------------------------
# The componentwise search over every index: components 0..max_index checked
# in turn, refusals logged and passed over, the first failure returned.  The
# numeration and the check are looked up on the package module, so a test
# that patches them there patches both searches.


def search_by_full_scan(
    lhs: LambdaTerm,
    rhs: LambdaTerm,
    max_index: int,
    k_lhs: int = 2,
    k_rhs: int = 4,
    ceiling: int = DEFAULT_CEILING,
):
    for k in range(max_index + 1):
        component = minmodel.enumerate_pair(k)
        try:
            verdict = minmodel.check_inequation(lhs, rhs, component, k_lhs, k_rhs, ceiling)
        except CeilingExceeded as exc:
            minmodel.logger.warning("component %d skipped: %s", k, exc)
            continue
        if verdict.failed:
            return (k, verdict)
    return None


# ---------------------------------------------------------------------------
# Isomorphism by trying every bijection between two carriers, and the least
# index of an isomorphic pair by trying every smaller index.


def isomorphism(p: PartialPair, q: PartialPair) -> Morphism | None:
    if len(p.atoms) != len(q.atoms):
        return None
    source = sorted(p.atoms)
    for image in itertools.permutations(sorted(q.atoms)):
        m = Morphism(p, q, dict(zip(source, image)))
        if m.is_isomorphism():
            return m
    return None


def least_isomorphic_index(k: int) -> int:
    p = minmodel.enumerate_pair(k)
    return next(j for j in range(k + 1) if isomorphism(minmodel.enumerate_pair(j), p) is not None)


# ---------------------------------------------------------------------------
# The pair a coding handle induces on a closure, by scanning every key over
# the closure and keeping those whose value lands inside; no preimage needed.


def closure_pair_by_key_scan(coding, elements: tuple) -> PartialPair:
    index = {e: i for i, e in enumerate(elements)}
    entries = {}
    for m in range(len(elements) + 1):
        for args in itertools.combinations(elements, m):
            for res in elements:
                value = coding.code(frozenset(args), res)
                if value is not None and value in index:
                    entries[(frozenset(index[a] for a in args), index[res])] = index[value]
    return PartialPair(range(len(elements)), entries)


# ---------------------------------------------------------------------------
# The codings over one carrier in numeration order, by generate-and-filter:
# every entry ((args, res), val) sorted by (args bitmask, res, val), then
# every combination of m entries, smallest m first, whose keys and values are
# all distinct.


def codings_in_order(carrier: tuple[int, ...]):
    entries = sorted(
        (((frozenset(args), res), val)
         for m in range(len(carrier) + 1)
         for args in itertools.combinations(carrier, m)
         for res in carrier
         for val in carrier),
        key=lambda e: (sum(1 << x for x in e[0][0]), e[0][1], e[1]),
    )
    for m in range(len(carrier) + 1):
        for combo in itertools.combinations(entries, m):
            if len({key for key, _ in combo}) == m and len({val for _, val in combo}) == m:
                yield dict(combo)


# ---------------------------------------------------------------------------
# Closed terms by node count (Var = 1, Abs = 1 + body, App = 1 + fun + arg).


@lru_cache(maxsize=None)
def _closed_nameless(size: int, depth: int) -> tuple:
    out = []
    if size == 1:
        out.extend(("v", i) for i in range(depth))
    if size >= 2:
        out.extend(("l", b) for b in _closed_nameless(size - 1, depth + 1))
    for left in range(1, size - 1):
        for f in _closed_nameless(left, depth):
            for a in _closed_nameless(size - 1 - left, depth):
                out.append(("a", f, a))
    return tuple(out)


def closed_terms_up_to(max_size: int) -> list[LambdaTerm]:
    out = []
    for size in range(1, max_size + 1):
        out.extend(named_by_rescan(nt) for nt in _closed_nameless(size, 0))
    return out


# ---------------------------------------------------------------------------
# Goedel codec by its definition: decode a natural to the whole nameless tree
# (Var(n) = 3n, Abs(b) = 3b + 1, App(f, a) = 3 cantor(f, a) + 2), name it, and
# list closed terms by decoding every natural and keeping the closed ones.


def decode_nameless(n: int) -> tuple:
    q, r = divmod(n, 3)
    if r == 0:
        return ("v", q)
    if r == 1:
        return ("l", decode_nameless(q))
    w = (isqrt(8 * q + 1) - 1) // 2
    j = q - w * (w + 1) // 2
    return ("a", decode_nameless(w - j), decode_nameless(j))


def named_by_rescan(nt: tuple) -> LambdaTerm:
    """Each binder takes the least identifier that is neither free in the
    whole term nor bound by an enclosing binder."""
    free = set()

    def free_of(nt: tuple, depth: int) -> None:
        if nt[0] == "v":
            if nt[1] >= depth:
                free.add(ident_of_nat(nt[1] - depth))
        elif nt[0] == "l":
            free_of(nt[1], depth + 1)
        else:
            free_of(nt[1], depth)
            free_of(nt[2], depth)

    free_of(nt, 0)

    def go(nt: tuple, names: list[str]) -> LambdaTerm:
        if nt[0] == "v":
            n = nt[1]
            return Var(names[-1 - n] if n < len(names) else ident_of_nat(n - len(names)))
        if nt[0] == "l":
            taken = free | set(names)
            name = next(x for x in map(ident_of_nat, itertools.count()) if x not in taken)
            return Abs(name, go(nt[1], names + [name]))
        return App(go(nt[1], names), go(nt[2], names))

    return go(nt, [])


def _closed_by_filter():
    """(code, term) of every closed term in code order: decode every natural
    and keep the terms with no free variable."""
    for n in itertools.count():
        t = named_by_rescan(decode_nameless(n))
        if is_closed(t):
            yield n, t


def closed_terms_by_filter(limit: int) -> list[LambdaTerm]:
    """The first `limit` closed terms in code order."""
    return [t for _, t in itertools.islice(_closed_by_filter(), limit)]


def closed_codes_by_filter(bound: int) -> list[int]:
    """The codes <= bound of closed terms, ascending."""
    return [n for n, _ in itertools.takewhile(lambda nt: nt[0] <= bound, _closed_by_filter())]


# ---------------------------------------------------------------------------
# Closed terms by a scan of the codes: a code 3q is a variable at depth 0 and
# is skipped; every other code is read top-down, with the binder at depth d
# named by the d-th identifier (a closed term has no free name to avoid), and
# given up at its first free variable.  Application children are memoized
# per (code, depth), so a scan to 20,000 terms stays cheap enough for a test.


def closed_terms_by_scan(limit: int) -> list[LambdaTerm]:
    memo: dict[tuple[int, int], LambdaTerm | None] = {}

    def node(code: int, depth: int) -> LambdaTerm | None:
        q, r = divmod(code, 3)
        if r == 0:
            return Var(ident_of_nat(depth - 1 - q)) if q < depth else None
        if r == 1:
            body = node(q, depth + 1)
            return None if body is None else Abs(ident_of_nat(depth), body)
        w = (isqrt(8 * q + 1) - 1) // 2
        j = q - w * (w + 1) // 2
        fun = child(w - j, depth)
        arg = None if fun is None else child(j, depth)
        return None if arg is None else App(fun, arg)

    def child(code: int, depth: int) -> LambdaTerm | None:
        if (code, depth) not in memo:
            memo[code, depth] = node(code, depth)
        return memo[code, depth]

    out = []
    for code in itertools.count():
        if len(out) == limit:
            return out
        t = node(code, 0) if code % 3 else None
        if t is not None:
            out.append(t)


# ---------------------------------------------------------------------------
# Concrete syntax by cases on the node: an abstraction chain prints as
# `\a b.body`, an abstraction on the function side and an argument that is
# not a variable are parenthesised.


def print_by_cases(t: LambdaTerm) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        binders = []
        while isinstance(t, Abs):
            binders.append(t.binder)
            t = t.body
        return "\\" + " ".join(binders) + "." + print_by_cases(t)
    fun = print_by_cases(t.fun)
    if isinstance(t.fun, Abs):
        fun = f"({fun})"
    arg = print_by_cases(t.arg)
    if isinstance(t.arg, (Abs, App)):
        arg = f"({arg})"
    return f"{fun} {arg}"


# ---------------------------------------------------------------------------
# Seeded random generators.


def random_term(rng: Random, max_size: int, names: tuple[str, ...] = ("a", "b", "c", "x_1", "Y0")) -> LambdaTerm:
    def go(budget: int, bound: tuple[str, ...]) -> tuple[LambdaTerm, int]:
        choices = ["var"]
        if budget >= 2:
            choices.append("abs")
        if budget >= 3:
            choices.append("app")
        kind = rng.choice(choices)
        if kind == "var":
            pool = bound + names
            return Var(rng.choice(pool)), 1
        if kind == "abs":
            binder = rng.choice(names + ("f", "g"))
            body, used = go(budget - 1, bound + (binder,))
            return Abs(binder, body), used + 1
        left, lused = go((budget - 1) // 2 + 1, bound)
        right, rused = go(budget - 1 - lused, bound)
        return App(left, right), lused + rused + 1

    term, _ = go(max(1, max_size), ())
    return term


def random_pair(rng: Random, max_atoms: int = 3, max_entries: int = 3) -> PartialPair:
    n = rng.randint(0, max_atoms)
    atoms = frozenset(range(n))
    keys = [
        (frozenset(subset), alpha)
        for m in range(n + 1)
        for subset in itertools.combinations(range(n), m)
        for alpha in range(n)
    ]
    rng.shuffle(keys)
    coding = {}
    values = list(range(n))
    rng.shuffle(values)
    for key in keys[: rng.randint(0, max_entries)]:
        if not values:
            break
        coding[key] = values.pop()
    return PartialPair(atoms, coding)


def random_subpair(rng: Random, pair: PartialPair) -> PartialPair:
    atoms = frozenset(a for a in pair.atoms if rng.random() < 0.7)
    coding = {}
    for (args, alpha), v in pair.coding.items():
        if args <= atoms and alpha in atoms and v in atoms and rng.random() < 0.8:
            coding[(args, alpha)] = v
    return PartialPair(atoms, coding)


def random_env(rng: Random, pair: PartialPair, names: tuple[str, ...] = ("a", "b", "x")) -> dict[str, frozenset[int]]:
    return {
        name: frozenset(a for a in pair.atoms if rng.random() < 0.5)
        for name in names
        if rng.random() < 0.7
    }


# ---------------------------------------------------------------------------
# The command line as argparse reads it: the reference for cli.parse_args.


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gml")
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
