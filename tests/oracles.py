"""Independent oracles and generators used to freeze expected values.

Everything here is written directly from the defining clauses, with no code
shared with the package internals: the interpreter quantifies over full
powersets, the completion oracle builds levels as raw nested tuples, and the
closed-term enumerator generates nameless trees size by size.  The one
exception is the witness oracle, which walks the materialized restriction
with the package's own finite interpreter (both are checked against the naive
oracles above).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from random import Random

from gml.completion import restrict
from gml.pairs import PartialPair, union
from gml.semantics import Environment, interpret
from gml.terms import Abs, App, LambdaTerm, Var, from_nameless


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
        out.extend(from_nameless(nt) for nt in _closed_nameless(size, 0))
    return out


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
