"""Rank-bounded interpretation in completions, with certificates.

The rank-k approximation of a term is its interpretation in the rank-k
restriction of the completion.  Restrictions explode doubly exponentially,
so the evaluator here never materializes one: it computes the same sets
through exact structural rules and answers membership queries recursively.

  * variables look up the environment;
  * an abstraction enumerates coded keys plus the uncoded keys one rank
    down (this is the only place a level is materialized, ceiling-guarded),
    while membership queries just invert the total coding;
  * an applied abstraction reduces: because interpretation is monotone in
    the environment and every key over the previous level is available in
    the restriction, the redex equals the body evaluated under the full
    argument set trimmed one rank down;
  * a general application inverts the coding over the function-side set, so
    the argument side is only ever queried pointwise;
  * a self-application combinator applied to itself collapses: a coded key
    can only code back into its own argument set at rank 0, so the result
    is carved out of the coded triples alone, at every rank.

Every rule is an equality, verified against the materialized restriction in
the test suite at small ranks.  When no rule applies within the element
ceiling the evaluator refuses with ApproximationInfeasible rather than
approximate: enumeration results are exact, and non-membership claims are
always tagged with the rank bound they were checked at.

Certificates come from the same derivation.  extract_witness_subpair walks
the term with the memoized membership and enumeration queries and keeps the
least supporting key at each node: the unique coding preimage at an
abstraction, the least key in restriction atom order at an application.  Its
atoms are numbered as in the rank-k restriction, counted in closed form over
the lower levels, so the restriction is never built; the small subpair is
then re-verified by the independent finite interpreter, semantics.interpret.
Abstraction witnesses over three atoms at rank 2, whose restriction would
hold billions of elements, answer this way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .completion import (
    CeilingExceeded,
    CompletionElement,
    BaseElement,
    PairElement,
    DEFAULT_CEILING,
    _atom_key,
    base,
    element_str,
    element_valid,
    elements_up_to,
    pair_of,
    restriction_atom,
)
from .pairs import PartialPair, validate
from .semantics import Environment, interpret
from .terms import Abs, App, LambdaTerm, Var, free_vars, is_closed, print_term

# No longer called here, but perfbench/spans.py patches both names on this
# module to trace calls into the completion and pair layers.
from .completion import restrict  # noqa: E402,F401
from .pairs import union  # noqa: E402,F401

DEFAULT_MEMBER_BOUND = 2
DEFAULT_SLACK = 2


class ApproximationInfeasible(CeilingExceeded):
    """The query cannot be answered within the element ceiling."""


def _is_self_apply(t: LambdaTerm) -> bool:
    return (
        isinstance(t, Abs)
        and isinstance(t.body, App)
        and t.body.fun == Var(t.binder)
        and t.body.arg == Var(t.binder)
    )


_SERIALS = itertools.count()


class ExplicitValue:
    """An environment value given by an explicit finite element set."""

    __slots__ = ("elements", "serial")

    def __init__(self, elements: frozenset):
        self.elements = elements
        self.serial = next(_SERIALS)

    def contains(self, e: CompletionElement) -> bool:
        return e in self.elements

    def enumerate(self) -> frozenset:
        return self.elements


class LazyValue:
    """An environment value standing for a trimmed interpretation set."""

    __slots__ = ("evaluator", "term", "env", "trim", "serial", "_cache")

    def __init__(self, evaluator: "Evaluator", term: LambdaTerm, env: dict, trim: int):
        self.evaluator = evaluator
        self.term = term
        self.env = env
        self.trim = trim
        self.serial = next(_SERIALS)
        self._cache: Optional[frozenset] = None

    def contains(self, e: CompletionElement) -> bool:
        if e.rank > self.trim:
            return False
        return self.evaluator.contains(self.term, self.env, e)

    def enumerate(self) -> frozenset:
        if self._cache is None:
            self._cache = self.evaluator.enumerate(self.term, self.env, self.trim)
        return self._cache


class Evaluator:
    """Exact rank-bounded evaluation over the completion of one pair."""

    def __init__(self, pair: PartialPair, k: int, ceiling: int = DEFAULT_CEILING):
        if k < 0:
            raise ValueError("rank bound must be non-negative")
        report = validate(pair)
        if not report.ok:
            raise ValueError("invalid pair: " + "; ".join(report.violations))
        self.pair = pair
        self.k = k
        self.ceiling = ceiling
        self.coded_by_value = {v: key for key, v in pair.coding.items()}
        self.coded_by_res: dict[int, list[tuple[frozenset[int], int]]] = {}
        for (a, alpha), v in pair.coding.items():
            self.coded_by_res.setdefault(alpha, []).append((a, v))
        self._contains_memo: dict = {}
        self._enum_memo: dict = {}
        self._fv_cache: dict = {}
        self._explicit_cache: dict[frozenset, ExplicitValue] = {}
        self._lazy_cache: dict = {}

    # -- plumbing ------------------------------------------------------------

    def explicit(self, elements: Iterable[CompletionElement]) -> ExplicitValue:
        elements = frozenset(elements)
        got = self._explicit_cache.get(elements)
        if got is None:
            got = self._explicit_cache.setdefault(elements, ExplicitValue(elements))
        return got

    def _fv(self, t: LambdaTerm) -> frozenset[str]:
        got = self._fv_cache.get(id(t))
        if got is None:
            got = free_vars(t)
            self._fv_cache[id(t)] = got
        return got

    def _env_key(self, t: LambdaTerm, env: dict) -> tuple:
        return tuple(
            (name, env[name].serial if name in env else -1)
            for name in sorted(self._fv(t))
        )

    def _level(self, j: int) -> tuple[CompletionElement, ...]:
        elems = elements_up_to(self.pair, j, self.ceiling)
        keys = (2 ** len(elems)) * len(elems)
        if keys > self.ceiling:
            raise ApproximationInfeasible(
                f"abstraction over level {j} needs {keys} keys, ceiling is {self.ceiling}"
            )
        return elems

    def preimage(self, e: CompletionElement):
        """The unique key (args, res) that codes to e, or None for an atom
        outside the coded range."""
        if isinstance(e, PairElement):
            return e.args, e.res
        coded = self.coded_by_value.get(e.atom)
        if coded is None:
            return None
        return frozenset(map(base, coded[0])), base(coded[1])

    def _lazy(self, term: LambdaTerm, env: dict, trim: int) -> "LazyValue":
        key = (term, self._env_key(term, env), trim)
        got = self._lazy_cache.get(key)
        if got is None:
            got = self._lazy_cache.setdefault(key, LazyValue(self, term, env, trim))
        return got

    # -- enumeration -----------------------------------------------------------

    def enumerate(self, t: LambdaTerm, env: dict, trim: int) -> frozenset:
        """interp(t, B_k, env) cut to rank <= trim, as an explicit set."""
        trim = min(trim, self.k)
        key = (t, self._env_key(t, env), trim)
        got = self._enum_memo.get(key)
        if got is not None:
            return got
        out = self._enumerate(t, env, trim)
        self._enum_memo[key] = out
        return out

    def _enumerate(self, t: LambdaTerm, env: dict, trim: int) -> frozenset:
        if isinstance(t, Var):
            value = env.get(t.name)
            if value is None:
                return frozenset()
            return frozenset(e for e in value.enumerate() if e.rank <= trim)

        if isinstance(t, Abs):
            out = set()
            for (a, alpha), v in self.pair.coding.items():
                bound = self.explicit(frozenset(map(base, a)))
                if self.contains(t.body, {**env, t.binder: bound}, base(alpha)):
                    out.add(base(v))
            if trim >= 1:
                prev = self._level(trim - 1)
                for m in range(len(prev) + 1):
                    for args in itertools.combinations(prev, m):
                        args_set = frozenset(args)
                        bound = self.explicit(args_set)
                        inner = {**env, t.binder: bound}
                        for alpha in prev:
                            key = _atom_key(args_set, alpha)
                            if key is not None and key in self.pair.coding:
                                continue  # coded keys collapse; handled above
                            if self.contains(t.body, inner, alpha):
                                out.add(pair_of(args_set, alpha))
            return frozenset(out)

        # application
        if _is_self_apply(t.fun) and _is_self_apply(t.arg):
            return frozenset(e for e in self._omega_set(t.fun, env) if e.rank <= trim)
        if isinstance(t.fun, Abs) and self.k >= 1:
            argument = self._lazy(t.arg, env, self.k - 1)
            inner = {**env, t.fun.binder: argument}
            return self.enumerate(t.fun.body, inner, min(trim, self.k - 1))
        fun_set = self.enumerate(t.fun, env, self.k)
        out = set()
        for w in fun_set:
            key = self.preimage(w)
            if key is None:
                continue
            args, res = key
            if res.rank <= trim and all(self.contains(t.arg, env, x) for x in args):
                out.add(res)
        return frozenset(out)

    # -- membership -------------------------------------------------------------

    def contains(self, t: LambdaTerm, env: dict, e: CompletionElement) -> bool:
        """Whether e lies in interp(t, B_k, env)."""
        if e.rank > self.k:
            return False
        key = (t, self._env_key(t, env), e)
        got = self._contains_memo.get(key)
        if got is not None:
            return got
        out = self._contains(t, env, e)
        self._contains_memo[key] = out
        return out

    def _contains(self, t: LambdaTerm, env: dict, e: CompletionElement) -> bool:
        if isinstance(t, Var):
            value = env.get(t.name)
            return value.contains(e) if value is not None else False

        if isinstance(t, Abs):
            key = self.preimage(e)
            if key is None:
                return False
            args, res = key
            return self.contains(t.body, {**env, t.binder: self.explicit(args)}, res)

        # application
        if _is_self_apply(t.fun) and _is_self_apply(t.arg):
            return e in self._omega_set(t.fun, env)
        if isinstance(t.fun, Abs) and self.k >= 1:
            if e.rank > self.k - 1:
                return False
            argument = self._lazy(t.arg, env, self.k - 1)
            return self.contains(t.fun.body, {**env, t.fun.binder: argument}, e)
        return next(self.supporting_keys(t, env, e), None) is not None

    def supporting_keys(self, t: App, env: dict, e: CompletionElement):
        """The keys (args, value) putting e in interp(t): value in the
        function side, args inside the argument side.  Coded keys come first,
        then the pair elements of the function side."""
        if isinstance(e, BaseElement):
            for a, v in self.coded_by_res.get(e.atom, ()):
                if self.contains(t.fun, env, base(v)) and all(
                    self.contains(t.arg, env, base(x)) for x in a
                ):
                    yield frozenset(map(base, a)), base(v)
        if e.rank <= self.k - 1:
            for w in self.enumerate(t.fun, env, self.k):
                if isinstance(w, PairElement) and w.res is e:
                    if all(self.contains(t.arg, env, x) for x in w.args):
                        yield w.args, w

    # -- the self-application collapse --------------------------------------------
    #
    # For fun alpha-equal to \x.x x applied to itself, a member can only come
    # from a key whose coded value falls back into its own argument set, and
    # the rank ordering rules every uncoded key out.  All candidates are coded
    # triples of the base pair, so the result is rank-independent.

    def _omega_set(self, fun: LambdaTerm, env: dict) -> frozenset:
        out = set()
        for (a, alpha), v in self.pair.coding.items():
            if v in a and all(self.contains(fun, env, base(x)) for x in a):
                out.add(base(alpha))
        return frozenset(out)


# ---------------------------------------------------------------------------
# Public operations


def _validated_env(p: PartialPair, env: Environment, k: int) -> None:
    for name, values in env.items():
        for e in values:
            if not isinstance(e, CompletionElement):
                raise TypeError(f"environment for {name!r} must hold completion elements")
            if not element_valid(p, e):
                raise ValueError(f"environment element {element_str(e, p)} is not valid over the pair")
            if e.rank > k:
                raise ValueError(
                    f"environment element {element_str(e, p)} has rank {e.rank} > bound {k}"
                )


def _env_values(ev: Evaluator, env: Environment, trim: int | None = None) -> dict:
    out = {}
    for name, values in env.items():
        if trim is not None:
            values = frozenset(e for e in values if e.rank <= trim)
        out[name] = ev.explicit(values)
    return out


def approx_interpret(
    t: LambdaTerm,
    p: PartialPair,
    env: Environment = Environment(),
    k: int = DEFAULT_MEMBER_BOUND,
    ceiling: int = DEFAULT_CEILING,
) -> frozenset:
    """Interpretation of t in the rank-k restriction, over completion elements.

    Monotone in k.  Raises ApproximationInfeasible / CeilingExceeded when the
    exact answer would need an enumeration beyond the ceiling.
    """
    _validated_env(p, env, k)
    ev = Evaluator(p, k, ceiling)
    return ev.enumerate(t, _env_values(ev, env), k)


@dataclass(frozen=True, slots=True)
class MemberResult:
    found: bool
    rank: Optional[int]
    bound: int

    def __repr__(self) -> str:
        if self.found:
            return f"Found(rank={self.rank})"
        return f"NotFoundUpTo({self.bound})"


def member(
    t: LambdaTerm,
    p: PartialPair,
    e: CompletionElement,
    max_rank: int,
    env: Environment = Environment(),
    ceiling: int = DEFAULT_CEILING,
) -> MemberResult:
    """Least rank at which e enters the approximation of t, if any up to
    max_rank.  Found answers are exact; a NotFoundUpTo is no refutation.

    The environment is trimmed to rank <= k at each probe level k.
    """
    if not element_valid(p, e):
        raise ValueError(f"element {element_str(e, p)} is not valid over the pair")
    for probe in range(max_rank + 1):
        if e.rank > probe:
            continue
        ev = Evaluator(p, probe, ceiling)
        if ev.contains(t, _env_values(ev, env, trim=probe), e):
            return MemberResult(True, probe, max_rank)
    return MemberResult(False, None, max_rank)


def extract_witness_subpair(
    t: LambdaTerm,
    p: PartialPair,
    e: CompletionElement,
    k: int,
    env: Environment = Environment(),
    ceiling: int = DEFAULT_CEILING,
) -> PartialPair:
    """A finite subpair of the rank-k restriction inside which e is already
    derivable, re-verified by the finite interpreter before return.

    The subpair is read off the evaluator's derivation: a variable node
    contributes its element, an abstraction node the unique key coding to its
    element, and an application node the least supporting key in the order
    of restriction atom numbers, so the result is the one a walk over the
    materialized restriction would find.  Atoms are numbered as in
    restrict(p, k), which is never built.
    """
    if e.rank > k:
        raise ValueError(f"element has rank {e.rank}, above the bound {k}")
    if not element_valid(p, e):
        raise ValueError(f"element {element_str(e, p)} is not valid over the pair")
    _validated_env(p, env, k)
    ev = Evaluator(p, k, ceiling)
    values = _env_values(ev, env)
    if not ev.contains(t, values, e):
        raise ValueError("element not derivable within the rank bound; run member() first")

    elements: set[CompletionElement] = set()
    coding: dict[tuple[frozenset, CompletionElement], CompletionElement] = {}

    def walk(node: LambdaTerm, env_v: dict, alpha: CompletionElement) -> None:
        elements.add(alpha)
        if isinstance(node, Var):
            return
        if isinstance(node, Abs):
            key = ev.preimage(alpha)
            if key is None:
                raise AssertionError("abstraction member without a coded preimage")
            args, res = key
            coding[key] = alpha
            elements.update(args)
            walk(node.body, {**env_v, node.binder: ev.explicit(args)}, res)
            return
        # restriction atoms are numbered in (rank, structural) order
        args, value = min(
            ev.supporting_keys(node, env_v, alpha),
            key=lambda kv: sorted((x.rank, x.sort_key()) for x in kv[0]),
            default=(None, None),
        )
        if args is None:
            raise AssertionError("application member without a supporting key")
        coding[(args, alpha)] = value
        walk(node.fun, env_v, value)
        for x in args:
            walk(node.arg, env_v, x)

    walk(t, values, e)
    atom = {x: restriction_atom(p, x, ceiling) for x in elements}
    witness = PartialPair(
        atom.values(),
        {(frozenset(atom[x] for x in args), atom[res]): atom[v] for (args, res), v in coding.items()},
        labels={atom[x]: element_str(x, p) for x in elements},
    )
    narrowed = Environment(
        {name: frozenset(atom[x] for x in xs if x in atom) for name, xs in env.items()}
    )
    if not validate(witness).ok or atom[e] not in interpret(t, witness, narrowed):
        raise AssertionError("witness subpair failed re-verification")
    return witness


# ---------------------------------------------------------------------------
# Inequation checking


BOUNDED_REFUTATION_NOTE = (
    "witness membership is exact; non-membership was checked up to the stated "
    "rank bound only and is evidence, not proof, of failure"
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bounded check of lhs <= rhs (interpretation inclusion)."""

    kind: str  # "holds_up_to" | "fails_with_evidence" | "unknown"
    lhs: LambdaTerm
    rhs: LambdaTerm
    lhs_bound: int
    rhs_bound: int
    witness: Optional[CompletionElement] = None
    member_rank: Optional[int] = None
    witness_subpair: Optional[PartialPair] = None

    @property
    def failed(self) -> bool:
        return self.kind == "fails_with_evidence"

    def to_json(self, pair: PartialPair | None = None) -> dict:
        doc: dict = {
            "inequation": {"lhs": print_term(self.lhs), "rhs": print_term(self.rhs)},
            "kind": self.kind,
        }
        if self.kind == "fails_with_evidence":
            doc["witness"] = element_str(self.witness, pair)
            doc["member_rank"] = self.member_rank
            doc["nonmember_bound"] = self.rhs_bound
            doc["witness_subpair"] = self.witness_subpair.to_json()
            doc["note"] = BOUNDED_REFUTATION_NOTE
        else:
            doc["bound"] = min(self.lhs_bound, self.rhs_bound)
            doc["note"] = (
                f"inclusion verified for the rank-{self.lhs_bound} approximation of the "
                f"left side against the rank-{self.rhs_bound} approximation of the right"
            )
        return doc


def check_inequation(
    lhs: LambdaTerm,
    rhs: LambdaTerm,
    p: PartialPair,
    k_lhs: int = DEFAULT_MEMBER_BOUND,
    k_rhs: int = DEFAULT_MEMBER_BOUND + DEFAULT_SLACK,
    ceiling: int = DEFAULT_CEILING,
) -> Verdict:
    """Scan the rank-k_lhs approximation of lhs for an element missing from
    the rank-k_rhs approximation of rhs.

    Returns the canonically least witness (structural order) with its
    membership rank and a re-verified witness subpair, or holds-up-to when
    the bounded inclusion goes through.
    """
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
                "fails_with_evidence",
                lhs,
                rhs,
                k_lhs,
                k_rhs,
                witness=candidate,
                member_rank=found.rank,
                witness_subpair=subpair,
            )
    return Verdict("holds_up_to", lhs, rhs, k_lhs, k_rhs)


def check_equation(
    lhs: LambdaTerm,
    rhs: LambdaTerm,
    p: PartialPair,
    k_lhs: int = DEFAULT_MEMBER_BOUND,
    k_rhs: int = DEFAULT_MEMBER_BOUND + DEFAULT_SLACK,
    ceiling: int = DEFAULT_CEILING,
) -> tuple[Verdict, Verdict]:
    """Both inclusion directions; the equation fails when either does."""
    forward = check_inequation(lhs, rhs, p, k_lhs, k_rhs, ceiling)
    backward = check_inequation(rhs, lhs, p, k_lhs, k_rhs, ceiling)
    return forward, backward
