"""Rank-bounded interpretation in completions, with certificates.

The rank-k approximation of a term is its interpretation in the rank-k
restriction of the completion.  Restrictions explode doubly exponentially,
so the evaluator here never materializes one: it computes the same sets
through exact structural rules and answers membership queries recursively.

  * variables look up the environment;
  * an abstraction enumerates coded keys plus the uncoded keys one rank
    down (this is the only place a level is materialized, ceiling-guarded:
    the level's size is counted in closed form first, and a level with more
    keys than the ceiling is refused unbuilt), while membership queries just
    invert the total coding.  Each argument set over the lower level takes
    one enumeration of the body cut to that rank, which holds exactly the
    lower-level results the body gives for it; that enumeration reaches no
    level above the one materialized;
  * an applied abstraction reduces: because interpretation is monotone in
    the environment and every key over the previous level is available in
    the restriction, the redex equals the body evaluated under the full
    argument set trimmed one rank down;
  * a general application inverts the coding over the function-side set, so
    the argument side is only ever queried pointwise, or, when it is a
    variable bound to an explicit set, by one subset test per key;
  * a self-application combinator applied to itself collapses: a coded key
    can only code back into its own argument set at rank 0, so the result
    is carved out of the coded triples alone, at every rank.

Every rule is an equality, verified against the materialized restriction in
the test suite at small ranks.  When no rule applies within the element
ceiling the evaluator refuses with ApproximationInfeasible rather than
approximate: enumeration results are exact, and non-membership claims are
always tagged with the rank bound they were checked at.

Environment values are explicit frozensets or LazyValues, which stand for
a trimmed interpretation set and are answered by the variable rules.  Only the
queries whose answer comes from a search are memoized per evaluator: those
on applications, and the enumeration of abstractions.  A variable is
answered by its environment lookup, and membership in an abstraction by
inverting the coding, before any memo key is built, because the key costs
more than either rule and such entries were almost never hit again.  A key
is the term itself and the values bound to the free names the term
carries: terms are hash-consed, so structurally equal terms are one object
and share entries, while frozensets compare by content and lazy values by
identity.  The coding is inverted once per evaluator, into a table from each
coded atom to its key over base elements, which every atom inversion reads,
and a table from each coded argument set to its coded results, which an
abstraction reads once per argument set.  What depends on the pair alone,
its validation report and its completion levels, is computed once per pair
and kept in PartialPair.derived, so the several evaluators of one check
share it; the ceiling guard still runs on every level request.

An inequation M <= N is refuted by the least element of M's approximation
that N's lacks, so check_inequation reads M's side in witness order
(sort_key order) and stops at the first element N's evaluator rejects.  At
an abstraction that order is lazy: the coded atoms, then the argument sets
over the sorted lower level depth first, lexicographically with a prefix
first, each with its results sorted.  That one walk (Evaluator._abstraction)
serves both readings of an abstraction: enumeration takes the union of its
groups, the ordered scan sorts each group as it comes; the same subset walk,
pruned, finds a redex's least supporting key.  A refuted abstraction thus
costs the argument sets up to its witness, not all of them, while a holding
inclusion still scans the whole side.

Certificates come from the same derivation.  extract_witness_subpair walks
the term with the memoized membership and enumeration queries and keeps the
least supporting key at each node: the unique coding preimage at an
abstraction, the least key in restriction atom order at an application.  At
a redex the uncoded keys are searched in that order, pruned by monotonicity,
and the first one found is the least, so the abstraction is never
enumerated.  Its atoms are numbered as in the rank-k restriction, counted in
closed form over the lower levels, so the restriction is never built; the
small subpair is then re-verified by the independent finite interpreter,
semantics.interpret.  Abstraction and redex witnesses over three atoms at
rank 2, whose restriction would hold billions of elements, answer this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .completion import (
    CeilingExceeded,
    CompletionElement,
    BaseElement,
    PairElement,
    base,
    count_up_to,
    element_str,
    element_valid,
    levels_up_to,
    pair_of,
    pair_of_sorted,
    restriction_atom,
)
from . import pairs
from .pairs import PartialPair, validate
from .semantics import Environment, interpret
from .terms import Abs, App, LambdaTerm, Var, is_closed, print_term

# No longer called here, but perfbench/spans.py patches these names on this
# module to trace calls into the completion and pair layers.
from .completion import elements_up_to, restrict  # noqa: E402,F401
from .pairs import union  # noqa: E402,F401

DEFAULT_MEMBER_BOUND = 2
DEFAULT_SLACK = 2


class ApproximationInfeasible(CeilingExceeded):
    """The query cannot be answered within the element ceiling."""


def _subsets(items: tuple, viable=None):
    """The subsets of items, as tuples in items' order, depth first: a set
    comes right before its extensions, which is lexicographic order with a
    proper prefix first.  When viable(chosen + items[i:]) is false the walk
    passes over every set that extends chosen by elements of items[i:]."""
    yield ()
    # each entry is a set already visited and the position its loop resumes at
    stack = [((), 0)]
    while stack:
        chosen, i = stack.pop()
        if i == len(items) or (viable is not None and not viable(chosen + items[i:])):
            continue
        child = chosen + (items[i],)
        stack += [(chosen, i + 1), (child, i + 1)]
        yield child


class LazyValue:
    """An environment value standing for interp(term, env) cut to rank <=
    trim, in the evaluator that made it, whose variable rules answer it.

    It holds no reference to that evaluator, so an evaluator and its memos
    are freed as soon as the call that built it returns, with no cycle left
    for the garbage collector.  It compares and hashes by identity, so
    Evaluator._lazy makes one per key."""

    __slots__ = ("term", "env", "trim")

    def __init__(self, term: LambdaTerm, env: dict, trim: int):
        self.term = term
        self.env = env
        self.trim = trim


class Evaluator:
    """Exact rank-bounded evaluation over the completion of one pair.

    Explicit environment values hold only elements of rank <= k: the sets
    _env_values binds are cut to k, argument sets are drawn from the levels
    below k, and a coding preimage of an element of rank <= k has parts of
    lower rank.  So a variable bound to an explicit set is answered at set
    level, with no per-element query: enumerated at rank k it is the set
    itself, and an argument set lies in it exactly when it is a subset.  A
    LazyValue is queried element by element.
    """

    def __init__(self, pair: PartialPair, k: int):
        if k < 0:
            raise ValueError("rank bound must be non-negative")
        report = pair.derived.get("report")
        if report is None:  # validated once per pair
            report = pair.derived.setdefault("report", validate(pair))
        if not report.ok:
            raise ValueError("invalid pair: " + "; ".join(report.violations))
        self.pair = pair
        self.k = k
        # the coding inverted once, over base elements: atom -> (args, res)
        self.inverse: dict[int, tuple[frozenset[BaseElement], BaseElement]] = {
            v: (frozenset(map(base, a)), base(alpha)) for v, (a, alpha) in pair.inverse.items()
        }
        self.coded_by_res: dict[int, list[tuple[frozenset[BaseElement], BaseElement]]] = {}
        # argument set -> the results it is coded with (those keys collapse to atoms)
        self.coded_results: dict[frozenset[BaseElement], set[BaseElement]] = {}
        for v, (args, res) in self.inverse.items():
            self.coded_by_res.setdefault(res.atom, []).append((args, base(v)))
            self.coded_results.setdefault(args, set()).add(res)
        self._contains_memo: dict = {}
        self._enum_memo: dict = {}
        self._lazy_cache: dict = {}

    # -- plumbing ------------------------------------------------------------

    def _key(self, t: LambdaTerm, env: dict, last) -> tuple:
        """Memo key: t itself, the values bound to its free names (None when
        unbound), then `last`."""
        names = t.free
        if not names:
            return (t, last)
        return (t, *map(env.get, names), last)

    def _holds_all(self, t: LambdaTerm, env: dict, args: frozenset) -> bool:
        """Every element of args lies in interp(t): a subset test when t is a
        variable bound to an explicit set."""
        if isinstance(t, Var):
            value = env.get(t.name, frozenset())
            if isinstance(value, frozenset):
                return args <= value
        for x in args:  # a loop, not all() over a generator: this is the hot path
            if not self.contains(t, env, x):
                return False
        return True

    def _level(self, j: int) -> tuple[CompletionElement, ...]:
        """The elements of rank <= j in sort_key order, so that argument
        tuples drawn from it in order are already sorted.

        The level sizes are counted in closed form first, so a level whose
        keys exceed the ceiling is refused before it is built."""
        n = count_up_to(self.pair, j)
        if 2**n * n > pairs.DEFAULT_CEILING:
            raise ApproximationInfeasible(
                f"abstraction over level {j} needs 2^{n}·{n} keys, ceiling is {pairs.DEFAULT_CEILING}"
            )
        return tuple(sorted(levels_up_to(self.pair, j), key=CompletionElement.sort_key))

    def preimage(self, e: CompletionElement):
        """coding_preimage(self.pair, e), an atom's key read from the table."""
        if isinstance(e, PairElement):
            return (e.args, e.res)
        return self.inverse.get(e.atom)

    def _lazy(self, term: LambdaTerm, env: dict, trim: int) -> "LazyValue":
        key = self._key(term, env, trim)
        got = self._lazy_cache.get(key)
        if got is None:
            got = self._lazy_cache.setdefault(key, LazyValue(term, env, trim))
        return got

    # -- enumeration -----------------------------------------------------------

    def enumerate(self, t: LambdaTerm, env: dict, trim: int) -> frozenset:
        """interp(t, B_k, env) cut to rank <= trim, as an explicit set.

        A variable's value is read directly, with no memo entry: an explicit
        set needs no cut at trim = k, nor a lazy value's enumeration at its
        own trim or above, and either is returned as it is."""
        trim = min(trim, self.k)
        if isinstance(t, Var):
            value = env.get(t.name, frozenset())
            cut = self.k
            if type(value) is LazyValue:
                value, cut = self.enumerate(value.term, value.env, value.trim), value.trim
            if trim >= cut:
                return value
            return frozenset(e for e in value if e.rank <= trim)
        key = self._key(t, env, trim)
        got = self._enum_memo.get(key)
        if got is not None:
            return got
        out = self._enumerate(t, env, trim)
        self._enum_memo[key] = out
        return out

    def _enumerate(self, t: LambdaTerm, env: dict, trim: int) -> frozenset:
        if isinstance(t, Abs):
            return frozenset(e for group in self._abstraction(t, env, trim) for e in group)

        # application
        if t.omega:
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
            if res.rank <= trim and self._holds_all(t.arg, env, args):
                out.add(res)
        return frozenset(out)

    def _abstraction(self, t: Abs, env: dict, trim: int):
        """interp(t) cut to rank <= trim, in groups: first the coded atoms,
        the values of the coded keys whose result the body gives under their
        argument set; then, for each argument tuple over the sorted level one
        rank down in _subsets order, the pair elements with those arguments.
        One enumeration of the body cut to that rank gives a tuple's results,
        less those the tuple is coded with, read from coded_results once.

        The coded atoms and the level are computed before the first group is
        yielded.  At trim = k that level is the largest any query of this
        evaluator builds, so a walk stopped early refuses exactly where a
        whole one would."""
        coded = {
            base(v)
            for v, (args, res) in self.inverse.items()
            if self.contains(t.body, {**env, t.binder: args}, res)
        }
        arg_tuples = _subsets(self._level(trim - 1)) if trim >= 1 else ()
        yield coded
        for args in arg_tuples:
            args_set = frozenset(args)
            results = self.enumerate(t.body, {**env, t.binder: args_set}, trim - 1)
            collapsed = self.coded_results.get(args_set)
            if collapsed:  # coded keys collapse to atoms
                results = results - collapsed
            yield [pair_of_sorted(args, alpha) for alpha in results]

    def ordered(self, t: LambdaTerm, env: dict, trim: int):
        """interp(t, B_k, env) cut to rank <= trim, in sort_key order.

        At an abstraction the set is never built: its groups come in the
        order sort_key compares them in (the coded atoms, then the argument
        tuples lexicographically, a prefix first), each group sorted by
        result.  Other terms are one group, enumerated whole.
        """
        trim = min(trim, self.k)
        groups = self._abstraction(t, env, trim) if isinstance(t, Abs) else [self.enumerate(t, env, trim)]
        for group in groups:
            yield from sorted(group, key=CompletionElement.sort_key)

    # -- membership -------------------------------------------------------------

    def contains(self, t: LambdaTerm, env: dict, e: CompletionElement) -> bool:
        """Whether e lies in interp(t, B_k, env).

        A variable is looked up and an abstraction inverts the coding before
        any memo key is built: those rules cost less than the key.  Only
        applications, whose answer comes from a search, are memoized."""
        if e.rank > self.k:
            return False
        if isinstance(t, Var):
            value = env.get(t.name, ())
            if type(value) is LazyValue:  # an exact type test: this is the hot path
                return e.rank <= value.trim and self.contains(value.term, value.env, e)
            return e in value
        if isinstance(t, Abs):
            key = self.preimage(e)
            return key is not None and self.contains(t.body, {**env, t.binder: key[0]}, key[1])
        key = self._key(t, env, e)
        got = self._contains_memo.get(key)
        if got is not None:
            return got
        out = self._contains(t, env, e)
        self._contains_memo[key] = out
        return out

    def _contains(self, t: App, env: dict, e: CompletionElement) -> bool:
        """A redex reduces; otherwise the first supporting key decides, in
        the order supporting_keys gives them."""
        if t.omega:
            return e in self._omega_set(t.fun, env)
        if isinstance(t.fun, Abs) and self.k >= 1:
            if e.rank > self.k - 1:
                return False
            argument = self._lazy(t.arg, env, self.k - 1)
            return self.contains(t.fun.body, {**env, t.fun.binder: argument}, e)
        if isinstance(e, BaseElement):
            for args, value in self.coded_by_res.get(e.atom, ()):
                if self.contains(t.fun, env, value) and self._holds_all(t.arg, env, args):
                    return True
        if e.rank > self.k - 1:
            return False
        for w in self.enumerate(t.fun, env, self.k):
            if isinstance(w, PairElement) and w.res is e and self._holds_all(t.arg, env, w.args):
                return True
        return False

    def supporting_keys(self, t: App, env: dict, e: CompletionElement):
        """The keys (args, value) putting e in interp(t): value in the
        function side, args inside the argument side.  Coded keys come first,
        then the uncoded keys, whose value is the pair element (args, e).

        At a redex (\\x.B) N the uncoded keys are the (S, e) with S a subset
        of A, the elements of rank <= k-1 that N contains, and e in B under
        x = S.  They come in witness order (S sorted by rank and structure,
        compared lexicographically, a prefix first) from a depth-first search
        over A that visits a set before its extensions, so the abstraction is
        never enumerated.  Interpretation is monotone in the environment:
        once B under x = chosen + A[i:] misses e, no later set in the loop
        can hold, and the loop stops.  The search passes over a set that
        holds only when it is a coded key, which is all-atom, so reaching the
        first key takes about |A| * 2^b membership queries over b atoms.  The
        abstraction rule's key-count guard is therefore not needed here.
        The level is still built under the element ceiling, and the search
        refuses once its probes have bound more elements than the ceiling,
        as a least key with thousands of arguments would need.

        Other function sides yield the pair elements they enumerate, in no
        particular order.  contains() never takes the redex branch: it
        reduces a redex first, and at k = 0 the rank test excludes it.
        """
        if isinstance(e, BaseElement):
            for args, value in self.coded_by_res.get(e.atom, ()):
                if self.contains(t.fun, env, value) and self._holds_all(t.arg, env, args):
                    yield args, value
        if e.rank > self.k - 1:
            return
        if isinstance(t.fun, Abs):
            yield from self._redex_keys(t.fun, t.arg, env, e)
            return
        for w in self.enumerate(t.fun, env, self.k):
            if isinstance(w, PairElement) and w.res is e and self._holds_all(t.arg, env, w.args):
                yield w.args, w

    def _redex_keys(self, fun: Abs, arg: LambdaTerm, env: dict, e: CompletionElement):
        # elements_up_to lists elements in (rank, structural) order already
        level = levels_up_to(self.pair, self.k - 1)
        cands = tuple(x for x in level if self.contains(arg, env, x))
        work = 0

        def holds(args: tuple) -> bool:
            nonlocal work
            work += len(args) + 1
            if work > pairs.DEFAULT_CEILING:
                raise ApproximationInfeasible(
                    f"redex key search over {len(cands)} candidate arguments "
                    f"probes more than {pairs.DEFAULT_CEILING} elements"
                )
            return self.contains(fun.body, {**env, fun.binder: frozenset(args)}, e)

        for args in _subsets(cands, holds):
            if holds(args) and e not in self.coded_results.get(frozenset(args), ()):
                w = pair_of(args, e)
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


def _validated_env(p: PartialPair, env: Environment, k: int | None) -> None:
    """Every bound value is a valid element over p, of rank at most k unless
    k is None (member trims the environment at each probe instead)."""
    for name, values in env.items():
        for e in values:
            if not isinstance(e, CompletionElement):
                raise TypeError(f"environment for {name!r} must hold completion elements")
            if not element_valid(p, e):
                raise ValueError(f"environment element {element_str(e, p)} is not valid over the pair")
            if k is not None and e.rank > k:
                raise ValueError(
                    f"environment element {element_str(e, p)} has rank {e.rank} > bound {k}"
                )


def _env_values(env: Environment, trim: int) -> dict:
    """The evaluator's environment: each value cut to rank <= trim."""
    return {name: frozenset(e for e in values if e.rank <= trim) for name, values in env.items()}


def approx_interpret(
    t: LambdaTerm,
    p: PartialPair,
    env: Environment = Environment(),
    k: int = DEFAULT_MEMBER_BOUND,
) -> frozenset:
    """Interpretation of t in the rank-k restriction, over completion elements.

    Monotone in k.  Raises ApproximationInfeasible / CeilingExceeded when the
    exact answer would need an enumeration beyond the ceiling.
    """
    _validated_env(p, env, k)
    return Evaluator(p, k).enumerate(t, _env_values(env, k), k)


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
) -> MemberResult:
    """Least rank at which e enters the approximation of t, if any up to
    max_rank.  Found answers are exact; a NotFoundUpTo is no refutation.

    The environment is checked as approx_interpret checks it, except that
    ranks above a probe are allowed: it is trimmed to rank <= k at each
    probe level k, and each probe is a fresh evaluator.
    """
    probe = _member_probe(t, p, e, max_rank, env)
    return MemberResult(probe is not None, None if probe is None else probe.k, max_rank)


def _member_probe(
    t: LambdaTerm, p: PartialPair, e: CompletionElement, max_rank: int, env: Environment
) -> Evaluator | None:
    """member's checks and probes: the probe whose approximation of t holds
    e, at the least rank (its k) up to max_rank, or None.  A witness is
    walked on that probe, so the membership is derived once."""
    if max_rank < 0:
        raise ValueError("rank bound must be non-negative")
    if not element_valid(p, e):
        raise ValueError(f"element {element_str(e, p)} is not valid over the pair")
    _validated_env(p, env, None)
    for rank in range(e.rank, max_rank + 1):
        probe = Evaluator(p, rank)
        if probe.contains(t, _env_values(env, rank), e):
            return probe
    return None


def extract_witness_subpair(
    t: LambdaTerm,
    p: PartialPair,
    e: CompletionElement,
    k: int,
    env: Environment = Environment(),
) -> PartialPair:
    """A finite subpair of the rank-k restriction inside which e is already
    derivable, re-verified by the finite interpreter before return.

    The subpair is read off the derivation of a fresh evaluator over p at
    rank k: a variable node contributes its element, an abstraction node the
    unique key coding to its element, and an application node the least
    supporting key in the order of restriction atom numbers, so the result is
    the one a walk over the materialized restriction would find.  Atoms are
    numbered as in restrict(p, k), which is never built.
    """
    if e.rank > k:
        raise ValueError(f"element has rank {e.rank}, above the bound {k}")
    if not element_valid(p, e):
        raise ValueError(f"element {element_str(e, p)} is not valid over the pair")
    _validated_env(p, env, k)
    ev = Evaluator(p, k)
    if not ev.contains(t, _env_values(env, k), e):
        raise ValueError("element not derivable within the rank bound; run member() first")
    return _witness(ev, t, e, env)


def _witness(ev: Evaluator, t: LambdaTerm, e: CompletionElement, env: Environment) -> PartialPair:
    """extract_witness_subpair's walk, on an evaluator ev that contains e in t."""
    elements: set[CompletionElement] = set()
    coding: dict[tuple[frozenset, CompletionElement], CompletionElement] = {}

    # an explicit stack, not a nested recursive function, which would hold
    # itself and the evaluator in a reference cycle
    todo = [(t, _env_values(env, ev.k), e)]
    while todo:
        node, env_v, alpha = todo.pop()
        elements.add(alpha)
        if isinstance(node, Var):
            continue
        if isinstance(node, Abs):
            key = ev.preimage(alpha)
            if key is None:
                raise AssertionError("abstraction member without a coded preimage")
            args, res = key
            coding[key] = alpha
            elements.update(args)
            todo.append((node.body, {**env_v, node.binder: args}, res))
            continue
        # restriction atoms are numbered in (rank, structural) order; a
        # redex's uncoded keys come in that order, so its first is its least
        keys = []
        for kv in ev.supporting_keys(node, env_v, alpha):
            keys.append(kv)
            if isinstance(node.fun, Abs) and isinstance(kv[1], PairElement):
                break
        args, value = min(
            keys,
            key=lambda kv: sorted((x.rank, x.sort_key()) for x in kv[0]),
            default=(None, None),
        )
        if args is None:
            raise AssertionError("application member without a supporting key")
        coding[(args, alpha)] = value
        todo += [(node.arg, env_v, x) for x in args]
        todo.append((node.fun, env_v, value))
    atom = {x: restriction_atom(ev.pair, x) for x in elements}
    witness = PartialPair(
        atom.values(),
        {(frozenset(atom[x] for x in args), atom[res]): atom[v] for (args, res), v in coding.items()},
        labels={atom[x]: element_str(x, ev.pair) for x in elements},
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

    kind: str  # "holds_up_to" | "fails_with_evidence"
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
) -> Verdict:
    """Scan the rank-k_lhs approximation of lhs for an element missing from
    the rank-k_rhs approximation of rhs.

    The left side comes in witness order (structural, sort_key order) from
    Evaluator.ordered, which reads an abstraction lazily, argument set by
    argument set, and the scan stops at the first element the right side's
    evaluator rejects.  That element is the canonically least witness; it is
    returned with its membership rank and a re-verified witness subpair.
    Holds-up-to means the bounded inclusion went through, after a scan of the
    whole left side.  Refusals come where a scan of the whole, sorted left
    side would meet them: the left side's guards run before its first element.
    The witness's rank is probed once per rank as in member(), with the left
    evaluator at k_lhs, and its subpair is walked on the probe that found it.
    """
    if not is_closed(lhs) or not is_closed(rhs):
        raise ValueError("inequation checking expects closed terms")
    if k_rhs < k_lhs:
        raise ValueError("the right bound must be at least the left bound")
    left = Evaluator(p, k_lhs)
    ev = Evaluator(p, k_rhs)
    for candidate in left.ordered(lhs, {}, k_lhs):
        if not ev.contains(rhs, {}, candidate):
            for rank in range(candidate.rank, k_lhs + 1):
                probe = left if rank == k_lhs else Evaluator(p, rank)
                if probe.contains(lhs, {}, candidate):
                    break
            else:
                raise AssertionError("left side element missing from its own evaluator")
            return Verdict(
                "fails_with_evidence",
                lhs,
                rhs,
                k_lhs,
                k_rhs,
                witness=candidate,
                member_rank=rank,
                witness_subpair=_witness(probe, lhs, candidate, Environment()),
            )
    return Verdict("holds_up_to", lhs, rhs, k_lhs, k_rhs)


def check_equation(
    lhs: LambdaTerm,
    rhs: LambdaTerm,
    p: PartialPair,
    k_lhs: int = DEFAULT_MEMBER_BOUND,
    k_rhs: int = DEFAULT_MEMBER_BOUND + DEFAULT_SLACK,
) -> tuple[Verdict, Verdict]:
    """Both inclusion directions; the equation fails when either does."""
    return check_inequation(lhs, rhs, p, k_lhs, k_rhs), check_inequation(rhs, lhs, p, k_lhs, k_rhs)
