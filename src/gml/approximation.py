"""Rank-bounded interpretation in completions, with certificates.

The rank-k approximation of a term is its interpretation in the rank-k
restriction of the completion.  Restrictions explode doubly exponentially,
so the evaluator here never materializes one: it computes the same sets
through exact structural rules and answers membership queries recursively.

  * a variable looks up the environment.  A value is an explicit set of
    elements of rank <= k, or a LazyValue, which stands for its term's
    interpretation under its environment cut to its trim: a variable bound
    to one is that term, so cut (the lazy variable rule);
  * an abstraction enumerates coded keys plus the uncoded keys one rank
    down (this is the only place a level is materialized, ceiling-guarded:
    the level's size is counted in closed form first, and a level with more
    keys than the ceiling is refused unbuilt), while membership queries just
    invert the total coding.  Each argument set over the lower level takes
    one enumeration of the body cut to that rank, which holds exactly the
    lower-level results the body gives for it; that enumeration reaches no
    level above the one materialized;
  * an applied abstraction (\\x.B) A other than Omega reduces at k >= 1
    (the redex rule): because interpretation is monotone in the environment
    and every key over the previous level is available in the restriction,
    the redex equals B under x bound lazily to A one rank down, cut to rank
    k-1;
  * a general application inverts the coding over the function-side set, so
    the argument side is only ever queried pointwise, or, when it is a
    variable bound to an explicit set, by one subset test per key; it is
    written once, as Evaluator.supporting_keys;
  * a self-application combinator applied to itself collapses: a coded key
    can only code back into its own argument set at rank 0, so the result
    is carved out of the coded triples alone, at every rank.

The redex rule and the lazy variable rule are the head rules, and
Evaluator._head is the one place either is applied: a loop in the manner of
Krivine's machine that follows a term through its head to a term,
environment and trim with the same approximation, binding lazy values and
evaluating nothing.  Every query starts there, so enumeration, membership,
the ordered scan and its bound read a redex alike; membership first answers
a variable bound to an explicit set, which costs less than the walk.

Every rule is an equality, verified against the materialized restriction in
the test suite at small ranks.  When no rule applies within the element
ceiling the evaluator refuses with ApproximationInfeasible rather than
approximate: enumeration results are exact, and non-membership claims are
always tagged with the rank bound they were checked at.

Only the queries whose answer comes from a search are memoized per
evaluator, on the term the head walk reaches: those on applications, and
the enumeration of abstractions.  A variable is answered by its environment
lookup, and membership in an abstraction by inverting the coding, before
any memo key is built, because the key costs more than either rule and such
entries were almost never hit again.  A key is the term itself and the
values bound to the free names the term carries: terms are hash-consed, so
structurally equal terms are one object and share entries, while frozensets
compare by content and lazy values by identity.  What depends on the pair
alone is computed once per pair and kept in PartialPair.derived, so the
evaluators of one check share it: the validation report, the completion
levels (the ceiling guard still runs on every level request) and the coding
over base elements, inverted into tables from each coded atom to its key,
each result to its coded keys and each coded argument set to its coded
results.

An inequation M <= N is refuted by the least element of M's approximation
that N's lacks, so check_inequation reads M's side in witness order
(sort_key order) and stops at the first element N's evaluator rejects.  M
is first followed through its head (Evaluator._head).  At an abstraction
reached so, the order is lazy: the coded atoms, then the argument sets over
the sorted lower level depth first, lexicographically with a prefix first,
each with its results sorted.  That one walk (Evaluator._abstraction)
serves both readings of an abstraction: enumeration takes the union of its
groups, the ordered scan sorts each group as it comes; the same subset
walk, pruned, finds a redex's least supporting key.  A refuted abstraction
thus costs the argument sets up to its witness, not all of them.

The walk is pruned by monotonicity (branch and bound) whenever both sides
reach abstractions, \\x.B under the left's reached environment and \\y.C
under the right's, and the left side's trim is at most the right side's,
so every element the scan reads lies within the right side's.  The walk's
subtree of argument sets extending chosen by elements of rest is passed
over when B under chosen + rest, cut one rank below the left trim, gives no
result that C lacks under chosen.  Each set S of the subtree lies between
the two, and meaning is monotone in the environment, lazy values included,
so every element (S, a) of its group has a in C under S: the subtree holds
no witness.  An evaluation of the bound that refuses, or meets the
recursion limit, proves nothing and prunes nothing, so the bound adds no
refusal; where it answers, it may pass over sets whose evaluation would
refuse, and the claim then answers where the whole scan refuses.  Wherever
the whole scan answers, the verdict and the least witness are its own; a
holding inclusion, and the sets before a witness, cost only the subtrees
the bound fails to close.  Other claims are scanned unpruned.

M <= N is not scanned at all when one side reaches the other by at most
k_rhs - k_lhs one-step beta reductions, M <= M being the 0-step case.  Every
rule is positive and the rank-k restriction is a subpair of the rank-(k+1)
one, so approximations grow with the rank; a reduction grows the rank-k
approximation (a redex binds its variable one rank down, its contractum at
rank k), and an expansion costs at most one rank (the contractum at rank k
lies in the redex at rank k+1).  Sides are compared by identity: terms are
hash-consed, so a reduct is the other side exactly when it is structurally
equal to it, names included, and alpha-variants are scanned.  No right-side
evaluator is built, and the left side is read only when one of its guards
could refuse (_unguarded decides that in closed form from the size of the
level one rank below k_lhs and the ceiling): then it is read up to its
first element, so the claim refuses exactly where that side's guards do.
A claim whose whole scan would refuse after that element, on either side,
holds.  The reducts are walked from explicit stacks under the element
ceiling, once per search.

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
Each walks the evaluator that _least_probe, the one membership-rank probe
loop, found the witness's least rank on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    sorted_level,
)
from . import pairs
from .pairs import PartialPair, validate
from .semantics import EMPTY_ENV, Environment, interpret
from .terms import Abs, App, LambdaTerm, Var, _reducts, is_closed, print_term

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
    proper prefix first.  When viable(chosen, items[i:]) is false the walk
    passes over every set that extends chosen by elements of items[i:]: a
    monotone test of chosen + items[i:], the largest of them, or a bound
    that compares it with chosen, the least, prunes that whole subtree."""
    yield ()
    # each entry is a set already visited and the position its loop resumes at
    stack = [((), 0)]
    while stack:
        chosen, i = stack.pop()
        if i == len(items) or (viable is not None and not viable(chosen, items[i:])):
            continue
        child = chosen + (items[i],)
        stack += [(chosen, i + 1), (child, i + 1)]
        yield child


class LazyValue:
    """An environment value standing for interp(term, env) cut to rank <=
    trim, in the evaluator that made it; only Evaluator._head reads it.

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
    variable bound to a LazyValue is followed to its term (_head) and
    queried element by element.
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
        tables = pair.derived.get("coding tables")
        if tables is None:  # built once per pair, over base elements
            inverse = {v: (frozenset(map(base, a)), base(alpha)) for v, (a, alpha) in pair.inverse.items()}
            by_res, results = {}, {}
            for v, (args, res) in inverse.items():
                by_res.setdefault(res.atom, []).append((args, base(v)))
                results.setdefault(args, set()).add(res)
            tables = pair.derived.setdefault("coding tables", (inverse, by_res, results))
        # coded atom -> key (args, res); result atom -> the keys (args, value)
        # coded with it; argument set -> its coded results (which collapse)
        self.inverse, self.coded_by_res, self.coded_results = tables
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
        """The elements of rank <= j in sort_key order (sorted_level), so
        that argument tuples drawn from it in order are already sorted.  The
        level size is counted in closed form first, so a level whose keys
        exceed the ceiling is refused before it is built."""
        n = count_up_to(self.pair, j)
        if 2**n * n > pairs.DEFAULT_CEILING:
            raise ApproximationInfeasible(
                f"abstraction over level {j} needs 2^{n}·{n} keys, ceiling is {pairs.DEFAULT_CEILING}"
            )
        return sorted_level(self.pair, j)

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
        """interp(t, B_k, env) cut to rank <= trim, as an explicit set, t
        first followed through its head (_head), so a lazily bound variable
        is read at the trim asked for, not at its value's own.

        A variable reached is bound to an explicit set, and is returned as
        it is at trim = k, with no memo entry."""
        t, env, trim = self._head(t, env, min(trim, self.k))
        if isinstance(t, Var):
            value = env.get(t.name, frozenset())
            return value if trim >= self.k else frozenset(e for e in value if e.rank <= trim)
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
        if t.omega:
            return frozenset(e for e in self._omega_set(t.fun, env) if e.rank <= trim)
        out = set()
        for w in self.enumerate(t.fun, env, self.k):
            key = self.preimage(w)
            if key is None:
                continue
            args, res = key
            if res.rank <= trim and self._holds_all(t.arg, env, args):
                out.add(res)
        return frozenset(out)

    def _abstraction(self, t: Abs, env: dict, trim: int, bound=None):
        """interp(t) cut to rank <= trim, in groups: first the coded atoms,
        the values of the coded keys whose result the body gives under their
        argument set; then, for each argument tuple over the sorted level one
        rank down in _subsets order, the pair elements with those arguments.
        One enumeration of the body cut to that rank gives a tuple's results,
        less those the tuple is coded with, read from coded_results once.
        bound, when given, is _subsets' viable test: the tuples it passes
        over yield no group at all.

        The coded atoms and the level are computed before the first group is
        yielded.  At trim = k that level is the largest any query of this
        evaluator builds, so a walk stopped early refuses exactly where a
        whole one would."""
        coded = {
            base(v)
            for v, (args, res) in self.inverse.items()
            if self.contains(t.body, {**env, t.binder: args}, res)
        }
        arg_tuples = _subsets(self._level(trim - 1), bound) if trim >= 1 else ()
        yield coded
        for args in arg_tuples:
            args_set = frozenset(args)
            results = self.enumerate(t.body, {**env, t.binder: args_set}, trim - 1)
            collapsed = self.coded_results.get(args_set)
            if collapsed:  # coded keys collapse to atoms
                results = results - collapsed
            yield [pair_of_sorted(args, alpha) for alpha in results]

    def _head(self, t: LambdaTerm, env: dict, trim: int) -> tuple[LambdaTerm, dict, int]:
        """The term, environment and trim that t under env, cut to rank <=
        trim, reaches by the head rules (the redex rule and the lazy variable
        rule of the module docstring), with the same approximation.  This is
        the one place either rule is applied.  The walk stops at anything
        else, an abstraction among them.  It is a loop in the manner of
        Krivine's machine, so a long head takes no stack, and it evaluates
        nothing: it only binds lazy values."""
        while True:
            if isinstance(t, App) and not t.omega and isinstance(t.fun, Abs) and self.k >= 1:
                env = {**env, t.fun.binder: self._lazy(t.arg, env, self.k - 1)}
                t, trim = t.fun.body, min(trim, self.k - 1)
            elif isinstance(t, Var) and type(env.get(t.name)) is LazyValue:
                value = env[t.name]
                t, env, trim = value.term, value.env, min(trim, value.trim)
            else:
                return t, env, trim

    def ordered(self, t: LambdaTerm, env: dict, trim: int, bound=None):
        """interp(t, B_k, env) cut to rank <= trim, in sort_key order.

        t is first followed through its head (_head).  At an abstraction
        reached that way the set is never built: its groups come in the
        order sort_key compares them in (the coded atoms, then the argument
        tuples lexicographically, a prefix first), each group sorted by
        result.  The argument tuples bound passes over (see _abstraction)
        are left out.  Any other term reached is one group, enumerated
        whole, which is what enumerating t would compute.
        """
        t, env, trim = self._head(t, env, min(trim, self.k))
        groups = self._abstraction(t, env, trim, bound) if isinstance(t, Abs) else [self.enumerate(t, env, trim)]
        for group in groups:
            yield from sorted(group, key=CompletionElement.sort_key)

    # -- membership -------------------------------------------------------------

    def contains(self, t: LambdaTerm, env: dict, e: CompletionElement) -> bool:
        """Whether e lies in interp(t, B_k, env).

        One loop follows t through its head (_head) and into each
        abstraction it reaches, by inverting the coding, so neither a long
        head nor an abstraction chain takes stack.  A variable bound to an
        explicit set is looked up at the top of the loop, before the head
        walk, and an abstraction inverts the coding before any memo key is
        built: those rules cost less than the walk or the key.  Only the
        application reached, whose answer comes from a search, is memoized:
        Omega's collapse, or the first key supporting_keys yields."""
        if e.rank > self.k:
            return False
        while True:
            if isinstance(t, Abs):
                key = self.preimage(e)
                if key is None:
                    return False
                env = {**env, t.binder: key[0]}
                t, e = t.body, key[1]
                continue
            if isinstance(t, Var):
                value = env.get(t.name, ())
                if type(value) is not LazyValue:  # an exact type test: this is the hot path
                    return e in value
            t, env, trim = self._head(t, env, self.k)
            if e.rank > trim:
                return False
            if isinstance(t, App):
                break
        key = self._key(t, env, e)
        got = self._contains_memo.get(key)
        if got is None:
            if t.omega:
                got = e in self._omega_set(t.fun, env)
            else:
                got = next(self.supporting_keys(t, env, e), None) is not None
            self._contains_memo[key] = got
        return got

    def supporting_keys(self, t: App, env: dict, e: CompletionElement):
        """The keys (args, value) putting e in interp(t): value in the
        function side, args inside the argument side.  This is the one
        application rule: membership (contains) asks it for a first key and
        the witness walk for the least.  Coded keys come first, then the
        uncoded keys, whose value is the pair element (args, e).

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
        particular order.
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

        for args in _subsets(cands, lambda chosen, rest: holds(chosen + rest)):
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
    probe level k, and each probe is a fresh evaluator (_least_probe).
    """
    probe = _member_probe(t, p, e, max_rank, env)
    return MemberResult(probe is not None, None if probe is None else probe.k, max_rank)


def _member_probe(
    t: LambdaTerm, p: PartialPair, e: CompletionElement, max_rank: int, env: Environment
) -> Evaluator | None:
    """member's checks, then _least_probe: the probe whose approximation of
    t holds e at the least rank (its k) up to max_rank, or None.  Each rank
    is a fresh evaluator, so a max_rank above the ceiling is refused."""
    if max_rank < 0:
        raise ValueError("rank bound must be non-negative")
    if max_rank > pairs.DEFAULT_CEILING:
        raise CeilingExceeded(f"rank {max_rank} asked for, ceiling is {pairs.DEFAULT_CEILING}")
    if not element_valid(p, e):
        raise ValueError(f"element {element_str(e, p)} is not valid over the pair")
    _validated_env(p, env, None)
    return _least_probe(t, p, e, max_rank, env)


def _least_probe(
    t: LambdaTerm, p: PartialPair, e: CompletionElement, max_rank: int, env: Environment, top=None
) -> Evaluator | None:
    """The one membership-rank probe: the evaluator holding e in t at the
    least rank from e.rank up to max_rank, or None.  Each rank is a fresh
    evaluator under env trimmed to it, but top, a caller's evaluator at
    max_rank, answers that rank.  A witness is walked on the probe found."""
    for rank in range(e.rank, max_rank + 1):
        probe = top if top is not None and rank == max_rank else Evaluator(p, rank)
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
    narrowed = Environment({name: [atom[x] for x in xs if x in atom] for name, xs in env.items()})
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


def _inclusion_bound(left: Evaluator, right: Evaluator, lhs: LambdaTerm, rhs: LambdaTerm):
    """The viable test of the scan of closed lhs against closed rhs, or
    None.  Each side is followed through its head on its own evaluator
    (Evaluator._head) to a term, its environment and its trim.  There is a
    test when both terms reached are abstractions, \\x.B and \\y.C, and the
    left trim is at most the right one, so that every element the scan
    reads lies within the right side's trim: the argument tuples extending
    chosen by elements of rest may hold a witness only if B under chosen +
    rest (on the left evaluator, cut one rank below the left trim as the
    scan's groups are) has a result that C lacks under chosen (on the right
    evaluator).  Interpretation is monotone in the environment, so otherwise
    every group of the subtree lies in the right side.  An evaluation that
    refuses, or meets the recursion limit, proves nothing and prunes
    nothing, so the bound adds no refusal to the scan."""
    lhs, left_env, trim = left._head(lhs, {}, left.k)
    rhs, right_env, right_trim = right._head(rhs, {}, right.k)
    if not (isinstance(lhs, Abs) and isinstance(rhs, Abs)) or trim > right_trim:
        return None

    def viable(chosen: tuple, rest: tuple) -> bool:
        least = {**right_env, rhs.binder: frozenset(chosen)}
        try:
            for alpha in left.enumerate(lhs.body, {**left_env, lhs.binder: frozenset(chosen + rest)}, trim - 1):
                if not right.contains(rhs.body, least, alpha):
                    return True
        except (CeilingExceeded, RecursionError):
            return True
        return False

    return viable


def _unguarded(p: PartialPair, k: int) -> bool:
    """No guard of a rank-k evaluator over p can fire, decided in closed
    form from the size n of level k-1, the largest level any of its queries
    builds, under the ceiling read now.  Counting that level runs the
    element ceiling's guard on it and on the levels below; an abstraction's
    key guard asks for at most 2^n·n keys; and one redex key search tests
    at most 2^n sets and 2^(n+1) - 1 bounds, each charging at most n + 1 to
    its work counter, so it charges less than 3·2^n·(n+1) in all.  A rank-0
    evaluator builds no level and searches no key."""
    if k == 0:
        return True
    try:
        n = count_up_to(p, k - 1)
    except CeilingExceeded:
        return False
    return 3 * 2**n * (n + 1) <= pairs.DEFAULT_CEILING


def _beta_related(lhs: LambdaTerm, rhs: LambdaTerm, steps: int) -> bool:
    """One side is the other or reaches it by at most `steps` one-step beta
    reductions, so the inclusion between them holds in either direction at
    any ranks k <= k' with k' - k >= steps.

    Compared by identity: terms are hash-consed, so a reduct is the other
    side exactly when it is structurally equal to it, names included;
    alpha-variants count as distinct.  Two arguments prove the inclusion,
    both from positivity (every interpretation rule is monotone in the sets
    it is given) and rank monotonicity.  At a fixed rank k a redex
    (\\x.B) A is B under x bound to A's rank-(k-1) approximation, cut to rank
    k-1, which lies inside B[x := A] at rank k, where x stands for A's rank-k
    approximation: so a reduction only grows the rank-k approximation, and
    M <= N holds at (k, k') when M reduces to N.  Conversely B[x := A] at
    rank k lies in the redex at rank k+1, so each expansion costs one rank,
    and M <= N holds when N reduces to M in at most k' - k steps.

    The redexes are found from explicit stacks, so a term with none builds
    no reduct and takes no Python stack, and the nodes each direction's reducts
    build are charged to the element ceiling: a direction that passes it
    gives up, and leaves the claim to the scan.  Only the last question is
    kept, with the ceiling it was answered under, so a search that asks it
    for every component decides it once, and either direction of an
    equation asks the same question."""
    return lhs is rhs or _related(frozenset((lhs, rhs)), steps, pairs.DEFAULT_CEILING)


@lru_cache(maxsize=1)
def _related(sides: frozenset, steps: int, ceiling: int) -> bool:
    first, second = sides
    return _reaches(first, second, steps, ceiling) or _reaches(second, first, steps, ceiling)


def _reaches(source: LambdaTerm, target: LambdaTerm, steps: int, budget: int) -> bool:
    """source reduces to target in at most `steps` one-step reductions,
    found before the reducts built pass `budget` nodes.  The walk stops when
    no new reduct is left, whatever `steps` allows."""
    frontier, seen = [source], {source}
    for _ in range(steps):
        if not frontier:
            return False
        reached = []
        for t in frontier:
            for reduct, built in _reducts(t):
                budget -= built
                if budget < 0:
                    return False
                if reduct is target:
                    return True
                if reduct not in seen:
                    seen.add(reduct)
                    reached.append(reduct)
        frontier = reached
    return False


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
    Evaluator.ordered, which follows it through its head and reads an
    abstraction reached that way lazily, argument set by argument set, and
    the scan stops at the first element the right side's evaluator rejects.
    That element is the canonically least witness; it is returned with its
    membership rank and a re-verified witness subpair.  Holds-up-to means
    the bounded inclusion went through, after a scan of the whole left side.
    When both sides reach abstractions through their heads (Evaluator._head)
    and the left trim is at most the right one, the scan passes over the
    argument sets that _inclusion_bound shows to hold no witness, so
    wherever the whole scan answers, the verdict and the least witness are
    its own.  The left side's guards run before its first element, and a
    bound evaluation that refuses prunes nothing, so the check refuses only
    where the whole scan refuses.
    When one side reaches the other by at most k_rhs - k_lhs one-step beta
    reductions (_beta_related; lhs is rhs is the 0-step case), the inclusion
    holds without a scan and the right side is never evaluated.  The left
    side's first element is taken only when one of its guards could fire
    (_unguarded), so the claim refuses exactly when the left side refuses
    before that element.
    The witness's rank comes from _least_probe, as in member(), with the left
    evaluator answering k_lhs; its subpair is walked on the probe found.
    """
    if not is_closed(lhs) or not is_closed(rhs):
        raise ValueError("inequation checking expects closed terms")
    if k_rhs < k_lhs:
        raise ValueError("the right bound must be at least the left bound")
    left = Evaluator(p, k_lhs)
    if _beta_related(lhs, rhs, k_rhs - k_lhs):
        if not _unguarded(p, k_lhs):  # the left side's guards run as its scan would run them
            next(left.ordered(lhs, {}, k_lhs), None)
        return Verdict("holds_up_to", lhs, rhs, k_lhs, k_rhs)
    ev = Evaluator(p, k_rhs)
    bound = _inclusion_bound(left, ev, lhs, rhs)
    for candidate in left.ordered(lhs, {}, k_lhs, bound):
        if not ev.contains(rhs, {}, candidate):
            probe = _least_probe(lhs, p, candidate, k_lhs, EMPTY_ENV, left)
            if probe is None:
                raise AssertionError("left side element missing from its own evaluator")
            return Verdict(
                "fails_with_evidence",
                lhs,
                rhs,
                k_lhs,
                k_rhs,
                witness=candidate,
                member_rank=probe.k,
                witness_subpair=_witness(probe, lhs, candidate, EMPTY_ENV),
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
