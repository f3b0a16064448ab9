"""Free completion of a partial pair.

On top of a partial pair A, the completion adjoins every uncoded
(finite set, element) pair as a fresh element, level by level:

    E_0 = A,   E_{n+1} = E_n  union  ((E_n* x E_n) - coded keys of A)

and extends the coding totally: a key evaluates to its coded atom when A
codes it, and to itself (as a pair element) otherwise.  Atoms have rank 0; a
pair element has rank one more than the largest rank among its parts.

Elements are interned in content-addressed dicts, keyed by their parts, so
equal elements are one object and equality is identity.  They hash by
identity too, so the iteration order of a frozenset of elements follows
memory addresses: it may differ from one process to the next, and so may
how soon a loop over such a set stops, though not what the loop finds.  The
interning tables are safe under CPython's atomic dict operations.
Level sizes grow doubly exponentially; enumeration past
pairs.DEFAULT_CEILING raises CeilingExceeded.  The module keeps no level of its
own: elements_up_to builds afresh on every call, and levels_up_to and
sorted_level keep the levels of a pair, in (rank, structure) and in sort_key
order, in that pair's `derived` dict, shared by the evaluators and witness
numbering of one pair.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from . import pairs
from .pairs import CeilingExceeded, Morphism, PartialPair


class CompletionElement:
    """Either a carrier atom or a nested (args, res) pair.  Use base()/pair_of()."""

    __slots__ = ("rank", "_key")

    def __setattr__(self, name, value):
        raise AttributeError("elements are immutable")

    def sort_key(self) -> tuple:
        return self._key

    def __str__(self) -> str:
        return element_str(self)

    def __lt__(self, other: "CompletionElement") -> bool:
        return self._key < other._key


class BaseElement(CompletionElement):
    __slots__ = ("atom",)

    def __init__(self, atom: int):
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "rank", 0)
        object.__setattr__(self, "_key", (0, atom))

    def __repr__(self) -> str:
        return f"base({self.atom})"


class PairElement(CompletionElement):
    __slots__ = ("args", "res", "args_sorted")

    def __init__(self, args_sorted: tuple[CompletionElement, ...], res: CompletionElement):
        object.__setattr__(self, "args_sorted", args_sorted)
        object.__setattr__(self, "args", frozenset(args_sorted))
        object.__setattr__(self, "res", res)
        ranks = [e.rank for e in args_sorted]
        ranks.append(res.rank)
        object.__setattr__(self, "rank", 1 + max(ranks))
        object.__setattr__(
            self, "_key", (1, tuple(e._key for e in args_sorted), res._key)
        )

    def __repr__(self) -> str:
        return f"pair_of([{', '.join(map(repr, self.args_sorted))}], {self.res!r})"


_BASE_INTERN: dict[int, BaseElement] = {}
_PAIR_INTERN: dict[tuple, PairElement] = {}


def base(atom: int) -> BaseElement:
    got = _BASE_INTERN.get(atom)
    if got is None:
        got = _BASE_INTERN.setdefault(atom, BaseElement(atom))
    return got


def pair_of(args: Iterable[CompletionElement], res: CompletionElement) -> PairElement:
    return pair_of_sorted(tuple(sorted(set(args), key=lambda e: e.sort_key())), res)


def pair_of_sorted(args_sorted: tuple[CompletionElement, ...], res: CompletionElement) -> PairElement:
    """pair_of for arguments that are already distinct and in sort_key order."""
    key = (args_sorted, res)  # elements are interned, so they compare by identity
    got = _PAIR_INTERN.get(key)
    if got is None:
        got = _PAIR_INTERN.setdefault(key, PairElement(args_sorted, res))
    return got


def rank(e: CompletionElement) -> int:
    """Least level of the completion hierarchy containing e."""
    return e.rank


def support_atoms(e: CompletionElement) -> frozenset[int]:
    """All carrier atoms an element is built from."""
    if isinstance(e, BaseElement):
        return frozenset((e.atom,))
    out = support_atoms(e.res)
    for a in e.args_sorted:
        out |= support_atoms(a)
    return out


def element_valid(p: PartialPair, e: CompletionElement) -> bool:
    """e is a genuine element of the completion of p: base atoms lie in the
    carrier and no sub-pair duplicates a coded key (those collapse)."""
    if isinstance(e, BaseElement):
        return e.atom in p.atoms
    if not all(element_valid(p, a) for a in e.args_sorted) or not element_valid(p, e.res):
        return False
    key = _atom_key(e.args, e.res)
    return key is None or p.coding.get(key) is None


def _atom_key(args: frozenset, res: CompletionElement) -> tuple[frozenset[int], int] | None:
    """The (atom set, atom) view of a key when every part is a base element."""
    if isinstance(res, BaseElement) and all(isinstance(a, BaseElement) for a in args):
        return (frozenset(a.atom for a in args), res.atom)
    return None


def apply_coding(
    p: PartialPair, args: Iterable[CompletionElement], res: CompletionElement
) -> CompletionElement:
    """The completion's total injective coding: coded keys collapse to their
    atom, everything else codes as itself.  Only `p.coding.get` is asked of
    p, so the prime-coded pair of minmodel completes the same way."""
    args = frozenset(args)
    key = _atom_key(args, res)
    if key is not None:
        v = p.coding.get(key)
        if v is not None:
            return base(v)
    return pair_of(args, res)


def coding_preimage(p: PartialPair, e: CompletionElement):
    """Inverse of apply_coding on its range: the unique (args, res) key with
    value e, or None when e is an atom outside the coded range.  An atom's
    key comes from the pair's own inverse lookup, `p.inverse.get`."""
    if isinstance(e, PairElement):
        return (e.args, e.res)
    key = p.inverse.get(e.atom)
    if key is None:
        return None
    return (frozenset(map(base, key[0])), base(key[1]))


# ---------------------------------------------------------------------------
# Rank-bounded enumeration


def count_up_to(p: PartialPair, k: int) -> int:
    """|E_k|, counted in closed form level by level, so that a level above
    the ceiling is refused before any level is built.

    Every (subset, element) key over E_(n-1) either collapses to a coded
    atom or is a pair element, and the atoms come along, so |E_n| is
    |A| + 2^m·m - c with m = |E_(n-1)| and c the coded keys whose atoms all
    lie in the carrier (only those keys ever arise; in a valid pair that is
    every coded key).  A refusal states the size in that form rather than
    as a number thousands of digits long.
    """
    if k < 0:
        raise ValueError("rank bound must be non-negative")
    collapsing = sum(1 for args, res in p.coding if res in p.atoms and args <= p.atoms)
    extra = len(p.atoms) - collapsing
    size = len(p.atoms)
    limit = pairs.DEFAULT_CEILING
    for level in range(1, k + 1):
        below, size = size, (2**size) * size + extra
        if size > limit:
            held = f"2^{below}·{below}" + (f"{extra:+d}" if extra else "")
            raise CeilingExceeded(f"level {level} would hold {held} elements, ceiling is {limit}")
        if size == below:  # a fixed point: every later level is this one
            break
    return size


def elements_up_to(p: PartialPair, k: int) -> tuple[CompletionElement, ...]:
    """Exactly the elements of rank at most k, in (rank, structural) order:
    the carrier closed k times under the coding.  Defined on valid pairs; an
    invalid pair has no completion."""
    count_up_to(p, k)
    by_structure = sorted(_closed(p, map(base, p.atoms), k), key=CompletionElement.sort_key)
    return tuple(sorted(by_structure, key=rank))  # stable: structural order within a rank


def levels_up_to(p: PartialPair, k: int) -> tuple[CompletionElement, ...]:
    """elements_up_to(p, k), built once per pair and kept in p.derived, under
    the ceiling guard on every call: the level is counted once per call, by
    elements_up_to when it builds the level and here when it is kept.  A
    wrapper put on the module's elements_up_to (perfbench's tracer, a test)
    sees each build."""
    key = ("elements_up_to", k)
    got = p.derived.get(key)
    if got is None:
        return p.derived.setdefault(key, elements_up_to(p, k))
    count_up_to(p, k)
    return got


def sorted_level(p: PartialPair, k: int) -> tuple[CompletionElement, ...]:
    """levels_up_to(p, k) in sort_key order, built from it once per pair and
    kept in p.derived beside it, under the same guard: counted once per
    call, by levels_up_to when it is built and here when it is kept."""
    key = ("sorted level", k)
    got = p.derived.get(key)
    if got is None:
        return p.derived.setdefault(key, tuple(sorted(levels_up_to(p, k), key=CompletionElement.sort_key)))
    count_up_to(p, k)
    return got


def _closed(p: PartialPair, seed: Iterable[CompletionElement], rounds: int) -> tuple[CompletionElement, ...]:
    """`seed` closed under the completion's coding, apply_coding(p, ...), for
    `rounds` rounds, or until a round adds nothing, in the order the
    elements were found.  A round over more keys than the ceiling is
    refused."""
    current = dict.fromkeys(seed)
    for _ in range(rounds):
        n = len(current)
        if 2**n * n > pairs.DEFAULT_CEILING:
            raise CeilingExceeded(
                f"closure stage has {n} elements; {2**n * n} keys exceed the {pairs.DEFAULT_CEILING} ceiling"
            )
        # sorted members give sorted argument tuples and keys in sorted runs: both sort fastest
        members = sorted(current, key=CompletionElement.sort_key)
        for m in range(n + 1):
            for args in itertools.combinations(members, m):
                for res in members:
                    current[apply_coding(p, args, res)] = None
        if len(current) == n:
            break
    return tuple(current)


def _induced(p: PartialPair, elements: tuple, number: Mapping, label: Callable) -> PartialPair:
    """The finite pair induced on `elements`, e numbered number[e] and
    labelled label(e): its coding keeps each element's key, read with
    coding_preimage, whose parts lie among the elements."""
    coding = {}
    for value in elements:  # the coding is injective: one key per element
        found = coding_preimage(p, value)
        if found is None:
            continue
        args, res = found
        if res in number and all(a in number for a in args):
            coding[(frozenset(number[a] for a in args), number[res])] = number[value]
    return PartialPair(number.values(), coding, labels={number[e]: label(e) for e in elements})


# ---------------------------------------------------------------------------
# Finite restrictions


@dataclass(frozen=True)
class Restriction:
    pair: PartialPair
    elements: tuple[CompletionElement, ...]
    atom_of: dict
    of_atom: dict

    def to_atoms(self, elems: Iterable[CompletionElement]) -> frozenset[int]:
        return frozenset(self.atom_of[e] for e in elems)


def restrict(p: PartialPair, k: int) -> Restriction:
    """The rank-k restriction: the finite pair induced on E_k.  Defined on
    valid pairs; an invalid pair has no completion.

    Rank-0 elements keep their atom number; pair elements receive stable
    fresh numbers after them (by rank, then structural order), so
    restrictions form an increasing subpair chain as k grows."""
    elements = elements_up_to(p, k)
    fresh = itertools.count(max(p.atoms, default=-1) + 1)
    atom_of = {e: e.atom if isinstance(e, BaseElement) else next(fresh) for e in elements}
    pair = _induced(p, elements, atom_of, lambda e: element_str(e, p))
    return Restriction(pair, elements, atom_of, {v: e for e, v in atom_of.items()})


def _keys_below(level: tuple[CompletionElement, ...], args_key: tuple, res_key: tuple) -> int:
    """How many keys (S, x) over `level`, in sort_key order, sort before
    (args_key, res_key), with S compared as its structurally sorted tuple
    and then x.

    A subset S sorts before the sorted tuple A exactly when it is a proper
    prefix of A, or agrees with A up to some position i and then takes an
    element y between A[i-1] and A[i], followed by any subset of the elements
    above y; those subsets sum to a difference of two powers of two.
    """
    keys = [e.sort_key() for e in level]
    members = set(keys)
    n = len(keys)
    subsets = 0
    lo = 0
    for a in args_key:
        hi = bisect.bisect_left(keys, a)
        subsets += 1 + 2 ** (n - lo) - 2 ** (n - hi)
        if a not in members:
            return subsets * n
        lo = hi + 1
    return subsets * n + bisect.bisect_left(keys, res_key)


def restriction_atom(p: PartialPair, e: CompletionElement) -> int:
    """The atom number of e in restrict(p, k), for any k >= rank(e).

    Counted in closed form over the levels below e's rank, so the rank-k
    level itself is never built: a pair element of rank r comes after every
    pair element of lower rank and after the rank-r pair elements that sort
    before it, which are the keys over E_{r-1} sorting before it, minus those
    over E_{r-2} (the lower-rank pairs), minus the coded keys when r = 1.
    """
    if isinstance(e, BaseElement):
        return e.atom
    args_key = tuple(x.sort_key() for x in e.args_sorted)
    res_key = e.res.sort_key()
    below = sorted_level(p, e.rank - 1)
    fresh = _keys_below(below, args_key, res_key)
    if e.rank >= 2:
        fresh -= _keys_below(sorted_level(p, e.rank - 2), args_key, res_key)
    else:
        fresh -= sum(
            1
            for (a, alpha), _ in p.coding.items()
            if (tuple((0, x) for x in sorted(a)), (0, alpha)) < (args_key, res_key)
        )
    return max(p.atoms, default=-1) + 1 + len(below) - len(p.atoms) + fresh


# ---------------------------------------------------------------------------
# Closures and morphisms
#
# Both reach a pair through apply_coding and coding_preimage alone, which ask
# of it only its lookups, so they serve a finite pair and the prime-coded
# pair of minmodel alike.


@dataclass(frozen=True)
class ClosureResult:
    pair: PartialPair
    saturated: bool
    elements: tuple[CompletionElement, ...]


def generate_subgraphmodel(
    p: PartialPair, seed: Iterable[CompletionElement], budget: int
) -> ClosureResult:
    """Close `seed` under the completion's coding, apply_coding(p, ...), for
    at most `budget` rounds.

    Returns the pair induced on the closure, its elements numbered in
    sort_key order.
    `saturated` reports whether a fixed point was reached; the coding is
    total and injective, so n elements have 2^n·n > n keys with distinct
    values, and only the empty seed is closed.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    elements = tuple(sorted(_closed(p, seed, budget)))
    index = {e: i for i, e in enumerate(elements)}
    return ClosureResult(_induced(p, elements, index, str), not elements, elements)


def lift_morphism(m: Morphism) -> Callable[[CompletionElement], CompletionElement]:
    """The extension of m to the completions: the map from the completion of
    m.source into that of m.target that sends an atom x to m(x) and commutes
    with the codings, so that a pair element goes to the coded image of its
    lifted parts, apply_coding(m.target, ...).  Into a pair that extends the
    source, along the identity, it is the canonical morphism; an isomorphism
    lifts rank-preserving.  Raises ValueError unless m.check()."""
    if not m.check():
        raise ValueError("the map is not a morphism into the target pair")
    return functools.partial(_lift, m.target, m.mapping)


def _lift(target: PartialPair, mapping: Mapping[int, int], e: CompletionElement) -> CompletionElement:
    if isinstance(e, BaseElement):
        return base(mapping[e.atom])
    args = frozenset(_lift(target, mapping, x) for x in e.args_sorted)
    return apply_coding(target, args, _lift(target, mapping, e.res))


# ---------------------------------------------------------------------------
# Textual element syntax:  atoms print as their labels, pairs as
# ({e1,e2,...},e) with arguments in structural order.


def element_str(e: CompletionElement, pair: PartialPair | None = None) -> str:
    if isinstance(e, BaseElement):
        return pair.label(e.atom) if pair is not None else str(e.atom)
    inner = ",".join(element_str(a, pair) for a in e.args_sorted)
    return f"({{{inner}}},{element_str(e.res, pair)})"


def parse_element(text: str, pair: PartialPair | None = None) -> CompletionElement:
    """Parse the textual element syntax back; labels resolve via `pair.labels`."""
    label_map = {} if pair is None else {name: a for a, name in pair.labels.items()}

    s = text.replace(" ", "")
    pos = 0

    def fail(msg: str):
        raise ValueError(f"{msg} in element {text!r} (offset {pos})")

    def at(expected: str) -> bool:
        return pos < len(s) and s[pos] == expected

    def eat(expected: str) -> None:
        nonlocal pos
        if not at(expected):
            fail(f"expected {expected!r}")
        pos += 1

    def parse_one() -> CompletionElement:
        nonlocal pos
        if at("("):
            eat("(")
            eat("{")
            args = []
            if not at("}"):
                while True:
                    args.append(parse_one())
                    if at(","):
                        eat(",")
                        continue
                    break
            eat("}")
            eat(",")
            res = parse_one()
            eat(")")
            if pair is not None:
                return apply_coding(pair, frozenset(args), res)
            return pair_of(args, res)
        start = pos
        while pos < len(s) and s[pos] not in "(){},":
            pos += 1
        name = s[start:pos]
        if not name:
            fail("expected an atom label")
        if name in label_map:
            return base(label_map[name])
        try:
            return base(int(name))
        except ValueError:
            fail(f"unknown atom label {name!r}")

    try:
        e = parse_one()
    except RecursionError:
        raise ValueError("input nested too deeply") from None
    finally:
        del parse_one  # parse_one holds itself through its closure cell; free it now
    if pos != len(s):
        fail("trailing input")
    return e
