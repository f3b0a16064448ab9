"""The effective minimum-theory graph model: the completion of the
prime-coded pair.

Finite partial pairs with carrier inside the naturals are put in bijection
with the naturals: pairs are grouped by carrier bitmask (ascending), and the
codings over one carrier are ordered by size and then lexicographically over
their sorted entry lists.  The numbering is computed in closed form, by
counting the codings that share a prefix, so no list of codings is kept.  The
k-th pair is relocated onto powers of the k-th prime, which makes all
component carriers pairwise disjoint.  The union of the relocated pairs is
one decidable partial pair, PRIME_CODED: membership in its carrier is decided
by factoring, and a key is looked up in the component its atoms live in.  The
model is the free completion of that pair, built by the same completion code
as the completions of finite pairs, and it interprets every closed term as in
each component separately.  An inequation refutable in any completion of a
finite pair is therefore refutable in some component, which the search here
scans for.  Isomorphic components interpret every closed term alike, so the
scan checks one component per isomorphism class, the least-index member,
whenever that member answered; the members of a class whose least member
was refused are each still checked.

Primes come from a sieve of Eratosthenes that doubles its range as needed
and keeps at most pairs.DEFAULT_CEILING primes; a component whose prime lies past
them raises CeilingExceeded (1-indexed: prime(1) = 2; index 0 belongs to the
empty pair, which has no atoms and needs no prime).
"""

from __future__ import annotations

import itertools
import logging
from bisect import bisect_left
from math import comb, isqrt, perm
from types import SimpleNamespace
from typing import Iterable, Optional

from .approximation import Evaluator, Verdict, approx_interpret, check_inequation
from .completion import (
    BaseElement,
    CeilingExceeded,
    CompletionElement,
    base,
    elements_up_to,
    pair_of,
    support_atoms,
)
from . import pairs
from .pairs import Morphism, PartialPair, union
from .terms import LambdaTerm, _cantor_pair, _cantor_unpair, is_closed

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Primes


_PRIMES: list[int] = [2, 3]  # every prime up to _PRIMES[-1], at most pairs.DEFAULT_CEILING of them


def _extend_primes() -> None:
    """Sieve of Eratosthenes over twice the range sieved so far."""
    cap = pairs.DEFAULT_CEILING
    if len(_PRIMES) >= cap:
        raise CeilingExceeded(f"primes above {_PRIMES[-1]} are past the ceiling of {cap} primes")
    limit = 2 << _PRIMES[-1].bit_length()
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    start = _PRIMES[-1] + 1
    fresh = itertools.compress(range(start, limit), memoryview(sieve)[start:])
    _PRIMES.extend(itertools.islice(fresh, cap - len(_PRIMES)))


def kth_prime(k: int) -> int:
    """The k-th prime, 1-indexed: kth_prime(1) = 2."""
    if k < 1:
        raise ValueError("prime indices start at 1")
    if k > pairs.DEFAULT_CEILING:
        raise CeilingExceeded(f"prime number {k} is past the ceiling of {pairs.DEFAULT_CEILING} primes")
    while len(_PRIMES) < k:
        _extend_primes()
    return _PRIMES[k - 1]


def prime_index(p: int) -> Optional[int]:
    """1-based position of p in the primes, or None if p is not prime."""
    if p < 2:
        return None
    while _PRIMES[-1] < p:
        _extend_primes()
    i = bisect_left(_PRIMES, p)
    return i + 1 if _PRIMES[i] == p else None


def _prime_power(n: int) -> Optional[tuple[int, int]]:
    """(p, e) with n = p**e and e >= 1, or None."""
    if n < 2:
        return None
    i = 1
    while True:
        p = kth_prime(i)
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            return (p, e) if n == 1 else None
        i += 1
    return (n, 1)  # n itself is prime


# ---------------------------------------------------------------------------
# Numeration of finite partial pairs
#
# Over a carrier of b atoms there are K = 2^b * b keys.  Key number q has its
# args at the position mask q // b and its result at position q % b; positions
# follow atom order, so key numbers follow (args mask, res).  A coding of m
# entries is a strictly increasing run of key numbers, each with its own
# value, and codings of one size are ordered lexicographically over their
# (key, value) entries.  Once entry i (0-based) has key q, there remain
# comb(K-q-1, m-i-1) choices of later keys times perm(b-i-1, m-i-1) ways to
# give them unused values, so rank and unrank are sums of such counts (the
# combinatorial number system; Knuth, TAOCP Vol. 4A, 7.2.1.3).


def _carrier_of_mask(mask: int) -> tuple[int, ...]:
    out = []
    x = 0
    while mask:
        if mask & 1:
            out.append(x)
        mask >>= 1
        x += 1
    return tuple(out)


def _mask_of_carrier(atoms: Iterable[int]) -> int:
    mask = 0
    for x in atoms:
        if x < 0:
            raise ValueError("carrier atoms must be naturals")
        mask |= 1 << x
    return mask


def _codings_of_size(b: int, m: int) -> int:
    """How many codings with m entries a b-atom carrier admits: pick m
    distinct keys among the 2^b * b candidates and assign m distinct values."""
    return comb((2**b) * b, m) * perm(b, m)


def pair_count_for_size(b: int) -> int:
    """Total number of partial pairs over a fixed b-atom carrier."""
    return sum(_codings_of_size(b, m) for m in range(b + 1))


def _unrank_coding(carrier: tuple[int, ...], j: int) -> dict:
    """The j-th coding over the sorted carrier."""
    b = len(carrier)
    for m in range(b + 1):
        if j < _codings_of_size(b, m):
            break
        j -= _codings_of_size(b, m)
    else:
        raise ValueError("coding index out of range")
    keys = (2**b) * b
    free = list(carrier)  # values not yet used, ascending
    coding = {}
    q = 0
    for i in range(m):
        fills = perm(b - i - 1, m - i - 1)
        while True:
            later = comb(keys - q - 1, m - i - 1) * fills  # completions per value at key q
            if j < len(free) * later:
                break
            j -= len(free) * later
            q += 1
        v, j = divmod(j, later)
        args_mask, res = divmod(q, b)
        args = frozenset(x for pos, x in enumerate(carrier) if args_mask >> pos & 1)
        coding[(args, carrier[res])] = free.pop(v)
        q += 1
    return coding


def _rank_coding(carrier: tuple[int, ...], coding: dict) -> int:
    """Index of a coding among those over the sorted carrier."""
    b, m = len(carrier), len(coding)
    if m > b:
        raise ValueError("not a valid coding: more entries than atoms")
    position = {x: pos for pos, x in enumerate(carrier)}
    entries = []
    for (args, res), val in coding.items():
        if not all(x in position for x in (*args, res, val)):
            raise ValueError("coding mentions atoms outside the carrier")
        args_mask = sum(1 << position[x] for x in args)
        entries.append((args_mask * b + position[res], position[val]))
    if len({v for _, v in entries}) < m:
        raise ValueError("not a valid coding: values are not distinct")
    return _rank_entries(b, sorted(entries))


def _rank_entries(b: int, entries: list[tuple[int, int]]) -> int:
    """Index of the coding with these sorted (key number, value position)
    entries among those over a b-atom carrier."""
    m = len(entries)
    keys = (2**b) * b
    free = list(range(b))  # positions of values not yet used
    j = sum(_codings_of_size(b, s) for s in range(m))
    first = 0  # least key number the next entry may take
    for i, (q, v) in enumerate(entries):
        fills = perm(b - i - 1, m - i - 1)
        # sum of comb(keys-r-1, m-i-1) over first <= r < q (hockey stick)
        skipped = comb(keys - first, m - i) - comb(keys - q, m - i)
        j += (len(free) * skipped + free.index(v) * comb(keys - q - 1, m - i - 1)) * fills
        free.remove(v)
        first = q + 1
    return j


def _count_below_with_popcount(limit: int, b: int) -> int:
    """Naturals strictly below `limit` whose binary weight is b."""
    count = 0
    ones = 0
    for i in range(limit.bit_length() - 1, -1, -1):
        if limit >> i & 1:
            count += comb(i, b - ones) if b - ones >= 0 else 0
            ones += 1
            if ones > b:
                break
    return count


def enumerate_pair(k: int) -> PartialPair:
    """The k-th finite partial pair; inverse of encode_pair."""
    if k < 0:
        raise ValueError("pair indices are naturals")
    for mask in itertools.count():
        block = pair_count_for_size(mask.bit_count())
        if k < block:
            carrier = _carrier_of_mask(mask)
            return PartialPair(carrier, _unrank_coding(carrier, k))
        k -= block
    raise AssertionError


def encode_pair(p: PartialPair) -> int:
    """Index of a finite partial pair in the numeration."""
    mask = _mask_of_carrier(p.atoms)
    before = sum(
        pair_count_for_size(weight) * _count_below_with_popcount(mask, weight)
        for weight in range(mask.bit_length() + 1)
    )
    return before + _rank_coding(tuple(sorted(p.atoms)), p.coding)


# ---------------------------------------------------------------------------
# Isomorphism classes
#
# Every pair on b atoms is isomorphic to pairs on the carrier {0..b-1}, whose
# block comes before every other b-atom block.  Permuting the atoms keeps the
# number of entries, and codings of one size are ordered lexicographically
# over their sorted (key number, value) entries, so the least member of a
# class is the relabelling onto {0..b-1} whose entry list is least.


def class_representative(p: PartialPair) -> int:
    """The least index among the pairs isomorphic to p."""
    carrier = sorted(p.atoms)
    b = len(carrier)
    position = {x: i for i, x in enumerate(carrier)}
    entries = [
        ([position[x] for x in args], position[res], position[val])
        for (args, res), val in p.coding.items()
    ]
    least = min(
        sorted([(sum([1 << s[x] for x in args]) * b + s[res], s[val]) for args, res, val in entries])
        for s in itertools.permutations(range(b))
    )
    # the carriers before {0..b-1} are the masks below 2^b - 1: comb(b, w) of weight w < b
    before = sum(comb(b, w) * pair_count_for_size(w) for w in range(b))
    return before + _rank_entries(b, least)


# ---------------------------------------------------------------------------
# Prime relocation


def relocate(k: int) -> PartialPair:
    """The k-th pair moved onto powers of the k-th prime: atom x becomes
    p_k**(x+1) and the coding is transported along.  Carriers of distinct
    components are disjoint."""
    return relocation_morphism(k).target


def relocation_morphism(k: int) -> Morphism:
    """The isomorphism from the k-th pair onto its relocated copy."""
    source = enumerate_pair(k)
    if not source.atoms:
        return Morphism(source, source, {})
    p = kth_prime(k)
    move = {x: p ** (x + 1) for x in source.atoms}
    coding = {(frozenset(move[x] for x in a), move[alpha]): move[v] for (a, alpha), v in source.coding.items()}
    return Morphism(source, PartialPair(move.values(), coding), move)


def _component(n: int) -> Optional[int]:
    """The index of the component whose carrier holds n, or None."""
    pe = _prime_power(n)
    if pe is None:
        return None
    k = prime_index(pe[0])
    return k if pe[1] - 1 in enumerate_pair(k).atoms else None


def is_in_P(n: int) -> bool:
    """Membership in the union of the relocated carriers, by factoring."""
    return _component(n) is not None


def component_of(n: int) -> int:
    """The component index whose carrier contains n."""
    k = _component(n)
    if k is None:
        raise ValueError(f"{n} is not in the model carrier")
    return k


# ---------------------------------------------------------------------------
# The big model: the completion of the prime-coded pair
#
# The relocated components form one partial pair with an infinite, decidable
# carrier.  It answers the three lookups the completion code asks of a pair
# (`n in atoms`, `coding.get(key)`, `inverse.get(value)`), so apply_coding,
# coding_preimage, element_valid and generate_subgraphmodel serve it
# unchanged, and it can be the target of Morphism.check and lift_morphism
# and the larger side of is_subpair.  Its elements are the completion's own
# BaseElement/PairElement.  Its atoms carry no labels (`labels` is empty and
# `label` prints the number), so element_str(e, PRIME_CODED) prints atoms as
# numbers, and parse_element(text, PRIME_CODED) reads them back and
# collapses coded keys to their atoms, so its result is a big-model element
# whenever every atom it names lies in the carrier.  Carriers are disjoint,
# so a key is looked up in the component of its result atom and a value in
# its own component.


def _coded_value(key: tuple[frozenset[int], int]) -> Optional[int]:
    k = _component(key[1])
    return None if k is None else relocate(k).coding.get(key)


def _coded_key(n: int) -> Optional[tuple[frozenset[int], int]]:
    k = _component(n)
    return None if k is None else relocate(k).inverse.get(n)


class _Carrier:
    def __contains__(self, n: int) -> bool:
        return is_in_P(n)


class PrimeCodedPair:
    """The union of all relocated finite pairs, as one partial pair given by
    its lookups alone (carrier and coding are infinite)."""

    atoms = _Carrier()
    coding = SimpleNamespace(get=_coded_value)
    inverse = SimpleNamespace(get=_coded_key)
    labels: dict[int, str] = {}  # no atom is labelled: each prints as its number
    label = staticmethod(str)


PRIME_CODED = PrimeCodedPair()

# perfbench/checker.py builds big-model elements under these older names.
AtomCode = base
PairCode = pair_of


def element_code(e: CompletionElement) -> int:
    """Injective natural-number code: even codes are carrier atoms (tag bit
    0), odd codes pair a bitmask of member codes with the result code."""
    if isinstance(e, BaseElement):
        return 2 * e.atom
    mask = 0
    for a in e.args:
        mask |= 1 << element_code(a)
    return 2 * _cantor_pair(mask, element_code(e.res)) + 1


def element_decode(code: int) -> CompletionElement:
    """Inverse of element_code on its range."""
    if code < 0:
        raise ValueError("codes are naturals")
    if code % 2 == 0:
        n = code // 2
        if not is_in_P(n):
            raise ValueError(f"{code} does not code an element: {n} is outside the carrier")
        return base(n)
    mask, res_code = _cantor_unpair((code - 1) // 2)
    args = []
    bit = 0
    while mask:
        if mask & 1:
            args.append(element_decode(bit))
        mask >>= 1
        bit += 1
    return pair_of(args, element_decode(res_code))


# ---------------------------------------------------------------------------
# Search and the componentwise restriction property


def search_counterexample(
    lhs: LambdaTerm,
    rhs: LambdaTerm,
    max_index: int,
    k_lhs: int = 2,
    k_rhs: int = 4,
) -> Optional[tuple[int, Verdict]]:
    """Scan components 0..max_index for one whose completion separates the
    inequation lhs <= rhs; the least failing component wins.

    A failure in any completion of a finite pair shows up in some component,
    so this scan refutes everything the minimum order theory refutes, given
    enough index and rank budget.  Components whose check exceeds the element
    ceiling are skipped with a logged notice.

    Isomorphic components interpret every closed term alike, so component k
    is passed over when the least-index member of its class
    (class_representative) was checked earlier in this scan and failed or
    held.  The least failing component is always such a member, so the
    result is that of a scan of every component.  A refused member does not
    stand for its class, since a refusal may depend on the order in which
    elements are scanned: the other members of its class are each checked
    at their own index.  A block on a b-atom carrier other than {0..b-1} is
    passed over whole once every component on {0..b-1} answered, and no
    class is computed for b while none of those has answered.
    """
    if max_index < 0:
        raise ValueError("index bound must be non-negative")
    if not is_closed(lhs) or not is_closed(rhs):
        raise ValueError("counterexample search expects closed terms")
    answered: set[int] = set()  # sizes b with an answered component on {0..b-1}
    refused: dict[int, set[int]] = {}  # b -> indices of refused components on {0..b-1}
    start = 0
    for mask in itertools.count():
        if start > max_index:
            return None
        b = mask.bit_count()
        size = pair_count_for_size(b)
        block = range(start, min(start + size, max_index + 1))
        start += size
        initial = mask == (1 << b) - 1
        if not initial and not refused.get(b):
            continue  # the block on {0..b-1} came first and answered for every class
        carrier = _carrier_of_mask(mask)
        for k in block:
            component = PartialPair(carrier, _unrank_coding(carrier, k - block.start))  # enumerate_pair(k)
            if b in answered:
                representative = class_representative(component)
                if representative != k and representative not in refused.get(b, ()):
                    continue
            try:
                verdict = check_inequation(lhs, rhs, component, k_lhs, k_rhs)
            except CeilingExceeded as exc:
                logger.warning("component %d skipped: %s", k, exc)
                if initial:
                    refused.setdefault(b, set()).add(k)
                continue
            if verdict.failed:
                return (k, verdict)
            if initial:
                answered.add(b)
    raise AssertionError


def restriction_property_check(
    q: LambdaTerm,
    k: int,
    r: int,
    indices: Iterable[int] | None = None,
) -> bool:
    """Bounded check that interpreting q over a finite union of components
    and keeping only the material of component k gives exactly component k's
    own interpretation, at every rank up to r.

    The two sides are enumerated outright when feasible; otherwise every
    component-material element up to rank r is compared by membership query.
    """
    if not is_closed(q):
        raise ValueError("the restriction property concerns closed terms")
    if indices is None:
        indices = range(0, max(k, 5) + 1)
    indices = sorted(set(indices) | {k})
    component = relocate(k)
    ambient = PartialPair(())
    for j in indices:
        ambient = union(ambient, relocate(j))
    try:
        own = approx_interpret(q, component, k=r)
        big = approx_interpret(q, ambient, k=r)
        material = frozenset(e for e in big if support_atoms(e) <= component.atoms)
        return own == material
    except CeilingExceeded:
        pass
    universe = elements_up_to(component, r)
    ev_component = Evaluator(component, r)
    ev_ambient = Evaluator(ambient, r)
    return all(
        ev_component.contains(q, {}, e) == ev_ambient.contains(q, {}, e)
        for e in universe
    )
