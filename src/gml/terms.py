"""Untyped lambda terms: syntax, alpha/beta machinery, and a bijective codec.

Terms are immutable trees of Var / Abs / App.  Alpha equivalence is decided
through a canonical nameless form (de Bruijn indices for bound variables,
a fixed enumeration of the identifier language for free ones), and the same
nameless form underlies a total bijection between natural numbers and
alpha-classes of terms.

Everything here is pure; values are safe to share between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Iterator, Union


# ---------------------------------------------------------------------------
# Syntax


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True, slots=True)
class Abs:
    binder: str
    body: "LambdaTerm"

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True, slots=True)
class App:
    fun: "LambdaTerm"
    arg: "LambdaTerm"

    def __str__(self) -> str:
        return print_term(self)


LambdaTerm = Union[Var, Abs, App]

IDENTITY = Abs("x", Var("x"))
TRUE = Abs("x", Abs("y", Var("x")))
FALSE = Abs("x", Abs("y", Var("y")))
SELF_APPLY = Abs("x", App(Var("x"), Var("x")))
OMEGA = App(SELF_APPLY, SELF_APPLY)

#: Names that the parser expands to combinators when they occur free.
ALIASES = {"I": IDENTITY, "T": TRUE, "F": FALSE, "Omega": OMEGA}


def size(t: LambdaTerm) -> int:
    """Number of syntax-tree nodes."""
    if isinstance(t, Var):
        return 1
    if isinstance(t, Abs):
        return 1 + size(t.body)
    return 1 + size(t.fun) + size(t.arg)


def free_vars(t: LambdaTerm) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Abs):
        return free_vars(t.body) - {t.binder}
    return free_vars(t.fun) | free_vars(t.arg)


def is_closed(t: LambdaTerm) -> bool:
    return not free_vars(t)


# ---------------------------------------------------------------------------
# Parser / printer
#
# Grammar:   term ::= '\' ident+ '.' term | app
#            app  ::= atom+
#            atom ::= ident | '(' term ')'
# Identifiers match [a-zA-Z][a-zA-Z0-9_]*; application associates left and an
# abstraction body extends as far right as possible.  The alias names I, T, F
# and Omega denote the standard combinators wherever they occur free.


_FIRST = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_REST = _FIRST + "0123456789_"
_FIRST_INDEX = {c: i for i, c in enumerate(_FIRST)}
_REST_INDEX = {c: i for i, c in enumerate(_REST)}


class ParseError(ValueError):
    """Syntax error, carrying the offset where parsing failed."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\n\r":
            i += 1
            continue
        if c in "\\.()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c in _FIRST_INDEX:
            j = i + 1
            while j < n and text[j] in _REST_INDEX:
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def term(self) -> LambdaTerm:
        kind, _, at = self.peek()
        if kind == "\\":
            self.next()
            binders = []
            while self.peek()[0] == "ident":
                binders.append(self.next()[1])
            if not binders:
                raise ParseError("expected at least one binder", self.peek()[2])
            self.expect(".")
            body = self.term()
            for b in reversed(binders):
                body = Abs(b, body)
            return body
        return self.app(at)

    def app(self, at: int) -> LambdaTerm:
        atoms = []
        while True:
            kind, _, _ = self.peek()
            if kind == "ident":
                atoms.append(Var(self.next()[1]))
            elif kind == "(":
                self.next()
                atoms.append(self.term())
                self.expect(")")
            else:
                break
        if not atoms:
            raise ParseError("expected a term", at)
        t = atoms[0]
        for a in atoms[1:]:
            t = App(t, a)
        return t


def _expand_aliases(t: LambdaTerm, bound: frozenset[str]) -> LambdaTerm:
    if isinstance(t, Var):
        if t.name in ALIASES and t.name not in bound:
            return ALIASES[t.name]
        return t
    if isinstance(t, Abs):
        return Abs(t.binder, _expand_aliases(t.body, bound | {t.binder}))
    return App(_expand_aliases(t.fun, bound), _expand_aliases(t.arg, bound))


def parse(text: str) -> LambdaTerm:
    """Parse the concrete syntax; free occurrences of I, T, F, Omega expand."""
    p = _Parser(text)
    t = p.term()
    kind, value, at = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", at)
    return _expand_aliases(t, frozenset())


def print_term(t: LambdaTerm) -> str:
    """Concrete syntax; parse(print_term(t)) is alpha-equal to t."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        binders = []
        while isinstance(t, Abs):
            binders.append(t.binder)
            t = t.body
        return "\\" + " ".join(binders) + "." + print_term(t)
    fun = print_term(t.fun)
    if isinstance(t.fun, Abs):
        fun = f"({fun})"
    arg = print_term(t.arg)
    if isinstance(t.arg, (Abs, App)):
        arg = f"({arg})"
    return f"{fun} {arg}"


# ---------------------------------------------------------------------------
# Identifier enumeration
#
# The variable alphabet is the full identifier language, enumerated by length
# and then lexicographically: a, b, ..., z, A, ..., Z, aa, ab, ...  This is
# the numeration used for free variables in the nameless form.


def ident_of_nat(n: int) -> str:
    """The n-th identifier in length-then-lexicographic order."""
    if n < 0:
        raise ValueError("identifier index must be non-negative")
    length = 1
    block = len(_FIRST)
    while n >= block:
        n -= block
        length += 1
        block = len(_FIRST) * len(_REST) ** (length - 1)
    tail = []
    for _ in range(length - 1):
        n, r = divmod(n, len(_REST))
        tail.append(_REST[r])
    return _FIRST[n] + "".join(reversed(tail))


def nat_of_ident(s: str) -> int:
    """Inverse of ident_of_nat."""
    if not s or s[0] not in _FIRST_INDEX or any(c not in _REST_INDEX for c in s[1:]):
        raise ValueError(f"not an identifier: {s!r}")
    n = 0
    block = len(_FIRST)
    for _ in range(1, len(s)):
        n += block
        block *= len(_REST)
    idx = _FIRST_INDEX[s[0]]
    for c in s[1:]:
        idx = idx * len(_REST) + _REST_INDEX[c]
    return n + idx


# ---------------------------------------------------------------------------
# Nameless (canonical) form
#
# A variable node is a single natural: at binder depth d, values below d are
# de Bruijn indices and value n >= d stands for the free identifier
# ident_of_nat(n - d).  Alpha equivalence is plain equality of these trees.


def to_nameless(t: LambdaTerm) -> tuple:
    def go(t: LambdaTerm, env: dict[str, int], depth: int) -> tuple:
        if isinstance(t, Var):
            if t.name in env:
                return ("v", depth - 1 - env[t.name])
            return ("v", depth + nat_of_ident(t.name))
        if isinstance(t, Abs):
            saved = env.get(t.binder)
            env[t.binder] = depth
            body = go(t.body, env, depth + 1)
            if saved is None:
                del env[t.binder]
            else:
                env[t.binder] = saved
            return ("l", body)
        return ("a", go(t.fun, env, depth), go(t.arg, env, depth))

    return go(t, {}, 0)


def from_nameless(nt: tuple) -> LambdaTerm:
    def free_of(nt: tuple, depth: int, acc: set[str]) -> None:
        tag = nt[0]
        if tag == "v":
            if nt[1] >= depth:
                acc.add(ident_of_nat(nt[1] - depth))
        elif tag == "l":
            free_of(nt[1], depth + 1, acc)
        else:
            free_of(nt[1], depth, acc)
            free_of(nt[2], depth, acc)

    free: set[str] = set()
    free_of(nt, 0, free)

    def go(nt: tuple, names: list[str]) -> LambdaTerm:
        tag = nt[0]
        if tag == "v":
            n = nt[1]
            if n < len(names):
                return Var(names[len(names) - 1 - n])
            return Var(ident_of_nat(n - len(names)))
        if tag == "l":
            taken = free | set(names)
            for i in itertools.count():
                name = ident_of_nat(i)
                if name not in taken:
                    break
            return Abs(name, go(nt[1], names + [name]))
        return App(go(nt[1], names), go(nt[2], names))

    return go(nt, [])


def alpha_eq(a: LambdaTerm, b: LambdaTerm) -> bool:
    """Alpha convertibility; free names are compared literally."""
    return to_nameless(a) == to_nameless(b)


def is_closed_nameless(nt: tuple, depth: int = 0) -> bool:
    tag = nt[0]
    if tag == "v":
        return nt[1] < depth
    if tag == "l":
        return is_closed_nameless(nt[1], depth + 1)
    return is_closed_nameless(nt[1], depth) and is_closed_nameless(nt[2], depth)


# ---------------------------------------------------------------------------
# Substitution and normal-order reduction


def _fresh_name(avoid: frozenset[str]) -> str:
    for i in itertools.count():
        name = f"x{i}"
        if name not in avoid:
            return name
    raise AssertionError


def substitute(t: LambdaTerm, x: str, s: LambdaTerm) -> LambdaTerm:
    """Capture-avoiding substitution t[x := s]."""
    if isinstance(t, Var):
        return s if t.name == x else t
    if isinstance(t, App):
        return App(substitute(t.fun, x, s), substitute(t.arg, x, s))
    if t.binder == x:
        return t
    if t.binder in free_vars(s) and x in free_vars(t.body):
        fresh = _fresh_name(free_vars(t.body) | free_vars(s) | {x})
        renamed = substitute(t.body, t.binder, Var(fresh))
        return Abs(fresh, substitute(renamed, x, s))
    return Abs(t.binder, substitute(t.body, x, s))


def _step(t: LambdaTerm) -> LambdaTerm | None:
    """One leftmost-outermost beta step, or None if t is in normal form."""
    if isinstance(t, App):
        if isinstance(t.fun, Abs):
            return substitute(t.fun.body, t.fun.binder, t.arg)
        fun = _step(t.fun)
        if fun is not None:
            return App(fun, t.arg)
        arg = _step(t.arg)
        if arg is not None:
            return App(t.fun, arg)
        return None
    if isinstance(t, Abs):
        body = _step(t.body)
        return Abs(t.binder, body) if body is not None else None
    return None


def one_step_reducts(t: LambdaTerm) -> list[LambdaTerm]:
    """All terms reachable by contracting a single redex anywhere in t."""
    out: list[LambdaTerm] = []
    if isinstance(t, App):
        if isinstance(t.fun, Abs):
            out.append(substitute(t.fun.body, t.fun.binder, t.arg))
        out.extend(App(f, t.arg) for f in one_step_reducts(t.fun))
        out.extend(App(t.fun, a) for a in one_step_reducts(t.arg))
    elif isinstance(t, Abs):
        out.extend(Abs(t.binder, b) for b in one_step_reducts(t.body))
    return out


class ReductionStatus(Enum):
    NORMAL_FORM = "normal_form"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True, slots=True)
class ReductionResult:
    status: ReductionStatus
    term: LambdaTerm
    steps: int


def normalize(t: LambdaTerm, budget: int) -> ReductionResult:
    """At most `budget` leftmost-outermost beta steps.

    The leftmost-outermost strategy is normalizing, so NORMAL_FORM is reached
    whenever the term has a beta-normal form within the budget.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    steps = 0
    while steps < budget:
        nxt = _step(t)
        if nxt is None:
            return ReductionResult(ReductionStatus.NORMAL_FORM, t, steps)
        t = nxt
        steps += 1
    if _step(t) is None:
        return ReductionResult(ReductionStatus.NORMAL_FORM, t, steps)
    return ReductionResult(ReductionStatus.BUDGET_EXCEEDED, t, steps)


# ---------------------------------------------------------------------------
# Goedel codec
#
# The code of a nameless tree: Var(n) -> 3n, Abs(b) -> 3*code(b) + 1,
# App(f, a) -> 3*cantor(code(f), code(a)) + 2.  Every natural decodes, so the
# codec is a bijection between N and alpha-classes; code 0 is the variable
# `a`, code 1 is the identity combinator.


def _cantor_pair(i: int, j: int) -> int:
    s = i + j
    return s * (s + 1) // 2 + j


def _cantor_unpair(n: int) -> tuple[int, int]:
    w = (isqrt(8 * n + 1) - 1) // 2
    t = w * (w + 1) // 2
    j = n - t
    return w - j, j


def _encode_nameless(nt: tuple) -> int:
    tag = nt[0]
    if tag == "v":
        return 3 * nt[1]
    if tag == "l":
        return 3 * _encode_nameless(nt[1]) + 1
    return 3 * _cantor_pair(_encode_nameless(nt[1]), _encode_nameless(nt[2])) + 2


def _decode_nameless(n: int) -> tuple:
    if n < 0:
        raise ValueError("codes are non-negative")
    r = n % 3
    if r == 0:
        return ("v", n // 3)
    if r == 1:
        return ("l", _decode_nameless(n // 3))
    i, j = _cantor_unpair((n - 2) // 3)
    return ("a", _decode_nameless(i), _decode_nameless(j))


def godel_encode(t: LambdaTerm) -> int:
    """Code of the alpha-class of t."""
    return _encode_nameless(to_nameless(t))


def godel_decode(n: int) -> LambdaTerm:
    """The term (canonical representative) with code n; total on naturals."""
    return from_nameless(_decode_nameless(n))


def enumerate_closed_terms(limit: int) -> list[LambdaTerm]:
    """The first `limit` closed terms in code order."""
    if limit < 0:
        raise ValueError("limit must be non-negative")
    return list(itertools.islice(iter_closed_terms(), limit))


def iter_closed_terms() -> Iterator[LambdaTerm]:
    for n in itertools.count():
        nt = _decode_nameless(n)
        if is_closed_nameless(nt):
            yield from_nameless(nt)
