"""Untyped lambda terms: syntax, alpha/beta machinery, and a bijective codec.

Terms are immutable trees of Var / Abs / App, hash-consed: structurally
equal terms are one object, so == and hash are identity and cost O(1), and
each node carries its free names as a frozenset (and an application whether
it is Omega), so free_vars and is_closed read the node.  Alpha equivalence
is decided through a canonical nameless form (de Bruijn indices for bound
variables, a fixed enumeration of the identifier language for free ones),
and the same nameless form underlies a total bijection between natural
numbers and alpha-classes of terms.  Encoding goes through the nameless
tree; decoding reads a code straight into a named term.  The listings
(enumerate_closed_terms, and closed_term_texts behind the CLI's enum-terms)
visit no open code and decode none: one recursion on the number of enclosing
binders and a bound on the code generates the closed codes and builds each
node as its code is generated, with node constructors that either build a
term or print its text.  print_term folds the same printing rules over a
term, so parenthesisation lives in one place.

Everything here is pure; values are safe to share between threads.  The
one module-level table, the intern table, holds its terms weakly, so it
shrinks as terms are dropped, and it is updated by atomic dict operations
only, so threads may build terms concurrently.
"""

from __future__ import annotations

import itertools
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from operator import itemgetter
from typing import Callable, Union

from . import pairs


# ---------------------------------------------------------------------------
# Syntax
#
# Hash-consing after J.-C. Filliatre and S. Conchon, "Type-safe modular
# hash-consing" (ML Workshop 2006): a constructor looks its node up in the
# intern table before building it.  An entry is stored by dict.setdefault
# and removed by _remove_dead_weakref, which deletes it only while its term
# is dead; both are atomic.  A node's free names and Omega flag are computed
# from its children when it is built, so nothing recurses.


class _Entry(weakref.ref):
    """The intern table's reference to a term, with the term's key."""

    __slots__ = ("key",)


def _drop(entry: _Entry) -> None:
    _remove_dead_weakref(_TERMS, entry.key)


#: key -> _Entry of the live term with that key: a Var's key is its name,
#: an Abs's (binder, body) and an App's (fun, arg).
_TERMS: dict = {}


def _no_entry() -> None:
    """Stands in for a missing entry: calling it gives None, as calling a
    dead entry does."""
    return None


def _interned(key, node):
    """The live term stored under key, storing node there if there is none."""
    entry = _Entry(node, _drop)
    entry.key = key
    while True:
        got = _TERMS.setdefault(key, entry)
        if got is entry:
            return node
        live = got()
        if live is not None:
            return live
        _remove_dead_weakref(_TERMS, key)  # its term died; its callback has not run yet


class _Term:
    """What the three node kinds share: immutability, the free names
    `free`, and printing through print_term."""

    __slots__ = ("free", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError("terms are immutable")

    def __delattr__(self, name):
        raise AttributeError("terms are immutable")

    def __str__(self) -> str:
        return print_term(self)


class Var(_Term):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        t = _TERMS.get(name, _no_entry)()
        if t is not None:
            return t
        t = object.__new__(cls)
        _set_name(t, name)
        _set_free(t, frozenset((name,)))
        return _interned(name, t)

    def __reduce__(self):
        return (Var, (self.name,))

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"


class Abs(_Term):
    __slots__ = ("binder", "body")

    def __new__(cls, binder: str, body: "LambdaTerm"):
        key = (binder, body)
        t = _TERMS.get(key, _no_entry)()
        if t is not None:
            return t
        t = object.__new__(cls)
        _set_binder(t, binder)
        _set_body(t, body)
        free = body.free
        _set_free(t, free - {binder} if binder in free else free)
        return _interned(key, t)

    def __reduce__(self):
        return (Abs, (self.binder, self.body))

    def __repr__(self) -> str:
        return f"Abs(binder={self.binder!r}, body={self.body!r})"


class App(_Term):
    __slots__ = ("fun", "arg", "omega")

    def __new__(cls, fun: "LambdaTerm", arg: "LambdaTerm"):
        key = (fun, arg)
        t = _TERMS.get(key, _no_entry)()
        if t is not None:
            return t
        t = object.__new__(cls)
        _set_fun(t, fun)
        _set_arg(t, arg)
        free, right = fun.free, arg.free
        if right and right is not free:
            free = free | right if free else right
        _set_free(t, free)
        _set_omega(t, _self_applies(fun) and _self_applies(arg))
        return _interned(key, t)

    def __reduce__(self):
        return (App, (self.fun, self.arg))

    def __repr__(self) -> str:
        return f"App(fun={self.fun!r}, arg={self.arg!r})"


# A constructor writes a new node's fields through the slots' own setters,
# which bypass the __setattr__ that keeps terms immutable.
_set_free = _Term.free.__set__
_set_name = Var.name.__set__
_set_binder, _set_body = Abs.binder.__set__, Abs.body.__set__
_set_fun, _set_arg, _set_omega = App.fun.__set__, App.arg.__set__, App.omega.__set__


def _self_applies(t: "LambdaTerm") -> bool:
    """t is \\x.x x, for some binder x."""
    if not isinstance(t, Abs) or not isinstance(t.body, App):
        return False
    x = t.body.fun
    return x is t.body.arg and isinstance(x, Var) and x.name == t.binder


LambdaTerm = Union[Var, Abs, App]

IDENTITY = Abs("x", Var("x"))
TRUE = Abs("x", Abs("y", Var("x")))
FALSE = Abs("x", Abs("y", Var("y")))
SELF_APPLY = Abs("x", App(Var("x"), Var("x")))
OMEGA = App(SELF_APPLY, SELF_APPLY)

#: Names that the parser expands to combinators when they occur free.
ALIASES = {"I": IDENTITY, "T": TRUE, "F": FALSE, "Omega": OMEGA}


def size(t: LambdaTerm) -> int:
    """Number of syntax-tree nodes, counted from an explicit stack, so
    neither a binder chain nor an application spine recurses."""
    n = 0
    todo = [t]
    while todo:
        t = todo.pop()
        n += 1
        if isinstance(t, Abs):
            todo.append(t.body)
        elif isinstance(t, App):
            todo += (t.fun, t.arg)
    return n


def free_vars(t: LambdaTerm) -> frozenset[str]:
    return t.free


def is_closed(t: LambdaTerm) -> bool:
    return not t.free


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
    """Syntax error, carrying the offset where parsing failed, if it has one."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
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
    if all(name in bound or name not in ALIASES for name in t.free):
        return t
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
    try:
        t = p.term()
        kind, value, at = p.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {value!r}", at)
        return _expand_aliases(t, frozenset())
    except RecursionError:
        raise ParseError("input nested too deeply") from None


def print_term(t: LambdaTerm) -> str:
    """Concrete syntax; parse(print_term(t)) is alpha-equal to t."""
    return _printed(t)[1]


def _printed(t: LambdaTerm) -> tuple[int, str]:
    if isinstance(t, Var):
        return (0, t.name)
    if isinstance(t, App):
        args = []
        while isinstance(t, App):  # an application spine is walked in a loop, not recursed into
            args.append(t.arg)
            t = t.fun
        out = _printed(t)
        for arg in reversed(args):
            out = (2, _app_text(out, _printed(arg)))
        return out
    binders = []
    while isinstance(t, Abs):  # an abstraction chain is walked in a loop, not recursed into
        binders.append(t.binder)
        t = t.body
    return (1, _lam_text(" ".join(binders), _printed(t)))


# The printing rules for the two compound kinds, over (code, text) entries: a
# node's kind is its code mod 3, 0 for a variable (whose text is its name), 1
# for an abstraction and 2 for an application.  print_term folds them over a
# term, tagging each node with its kind; closed_term_texts hands them to the
# closed-code recursion as its node constructors, so a listing is printed as
# its codes are generated, without building a term.


def _app_text(fun: tuple[int, str], arg: tuple[int, str]) -> str:
    # an abstraction is bracketed as a function, anything but a variable as an argument
    if fun[0] % 3 == 1:
        return f"({fun[1]}) {arg[1]}" if arg[0] % 3 == 0 else f"({fun[1]}) ({arg[1]})"
    return f"{fun[1]} {arg[1]}" if arg[0] % 3 == 0 else f"{fun[1]} ({arg[1]})"


def _lam_text(binders: str, body: tuple[int, str]) -> str:
    if body[0] % 3 == 1:  # \a over \b.b prints as \a b.b
        return f"\\{binders} {body[1][1:]}"
    return f"\\{binders}.{body[1]}"


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
    """The nameless form of t, built bottom-up from an explicit stack, so
    neither a binder chain nor an application spine recurses.  Besides the
    terms still to convert, the stack holds two kinds of step: None joins
    the last two forms built into an application, and an int n wraps the
    last one in n binders."""
    done: list[tuple] = []
    todo: list = [(t, {}, 0)]
    while todo:
        t, env, depth = todo.pop()
        if t is None:
            arg = done.pop()
            done[-1] = ("a", done[-1], arg)
        elif isinstance(t, int):
            out = done[-1]
            for _ in range(t):
                out = ("l", out)
            done[-1] = out
        elif isinstance(t, Var):
            name = t.name
            done.append(("v", depth - 1 - env[name] if name in env else depth + nat_of_ident(name)))
        elif isinstance(t, App):
            todo += [(None, env, depth), (t.arg, env, depth), (t.fun, env, depth)]
        else:
            env = dict(env)
            top = depth
            while isinstance(t, Abs):
                env[t.binder] = depth
                depth += 1
                t = t.body
            todo += [(depth - top, env, depth), (t, env, depth)]
    return done[0]


def alpha_eq(a: LambdaTerm, b: LambdaTerm) -> bool:
    """Alpha convertibility; free names are compared literally.

    The two nameless forms are compared node by node from an explicit
    stack, so a deep abstraction chain does not recurse."""
    stack = [(to_nameless(a), to_nameless(b))]
    while stack:
        x, y = stack.pop()
        if x[0] != y[0] or (x[0] == "v" and x[1] != y[1]):
            return False
        if x[0] != "v":
            stack.extend(zip(x[1:], y[1:]))
    return True


# ---------------------------------------------------------------------------
# Substitution and normal-order reduction


def _fresh_name(avoid: frozenset[str]) -> str:
    for i in itertools.count():
        name = f"x{i}"
        if name not in avoid:
            return name
    raise AssertionError


def _substituted(t: LambdaTerm, x: str, s: LambdaTerm) -> tuple[LambdaTerm, int]:
    """The capture-avoiding substitution t[x := s], t itself when x is not
    free in it, and the number of nodes its construction built.

    Built bottom-up from an explicit stack, as to_nameless is, so neither a
    deep body nor a long spine recurses: None joins the last two terms built
    into an application, and a name wraps the last one in an abstraction.
    A binder that would capture a free name of s is renamed first, by a
    substitution of its own."""
    built = 0
    done: list[LambdaTerm] = []
    todo: list = [t]
    while todo:
        t = todo.pop()
        if t is None:
            arg = done.pop()
            done[-1] = App(done[-1], arg)
            built += 1
        elif isinstance(t, str):
            done[-1] = Abs(t, done[-1])
            built += 1
        elif x not in t.free:
            done.append(t)
        elif isinstance(t, Var):
            done.append(s)
        elif isinstance(t, App):
            todo += (None, t.arg, t.fun)
        elif t.binder in s.free:
            fresh = _fresh_name(t.body.free | s.free | {x})
            renamed, n = _substituted(t.body, t.binder, Var(fresh))
            built += n + 1
            todo += (fresh, renamed)
        else:
            todo += (t.binder, t.body)
    return done[0], built


def _step(t: LambdaTerm) -> tuple[LambdaTerm, int] | None:
    """One leftmost-outermost beta step and the number of nodes it built,
    or None if t is in normal form.  The count is the contractum's own
    (_substituted's) plus the spine and binder nodes rebuilt around it.

    The binders around t and its application spine are walked in a loop,
    not recursed into, since a reduct's spine can grow by one application
    per step; only the arguments along the spine are recursed into."""
    binders = []
    while isinstance(t, Abs):
        binders.append(t.binder)
        t = t.body
    spine = []  # the arguments along the spine, outermost first
    while isinstance(t, App) and not isinstance(t.fun, Abs):
        spine.append(t.arg)
        t = t.fun
    if isinstance(t, App):  # the head is the leftmost-outermost redex
        t, built = _substituted(t.fun.body, t.fun.binder, t.arg)
    else:
        for i in reversed(range(len(spine))):  # the leftmost argument first
            stepped = _step(spine[i])
            if stepped is not None:
                spine[i], built = stepped
                break
        else:
            return None
    for arg in reversed(spine):
        t = App(t, arg)
    for b in reversed(binders):
        t = Abs(b, t)
    return t, built + len(spine) + len(binders)


def one_step_reducts(t: LambdaTerm) -> list[LambdaTerm]:
    """All terms reachable by contracting a single redex anywhere in t."""
    return [reduct for reduct, _ in _reducts(t)]


def _reducts(t: LambdaTerm):
    """The one-step reducts of t, each with the number of nodes its
    construction built, redex by redex in pre-order (a redex before the
    redexes inside it, the function side before the argument).  The redexes
    are found from an explicit stack, and a contractum is put back in place
    by rebuilding the nodes on its path, innermost first, so neither a long
    spine nor a deep binder chain recurses."""
    todo = [(t, None)]  # a node and its path: (parent, node is the parent's function side, parent's path)
    while todo:
        node, path = todo.pop()
        if isinstance(node, Abs):
            todo.append((node.body, (node, False, path)))
            continue
        if not isinstance(node, App):
            continue
        todo += ((node.arg, (node, False, path)), (node.fun, (node, True, path)))
        if not isinstance(node.fun, Abs):
            continue
        out, built = _substituted(node.fun.body, node.fun.binder, node.arg)
        while path is not None:
            parent, on_fun, path = path
            if isinstance(parent, Abs):
                out = Abs(parent.binder, out)
            else:
                out = App(out, parent.arg) if on_fun else App(parent.fun, out)
            built += 1
        yield out, built


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
    whenever the term has a beta-normal form within the budget.  The nodes
    the steps build are charged to the element ceiling, as the reducts of
    the beta-related shortcut are: once they pass pairs.DEFAULT_CEILING in
    all, the reduction raises CeilingExceeded, so a reduct whose spine grows
    at every step is refused rather than rebuilt for ever longer.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    steps = built = 0
    while True:
        stepped = _step(t)
        if stepped is None:
            return ReductionResult(ReductionStatus.NORMAL_FORM, t, steps)
        if steps == budget:
            return ReductionResult(ReductionStatus.BUDGET_EXCEEDED, t, steps)
        t, n = stepped
        steps += 1
        built += n
        if built > pairs.DEFAULT_CEILING:
            raise pairs.CeilingExceeded(
                f"{steps} reduction steps build {built} nodes, ceiling is {pairs.DEFAULT_CEILING}"
            )


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
    if tag == "a":
        return 3 * _cantor_pair(_encode_nameless(nt[1]), _encode_nameless(nt[2])) + 2
    binders = 0
    while nt[0] == "l":  # an abstraction chain is walked in a loop, not recursed into
        binders += 1
        nt = nt[1]
    code = _encode_nameless(nt)
    for _ in range(binders):
        code = 3 * code + 1
    return code


def godel_encode(t: LambdaTerm) -> int:
    """Code of the alpha-class of t.

    The encoder recurses once per application.  That is not the bound that
    matters: the Cantor pairing about squares the code at each application,
    so the code of an n-application spine has about 2^n bits, and arithmetic
    runs out long before the recursion limit is reached."""
    return _encode_nameless(to_nameless(t))


def godel_decode(n: int) -> LambdaTerm:
    """The term (canonical representative) with code n; total on naturals.

    Free variables keep their identifiers, and the binder at depth d takes
    the d-th identifier not free in the term, so no binder captures a free
    variable or shadows an enclosing binder."""
    if n < 0:
        raise ValueError("codes are non-negative")
    free = set()
    depths = 0
    stack = [(n, 0)]
    while stack:
        code, depth = stack.pop()
        q, r = divmod(code, 3)
        if r == 0:
            if q >= depth:
                free.add(q - depth)
        elif r == 1:
            stack.append((q, depth + 1))
            depths = max(depths, depth + 1)
        else:
            stack += [(part, depth) for part in _cantor_unpair(q)]
    names = [ident_of_nat(i) for i in range(depths + len(free)) if i not in free][:depths]
    return _decoded(n, 0, names, {})


def _decoded(code: int, depth: int, names: list[str], memo: dict) -> LambdaTerm:
    """The term of `code` under `depth` binders, the binder at depth d named
    names[d]; a free variable keeps its identifier.

    The term depends on (code, depth) alone, so application parts, whose
    codes are about the square root of their parent's, are memoized under
    that pair in `memo`, which the caller owns and drops.
    """
    top = depth
    q, r = divmod(code, 3)
    while r == 1:  # an abstraction chain is walked in a loop, not recursed into
        depth += 1
        q, r = divmod(q, 3)
    if r == 0:
        node = Var(names[depth - 1 - q] if q < depth else ident_of_nat(q - depth))
    else:
        parts = []
        for part in _cantor_unpair(q):
            key = (part, depth)
            if key not in memo:
                memo[key] = _decoded(part, depth, names, memo)
            parts.append(memo[key])
        node = App(*parts)
    while depth > top:
        depth -= 1
        node = Abs(names[depth], node)
    return node


def enumerate_closed_terms(limit: int) -> list[LambdaTerm]:
    """The first `limit` closed terms in code order."""
    return _first_closed(limit, Var, _abs_node, _app_node)


def closed_term_texts(limit: int) -> list[str]:
    """print_term of each of the first `limit` closed terms in code order,
    printed as their codes are generated: no term is built or walked."""
    return _first_closed(limit, str, _lam_text, _app_text)


def _abs_node(binder: str, body: tuple) -> Abs:
    return Abs(binder, body[1])


def _app_node(fun: tuple, arg: tuple) -> App:
    return App(fun[1], arg[1])


def _first_closed(limit: int, var: Callable, lam: Callable, app: Callable) -> list:
    """The first `limit` closed terms in code order, built by _closed_under
    with the given node constructors.

    The first bound is fitted to the count of closed codes, which grows
    about as b^0.85 up to b = 3,200 (400 terms) and as b^0.82 beyond: it is
    2.9 limit^1.17 up to 400 terms and 2.25 limit^1.22 above.  That holds
    `limit` codes for every limit up to 10^6, the CLI's ceiling, with 2 %
    to spare on average from 300 to 400 terms and at most 9 % above; the
    nodes past the limit are built and dropped.  Should a bound hold too
    few, the next is sized from the count it did hold: scaling it by
    1.1 (limit / count)^1.25 usually needs no third pass.
    """
    if limit < 0:
        raise ValueError("limit must be non-negative")
    bound = int(2.9 * limit**1.17 if limit <= 400 else 2.25 * limit**1.22)
    entries = _closed_under(bound, var, lam, app)
    while len(entries) < limit:  # a bound >= 1 holds the code 1 of \a.a, so len(entries) > 0
        bound = int(bound * 1.1 * (limit / len(entries)) ** 1.25)
        entries = _closed_under(bound, var, lam, app)
    del entries[limit:]
    return [node for _, node in entries]


def _closed_under(bound: int, var: Callable, lam: Callable, app: Callable) -> list[tuple]:
    """The (code, node) entries of the closed terms with code <= bound, in
    ascending code order.  A closed term has no free identifier to avoid, so
    its binder at depth d is ident_of_nat(d), as godel_decode names it.  A
    code up to bound nests at most bound.bit_length() binders."""
    names = [ident_of_nat(d) for d in range(bound.bit_length())]
    return _closed(0, bound, names, var, lam, app)


_code = itemgetter(0)


def _closed(depth: int, m: int, names: list[str], var: Callable, lam: Callable, app: Callable) -> list[tuple]:
    """The (code, node) entries of the terms closed under `depth` binders
    with code <= m, in ascending code order, each node built as its code is.

    By structural recursion on (depth, m), after K. Grygiel and P. Lescanne,
    "Counting and generating lambda terms" (JFP 2013):
    - the bound variables 3q with q < depth, node var(names[depth - 1 - q]);
    - the abstractions 3c + 1 with c closed under depth + 1 binders up to
      (m - 1) // 3, node lam(names[depth], (c, body));
    - the applications 3 cantor(i, j) + 2 with i and j closed under depth
      binders, both at most the largest Cantor diagonal w with
      w(w + 1)/2 <= (m - 2) // 3 (a component never exceeds the diagonal
      of its pair), node app((i, fun), (j, arg)).
    A part's kind is its code mod 3, so a constructor reads it off the
    entry it is given.  Each sub-list is dropped once its parent's entries
    are built; none is memoized, as few (depth, m) pairs recur in one call.
    """
    out = [(3 * q, var(names[depth - 1 - q])) for q in range(min(depth, m // 3 + 1))]
    if m >= 1:
        binder = names[depth]
        out += [(3 * e[0] + 1, lam(binder, e)) for e in _closed(depth + 1, (m - 1) // 3, names, var, lam, app)]
    if m >= 2:
        top = (m - 2) // 3
        parts = _closed(depth, (isqrt(8 * top + 1) - 1) // 2, names, var, lam, app)
        for fun in parts:
            i = fun[0]
            for arg in parts:
                j = arg[0]
                s = i + j
                pair = s * (s + 1) // 2 + j
                if pair > top:  # pair codes grow with j
                    break
                out.append((3 * pair + 2, app(fun, arg)))
        out.sort(key=_code)
    return out
