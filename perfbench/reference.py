"""Independent reference code for the benchmark's answer checker.

Nothing here imports `gml`.  It re-implements, from the definitions in the
README, just enough to re-check what the CLI prints:

* the term grammar and the Goedel codec of nameless terms (to generate
  claims and to check `enum-terms`);
* the finite interpretation of a term in a partial pair, by the defining
  clauses (to re-derive certificates);
* the textual element syntax with its structural order (to check that a
  certificate is a subpair of the completion it came from);
* a prime sieve (to check relocated components).
"""

from __future__ import annotations

from math import isqrt

# ---------------------------------------------------------------------------
# Terms: nameful trees ("var", name) | ("lam", name, body) | ("app", fun, arg)
# and nameless trees ("v", n) | ("l", body) | ("a", fun, arg).

_FIRST = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_REST = _FIRST + "0123456789_"


class TermSyntaxError(ValueError):
    pass


def _tokens(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "\\.()":
            out.append(c)
            i += 1
        elif c in _FIRST:
            j = i + 1
            while j < len(text) and text[j] in _REST:
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise TermSyntaxError(f"unexpected character {c!r} in {text!r}")
    return out


def parse_term(text: str) -> tuple:
    """Parse the concrete syntax into a nameful tree; free I, T, F and Omega
    expand to their combinators."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise TermSyntaxError(f"expected {expected!r} at token {pos} of {text!r}")
        pos += 1
        return tok

    def term():
        if peek() == "\\":
            take("\\")
            binders = []
            while peek() not in (None, ".", "\\", "(", ")"):
                binders.append(take())
            if not binders:
                raise TermSyntaxError(f"abstraction without binder in {text!r}")
            take(".")
            body = term()
            for name in reversed(binders):
                body = ("lam", name, body)
            return body
        parts = []
        while peek() not in (None, ")", "."):
            if peek() == "\\":
                parts.append(term())
                break
            if peek() == "(":
                take("(")
                parts.append(term())
                take(")")
            else:
                parts.append(("var", take()))
        if not parts:
            raise TermSyntaxError(f"expected a term in {text!r}")
        out = parts[0]
        for part in parts[1:]:
            out = ("app", out, part)
        return out

    t = term()
    if pos != len(toks):
        raise TermSyntaxError(f"trailing input in {text!r}")
    return _expand_aliases(t, frozenset())


_SELF = ("lam", "x", ("app", ("var", "x"), ("var", "x")))
ALIASES = {
    "I": ("lam", "x", ("var", "x")),
    "T": ("lam", "x", ("lam", "y", ("var", "x"))),
    "F": ("lam", "x", ("lam", "y", ("var", "y"))),
    "Omega": ("app", _SELF, _SELF),
}


def _expand_aliases(t: tuple, bound: frozenset) -> tuple:
    if t[0] == "var":
        return ALIASES[t[1]] if t[1] in ALIASES and t[1] not in bound else t
    if t[0] == "lam":
        return ("lam", t[1], _expand_aliases(t[2], bound | {t[1]}))
    return ("app", _expand_aliases(t[1], bound), _expand_aliases(t[2], bound))


def nameless(t: tuple, scope: tuple = ()) -> tuple:
    """De Bruijn form of a closed nameful tree (free names raise)."""
    if t[0] == "var":
        for depth, name in enumerate(reversed(scope)):
            if name == t[1]:
                return ("v", depth)
        raise TermSyntaxError(f"free variable {t[1]!r}")
    if t[0] == "lam":
        return ("l", nameless(t[2], scope + (t[1],)))
    return ("a", nameless(t[1], scope), nameless(t[2], scope))


def _unpair(n: int) -> tuple[int, int]:
    w = (isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


def decode(n: int) -> tuple:
    """The nameless tree with Goedel code n."""
    r = n % 3
    if r == 0:
        return ("v", n // 3)
    if r == 1:
        return ("l", decode(n // 3))
    i, j = _unpair((n - 2) // 3)
    return ("a", decode(i), decode(j))


def encode(nt: tuple) -> int:
    if nt[0] == "v":
        return 3 * nt[1]
    if nt[0] == "l":
        return 3 * encode(nt[1]) + 1
    i, j = encode(nt[1]), encode(nt[2])
    s = i + j
    return 3 * (s * (s + 1) // 2 + j) + 2


def is_closed(nt: tuple, depth: int = 0) -> bool:
    if nt[0] == "v":
        return nt[1] < depth
    if nt[0] == "l":
        return is_closed(nt[1], depth + 1)
    return is_closed(nt[1], depth) and is_closed(nt[2], depth)


def closed_codes():
    """Codes of closed terms, ascending."""
    n = 0
    while True:
        if is_closed(decode(n)):
            yield n
        n += 1


def size(nt: tuple) -> int:
    if nt[0] == "v":
        return 1
    if nt[0] == "l":
        return 1 + size(nt[1])
    return 1 + size(nt[1]) + size(nt[2])


def nesting(nt: tuple) -> int:
    """Deepest stack of binders."""
    if nt[0] == "v":
        return 0
    if nt[0] == "l":
        return 1 + nesting(nt[1])
    return max(nesting(nt[1]), nesting(nt[2]))


def show(nt: tuple, depth: int = 0) -> str:
    """Concrete syntax of a closed nameless tree, binders named x0, x1, ..."""
    if nt[0] == "v":
        return f"x{depth - 1 - nt[1]}"
    if nt[0] == "l":
        return f"\\x{depth}.{show(nt[1], depth + 1)}"
    fun = show(nt[1], depth)
    if nt[1][0] == "l":
        fun = f"({fun})"
    arg = show(nt[2], depth)
    if nt[2][0] != "v":
        arg = f"({arg})"
    return f"{fun} {arg}"


# ---------------------------------------------------------------------------
# Finite interpretation, by the defining clauses:
#   x      |-> env(x)                          (empty when unbound)
#   M N    |-> { res : (args, res) -> v coded, args within [N], v in [M] }
#   \x.M   |-> { v : (args, res) -> v coded, res in [M] under x := args }


def interpret(t: tuple, coding: list[tuple[frozenset, str, str]], env: dict | None = None) -> frozenset:
    memo: dict = {}

    def go(node, env):
        if node[0] == "var":
            return env.get(node[1], frozenset())
        key = (id(node), tuple(sorted(env.items(), key=lambda kv: kv[0])))
        got = memo.get(key)
        if got is not None:
            return got
        if node[0] == "app":
            arg, fun = go(node[2], env), go(node[1], env)
            out = frozenset(res for args, res, val in coding if args <= arg and val in fun)
        else:
            out = frozenset(
                val for args, res, val in coding if res in go(node[2], {**env, node[1]: args})
            )
        memo[key] = out
        return out

    return go(t, dict(env or {}))


def pair_entries(doc: dict) -> tuple[list[str], list[tuple[frozenset, str, str]]]:
    """Atoms and coding entries of a pair document, by label."""
    return list(doc["atoms"]), [
        (frozenset(e["args"]), e["res"], e["val"]) for e in doc["coding"]
    ]


def pair_problems(doc: dict) -> list[str]:
    """Violations of the partial-pair invariants in a pair document."""
    atoms, coding = pair_entries(doc)
    carrier = set(atoms)
    out = []
    if len(carrier) != len(atoms):
        out.append("duplicate atoms")
    keys, vals = set(), set()
    for args, res, val in coding:
        if not (args | {res, val}) <= carrier:
            out.append(f"entry {sorted(args)},{res}->{val} leaves the carrier")
        if (args, res) in keys:
            out.append(f"key {sorted(args)},{res} coded twice")
        if val in vals:
            out.append(f"value {val} coded twice")
        keys.add((args, res))
        vals.add(val)
    return out


# ---------------------------------------------------------------------------
# Completion elements as structural keys: an atom is (0, n), a pair element
# is (1, sorted argument keys, result key).  Tuples compare in exactly the
# structural order (atoms first, then pairs lexicographically).


def element_key(text: str, atom_index: dict[str, int]) -> tuple:
    s = text.replace(" ", "")
    pos = 0

    def one():
        nonlocal pos
        if s.startswith("({", pos):
            pos += 2
            args = []
            if s[pos] != "}":
                while True:
                    args.append(one())
                    if s[pos] == ",":
                        pos += 1
                        continue
                    break
            if s[pos:pos + 2] != "},":
                raise ValueError(f"malformed element {text!r}")
            pos += 2
            res = one()
            if s[pos] != ")":
                raise ValueError(f"malformed element {text!r}")
            pos += 1
            return (1, tuple(sorted(set(args))), res)
        start = pos
        while pos < len(s) and s[pos] not in "(){},":
            pos += 1
        return (0, atom_index[s[start:pos]])

    key = one()
    if pos != len(s):
        raise ValueError(f"trailing input in element {text!r}")
    return key


def element_rank(key: tuple) -> int:
    if key[0] == 0:
        return 0
    return 1 + max([element_rank(a) for a in key[1]] + [element_rank(key[2])])


def element_text(key: tuple, labels: list[str]) -> str:
    if key[0] == 0:
        return labels[key[1]]
    inner = ",".join(element_text(a, labels) for a in key[1])
    return f"({{{inner}}},{element_text(key[2], labels)})"


def completion_code(args: frozenset, res: tuple, coded: dict) -> tuple:
    """The completion's total coding: coded atom keys collapse to their atom,
    every other key is a fresh pair element."""
    if res[0] == 0 and all(a[0] == 0 for a in args):
        hit = coded.get((frozenset(a[1] for a in args), res[1]))
        if hit is not None:
            return (0, hit)
    return (1, tuple(sorted(args)), res)


# ---------------------------------------------------------------------------
# Primes


def first_primes(count: int) -> list[int]:
    """The first `count` primes, by a sieve of Eratosthenes."""
    if count <= 0:
        return []
    limit = 16
    while True:
        flags = bytearray([1]) * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, isqrt(limit) + 1):
            if flags[p]:
                flags[p * p::p] = bytearray(len(range(p * p, limit + 1, p)))
        primes = [i for i in range(limit + 1) if flags[i]]
        if len(primes) >= count:
            return primes[:count]
        limit *= 2
