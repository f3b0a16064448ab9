"""Exact interpretation of lambda terms inside a finite partial pair.

The interpretation of a term is a finite set of atoms, computed by structural
recursion:

  variable     x   |->  rho(x)
  application  MN  |->  { res : (args, res) a coded key, args within the
                          meaning of N, coded value within the meaning of M }
  abstraction  \\x.M |-> { value of (args, res) : (args, res) a coded key,
                          res within the meaning of M under x := args }

Both quantifiers range over the coded keys only, which is equivalent to the
subset formulation and exponentially cheaper.  Free variables default to the
empty set.  Interpretation is primitive recursion on the term; redexes are
interpreted as-is, never normalized first.  interpret walks the term from an
explicit stack over plain dicts of bindings, so nesting takes no Python
stack, and shares no code with the rank-bounded evaluator it re-verifies.
Within one call, each subterm's meaning is memoized under the subterm itself
and the values bound to the free names the node carries: terms are
hash-consed, so equal subterms share an entry.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from .pairs import PartialPair
from .terms import App, LambdaTerm, SELF_APPLY, Var


class Environment:
    """Finite-support map from variable names to finite sets; default empty.

    Values are frozensets of atoms when used with finite pairs, or of
    completion elements when used with rank-bounded approximation.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[str, Iterable] | None = None):
        cleaned = {}
        for name, values in (mapping or {}).items():
            values = frozenset(values)
            if values:
                cleaned[name] = values
        object.__setattr__(self, "_map", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Environment is immutable")

    def get(self, name: str) -> frozenset:
        return self._map.get(name, frozenset())

    def bind(self, name: str, values: Iterable) -> "Environment":
        updated = dict(self._map)
        updated[name] = frozenset(values)
        return Environment(updated)

    def items(self):
        return self._map.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {sorted(v, key=repr)}" for n, v in sorted(self._map.items()))
        return f"Environment({{{inner}}})"

    def to_json(self, pair: PartialPair) -> dict:
        return {
            "env": [
                {"var": n, "atoms": [pair.label(a) for a in sorted(v)]}
                for n, v in sorted(self._map.items())
            ]
        }

    @classmethod
    def from_json(cls, doc: dict, pair: PartialPair) -> "Environment":
        if not isinstance(doc, dict) or set(doc) - {"env"}:
            raise ValueError("malformed environment document")
        index = {pair.label(a): a for a in pair.atoms}
        entries = doc.get("env", [])
        if not isinstance(entries, list):
            raise ValueError("malformed environment document")
        mapping: dict[str, frozenset] = {}
        for entry in entries:
            if (
                not isinstance(entry, dict)
                or set(entry) != {"var", "atoms"}
                or not isinstance(entry["var"], str)
                or not isinstance(entry["atoms"], list)
            ):
                raise ValueError('malformed environment entry: expected a "var" name and an "atoms" list')
            for x in entry["atoms"]:
                if not isinstance(x, str) or x not in index:
                    raise ValueError(f"unknown atom label {x!r} in the environment of {entry['var']!r}")
            mapping[entry["var"]] = frozenset(index[x] for x in entry["atoms"])
        return cls(mapping)

    @classmethod
    def load(cls, path: str, pair: PartialPair) -> "Environment":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_json(json.load(fh), pair)
            except RecursionError:
                raise ValueError("input nested too deeply") from None


EMPTY_ENV = Environment()


def interpret(t: LambdaTerm, p: PartialPair, env: Environment = EMPTY_ENV) -> frozenset[int]:
    """The meaning of t in the pair p under env, as a set of atoms."""
    for name, values in env.items():
        stray = values - p.atoms
        if stray:
            raise ValueError(f"environment for {name!r} uses atoms outside the carrier: {sorted(stray)}")

    keys_by_args: dict[frozenset[int], list[tuple[int, int]]] = {}
    for (a, alpha), v in p.coding.items():
        keys_by_args.setdefault(a, []).append((alpha, v))
    groups = tuple(keys_by_args.items())

    memo: dict[tuple, frozenset[int]] = {}
    meanings: list[frozenset[int]] = []  # of the subterms walked, in walk order
    # a frame's memo key is None until its subterms are pushed above it
    todo = [(t, dict(env.items()), None)]
    while todo:
        node, rho, key = todo.pop()
        if isinstance(node, Var):
            meanings.append(rho.get(node.name, frozenset()))
        elif key is None:
            key = (node, *map(rho.get, node.free))
            if key in memo:
                meanings.append(memo[key])
            elif isinstance(node, App):
                todo += [(node, rho, key), (node.fun, rho, None), (node.arg, rho, None)]
            else:  # the bodies pushed last first, so they are walked in groups' order
                todo.append((node, rho, key))
                todo += [(node.body, {**rho, node.binder: a}, None) for a, _ in reversed(groups)]
        else:
            if isinstance(node, App):
                fun_set, arg_set = meanings.pop(), meanings.pop()
                out = frozenset(alpha for (a, alpha), v in p.coding.items() if a <= arg_set and v in fun_set)
            else:
                start = len(meanings) - len(groups)
                bodies = zip(groups, meanings[start:])
                out = frozenset(v for (_, keys), body in bodies for alpha, v in keys if alpha in body)
                del meanings[start:]
            meanings.append(memo.setdefault(key, out))
    return meanings[0]


def omega_characterization(p: PartialPair) -> frozenset[int]:
    """Atoms res with a coded key (args, res) whose value falls back in args,
    for some args inside the meaning of the self-application combinator.

    Agrees with the direct interpretation of the self-application combinator
    applied to itself.
    """
    w = interpret(SELF_APPLY, p)
    return frozenset(
        alpha for (a, alpha), v in p.coding.items() if v in a and a <= w
    )
