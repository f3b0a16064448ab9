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
interpreted as-is, never normalized first.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from .pairs import PartialPair
from .terms import App, LambdaTerm, SELF_APPLY, Var, free_vars


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

    def restrict(self, names: Iterable[str]) -> "Environment":
        names = set(names)
        return Environment({n: v for n, v in self._map.items() if n in names})

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
            return cls.from_json(json.load(fh), pair)


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

    memo: dict[tuple[int, Environment], frozenset[int]] = {}
    fv_cache: dict[int, frozenset[str]] = {}

    def fv(node: LambdaTerm) -> frozenset[str]:
        got = fv_cache.get(id(node))
        if got is None:
            got = free_vars(node)
            fv_cache[id(node)] = got
        return got

    def go(node: LambdaTerm, env: Environment) -> frozenset[int]:
        if isinstance(node, Var):
            return env.get(node.name)
        key = (id(node), env.restrict(fv(node)))
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(node, App):
            arg_set = go(node.arg, env)
            fun_set = go(node.fun, env)
            out = frozenset(
                alpha
                for (a, alpha), v in p.coding.items()
                if a <= arg_set and v in fun_set
            )
        else:
            collected = []
            for a, entries in keys_by_args.items():
                body_set = go(node.body, env.bind(node.binder, a))
                collected.extend(v for alpha, v in entries if alpha in body_set)
            out = frozenset(collected)
        memo[key] = out
        return out

    return go(t, env)


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
