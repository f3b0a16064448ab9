"""Finite partial pairs: carriers with a partial injective coding.

A partial pair is a finite set of atoms (naturals) together with a partial
injective map from (finite atom set, atom) keys to atoms.  This module covers
validation, the subpair order, unions, morphisms, automorphism groups and
orbits, and closure-generated subpairs driven by an external coding handle.

Atoms are plain naturals; optional string labels are presentation metadata
and never take part in equality.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

CodingKey = tuple[frozenset[int], int]

DEFAULT_AUTOMORPHISM_BOUND = 8


class PairConflictError(ValueError):
    """Union would break functionality or injectivity of the coding."""


class SizeBoundExceeded(ValueError):
    """Carrier too large for an exhaustive operation."""


def _key_sort(key: CodingKey) -> tuple:
    a, alpha = key
    return (tuple(sorted(a)), alpha)


class PartialPair:
    """Finite carrier plus partial injective coding.

    The constructor accepts arbitrary well-typed data; use validate() to
    check the pair invariants (violations are data, not construction faults).
    """

    __slots__ = ("atoms", "coding", "labels", "_hash")

    def __init__(
        self,
        atoms: Iterable[int],
        coding: Mapping[CodingKey, int] | Iterable[tuple[tuple[Iterable[int], int], int]] = (),
        labels: Mapping[int, str] | None = None,
    ):
        object.__setattr__(self, "atoms", frozenset(int(a) for a in atoms))
        items = coding.items() if isinstance(coding, Mapping) else coding
        norm: dict[CodingKey, int] = {}
        for (args, alpha), value in items:
            norm[(frozenset(int(x) for x in args), int(alpha))] = int(value)
        object.__setattr__(self, "coding", norm)
        object.__setattr__(self, "labels", dict(labels) if labels else {})
        object.__setattr__(self, "_hash", hash((self.atoms, frozenset(norm.items()))))

    def __setattr__(self, name, value):
        raise AttributeError("PartialPair is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialPair):
            return NotImplemented
        return self.atoms == other.atoms and self.coding == other.coding

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        entries = ", ".join(
            f"({{{','.join(map(str, sorted(a)))}}},{alpha})->{v}"
            for (a, alpha), v in sorted(self.coding.items(), key=lambda kv: _key_sort(kv[0]))
        )
        return f"PartialPair(atoms={sorted(self.atoms)}, coding=[{entries}])"

    def label(self, atom: int) -> str:
        return self.labels.get(atom, str(atom))

    def sorted_keys(self) -> list[CodingKey]:
        return sorted(self.coding, key=_key_sort)

    # -- file format -------------------------------------------------------

    def to_json(self) -> dict:
        order = sorted(self.atoms)
        return {
            "atoms": [self.label(a) for a in order],
            "coding": [
                {
                    "args": [self.label(x) for x in sorted(a)],
                    "res": self.label(alpha),
                    "val": self.label(v),
                }
                for (a, alpha), v in sorted(self.coding.items(), key=lambda kv: _key_sort(kv[0]))
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PartialPair":
        if not isinstance(doc, dict) or set(doc) - {"atoms", "coding"}:
            unknown = set(doc) - {"atoms", "coding"} if isinstance(doc, dict) else None
            raise ValueError(f"malformed pair document (unknown fields: {sorted(unknown or ())})")
        names = doc.get("atoms", [])
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ValueError("pair atoms must be a list of string labels")
        if len(set(names)) != len(names):
            raise ValueError("duplicate atom labels")
        index = {name: i for i, name in enumerate(names)}

        def resolve(name: str) -> int:
            if not isinstance(name, str) or name not in index:
                raise ValueError(f"unknown atom label {name!r}")
            return index[name]

        entries = doc.get("coding", [])
        if not isinstance(entries, list):
            raise ValueError("pair coding must be a list of entries")
        coding = {}
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError(f"coding entries are objects, got {entry!r}")
            if set(entry) != {"args", "res", "val"}:
                raise ValueError(
                    "coding entries carry exactly the fields args/res/val, "
                    f"got {sorted(entry)}"
                )
            if not isinstance(entry["args"], list):
                raise ValueError("coding args must be a list of atom labels")
            args = [resolve(x) for x in entry["args"]]
            if len(set(args)) != len(args):
                raise ValueError("duplicate atoms in coding args")
            key = (frozenset(args), resolve(entry["res"]))
            if key in coding:
                raise ValueError("duplicate coding key")
            coding[key] = resolve(entry["val"])
        return cls(range(len(names)), coding, labels={i: n for n, i in index.items()})

    @classmethod
    def load(cls, path: str) -> "PartialPair":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True, slots=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def validate(p: PartialPair) -> ValidationReport:
    """Check coding injectivity and closure of keys/values in the carrier."""
    violations = []
    for (a, alpha), v in sorted(p.coding.items(), key=lambda kv: _key_sort(kv[0])):
        stray = sorted((a | {alpha, v}) - p.atoms)
        if stray:
            violations.append(
                f"coding entry ({{{','.join(map(str, sorted(a)))}}},{alpha})->{v} "
                f"uses atoms outside the carrier: {stray}"
            )
    by_value: dict[int, list[CodingKey]] = {}
    for key in p.sorted_keys():
        by_value.setdefault(p.coding[key], []).append(key)
    for value, keys in sorted(by_value.items()):
        for k1, k2 in zip(keys, keys[1:]):
            violations.append(
                f"injectivity violated: keys ({{{','.join(map(str, sorted(k1[0])))}}},{k1[1]}) "
                f"and ({{{','.join(map(str, sorted(k2[0])))}}},{k2[1]}) share value {value}"
            )
    return ValidationReport(not violations, tuple(violations))


def is_subpair(a: PartialPair, b: PartialPair) -> bool:
    """Carrier inclusion with coding extension (written a <= b)."""
    if not a.atoms <= b.atoms:
        return False
    return all(b.coding.get(key) == v for key, v in a.coding.items())


def union(a: PartialPair, b: PartialPair) -> PartialPair:
    """Least upper bound in the subpair order, when it exists."""
    coding = dict(a.coding)
    for key, v in b.coding.items():
        if key in coding and coding[key] != v:
            raise PairConflictError(
                f"codings disagree on key ({{{','.join(map(str, sorted(key[0])))}}},{key[1]}): "
                f"{coding[key]} vs {v}"
            )
        coding[key] = v
    merged = PartialPair(a.atoms | b.atoms, coding, labels={**b.labels, **a.labels})
    report = validate(merged)
    if not report.ok:
        raise PairConflictError("; ".join(report.violations))
    return merged


# ---------------------------------------------------------------------------
# Morphisms, automorphisms, orbits


@dataclass(frozen=True)
class Morphism:
    """Carrier map commuting with the codings."""

    source: PartialPair
    target: PartialPair
    mapping: Mapping[int, int]

    def __call__(self, atom: int) -> int:
        return self.mapping[atom]

    def apply_set(self, atoms: Iterable[int]) -> frozenset[int]:
        return frozenset(self.mapping[x] for x in atoms)

    def check(self) -> bool:
        """Totality plus the morphism law on every coded key."""
        if set(self.mapping) != self.source.atoms:
            return False
        if not set(self.mapping.values()) <= self.target.atoms:
            return False
        for (a, alpha), v in self.source.coding.items():
            key = (self.apply_set(a), self.mapping[alpha])
            if self.target.coding.get(key) != self.mapping[v]:
                return False
        return True

    def is_isomorphism(self) -> bool:
        if len(set(self.mapping.values())) != len(self.mapping):
            return False
        if not self.check():
            return False
        return self.inverse().check()

    def inverse(self) -> "Morphism":
        return Morphism(self.target, self.source, {v: k for k, v in self.mapping.items()})

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other."""
        return Morphism(other.source, self.target, {x: self.mapping[y] for x, y in other.mapping.items()})


def automorphisms(p: PartialPair, max_atoms: int = DEFAULT_AUTOMORPHISM_BOUND) -> list[Morphism]:
    """All coding-preserving bijections of the carrier, identity included.

    Backtracking over partial bijections; each extension is pruned against
    every coded triple whose atoms are all assigned.
    """
    if len(p.atoms) > max_atoms:
        raise SizeBoundExceeded(f"carrier has {len(p.atoms)} atoms, bound is {max_atoms}")
    atoms = sorted(p.atoms)
    found: list[Morphism] = []

    def consistent(partial: dict[int, int]) -> bool:
        assigned = set(partial)
        for (a, alpha), v in p.coding.items():
            touched = a | {alpha, v}
            if touched <= assigned:
                key = (frozenset(partial[x] for x in a), partial[alpha])
                if p.coding.get(key) != partial[v]:
                    return False
        return True

    def extend(i: int, partial: dict[int, int], used: set[int]) -> None:
        if i == len(atoms):
            m = Morphism(p, p, dict(partial))
            if m.is_isomorphism():
                found.append(m)
            return
        x = atoms[i]
        for y in atoms:
            if y in used:
                continue
            partial[x] = y
            used.add(y)
            if consistent(partial):
                extend(i + 1, partial, used)
            del partial[x]
            used.discard(y)

    extend(0, {}, set())
    return found


def orbits(p: PartialPair, max_atoms: int = DEFAULT_AUTOMORPHISM_BOUND) -> list[frozenset[int]]:
    """Orbit partition of the carrier under the automorphism group."""
    auts = automorphisms(p, max_atoms)
    seen: set[int] = set()
    parts: list[frozenset[int]] = []
    for x in sorted(p.atoms):
        if x in seen:
            continue
        orbit = frozenset(m.mapping[x] for m in auts)
        seen |= orbit
        parts.append(orbit)
    return parts


# ---------------------------------------------------------------------------
# Closure-generated subpairs
#
# A coding handle exposes a (possibly partial) injective coding on some
# element universe: code(args, res) returns an element or None when the key
# is undefined.  Handles over total codings (completions, the prime-coded
# minimal model) never return None, so closures under them keep growing and
# the round budget cuts the run off.


class PairCoding:
    """Handle view of a finite partial pair's own coding (elements = atoms)."""

    def __init__(self, pair: PartialPair):
        self.pair = pair

    def atom(self, x: int) -> int:
        if x not in self.pair.atoms:
            raise ValueError(f"atom {x} outside carrier")
        return x

    def code(self, args: frozenset, res):
        return self.pair.coding.get((frozenset(args), res))

    def preimage(self, value):
        for key, v in self.pair.coding.items():
            if v == value:
                return key
        return None


_CLOSURE_KEY_CEILING = 10**6


def _check_closure_size(current: set) -> None:
    n = len(current)
    if n and (2**n) * n > _CLOSURE_KEY_CEILING:
        raise SizeBoundExceeded(
            f"closure stage has {n} elements; {2**n * n} keys exceed the {_CLOSURE_KEY_CEILING} ceiling"
        )


@dataclass(frozen=True)
class ClosureResult:
    pair: PartialPair
    saturated: bool
    elements: tuple


def generate_subgraphmodel(
    coding: object,
    seed: Iterable,
    budget: int,
    sort_key: Callable | None = None,
) -> ClosureResult:
    """Close `seed` under the handle's coding, for at most `budget` rounds.

    Returns the induced pair over the closure: elements are relabeled to
    naturals in a canonical order and the coding keeps exactly the keys whose
    value landed inside the closure.  `saturated` reports whether a fixed
    point was reached before the budget ran out.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    key = sort_key or (lambda e: e)
    current = set(seed)
    saturated = not current
    for _ in range(budget):
        _check_closure_size(current)
        added = set()
        members = sorted(current, key=key)
        for n in range(len(members) + 1):
            for args in itertools.combinations(members, n):
                for res in members:
                    value = coding.code(frozenset(args), res)
                    if value is not None and value not in current:
                        added.add(value)
        if not added:
            saturated = True
            break
        current |= added
    elements = tuple(sorted(current, key=key))
    index = {e: i for i, e in enumerate(elements)}
    entries = {}
    if hasattr(coding, "preimage"):
        # injective coding: recover the unique key of each closure member
        for value in elements:
            found = coding.preimage(value)
            if found is None:
                continue
            args, res = found
            if res in index and all(a in index for a in args):
                entries[(frozenset(index[a] for a in args), index[res])] = index[value]
    else:
        _check_closure_size(current)
        for n in range(len(elements) + 1):
            for args in itertools.combinations(elements, n):
                for res in elements:
                    value = coding.code(frozenset(args), res)
                    if value is not None and value in index:
                        entries[(frozenset(index[a] for a in args), index[res])] = index[value]
    pair = PartialPair(
        range(len(elements)),
        entries,
        labels={i: str(e) for i, e in enumerate(elements)},
    )
    return ClosureResult(pair, saturated, elements)
