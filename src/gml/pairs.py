"""Finite partial pairs: carriers with a partial injective coding.

A partial pair is a finite set of atoms (naturals) together with a partial
injective map from (finite atom set, atom) keys to atoms.  This module covers
validation, the subpair order, unions, morphisms, automorphism groups and
orbits.  The larger side of the subpair order and a morphism's target are
asked only membership and coding lookups, so either may be the prime-coded
pair of minmodel, whose carrier and coding are infinite.

DEFAULT_CEILING and CeilingExceeded are the one price limit, read where and
when each exhaustive operation of the package runs, and its one refusal: the
automorphism search here is priced at b!·b over b atoms before it starts.

Atoms are plain naturals; optional string labels are presentation metadata
and never take part in equality.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

CodingKey = tuple[frozenset[int], int]

DEFAULT_CEILING = 10**6


class CeilingExceeded(RuntimeError):
    """An exhaustive operation would exceed DEFAULT_CEILING."""


class PairConflictError(ValueError):
    """Union would break functionality or injectivity of the coding."""


def _key_sort(key: CodingKey) -> tuple:
    a, alpha = key
    return (tuple(sorted(a)), alpha)


class PartialPair:
    """Finite carrier plus partial injective coding.

    The constructor accepts arbitrary well-typed data; use validate() to
    check the pair invariants (violations are data, not construction faults).
    `inverse` maps each coded value back to its key (the first such key in
    coding order when the coding is not injective).  `derived` holds data
    that other modules derive from the pair, filled lazily on first use
    (the approximation evaluator keeps the validation report, its coding
    tables and the completion levels, in (rank, structure) and in sort_key
    order, there); the pair is immutable, so no
    entry goes stale.
    """

    __slots__ = ("atoms", "coding", "inverse", "labels", "derived", "_hash")

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
        inverse: dict[int, CodingKey] = {}
        for key, value in norm.items():
            inverse.setdefault(value, key)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "labels", dict(labels) if labels else {})
        object.__setattr__(self, "derived", {})
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
            try:
                return cls.from_json(json.load(fh))
            except RecursionError:
                raise ValueError("input nested too deeply") from None


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
    """Carrier inclusion with coding extension (written a <= b).  b is only
    asked membership and coding lookups, so it may be infinite."""
    if not all(x in b.atoms for x in a.atoms):
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
        """Totality plus the morphism law on every coded key.  The target is
        only asked membership and coding lookups, so it may be infinite."""
        if set(self.mapping) != self.source.atoms:
            return False
        if not all(y in self.target.atoms for y in self.mapping.values()):
            return False
        return all(
            a | {alpha, v} <= self.source.atoms  # a stray atom has no image
            and self.target.coding.get((self.apply_set(a), self.mapping[alpha])) == self.mapping[v]
            for (a, alpha), v in self.source.coding.items()
        )

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


def automorphisms(p: PartialPair) -> list[Morphism]:
    """All coding-preserving bijections of the carrier, identity included,
    in itertools.permutations order over the sorted carrier.

    check() alone decides each permutation: a bijection that sends every
    coded key to a coded key permutes the finite coding, so its inverse is a
    morphism too.  The b! permutations of b atoms cost about b each, and
    b!·b is refused above the ceiling (b <= 8 passes).
    """
    atoms = sorted(p.atoms)
    b = len(atoms)
    # b! is reached through its running products, so a large carrier is
    # refused without computing its factorial
    if any(f * b > DEFAULT_CEILING for f in itertools.accumulate(range(1, b + 1), operator.mul)):
        raise CeilingExceeded(f"automorphisms of {b} atoms take {b}!·{b} checks, ceiling is {DEFAULT_CEILING}")
    candidates = (Morphism(p, p, dict(zip(atoms, image))) for image in itertools.permutations(atoms))
    return [m for m in candidates if m.check()]


def orbits(p: PartialPair) -> list[frozenset[int]]:
    """Orbit partition of the carrier under the automorphism group."""
    auts = automorphisms(p)
    seen: set[int] = set()
    parts: list[frozenset[int]] = []
    for x in sorted(p.atoms):
        if x in seen:
            continue
        orbit = frozenset({x, *(m.mapping[x] for m in auts)})  # x even when no permutation is a morphism
        seen |= orbit
        parts.append(orbit)
    return parts
