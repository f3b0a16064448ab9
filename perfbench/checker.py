"""Answer checker: decides whether one CLI answer is right.

Three kinds of check, each counted by name in the report:

* ``bytes``: for the default seed, stdout and exit code must match the
  committed expected answers (``expected/<workload>.txt``);
* ``certificate``: every ``fails_with_evidence`` verdict and every found
  ``witness`` is re-derived by the finite interpreter in ``reference``: the
  witness atom must lie in the left side's meaning over the printed subpair,
  and for pairs given as input the subpair must be part of the completion;
* ``numeration``: relocated components sit on powers of the right prime,
  round-trip through ``encode_pair``, ``element_code``/``element_decode``
  and have pairwise disjoint carriers; ``enum-terms`` lists exactly the
  first closed terms of the reference codec, and their codes round-trip
  through ``godel_encode``/``godel_decode``.

Library round trips call `gml` through module attributes, so a traced run
sees them.
"""

from __future__ import annotations

import hashlib
import json

import reference

ALLOWED_EXITS = {
    "check": {0, 1},
    "witness": {0, 1},
    "member": {0, 1},
    "search": {0, 1},
    "pair": {0},
    "enum": {0},
}


def stdout_digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:8]


def stream_digest(queries) -> str:
    return hashlib.sha256("\n".join(q.digest() for q in queries).encode()).hexdigest()[:16]


def write_expected(path, workload: str, seed: int, queries, answers) -> None:
    """One line per query: exit code and a digest of stdout."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {workload} seed {seed} stream {stream_digest(queries)}: exit code, sha256(stdout)[:8]\n")
        for code, stdout in answers:
            fh.write(f"{code} {stdout_digest(stdout)}\n")


def load_expected(path, queries) -> list[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if header[5] != stream_digest(queries) + ":":
            raise StaleExpected(f"{path} was recorded for another query stream")
        return [(int(code), digest) for code, digest in (line.split() for line in fh)]


class StaleExpected(RuntimeError):
    """The committed expected answers belong to another query stream."""


class Checker:
    def __init__(self, gml, expected: list | None):
        self.gml = gml
        self.expected = expected
        self.counts: dict[str, int] = {}
        self.carrier_owner: dict[int, int] = {}
        self.primes: list[int] = []
        self.closed: list[int] = []
        self._closed_source = reference.closed_codes()

    def _ran(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def check(self, i: int, q, code: int, stdout: str) -> list[str]:
        """Problems with the answer to query i (empty when it is right)."""
        problems = []
        if self.expected is not None and i < len(self.expected):
            self._ran("bytes")
            want_code, want = self.expected[i]
            if (code, stdout_digest(stdout)) != (want_code, want):
                problems.append(f"output differs from the recorded answer (exit {code}, want {want_code})")
        self._ran("exit")
        if code not in ALLOWED_EXITS[q.kind]:
            problems.append(f"unexpected exit code {code}")
            return problems
        if not stdout:
            return problems
        doc = json.loads(stdout)
        if q.kind == "check":
            verdicts = [doc] if q.info["op"] == "<=" else [doc["forward"], doc["backward"]]
            for v in verdicts:
                if v["kind"] == "fails_with_evidence":
                    problems += self._certificate(v, q.pair, sides=(q.info["lhs"], q.info["rhs"]))
        elif q.kind == "search":
            if doc["found"]:
                problems += self._certificate(doc["verdict"], None, sides=(q.info["lhs"], q.info["rhs"]))
        elif q.kind == "witness":
            if doc["found"]:
                problems += self._witness(doc, q)
        elif q.kind == "pair":
            problems += self._component(q.info["index"], doc)
        elif q.kind == "enum":
            problems += self._enum(q.info["limit"], doc)
        return problems

    # -- certificates ----------------------------------------------------------

    def _certificate(self, verdict: dict, pair: dict | None, sides) -> list[str]:
        self._ran("certificate")
        lhs_text = verdict["inequation"]["lhs"]
        lhs = reference.parse_term(lhs_text)
        claimed = {reference.nameless(reference.parse_term(s)) for s in sides}
        if reference.nameless(lhs) not in claimed:
            return [f"verdict is about {lhs_text!r}, not a side of the claim"]
        sub = verdict["witness_subpair"]
        problems = reference.pair_problems(sub)
        atoms, coding = reference.pair_entries(sub)
        if verdict["witness"] not in atoms:
            problems.append("witness is not an atom of its subpair")
        elif verdict["witness"] not in reference.interpret(lhs, coding):
            problems.append(f"witness {verdict['witness']} not derivable from {lhs_text!r} over its subpair")
        if pair is not None and not problems:
            problems += self._inside_completion(sub, pair, verdict["witness"], verdict["member_rank"])
        return problems

    def _witness(self, doc: dict, q) -> list[str]:
        self._ran("certificate")
        sub = doc["witness_subpair"]
        problems = reference.pair_problems(sub)
        atoms, coding = reference.pair_entries(sub)
        element = q.info["element"]
        if element not in atoms:
            problems.append("queried element is not an atom of the witness subpair")
        elif element not in reference.interpret(reference.parse_term(q.info["term"]), coding):
            problems.append(f"{element} not derivable from {q.info['term']!r} over the witness subpair")
        if not problems:
            problems += self._inside_completion(sub, q.pair, element, doc["rank"])
        return problems

    def _inside_completion(self, sub: dict, pair: dict, witness: str, rank: int) -> list[str]:
        """Each subpair atom names a completion element of rank <= rank, and
        each subpair entry agrees with the completion's coding."""
        index = {name: i for i, name in enumerate(pair["atoms"])}
        coded = {
            (frozenset(index[x] for x in e["args"]), index[e["res"]]): index[e["val"]]
            for e in pair["coding"]
        }
        keys = {}
        for name in sub["atoms"]:
            key = reference.element_key(name, index)
            if reference.element_text(key, pair["atoms"]) != name:
                return [f"subpair atom {name!r} is not in canonical element syntax"]
            if reference.element_rank(key) > rank:
                return [f"subpair atom {name!r} is above rank {rank}"]
            keys[name] = key
        if reference.element_rank(keys[witness]) > rank:
            return [f"witness above its member rank {rank}"]
        for entry in sub["coding"]:
            args = frozenset(keys[x] for x in entry["args"])
            if reference.completion_code(args, keys[entry["res"]], coded) != keys[entry["val"]]:
                return [f"subpair entry {entry} disagrees with the completion's coding"]
        return []

    # -- numeration ------------------------------------------------------------

    def _component(self, k: int, doc: dict) -> list[str]:
        self._ran("numeration")
        gml = self.gml
        problems = reference.pair_problems(doc)
        atoms = [int(a) for a in doc["atoms"]]
        if k == 0:
            return problems + (["component 0 must be the empty pair"] if atoms else [])
        if len(self.primes) < k:
            self.primes = reference.first_primes(max(k, 2 * len(self.primes)))
        p = self.primes[k - 1]
        exponent = {}
        for n in atoms:
            e, rest = 0, n
            while rest % p == 0:
                rest //= p
                e += 1
            if rest != 1 or e == 0:
                return problems + [f"atom {n} is not a power of the {k}-th prime {p}"]
            exponent[n] = e - 1
            owner = self.carrier_owner.setdefault(n, k)
            if owner != k:
                problems.append(f"atom {n} lies in the carriers of components {owner} and {k}")
        coding = {
            (frozenset(exponent[int(x)] for x in e["args"]), exponent[int(e["res"])]): exponent[int(e["val"])]
            for e in doc["coding"]
        }
        source = gml.pairs.PartialPair(exponent.values(), coding)
        if gml.minmodel.encode_pair(source) != k:
            problems.append(f"component {k} does not encode back to {k}")
        for n in atoms[:2]:
            atom = gml.minmodel.AtomCode(n)
            if gml.minmodel.element_decode(gml.minmodel.element_code(atom)) != atom:
                problems.append(f"element code of atom {n} does not round-trip")
            if n < 10**4:
                pair = gml.minmodel.PairCode(frozenset({atom}), atom)
                if gml.minmodel.element_decode(gml.minmodel.element_code(pair)) != pair:
                    problems.append(f"element code of ({{{n}}},{n}) does not round-trip")
        return problems

    def _enum(self, limit: int, doc: dict) -> list[str]:
        self._ran("numeration")
        terms = self.gml.terms
        listed = doc["terms"]
        while len(self.closed) < limit:
            self.closed.append(next(self._closed_source))
        if len(listed) != limit:
            return [f"enum-terms {limit} listed {len(listed)} terms"]
        for code, text in zip(self.closed, listed):
            if reference.encode(reference.nameless(reference.parse_term(text))) != code:
                return [f"{text!r} is not closed term number {code}"]
        last = self.closed[limit - 1]
        if terms.godel_encode(terms.godel_decode(last)) != last:
            return [f"code {last} does not round-trip through the codec"]
        if terms.godel_encode(terms.parse(listed[-1])) != last:
            return [f"{listed[-1]!r} does not encode to {last}"]
        return []
