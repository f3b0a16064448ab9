"""Seeded query streams for the four workloads.

A stream is a list of blocks.  Every block has the same fixed composition of
strata (cost classes), and the seed picks the content of each query and the
order inside the block.  Stratifying keeps the latency percentiles of one
run comparable with those of a run on another seed, while the seed still
decides every pair, claim, element and index the program sees.

Nothing here imports `gml`: terms come from the benchmark's own codec, in
code order, so the inputs do not depend on the program under test.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field

import reference

DEFAULT_SEED = 1
LABELS = ("a", "b", "c", "u", "v", "w", "p", "q")


@dataclass
class Query:
    kind: str  # check | witness | member | search | pair | enum
    stratum: str
    argv: list  # "{pair}" stands for the path of the query's pair file
    pair: dict | None = None
    info: dict = field(default_factory=dict)

    def digest(self) -> str:
        doc = json.dumps([self.argv, self.pair], sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode()).hexdigest()[:12]


def term_pool(max_size: int, max_nesting: int, among: int) -> list[str]:
    """Those of the first `among` closed terms (in code order) that are
    within the size and binder-nesting bounds."""
    trees = (reference.decode(c) for _, c in zip(range(among), reference.closed_codes()))
    return [
        reference.show(nt)
        for nt in trees
        if reference.size(nt) <= max_size and reference.nesting(nt) <= max_nesting
    ]


_KEYS = {
    n: [(args, res) for k in range(n + 1) for args in itertools.combinations(range(n), k) for res in range(n)]
    for n in (1, 2, 3)
}


def random_pair(rng: random.Random, n: int, m: int) -> dict:
    """A pair document with n atoms and m coded keys (injective, in carrier)."""
    labels = rng.sample(LABELS, n)
    chosen = rng.sample(_KEYS[n], m)
    values = rng.sample(range(n), m)
    return {
        "atoms": labels,
        "coding": [
            {"args": [labels[x] for x in args], "res": labels[res], "val": labels[v]}
            for (args, res), v in zip(chosen, values)
        ],
    }


def random_element(rng: random.Random, pair: dict, rank: int) -> str:
    """Canonical text of a valid completion element of exactly this rank
    (no sub-element is a coded key, so the text parses back unchanged)."""
    labels = pair["atoms"]
    index = {name: i for i, name in enumerate(labels)}
    coded = {
        (frozenset(index[x] for x in e["args"]), index[e["res"]]) for e in pair["coding"]
    }

    def build(r: int) -> tuple:
        if r == 0:
            return (0, rng.randrange(len(labels)))
        while True:
            parts = [build(r - 1)] + [build(rng.randrange(r)) for _ in range(rng.randrange(3))]
            rng.shuffle(parts)
            res, args = parts[0], frozenset(parts[1:])
            if r == 1 and (frozenset(a[1] for a in args), res[1]) in coded:
                continue
            return (1, tuple(sorted(args)), res)

    return reference.element_text(build(rank), labels)


# ---------------------------------------------------------------------------
# Workloads.  Each maker returns the queries of one block.


def _check(stratum, pair, lhs, rhs, op) -> Query:
    argv = ["--json", "check", "--pair", "{pair}", "--kM", "2", "--kN", "4", f"{lhs} {op} {rhs}"]
    return Query("check", stratum, argv, pair, {"lhs": lhs, "rhs": rhs, "op": op})


def _witness(stratum, pair, term, element, rank) -> Query:
    argv = ["--json", "witness", "--pair", "{pair}", "--rank", str(rank), term, element]
    return Query("witness", stratum, argv, pair, {"term": term, "element": element})


_SMALL = term_pool(6, 3, 60)
_FLAT = term_pool(6, 1, 60)


def certify_block(rng: random.Random, pools: dict) -> list[Query]:
    # Pair files come from pools drawn once per stream; `gml` compares pairs
    # without their labels, so fresh labels would not make caches colder.
    if not pools:
        pools.update({
            "atoms1": [random_pair(rng, 1, rng.randint(0, 1)) for _ in range(24)],
            "atoms2": [random_pair(rng, 2, 2) for _ in range(48)],
            "free2": [random_pair(rng, 2, 0) for _ in range(8)],
            "sparse2": [random_pair(rng, 2, 1) for _ in range(16)],
            "witness2": [random_pair(rng, 2, rng.randint(0, 2)) for _ in range(24)],
            "atoms3": [random_pair(rng, 3, rng.randint(0, 3)) for _ in range(24)],
            "blocks": 0,
        })
    pools["blocks"] += 1
    # 3-atom pairs: the left side is an abstraction, whose rank-2 level is
    # refused today (2^27 keys against a 10^6 ceiling).
    abstractions = [t for t in _SMALL if t.startswith("\\")]
    out = [
        _check("atoms3", rng.choice(pools["atoms3"]), rng.choice(abstractions), rng.choice(_SMALL), "<=")
        for _ in range(2)
    ]
    # 2-atom pair with at most one coded key: rank-2 certificates restrict to
    # 10,242 (free pair, every other block) or 4,609 elements; the slowest
    # answers, and the largest memory.
    # Its left side is flat (one binder deep): on two atoms a deeper left
    # side can take minutes to certify.
    pair = rng.choice(pools["free2" if pools["blocks"] % 2 else "sparse2"])
    if rng.random() < 0.7:
        out.append(_check("atoms2-sparse", pair, rng.choice(_FLAT), rng.choice(_SMALL), "<="))
    else:
        out.append(_check("atoms2-sparse", pair, rng.choice(_FLAT), rng.choice(_FLAT), "="))
    # Equations on 2-atom pairs with two coded keys: certificates over ~2,000
    # elements.  15% of the stream, just below the 3.75% above, so the 90th
    # percentile falls near the middle of this stratum.  (An inequation here
    # is either cheap or certified: its cost is bimodal.)
    out += [
        _check("atoms2", rng.choice(pools["atoms2"]), rng.choice(_FLAT), rng.choice(_FLAT), "=")
        for _ in range(12)
    ]
    # 1-atom checks and witnesses, and 2-atom witnesses below rank 2.
    for _ in range(65):
        if rng.random() < 0.7:
            pair = rng.choice(pools["atoms1"])
            if rng.random() < 0.6:
                out.append(_check("atoms1", pair, rng.choice(_SMALL), rng.choice(_SMALL), rng.choice(("<=", "="))))
            else:
                out.append(_witness("atoms1", pair, rng.choice(_SMALL), random_element(rng, pair, rng.randint(0, 2)), 2))
        else:
            pair = rng.choice(pools["witness2"])
            out.append(_witness("atoms2-witness", pair, rng.choice(_SMALL), random_element(rng, pair, rng.randint(0, 1)), 2))
    return out


def member_block(rng: random.Random, pairs: dict) -> list[Query]:
    # 32 pairs per carrier size, drawn once per stream: users query the same
    # pair files again and again, and it keeps set-up to a few hundred files.
    if not pairs:
        pairs.update({n: [random_pair(rng, n, rng.randint(0, n)) for _ in range(32)] for n in (1, 2, 3)})
    out = []
    for n in (1, 1, 2, 2, 3, 3):
        for _ in range(2):
            pair = rng.choice(pairs[n])
            rank = rng.choice((2, 3))
            elem = random_element(rng, pair, rng.randint(0, 3))
            term = rng.choice(_SMALL)
            argv = ["--json", "member", "--pair", "{pair}", "--rank", str(rank), term, elem]
            out.append(Query("member", f"atoms{n}", argv, pair, {"term": term, "element": elem}))
    return out


# Claims `_SMALL[i] <= _SMALL[j]` that the search does not refute within
# components 0..3, measured once over all ordered pairs of `_SMALL` with
# --max-index 14; every other ordered pair of distinct terms is refuted at
# component 1, 2 or 3.
_NOT_EARLY = {
    (0, 4), (0, 5), (0, 12), (1, 10), (1, 11), (1, 14), (1, 18), (2, 13), (3, 15), (4, 0),
    (4, 5), (4, 12), (5, 0), (5, 4), (5, 12), (6, 1), (6, 10), (6, 11), (6, 14), (6, 16),
    (6, 17), (6, 18), (7, 2), (7, 13), (7, 19), (9, 0), (9, 2), (9, 4), (9, 5), (9, 7),
    (9, 8), (9, 12), (9, 13), (9, 19), (9, 20), (9, 21), (9, 23), (10, 1), (10, 11), (10, 14),
    (10, 18), (11, 1), (11, 10), (11, 14), (11, 18), (12, 0), (12, 4), (12, 5), (13, 2), (14, 1),
    (14, 3), (14, 6), (14, 10), (14, 11), (14, 15), (14, 16), (14, 17), (14, 18), (15, 3), (16, 1),
    (16, 6), (16, 10), (16, 11), (16, 14), (16, 17), (16, 18), (17, 1), (17, 6), (17, 10), (17, 11),
    (17, 14), (17, 16), (17, 18), (18, 1), (18, 10), (18, 11), (18, 14), (19, 2), (19, 7), (19, 13),
    (20, 8), (20, 23), (22, 1), (22, 6), (22, 10), (22, 11), (22, 14), (22, 16), (22, 17), (22, 18),
}
_EARLY = [
    (i, j) for i in range(len(_SMALL)) for j in range(len(_SMALL)) if i != j and (i, j) not in _NOT_EARLY
]
# Refuted at component 13 in 0.14-0.19 s (same left side, five right sides).
_AT_13 = [(14, j) for j in (3, 6, 15, 16, 17)]
# Refuted at components 8 to 12 in 0.45-0.9 s: (i, j, component).
_AT_8_TO_12 = [
    (6, 1, 9), (6, 10, 9), (6, 11, 9), (6, 14, 9), (6, 17, 9), (6, 18, 9), (7, 2, 12), (7, 13, 12),
    (9, 0, 8), (9, 4, 8), (9, 5, 8), (9, 7, 8), (9, 8, 8), (9, 12, 8), (9, 13, 8), (9, 19, 8),
    (9, 20, 8), (9, 21, 8), (9, 23, 8), (16, 1, 9), (16, 10, 9), (16, 11, 9), (16, 14, 9),
    (16, 17, 9), (16, 18, 9), (19, 2, 12), (19, 13, 12),
]
FIRST_3_ATOM_COMPONENT = 229


def _search(stratum, lhs, rhs, op, max_index) -> Query:
    argv = ["--json", "minmodel", "search", "--max-index", str(max_index), f"{lhs} {op} {rhs}"]
    return Query("search", stratum, argv, None, {"lhs": lhs, "rhs": rhs, "op": op})


def search_block(rng: random.Random, shared: dict) -> list[Query]:
    # One claim that holds, over a range reaching the 3-atom components,
    # which are all skipped today: a refused answer (~6 s).
    out = [_search("past-229", "\\x0.x0", "\\x0.x0", "<=", FIRST_3_ATOM_COMPONENT + rng.randrange(4))]
    # Claims refuted at components 8 to 12.
    for _ in range(3):
        i, j, component = rng.choice(_AT_8_TO_12)
        out.append(_search("refuted-8-12", _SMALL[i], _SMALL[j], "<=", rng.randint(component, 60)))
    # Claims refuted at component 13: 20% of the stream, below the 1.3%
    # above, so the 90th percentile falls near the middle of this stratum.
    for _ in range(60):
        i, j = rng.choice(_AT_13)
        out.append(_search("refuted-13", _SMALL[i], _SMALL[j], "<=", rng.randint(13, 60)))
    # Claims that hold, over short ranges: every component is checked.
    for _ in range(18):
        m = rng.choice(_FLAT)
        if rng.random() < 0.5:
            out.append(_search("holds", m, m, "<=", rng.randint(2, 8)))
        else:
            out.append(_search("holds", m, f"(\\x0.x0) ({m})", "=", rng.randint(2, 8)))
    # Claims refuted at components 1 to 3, over any range.
    for _ in range(218):
        i, j = rng.choice(_EARLY)
        out.append(_search("refuted-early", _SMALL[i], _SMALL[j], "<=", rng.randint(3, 300)))
    return out


def numeration_block(rng: random.Random, shared: dict) -> list[Query]:
    # Indices log-uniform up to ~12,600: carriers of up to 3 atoms.  Relocating
    # component K sieves K primes in quadratic time, so the first 4-atom
    # component (55,943) would take about a minute.
    out = []
    for _ in range(3):
        k = int(round(10 ** rng.uniform(0, 4.1)))
        out.append(Query("pair", "pair", ["--json", "minmodel", "pair", str(k)], None, {"index": k}))
    # Term listings cost in proportion to N: 70% of the stream, so both
    # percentiles fall inside this broad stratum.
    for _ in range(7):
        n = rng.randint(20, 400)
        out.append(Query("enum", "enum", ["--json", "enum-terms", str(n)], None, {"limit": n}))
    return out


WORKLOADS = {
    "certify": (certify_block, 2400),
    "member": (member_block, 14000),
    "search": (search_block, 1500),
    "numeration": (numeration_block, 6000),
}


def generate(workload: str, seed: int) -> list[Query]:
    """The query stream of a workload, up to the workload's cap (sized well
    above what one run issues)."""
    make, cap = WORKLOADS[workload]
    out: list[Query] = []
    shared: dict = {}  # state a workload keeps across the blocks of one stream
    for block in itertools.count():
        rng = random.Random(f"{workload}:{seed}:{block}")
        queries = make(rng, shared)
        rng.shuffle(queries)
        out.extend(queries)
        if len(out) >= cap:
            return out[:cap]
    raise AssertionError("unreachable")
