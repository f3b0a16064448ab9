"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import itertools
from random import Random

from gml.approximation import Evaluator, approx_interpret, check_equation, extract_witness_subpair, member
from gml.completion import (
    CeilingExceeded,
    elements_up_to,
    lift_morphism,
    restrict,
)
from gml.minmodel import (
    encode_pair,
    enumerate_pair,
    relocate,
    relocation_morphism,
    restriction_property_check,
    search_counterexample,
)
from gml.pairs import PartialPair, automorphisms, is_subpair, validate
from gml.semantics import Environment, interpret, omega_characterization
from gml.terms import FALSE, IDENTITY, OMEGA, TRUE, parse
from oracles import all_pairs, closed_terms_up_to, naive_interpret, random_pair, random_subpair, random_term


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {title}")
                raise
            print(f"PASS criterion {number}: {title}")

        return run

    return wrap


@criterion(1, "interpret matches the naive powerset-clause oracle exhaustively")
def test_criterion_1_oracle_equivalence():
    pairs = all_pairs(2, 2)
    terms = closed_terms_up_to(7)
    assert len(pairs) == 77
    assert 100 <= len(terms) <= 999, "a few hundred closed terms expected"
    for p in pairs:
        for t in terms:
            assert interpret(t, p) == naive_interpret(t, p, {})


@criterion(2, "rank-bounded interpretations of the looping combinator stay in the carrier")
def test_criterion_2_omega_containment():
    rng = Random(2024)
    for _ in range(100):
        p = random_pair(rng, max_atoms=3, max_entries=3)
        at_rank_zero = None
        for k in range(5):
            approx = approx_interpret(OMEGA, p, k=k)
            assert all(e.rank == 0 for e in approx)
            if k == 0:
                at_rank_zero = frozenset(e.atom for e in approx)
        assert at_rank_zero == omega_characterization(p)


@criterion(3, "completion level sizes: free singleton 3 and 25, coded singleton 2")
def test_criterion_3_completion_cardinalities():
    free1 = PartialPair({0})
    coded1 = PartialPair({0}, {(frozenset({0}), 0): 0})
    assert len(elements_up_to(free1, 1)) == 3
    assert len(elements_up_to(free1, 2)) == 25
    assert len(elements_up_to(coded1, 1)) == 2


@criterion(4, "interpretation is monotone along subpairs and environments (1000 samples)")
def test_criterion_4_monotonicity():
    rng = Random(4)
    done = 0
    while done < 1000:
        big = random_pair(rng, max_atoms=3, max_entries=3)
        small = random_subpair(rng, big)
        sigma = {
            name: frozenset(a for a in big.atoms if rng.random() < 0.5)
            for name in ("a", "b", "c")
        }
        rho = {
            name: frozenset(x for x in values if x in small.atoms and rng.random() < 0.8)
            for name, values in sigma.items()
        }
        t = random_term(rng, 8)
        lhs = interpret(t, small, Environment(rho))
        rhs = interpret(t, big, Environment(sigma))
        assert lhs <= rhs
        done += 1


@criterion(5, "200 found memberships extract re-verifiable witness subpairs")
def test_criterion_5_witness_roundtrip():
    terms = closed_terms_up_to(6)
    p1 = PartialPair({0}, {(frozenset({0}), 0): 0})
    free1 = PartialPair({0})
    free2 = PartialPair({0, 1})
    coded2 = PartialPair({0, 1}, {(frozenset({0}), 0): 1})
    sym2 = PartialPair({0, 1}, {(frozenset({0}), 0): 0, (frozenset({1}), 1): 1})
    cases = [(p1, 2), (free1, 2), (free2, 1), (coded2, 1), (sym2, 1)]
    checked = 0
    for p, kmax in cases:
        if checked >= 200:
            break
        for t in terms:
            if checked >= 200:
                break
            for e in sorted(approx_interpret(t, p, k=kmax), key=lambda x: x.sort_key())[:3]:
                found = member(t, p, e, kmax)
                assert found.found
                witness = extract_witness_subpair(t, p, e, found.rank)
                assert validate(witness).ok
                r = restrict(p, found.rank)
                assert is_subpair(witness, r.pair)
                assert r.atom_of[e] in interpret(t, witness, Environment())
                checked += 1
                if checked >= 200:
                    break
    assert checked == 200


@criterion(6, "bounded equation checking separates the projections and refutes extensionality")
def test_criterion_6_separation():
    coded1 = PartialPair({0}, {(frozenset({0}), 0): 0})
    fwd, bwd = check_equation(TRUE, FALSE, coded1, 2, 4)
    assert fwd.kind == "fails_with_evidence" or bwd.kind == "fails_with_evidence"
    failing = fwd if fwd.failed else bwd
    assert failing.member_rank <= 2
    # canonical least witness over the scanned difference
    lhs_term = failing.lhs
    diff = [
        e
        for e in approx_interpret(lhs_term, coded1, k=2)
        if not Evaluator(coded1, 4).contains(failing.rhs, {}, e)
    ]
    assert failing.witness is min(diff, key=lambda e: e.sort_key())

    free1 = PartialPair({0})
    eta = parse("\\x y.x y")
    fwd, bwd = check_equation(IDENTITY, eta, free1, 2, 4)
    assert fwd.kind == "fails_with_evidence" or bwd.kind == "fails_with_evidence"


@criterion(7, "beta-equal corpus: approximations reappear within slack 3 on the free singleton")
def test_criterion_7_beta_soundness():
    free1 = PartialPair({0})
    corpus = [
        ("I I", "I"),
        ("I I I", "I"),
        ("(\\x.x x) I", "I"),
        ("T I I", "I"),
        ("F I I", "I"),
        ("T (I I) F", "I"),
        ("\\a.T a a", "\\a.a"),
        ("\\a b.T a b", "T"),
        ("\\a b.F a b", "F"),
        ("\\a.I a", "I"),
        ("\\a.F I a", "I"),
        ("(\\x y.y x) I I", "I"),
        ("(\\x.x) (\\y.y y)", "\\y.y y"),
        ("T (\\y.y y) I", "\\y.y y"),
        ("I T", "T"),
        ("I F", "F"),
        ("T T F", "T"),
        ("F T F", "F"),
        ("(\\x.x I) I", "I"),
        ("\\a.(\\b.b) (I a)", "\\a.a"),
    ]
    assert len(corpus) == 20
    for lhs_text, rhs_text in corpus:
        lhs, rhs = parse(lhs_text), parse(rhs_text)
        for k in range(3):
            start = approx_interpret(lhs, free1, k=k)
            slack_found = None
            for slack in range(4):
                try:
                    ev = Evaluator(free1, k + slack)
                    if all(ev.contains(rhs, {}, e) for e in start):
                        slack_found = slack
                        break
                except CeilingExceeded:
                    continue
            assert slack_found is not None, f"corpus defect: {lhs_text} vs {rhs_text} at k={k}"


@criterion(8, "minimum-model plumbing: numeration, disjointness, relocation, search, restriction")
def test_criterion_8_minimal_model():
    # numeration round-trip
    for k in range(501):
        assert encode_pair(enumerate_pair(k)) == k
    # component disjointness, exhaustively at small scale
    carriers = [frozenset(relocate(k).atoms) for k in range(51)]
    for a, b in itertools.combinations(carriers, 2):
        assert not (a & b)
    # relocation is a verified isomorphism
    for k in range(51):
        morphism = relocation_morphism(k)
        assert morphism.source == enumerate_pair(k)
        assert morphism.target == relocate(k)
        assert not morphism.source.atoms or morphism.is_isomorphism()
    # the search refutes T = F within 50 components, verdict as in criterion 6
    found = search_counterexample(TRUE, FALSE, 50, 2, 4)
    assert found is not None
    index, verdict = found
    assert index <= 50
    assert verdict.kind == "fails_with_evidence"
    assert verdict.member_rank <= 2
    component = enumerate_pair(index)
    assert verdict.witness in approx_interpret(TRUE, component, k=verdict.member_rank)
    assert not Evaluator(component, verdict.rhs_bound).contains(FALSE, {}, verdict.witness)
    assert validate(verdict.witness_subpair).ok
    # componentwise restriction property on five components
    for q in (IDENTITY, TRUE, FALSE, OMEGA):
        for k in range(1, 6):
            for r in (1, 2):
                assert restriction_property_check(q, k, r)


@criterion(9, "automorphisms fix rank-bounded interpretations setwise (50 pairs)")
def test_criterion_9_orbit_invariance():
    pairs = []
    for carrier in itertools.combinations(range(5), 2):
        entries = [
            ((frozenset(a), r), v)
            for m in range(3)
            for a in itertools.combinations(carrier, m)
            for r in carrier
            for v in carrier
        ]
        for size in range(3):
            for combo in itertools.combinations(entries, size):
                keys = {key for key, _ in combo}
                vals = {v for _, v in combo}
                if len(keys) == size and len(vals) == size:
                    p = PartialPair(carrier, dict(combo))
                    if len(automorphisms(p)) > 1:
                        pairs.append(p)
        if len(pairs) >= 50:
            break
    pairs = pairs[:50]
    assert len(pairs) == 50
    for p in pairs:
        for theta in automorphisms(p):
            lifted = lift_morphism(theta)
            for t in (IDENTITY, TRUE, FALSE, OMEGA):
                for k in range(3):
                    s = approx_interpret(t, p, k=k)
                    assert frozenset(map(lifted, s)) == s
