import gc
import itertools
import json
import sys
import time
from collections import Counter
from random import Random

import pytest

from gml import approximation, completion, minmodel, pairs
from gml.approximation import (
    ApproximationInfeasible,
    BOUNDED_REFUTATION_NOTE,
    Evaluator,
    approx_interpret,
    check_equation,
    check_inequation,
    extract_witness_subpair,
    member,
)
from gml.cli import main
from gml.completion import (
    CeilingExceeded,
    CompletionElement,
    base,
    coding_preimage,
    element_valid,
    elements_up_to,
    lift_morphism,
    pair_of,
    parse_element,
    restrict,
    restriction_atom,
)
from gml.pairs import PartialPair, automorphisms, is_subpair, union, validate
from gml.semantics import Environment, interpret
from gml.minmodel import enumerate_pair, search_counterexample
from gml.terms import FALSE, IDENTITY, OMEGA, TRUE, Abs, App, Var, godel_decode, parse
from oracles import (
    CLAIM_SETS,
    abstraction_by_membership,
    all_pairs,
    check_inequation_by_full_scan,
    closed_terms_up_to,
    compare,
    head_reaching_terms,
    outcome,
    random_pair,
    random_term,
    rank_monotone_violations,
    restriction_witness,
    supporting_keys_by_enumeration,
    sweep_cases,
)


def approx_oracle(t, p, k):
    """The defining route: interpret inside the materialized restriction."""
    r = restrict(p, k)
    return frozenset(r.of_atom[a] for a in interpret(t, r.pair, Environment()))


class TestApproxInterpret:
    def test_identity_free_singleton_rank_one(self, free1):
        assert approx_interpret(IDENTITY, free1, k=1) == {pair_of([base(0)], base(0))}

    def test_omega_stays_in_carrier(self):
        rng = Random(41)
        for _ in range(30):
            p = random_pair(rng, max_atoms=3, max_entries=3)
            for k in range(5):
                for e in approx_interpret(OMEGA, p, k=k):
                    assert e.rank == 0

    def test_omega_matches_characterization_everywhere(self, p1, free1):
        from gml.semantics import omega_characterization

        for p in (p1, free1):
            want = frozenset(map(base, omega_characterization(p)))
            for k in range(5):
                assert approx_interpret(OMEGA, p, k=k) == want

    def test_monotone_in_rank(self, p1, free1):
        terms = [parse(s) for s in ("I", "T", "F", "\\x.x x", "I I")]
        for p in (p1, free1):
            for t in terms:
                previous = frozenset()
                for k in range(3):
                    current = approx_interpret(t, p, k=k)
                    assert previous <= current
                    previous = current

    def test_monotone_in_rank_on_every_small_term(self):
        """Every closed term of size <= 6 over every pair of <= 1 atom and
        <= 2 coded triples, and over seeded 2-atom pairs: the approximation
        at rank k lies inside the one at rank k + 1, for k + 1 <= 3, wherever
        both ranks answer.  Reflexive inclusions hold unscanned because of it."""
        pairs = all_pairs(1, 2) + _seeded_pairs(83, 2, 3)
        steps, violations = rank_monotone_violations(closed_terms_up_to(6), pairs, 3)
        assert violations == []
        assert steps > 1000

    def test_oracle_equivalence(self, p1, free1, free2):
        terms = [
            parse(s)
            for s in (
                "I",
                "T",
                "F",
                "\\x.x x",
                "\\x y.x y",
                "I I",
                "T I",
                "(\\x.x x) I",
                "\\x.x I",
                "(\\x.x x)(\\x.x x)",
                "\\x.x (x I)",
                "(\\x y.y x) I I",
                # redexes: a lazy variable read under an abstraction, nested
                # redexes, a redex under a binder and Omega inside a redex
                "(\\x y.x) (\\z.z)",
                "(\\x.(\\y.y) x) I",
                "(\\x.x) ((\\y.y) I)",
                "\\w.(\\x.x w) I",
                "(\\x.Omega) I",
            )
        ]
        cases = [(p1, 2), (free1, 2), (free2, 1)]
        for p, kmax in cases:
            for t in terms:
                for k in range(kmax + 1):
                    assert approx_interpret(t, p, k=k) == approx_oracle(t, p, k), (
                        t,
                        p,
                        k,
                    )

    def test_oracle_equivalence_random(self):
        rng = Random(42)
        terms = closed_terms_up_to(6)
        for _ in range(12):
            p = random_pair(rng, max_atoms=2, max_entries=2)
            for t in terms:
                for k in range(2):
                    assert approx_interpret(t, p, k=k) == approx_oracle(t, p, k)

    def test_oracle_equivalence_with_environments(self, p1, free1):
        rng = Random(45)
        texts = ("y", "\\x.y", "\\x.y x", "y (I y)", "(\\x.x y) I", "\\x.x (y y)", "T y")
        for p in (p1, free1):
            for k in range(3):
                r = restrict(p, k)
                universe = list(r.elements)
                for text in texts:
                    t = parse(text)
                    for _ in range(6):
                        chosen = frozenset(e for e in universe if rng.random() < 0.4)
                        env = Environment({"y": chosen})
                        ours = approx_interpret(t, p, env, k)
                        env_atoms = Environment({"y": r.to_atoms(chosen)})
                        oracle = frozenset(
                            r.of_atom[a] for a in interpret(t, r.pair, env_atoms)
                        )
                        assert ours == oracle, (text, k, sorted(map(str, chosen)))

    def test_abstraction_rule_matches_membership(self):
        """One body enumeration per argument set gives the same sets, and the
        same refusals, as one membership query per key."""
        rng = Random(46)

        def pair_over(n):
            while True:
                p = random_pair(rng, max_atoms=n, max_entries=3)
                if len(p.atoms) == n:
                    return p

        def outcome(run):
            try:
                return run()
            except CeilingExceeded:
                return "refused"

        closed = closed_terms_up_to(8)
        terms = closed[:30] + [t for t in closed if isinstance(t, App)][:20]
        one_atom = [PartialPair({0})] + [PartialPair({0}, {(a, 0): 0}) for a in (frozenset(), frozenset({0}))]
        pairs = one_atom + [pair_over(2) for _ in range(2)] + [pair_over(3) for _ in range(2)]
        refused = 0
        for p in pairs:
            for t in terms:
                for k in (1, 2):
                    ours = outcome(lambda: approx_interpret(t, p, k=k))
                    assert ours == outcome(lambda: abstraction_by_membership(t, p, k)), (t, p, k)
                    refused += ours == "refused"
        assert refused > 0

    def test_membership_monotone_in_environment(self):
        """Binding a variable to a larger set never loses a member; the
        ordered redex search prunes on this."""
        rng = Random(47)
        checked = 0
        for _ in range(150):
            p = random_pair(rng, max_atoms=2)
            body = random_term(rng, 7)
            k = rng.choice((1, 2))
            lower, upper = elements_up_to(p, k - 1), elements_up_to(p, k)
            ev = Evaluator(p, k)
            for _ in range(4):
                big = frozenset(x for x in lower if rng.random() < 0.5)
                small = frozenset(x for x in big if rng.random() < 0.5)
                for e in rng.sample(upper, min(len(upper), 12)):
                    try:
                        if ev.contains(body, {"a": frozenset(small)}, e):
                            assert ev.contains(body, {"a": frozenset(big)}, e), (body, p, small, big, e)
                            checked += 1
                    except CeilingExceeded:
                        pass
        assert checked >= 100

    def test_memo_keys_survive_term_id_reuse(self):
        """Equal terms built afresh, with throwaway terms between them, get
        the answers of a fresh evaluator.  So do equal sets built apart, sets
        of other contents and sizes bound to the same variable, and the lazy
        values a redex binds when its argument has a free variable."""
        p = PartialPair([0, 1], {})
        ev = Evaluator(p, 1)
        wrong = 0
        for i in range(2000):
            ev.enumerate(App(Abs("z", Var("z")), Abs("w", Var("w"))), {}, 1)
            t = App(Abs("z", Var("z")), Var("x"))
            got = ev.enumerate(t, {"x": frozenset({base(i % 2)})}, 1)
            fresh = Evaluator(p, 1)
            wrong += got != fresh.enumerate(t, {"x": frozenset({base(i % 2)})}, 1)
        assert wrong == 0

        values = [
            frozenset({base(0)}),
            frozenset([base(0)]),
            frozenset({base(1)}),
            frozenset({base(0), base(1)}),
            frozenset(),
            frozenset({pair_of([], base(0)), pair_of([base(1)], base(0)), base(1)}),
        ]
        assert values[0] == values[1] and values[0] is not values[1]
        terms = [
            Var("x"),
            App(Var("x"), Var("x")),
            App(Abs("z", Var("z")), Var("x")),
            # z is bound to a lazy value, and u to one over z's
            App(Abs("z", App(Abs("u", Var("u")), Var("z"))), Var("x")),
            # a lazy value enumerated as a function side
            App(Abs("z", App(Var("z"), Var("x"))), App(Var("x"), Var("x"))),
        ]
        universe = elements_up_to(p, 1)
        for k in (1, 2):
            ev = Evaluator(p, k)
            for _ in range(2):
                for t in terms:
                    for xs in values:
                        fresh = Evaluator(p, k)
                        wrong += ev.enumerate(t, {"x": xs}, k) != fresh.enumerate(t, {"x": xs}, k)
                        wrong += any(
                            ev.contains(t, {"x": xs}, e) != fresh.contains(t, {"x": xs}, e) for e in universe
                        )
        assert wrong == 0

    def test_environment_rank_precondition(self, free1):
        env = Environment({"x": {pair_of([], base(0))}})
        with pytest.raises(ValueError):
            approx_interpret(Var("x"), free1, env, 0)
        assert approx_interpret(Var("x"), free1, env, 1) == {pair_of([], base(0))}

    def test_infeasible_raises(self, free1):
        from gml.completion import CeilingExceeded

        with pytest.raises(CeilingExceeded):
            approx_interpret(IDENTITY, free1, k=4)
        with pytest.raises(ApproximationInfeasible):
            # the argument abstraction cannot be enumerated at this depth
            approx_interpret(parse("(\\x.x x) (\\y.y (y y))"), free1, k=4)


class TestMember:
    def test_identity_found_at_rank_one(self, free1):
        result = member(IDENTITY, free1, pair_of([base(0)], base(0)), 2)
        assert result.found and result.rank == 1

    def test_omega_not_found_in_free_pair(self, free1):
        result = member(OMEGA, free1, base(0), 4)
        assert not result.found and result.bound == 4

    def test_variable_found_at_element_rank(self, free1):
        e = pair_of([pair_of([], base(0))], base(0))
        env = Environment({"x": {e}})
        result = member(Var("x"), free1, e, 4, env)
        assert result.found and result.rank == e.rank

    def test_found_is_stable_above_member_rank(self, p1):
        candidates = approx_interpret(TRUE, p1, k=2)
        for e in sorted(candidates, key=lambda x: x.sort_key())[:4]:
            found = member(TRUE, p1, e, 2)
            ev = Evaluator(p1, found.rank + 1)
            assert ev.contains(TRUE, {}, e)

    def test_invalid_element_rejected(self, p1):
        with pytest.raises(ValueError):
            member(IDENTITY, p1, pair_of([base(0)], base(0)), 2)

    def test_environment_checked(self, p1):
        """Non-elements and invalid elements are refused as approx_interpret
        refuses them; ranks above a probe are trimmed, not refused."""
        with pytest.raises(TypeError):
            member(Var("x"), p1, base(0), 2, Environment({"x": {5}}))
        for bad in (pair_of([base(0)], base(0)), base(7)):  # a collapsed key, an atom outside
            with pytest.raises(ValueError):
                member(Var("x"), p1, base(0), 2, Environment({"x": {bad}}))
        high = pair_of([pair_of([], base(0))], base(0))
        assert high.rank == 2
        assert member(Var("x"), p1, base(0), 1, Environment({"x": {base(0), high}})) == member(
            Var("x"), p1, base(0), 1, Environment({"x": {base(0)}})
        )

    def test_contains_is_false_above_the_rank_bound(self, free1):
        """A rank-2 element of the identity's meaning, and one bound to a
        variable, lie outside the rank-1 approximation."""
        e = pair_of([pair_of([base(0)], base(0))], pair_of([base(0)], base(0)))
        assert Evaluator(free1, 2).contains(IDENTITY, {}, e)
        assert not Evaluator(free1, 1).contains(IDENTITY, {}, e)
        assert not Evaluator(free1, 1).contains(Var("x"), {"x": frozenset({e})}, e)


class TestExtractWitness:
    def test_identity_witness_shape(self, free1):
        e = pair_of([base(0)], base(0))
        w = extract_witness_subpair(IDENTITY, free1, e, 1)
        r = restrict(free1, 1)
        assert w.atoms == {0, r.atom_of[e]}
        assert w.coding == {(frozenset({0}), 0): r.atom_of[e]}

    def test_variable_case_bare_singleton(self, free1):
        e = pair_of([], base(0))
        env = Environment({"x": {e}})
        w = extract_witness_subpair(Var("x"), free1, e, 1, env)
        r = restrict(free1, 1)
        assert w.atoms == {r.atom_of[e]}
        assert not w.coding

    def test_precondition_unmet(self, free1):
        with pytest.raises(ValueError):
            extract_witness_subpair(OMEGA, free1, base(0), 2)

    def test_roundtrip_on_random_found_cases(self, p1, free1):
        rng = Random(43)
        terms = [
            parse(s)
            for s in (
                "I",
                "T",
                "F",
                "\\x.x x",
                "I I",
                "\\x y.x y",
                "\\x.x I",
                "\\x.x (x x)",
                "\\x y.y x",
                "\\x.T x x",
            )
        ]
        checked = 0
        free2 = PartialPair({0, 1})
        coded2 = PartialPair({0, 1}, {(frozenset({0}), 0): 1})
        sym2 = PartialPair({0, 1}, {(frozenset({0}), 0): 0, (frozenset({1}), 1): 1})
        cases = [(p1, 2), (free1, 2), (free2, 1), (coded2, 1), (sym2, 1)]
        for p, kmax in cases:
            for t in terms:
                found_set = sorted(approx_interpret(t, p, k=kmax), key=lambda e: e.sort_key())
                rng.shuffle(found_set)
                for e in found_set[:10]:
                    found = member(t, p, e, kmax)
                    assert found.found
                    w = extract_witness_subpair(t, p, e, found.rank)
                    assert validate(w).ok
                    assert is_subpair(w, restrict(p, found.rank).pair)
                    assert restrict(p, found.rank).atom_of[e] in interpret(t, w, Environment())
                    checked += 1
        assert checked >= 100

    def test_levels_are_built_once_per_pair(self, monkeypatch, free1):
        """Numbering a witness's elements reads the levels the evaluator
        keeps in pair.derived, and fills them when it comes first."""
        rank2 = pair_of([pair_of([base(0)], base(0))], base(0))
        want = restrict(free1, 2).atom_of[rank2]
        builds = Counter()
        build = completion.elements_up_to

        def counted(p, k):
            builds[k] += 1
            return build(p, k)

        monkeypatch.setattr(completion, "elements_up_to", counted)
        for term, element in (("\\x.x", "({0},0)"), ("\\x y.x", "({0},({0},0))"),
                              ("\\x.x x", "({({0},0),0},0)"), ("(\\x.x) (\\y.y)", "({({0},0)},({0},0))")):
            t, e = parse(term), parse_element(element, free1)
            found = member(t, free1, e, 3)
            assert validate(extract_witness_subpair(t, free1, e, found.rank)).ok
        assert builds == {0: 1, 1: 1, 2: 1}
        # numbering first: restriction_atom fills the entries (levels 1 and 0)
        # the evaluator then reads
        fresh = PartialPair({0})
        assert restriction_atom(fresh, rank2) == want
        assert builds == {0: 2, 1: 2, 2: 1}
        level = approximation.Evaluator(fresh, 2)._level(1)
        assert set(level) == set(fresh.derived[("elements_up_to", 1)])
        assert builds == {0: 2, 1: 2, 2: 1}


class TestWitnessFromEvaluator:
    def test_agrees_with_restriction_walk(self, p1, free1):
        rng = Random(43)
        terms = [
            parse(s)
            for s in (
                "I",
                "T",
                "F",
                "\\x.x x",
                "I I",
                "\\x y.x y",
                "\\x.x I",
                "\\x.x (x x)",
                "\\x y.y x",
                "\\x.T x x",
                "(\\x.x x) I",
                "\\x.(\\y.y) (x x)",
            )
        ]
        free2 = PartialPair({0, 1})
        coded2 = PartialPair({0, 1}, {(frozenset({0}), 0): 1})
        sym2 = PartialPair({0, 1}, {(frozenset({0}), 0): 0, (frozenset({1}), 1): 1})
        checked = 0
        for p, kmax in [(p1, 2), (free1, 2), (free2, 1), (coded2, 1), (sym2, 1)]:
            for t in terms:
                found_set = sorted(approx_interpret(t, p, k=kmax), key=lambda e: e.sort_key())
                rng.shuffle(found_set)
                for e in found_set[:10]:
                    rank = member(t, p, e, kmax).rank
                    ours = extract_witness_subpair(t, p, e, rank)
                    oracle = restriction_witness(t, p, e, rank)
                    assert ours.atoms == oracle.atoms, (t, p, e)
                    assert ours.coding == oracle.coding, (t, p, e)
                    assert ours.labels == oracle.labels, (t, p, e)
                    checked += 1
        assert checked >= 100

    def test_three_atom_rank_two_abstraction(self):
        free3 = PartialPair({0, 1, 2}, labels={0: "a", 1: "b", 2: "c"})
        inner = pair_of([base(0)], base(0))
        e = pair_of([inner], inner)
        assert member(IDENTITY, free3, e, 2).rank == 2
        w = extract_witness_subpair(IDENTITY, free3, e, 2)
        i, o = restriction_atom(free3, inner), restriction_atom(free3, e)
        assert w.atoms == {i, o}
        assert w.coding == {(frozenset({i}), i): o}
        assert w.labels == {i: "({a},a)", o: "({({a},a)},({a},a))"}
        assert o in interpret(IDENTITY, w)

    def test_three_atom_rank_two_redex(self):
        free3 = PartialPair({0, 1, 2}, labels={0: "a", 1: "b", 2: "c"})
        t = parse("(\\x.x) (\\y.y)")
        e = pair_of([base(0)], base(0))
        assert member(t, free3, e, 2).rank == 2
        w = extract_witness_subpair(t, free3, e, 2)
        i, o = restriction_atom(free3, e), restriction_atom(free3, pair_of([e], e))
        assert w.atoms == {0, i, o}
        assert w.coding == {(frozenset({0}), 0): i, (frozenset({i}), i): o}
        assert w.labels == {0: "a", i: "({a},a)", o: "({({a},a)},({a},a))"}
        assert i in interpret(t, w)

    def test_redex_search_refuses_past_ceiling(self):
        """A least key that needs thousands of arguments refuses quickly."""
        free2 = PartialPair({0, 1})
        inner = pair_of([base(1)], base(1))
        e = pair_of([inner], inner)
        t = parse("(\\x.x) (\\y.y)")
        assert member(t, free2, e, 3).rank == 3
        with pytest.raises(ApproximationInfeasible, match="redex key search"):
            extract_witness_subpair(t, free2, e, 3)

    def test_redex_keys_match_enumeration(self, monkeypatch):
        """At every redex the walk meets, the ordered search yields exactly
        the keys the function side's enumeration gives, in witness order, and
        the walk picks the same keys with either rule."""
        terms = [
            parse(s)
            for s in (
                "(\\x.x) (\\y.y)",
                "(\\x.\\y.y x) (\\z.z)",
                "(\\x.x) ((\\y.y) (\\z.z))",
                "\\x.(\\y.\\z.y) x x",
                "(\\x.x x) (\\x.x x)",
                "(\\x.x x) (\\y.y)",
                "(\\x.\\y.x) (\\z.z)",
                "\\x.(\\y.y y) x",
            )
        ]
        pairs = [
            PartialPair({0, 1}),
            PartialPair({0, 1}, {(frozenset({0}), 0): 1}),
            PartialPair({0, 1}, {(frozenset({0}), 0): 0, (frozenset({1}), 1): 1}),
            # coded keys that are the least candidates of their element
            PartialPair({0, 1}, {(frozenset(), 0): 0, (frozenset({0, 1}), 1): 1}),
            PartialPair({0, 1}, {(frozenset(), 1): 0, (frozenset({0}), 0): 1}),
        ]
        ordered = Evaluator.supporting_keys

        def compared(ev, t, env, e):
            keys = list(ordered(ev, t, env, e))
            if isinstance(t.fun, Abs):
                assert keys == list(supporting_keys_by_enumeration(ev, t, env, e)), (t, e)
            return iter(keys)

        rng = Random(48)
        cases = []
        monkeypatch.setattr(Evaluator, "supporting_keys", compared)
        for p in pairs:
            for t in terms:
                found = sorted(approx_interpret(t, p, k=2), key=lambda e: e.sort_key())
                for e in found[:3] + rng.sample(found[3:], min(len(found[3:]), 3)):
                    rank = member(t, p, e, 2).rank
                    cases.append((t, p, e, rank, extract_witness_subpair(t, p, e, rank)))
        monkeypatch.setattr(Evaluator, "supporting_keys", supporting_keys_by_enumeration)
        for t, p, e, rank, ours in cases:
            oracle = extract_witness_subpair(t, p, e, rank)
            assert (ours.atoms, ours.coding, ours.labels) == (oracle.atoms, oracle.coding, oracle.labels), (t, p, e)
        assert len(cases) >= 100

    def test_invalid_element_rejected(self, p1):
        with pytest.raises(ValueError):
            extract_witness_subpair(IDENTITY, p1, pair_of([base(0)], base(0)), 2)


class TestCheckInequation:
    def test_true_false_separation(self, p1):
        verdict = check_inequation(TRUE, FALSE, p1, 2, 4)
        assert verdict.kind == "fails_with_evidence"
        assert verdict.witness is pair_of([base(0)], pair_of([], base(0)))
        assert verdict.member_rank == 2
        assert verdict.witness_subpair is not None

    def test_reflexive_holds(self, p1, free1):
        for p in (p1, free1):
            for t in (TRUE, IDENTITY, OMEGA):
                verdict = check_inequation(t, t, p, 2, 2)
                assert verdict.kind == "holds_up_to"

    def test_non_extensionality(self, free1):
        eta = parse("\\x y.x y")
        verdict = check_inequation(IDENTITY, eta, free1, 2, 4)
        assert verdict.kind == "fails_with_evidence"
        assert verdict.witness.rank <= 2

    def test_witness_is_canonically_least(self, p1):
        verdict = check_inequation(TRUE, FALSE, p1, 2, 4)
        diff = [
            e
            for e in approx_interpret(TRUE, p1, k=2)
            if not Evaluator(p1, 4).contains(FALSE, {}, e)
        ]
        assert min(diff, key=lambda e: e.sort_key()) is verdict.witness

    def test_witness_invariants(self, p1):
        verdict = check_inequation(TRUE, FALSE, p1, 2, 4)
        assert verdict.witness in approx_interpret(TRUE, p1, k=verdict.member_rank)
        assert not Evaluator(p1, 4).contains(FALSE, {}, verdict.witness)
        assert verdict.member_rank <= verdict.lhs_bound <= verdict.rhs_bound

    def test_one_evaluator_per_rank(self, monkeypatch, p1, free1):
        """A failing check builds its two sides' evaluators and one probe per
        rank below the left bound.  Over the free atom, the witness of
        \\x.x <= \\x y.y enters at rank 1, so that probe is built once and
        also walks the witness; the witness of TRUE <= FALSE over p1 enters at
        the left bound, where the left side's evaluator answers both."""
        ranks = []
        init = Evaluator.__init__

        def counted(self, pair, k):
            ranks.append(k)
            init(self, pair, k)

        monkeypatch.setattr(Evaluator, "__init__", counted)
        verdict = check_inequation(IDENTITY, FALSE, free1)
        assert verdict.witness is pair_of([base(0)], base(0)) and verdict.member_rank == 1
        assert sorted(ranks) == [1, 2, 4]
        ranks.clear()
        assert check_inequation(TRUE, FALSE, p1).member_rank == 2
        assert sorted(ranks) == [2, 4]

    def test_bounds_validated(self, p1):
        with pytest.raises(ValueError):
            check_inequation(TRUE, FALSE, p1, 3, 2)
        with pytest.raises(ValueError):
            check_inequation(Var("x"), TRUE, p1, 1, 2)

    def test_serialization(self, p1):
        verdict = check_inequation(TRUE, FALSE, p1, 2, 4)
        doc = verdict.to_json(p1)
        assert doc["kind"] == "fails_with_evidence"
        assert doc["inequation"] == {"lhs": "\\x y.x", "rhs": "\\x y.y"}
        assert doc["witness"] == "({0},({},0))"
        assert doc["member_rank"] == 2
        assert doc["nonmember_bound"] == 4
        assert doc["note"] == BOUNDED_REFUTATION_NOTE
        loaded = PartialPair.from_json(doc["witness_subpair"])
        assert validate(loaded).ok

    def test_holds_serialization(self, free1):
        doc = check_inequation(IDENTITY, IDENTITY, free1, 1, 2).to_json(free1)
        assert doc["kind"] == "holds_up_to"
        assert doc["bound"] == 1


class TestCheckEquation:
    def test_beta_equal_holds_both_ways(self, free1):
        fwd, bwd = check_equation(parse("I I"), IDENTITY, free1, 2, 5)
        assert fwd.kind == "holds_up_to"
        assert bwd.kind == "holds_up_to"

    def test_true_false_fails(self, p1):
        fwd, bwd = check_equation(TRUE, FALSE, p1, 2, 4)
        assert fwd.failed or bwd.failed

    def test_same_term_holds(self, p1):
        fwd, bwd = check_equation(OMEGA, OMEGA, p1, 2, 4)
        assert not fwd.failed and not bwd.failed


def _seeded_pairs(seed: int, atoms: int, count: int) -> list[PartialPair]:
    """count seeded pairs on exactly this many atoms, each with some coding."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        p = random_pair(rng, atoms, 3)
        if len(p.atoms) == atoms and p.coding:
            out.append(p)
    return out


ONE_ATOM_PAIRS = [
    PartialPair({0}),
    PartialPair({0}, {(frozenset(), 0): 0}),
    PartialPair({0}, {(frozenset({0}), 0): 0}),
]


class TestWitnessOrderScan:
    def test_ordered_matches_sorted_enumeration(self):
        """The left side comes in sort_key order, lazily at an abstraction:
        element for element the sorted enumeration, and a refusal where the
        enumeration refuses.  Every element is valid, so no coded key slips
        through as a pair.  On two atoms at rank 2 the terms past size 6 are
        a seeded sample, which keeps the test to seconds, plus every
        application of size <= 8 whose head reaches an abstraction and two
        larger ones, where the walk passes a variable bound to a redex."""
        nested = [parse("(\\a.a) ((\\b.b) (\\c d.d))"), parse("(\\a.(\\b.b) a) (\\c.c c)")]
        terms = closed_terms_up_to(8) + nested
        small = closed_terms_up_to(6)
        heads = [t for t in head_reaching_terms(8) if isinstance(t, App)] + nested
        sample = list(dict.fromkeys(small + Random(81).sample(terms[len(small):], 40) + heads))
        cases = [(p, k, terms) for p in ONE_ATOM_PAIRS for k in (0, 1, 2)]
        cases += [(p, k, sample if k == 2 else terms) for p in _seeded_pairs(8, 2, 2) for k in (0, 1, 2)]
        count = 0
        for p, k, pool in cases:
            for t in pool:
                got = outcome(lambda: list(Evaluator(p, k).ordered(t, {}, k)))
                want = outcome(
                    lambda: sorted(Evaluator(p, k).enumerate(t, {}, k), key=CompletionElement.sort_key)
                )
                assert got == want, (t, p, k)
                assert all(element_valid(p, e) for e in got), (t, p, k)
                count += len(got)
        assert count > 100_000

    def test_verdicts_match_full_scan(self):
        """check_inequation and check_equation give the verdict JSON the
        whole-left-side scan gives, witness and subpair included, or its
        refusal."""
        rng = Random(82)
        terms = closed_terms_up_to(6)
        pairs = ONE_ATOM_PAIRS + [PartialPair({0, 1})] + _seeded_pairs(9, 2, 3)
        kinds = []
        for _ in range(80):
            p = rng.choice(pairs)
            lhs, rhs = rng.sample(terms, 2)
            forward = outcome(lambda: check_inequation(lhs, rhs, p).to_json(p))
            assert forward == outcome(lambda: check_inequation_by_full_scan(lhs, rhs, p).to_json(p)), (lhs, rhs, p)
            got = outcome(lambda: [v.to_json(p) for v in check_equation(lhs, rhs, p, 1, 3)])
            want = outcome(
                lambda: [
                    check_inequation_by_full_scan(a, b, p, 1, 3).to_json(p) for a, b in ((lhs, rhs), (rhs, lhs))
                ]
            )
            assert got == want, (lhs, rhs, p)
            kinds.append(forward["kind"] if isinstance(forward, dict) else "refused")
        assert {"fails_with_evidence", "holds_up_to"} <= set(kinds)

    def test_refusals_match_full_scan(self):
        """Every small abstraction refuses on three atoms at rank 2, with the
        full scan's exception type and message: the coded atoms and the
        level's guard come before the first candidate.  A refusal on the
        right side comes at the same candidate as in the full scan."""
        abstractions = [t for t in closed_terms_up_to(6) if isinstance(t, Abs)]
        for p in [PartialPair({0, 1, 2})] + _seeded_pairs(10, 3, 2):
            for t in abstractions:
                got = outcome(lambda: check_inequation(t, IDENTITY, p))
                assert got == outcome(lambda: check_inequation_by_full_scan(t, IDENTITY, p)), (t, p)
                assert got[0] is ApproximationInfeasible, (t, p)
        rhs = parse("(\\x.x x) (\\y.y)")
        free2 = PartialPair({0, 1})
        got = outcome(lambda: check_inequation(IDENTITY, rhs, free2))
        assert got == outcome(lambda: check_inequation_by_full_scan(IDENTITY, rhs, free2))
        assert got[0] is ApproximationInfeasible

    def test_abstraction_guard_refuses_before_building(self, monkeypatch, capsys, pair_file):
        """Level 2 over two free atoms holds 10,242 elements: the guard counts
        them in closed form and refuses without building the level, in a
        short message that states the key count as a power."""
        asked = []
        build = completion.elements_up_to

        def recorded(p, k):
            asked.append(k)
            return build(p, k)

        monkeypatch.setattr(completion, "elements_up_to", recorded)
        code = main(["--json", "check", "--pair", pair_file(PartialPair({0, 1})), "\\x.x <= (\\x.x x) (\\y.y)"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "bound too large: abstraction over level 2 needs 2^10242·10242 keys, ceiling is 1000000\n"
        assert len(err) < 200
        assert asked and max(asked) <= 1


class TestReflexiveInclusion:
    """M <= M with both sides one term holds by rank monotonicity: the left
    side is read up to its first element, for its guards, and the right side
    is never evaluated."""

    def test_one_evaluator_at_the_left_bound(self, monkeypatch, p1, free1, free2):
        ranks = []
        init = Evaluator.__init__

        def counted(self, pair, k):
            ranks.append(k)
            init(self, pair, k)

        monkeypatch.setattr(Evaluator, "__init__", counted)
        for p in (p1, free1, free2):
            for t in (IDENTITY, TRUE, OMEGA, parse("(\\x.x x) (\\y.y)")):
                for k_lhs, k_rhs in ((2, 4), (1, 3), (0, 0)):
                    ranks.clear()
                    assert check_inequation(t, t, p, k_lhs, k_rhs).kind == "holds_up_to"
                    assert ranks == [k_lhs], (t, p, k_lhs)

    def test_scans_nothing_after_the_first_element(self, monkeypatch, free1, free2):
        """No guard of the rank-2 left evaluator can fire on one or two free
        atoms, so \\x.x <= \\x.x asks for no group of its left side, takes no
        element and asks no membership.  Under a ceiling low enough that a
        guard could fire, though none does, the left side's first element
        is the last one taken, as before: the groups of \\x.x are asked for
        up to the first that is not empty, and no membership is asked."""
        groups, contains, ordered = Evaluator._abstraction, Evaluator.contains, Evaluator.ordered
        asked = []

        def counted_contains(self, t, env, e):
            asked.append(("contains", self.k))
            return contains(self, t, env, e)

        def counted_groups(self, t, env, trim, bound):
            for group in groups(self, t, env, trim, bound):
                asked.append(("group", self.k))
                yield group

        def counted_ordered(self, t, env, trim, bound=None):
            for e in ordered(self, t, env, trim, bound):
                asked.append(("element", self.k))
                yield e

        for p, ceiling in ((free1, 50), (free2, 20_000)):
            every = list(groups(Evaluator(p, 2), IDENTITY, {}, 2))
            first = next(i for i, group in enumerate(every) if group) + 1
            with monkeypatch.context() as patched:
                patched.setattr(Evaluator, "contains", counted_contains)
                patched.setattr(Evaluator, "_abstraction", counted_groups)
                patched.setattr(Evaluator, "ordered", counted_ordered)
                asked.clear()
                assert check_inequation(IDENTITY, IDENTITY, p).kind == "holds_up_to"
                assert asked == [], p
                patched.setattr(pairs, "DEFAULT_CEILING", ceiling)
                assert check_inequation(IDENTITY, IDENTITY, p).kind == "holds_up_to"
                assert asked == [("group", 2)] * first + [("element", 2)] and first < len(every), p

    def test_verdicts_match_full_scan(self):
        """Every closed term of size <= 6 against itself, over every pair of
        <= 1 atom and <= 2 coded triples and over seeded 2-atom pairs: the
        verdict JSON, or the refusal, of the whole-left-side scan."""
        terms = closed_terms_up_to(6)
        for p in all_pairs(1, 2) + _seeded_pairs(84, 2, 3):
            for t in terms:
                got = outcome(lambda: check_inequation(t, t, p).to_json(p))
                assert got == outcome(lambda: check_inequation_by_full_scan(t, t, p).to_json(p)), (t, p)

    def test_holds_where_the_right_side_refuses(self, capsys, pair_file, free1):
        """\\x.(\\a b.b) x x against itself on the free atom: the rank-4 right
        side would refuse its level-2 abstraction, but the claim holds by
        monotonicity, in the library and on the command line.  An
        alpha-variant is a different term, so it is scanned and refuses."""
        t = parse("\\x.(\\a b.b) x x")
        assert check_inequation(t, t, free1).kind == "holds_up_to"
        claim = "\\x.(\\a b.b) x x <= \\x.(\\a b.b) x x"
        assert main(["--json", "check", "--pair", pair_file(free1), claim]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "holds_up_to"
        variant = parse("\\y.(\\c d.d) y y")
        with pytest.raises(ApproximationInfeasible) as refused:
            check_inequation(t, variant, free1)
        assert str(refused.value) == "abstraction over level 2 needs 2^25·25 keys, ceiling is 1000000"
        with pytest.raises(ApproximationInfeasible):
            check_inequation(variant, t, free1)


def _subsets_by_filter(items: tuple, viable) -> list:
    """The sets _subsets(items, viable) walks to, picked from every subset
    in lexicographic order (a prefix first): a set is reached when viable
    held, for each element it adds to its prefix, at every position from
    the one after the prefix's last element up to that element's."""
    out = []
    for positions in sorted(c for m in range(len(items) + 1) for c in itertools.combinations(range(len(items)), m)):
        start, ok = 0, True
        for t, j in enumerate(positions):
            chosen = tuple(items[q] for q in positions[:t])
            ok = ok and all(viable(chosen, items[i:]) for i in range(start, j + 1))
            start = j + 1
        if ok:
            out.append(tuple(items[q] for q in positions))
    return out


def _kind(got) -> str:
    """A verdict JSON's kind, or "refused"."""
    return got["kind"] if isinstance(got, dict) else "refused"


def _both_ways(claim_set, lhs, rhs, p, ranks) -> list:
    """compare() in both directions, and check_equation against the check's
    two outcomes: the first refusal, or both verdicts.  Returns the two."""
    got = [compare(claim_set, a, b, p, ranks)[1] for a, b in ((lhs, rhs), (rhs, lhs))]
    refusals = [one for one in got if isinstance(one, tuple)]
    equation = outcome(lambda: [v.to_json(p) for v in check_equation(lhs, rhs, p, *ranks)])
    assert equation == (refusals[0] if refusals else got), (lhs, rhs, p, ranks)
    return got


class TestPrunedInclusion:
    """When both sides reach abstractions \\x.B and \\y.C through their head
    redexes, the scan passes over the argument sets extending chosen by
    elements of rest once B under chosen + rest has no result C lacks under
    chosen: both are monotone, so no set there holds a witness."""

    def test_verdicts_match_full_scan(self):
        """A seeded slice of tools/pruned_scan_sweep.py, 600 of the 11,088
        cases of its set-level claim set, through check_inequation and
        check_equation."""
        kinds = Counter()
        for lhs, rhs, p, ranks in Random(85).sample(sweep_cases(CLAIM_SETS["set-level"]), 600):
            forward, _ = _both_ways(CLAIM_SETS["set-level"], lhs, rhs, p, ranks)
            kinds[_kind(forward)] += 1
        assert kinds["fails_with_evidence"] > 100 and kinds["holds_up_to"] > 100

    def test_pruning_engages(self, monkeypatch):
        """On one two-atom pair the full walk enumerates the left body 87 and
        131 times before the witness; the pruned walk, far fewer."""
        p = PartialPair({0, 1}, {(frozenset(), 0): 1, (frozenset({1}), 1): 0})
        enumerate_ = Evaluator.enumerate
        for claim, unpruned in (("\\x.x (x x) <= \\x.x x", 87), ("\\x.x x x <= \\x.x", 131)):
            lhs, rhs = (parse(side) for side in claim.split("<="))
            asked = []

            def counted(self, t, env, trim):
                if t is lhs.body:
                    asked.append(trim)
                return enumerate_(self, t, env, trim)

            monkeypatch.setattr(Evaluator, "enumerate", counted)
            verdict = check_inequation(lhs, rhs, p)
            monkeypatch.setattr(Evaluator, "enumerate", enumerate_)
            assert verdict.to_json(p) == check_inequation_by_full_scan(lhs, rhs, p).to_json(p)
            assert verdict.failed and 0 < len(asked) < unpruned // 3, (claim, len(asked))

    def test_redex_free_verdicts_match_full_scan(self):
        """A seeded slice of tools/pruned_scan_sweep.py, 1,500 of the 44,506
        cases of its redex-free claim set, whose bodies may hold
        abstractions."""
        kinds = Counter()
        for lhs, rhs, p, ranks in Random(88).sample(sweep_cases(CLAIM_SETS["redex-free"]), 1500):
            _, got = compare(CLAIM_SETS["redex-free"], lhs, rhs, p, ranks)
            kinds[_kind(got)] += 1
        assert kinds["fails_with_evidence"] > 300 and kinds["holds_up_to"] > 100

    def test_pruning_engages_under_an_inner_abstraction(self, monkeypatch):
        """\\x0.x0 (\\x1.x1) has an abstraction in its body, so the whole left
        side was scanned, enumerating its body 264 times on component 8
        before the witness; the pruned walk, far fewer."""
        lhs, rhs = parse("\\x0.x0 x0 x0"), parse("\\x0.x0 (\\x1.x1)")
        p = enumerate_pair(8)
        enumerate_ = Evaluator.enumerate
        asked = []

        def counted(self, t, env, trim):
            if t is lhs.body:
                asked.append(trim)
            return enumerate_(self, t, env, trim)

        monkeypatch.setattr(Evaluator, "enumerate", counted)
        verdict = check_inequation(lhs, rhs, p)
        monkeypatch.setattr(Evaluator, "enumerate", enumerate_)
        assert verdict.to_json(p) == check_inequation_by_full_scan(lhs, rhs, p).to_json(p)
        assert verdict.failed and 0 < len(asked) < 264 // 3, len(asked)

    def test_head_reaching_verdicts_match_full_scan(self):
        """A seeded slice of tools/pruned_scan_sweep.py, 500 of the 58,520
        cases of its head-reaching claim set (abstractions whose bodies may
        hold redexes, and one redex), through check_inequation both ways and
        check_equation.  The check may answer where the full scan refuses."""
        kinds = Counter()
        for lhs, rhs, p, ranks in Random(89).sample(sweep_cases(CLAIM_SETS["head-reaching"]), 500):
            kinds.update(map(_kind, _both_ways(CLAIM_SETS["head-reaching"], lhs, rhs, p, ranks)))
        assert kinds["fails_with_evidence"] > 200 and kinds["holds_up_to"] > 100, kinds

    def test_pruning_engages_through_head_redexes(self, monkeypatch):
        """The right side of \\x0.\\x1.x1 (\\x2.x2) <= (\\x0.x0) (\\x0.\\x1.x1)
        reaches an abstraction through its head redex, and the right body of
        \\x0.x0 x0 x0 <= \\x0.(\\x1.x1) (\\x1.x1) holds a redex, so both were
        scanned whole: both claims hold, after enumerating the left body
        1,024 times on two free atoms and 512 times on two atoms coding
        ({0}, 0) to 0.  The pruned walk, far fewer.  A left side whose head
        is a redex was enumerated whole: (\\x0.x0) (\\x0.\\x1.x1) at rank 3
        enumerated the body it reaches 1,024 times before its witness
        against \\x0.\\x1.x1 (\\x2.x2) at rank 5; the lazy scan, far fewer."""
        enumerate_ = Evaluator.enumerate
        free2, coded = PartialPair({0, 1}), PartialPair({0, 1}, {(frozenset({0}), 0): 0})
        cases = (
            ("\\x0.\\x1.x1 (\\x2.x2) <= (\\x0.x0) (\\x0.\\x1.x1)", free2, (2, 4), "holds_up_to", 1024),
            ("\\x0.x0 x0 x0 <= \\x0.(\\x1.x1) (\\x1.x1)", coded, (2, 4), "holds_up_to", 512),
            ("(\\x0.x0) (\\x0.\\x1.x1) <= \\x0.\\x1.x1 (\\x2.x2)", free2, (3, 5), "fails_with_evidence", 1024),
        )
        for claim, p, ranks, kind, unpruned in cases:
            lhs, rhs = (parse(side) for side in claim.split("<="))
            body = Evaluator(p, ranks[0])._head(lhs, {}, ranks[0])[0].body
            asked = []

            def counted(self, t, env, trim):
                if t is body:
                    asked.append(trim)
                return enumerate_(self, t, env, trim)

            monkeypatch.setattr(Evaluator, "enumerate", counted)
            verdict = check_inequation(lhs, rhs, p, *ranks)
            monkeypatch.setattr(Evaluator, "enumerate", enumerate_)
            assert verdict.to_json(p) == check_inequation_by_full_scan(lhs, rhs, p, *ranks).to_json(p)
            assert verdict.kind == kind and 0 < len(asked) < unpruned // 3, (claim, len(asked))

    def test_refusing_bound_prunes_nothing(self, monkeypatch):
        """On one atom coding ({0}, 0) to 0, under a ceiling of 7, the right
        body of \\x.x <= \\y.(\\a.a) (\\b.b) y refuses level 1 at rank 3
        when y is bound to the empty set, as the bound binds it, though never
        under the sets the scan binds: a refusing bound counts as viable, so
        the claim holds, as its full scan does.  At (2, 4) the scan itself
        refuses, with the full scan's message."""
        monkeypatch.setattr(pairs, "DEFAULT_CEILING", 7)
        p = PartialPair({0}, {(frozenset({0}), 0): 0})
        lhs, rhs = parse("\\x.x"), parse("\\y.(\\a.a) (\\b.b) y")
        refused, level = [], Evaluator._level

        def recorded(self, j):
            try:
                return level(self, j)
            except ApproximationInfeasible:
                refused.append((self.k, j))
                raise

        monkeypatch.setattr(Evaluator, "_level", recorded)
        for ranks, kind in (((1, 3), "holds_up_to"), ((2, 4), ApproximationInfeasible)):
            refused.clear()
            got = outcome(lambda: check_inequation(lhs, rhs, p, *ranks).to_json(p))
            assert got == outcome(lambda: check_inequation_by_full_scan(lhs, rhs, p, *ranks).to_json(p)), ranks
            assert refused and (got["kind"] if isinstance(got, dict) else got[0]) == kind, (ranks, got)

    def test_subsets_walk_matches_filter(self):
        """_subsets(items, viable) reaches exactly the sets the filter of all
        subsets keeps, in the same order, for arbitrary viable tests; for a
        monotone holds test (passed chosen + rest) and for an inclusion bound
        F(chosen + rest) <= G(chosen) with F, G monotone, it keeps every set
        that holds, or that breaks the inclusion, of all subsets."""
        rng = Random(86)

        def monotone(items):  # S -> the v whose trigger set lies inside S
            triggers = [frozenset(rng.sample(items, rng.randint(0, len(items)))) for _ in range(4)]
            return lambda s: frozenset(v for v, need in enumerate(triggers) if need <= set(s))

        for _ in range(300):
            items = tuple(range(rng.randint(0, 6)))
            table = {}
            viable = lambda chosen, rest: table.setdefault((chosen, rest), rng.random() < 0.7)  # noqa: E731
            assert list(approximation._subsets(items, viable)) == _subsets_by_filter(items, viable)
            everything = _subsets_by_filter(items, lambda chosen, rest: True)
            assert list(approximation._subsets(items)) == everything
            holds = monotone(items)
            walked = approximation._subsets(items, lambda chosen, rest: bool(holds(chosen + rest)))
            assert [s for s in walked if holds(s)] == [s for s in everything if holds(s)]
            f, g = monotone(items), monotone(items)
            walked = approximation._subsets(items, lambda chosen, rest: not f(chosen + rest) <= g(chosen))
            assert [s for s in walked if not f(s) <= g(s)] == [s for s in everything if not f(s) <= g(s)]


class TestBetaRelatedInclusion:
    """M <= N holds without a scan when one side reaches the other, compared
    by identity, in at most kN - kM one-step reductions: reduction grows an
    approximation at a fixed rank and each expansion costs one rank."""

    def test_verdicts_match_full_scan(self):
        """A seeded slice of tools/pruned_scan_sweep.py, 900 of the 27,104
        cases of its beta-related claim set: closed terms against their one-
        and two-step reducts, both ways.  The check may answer holds_up_to
        where the full scan refuses, and only at (2, 4): at (2, 3) two steps
        pass the slack.  Claims of lambda-beta hold almost everywhere."""
        kinds = Counter()
        for lhs, rhs, p, ranks in Random(87).sample(sweep_cases(CLAIM_SETS["beta-related"]), 900):
            result, got = compare(CLAIM_SETS["beta-related"], lhs, rhs, p, ranks)
            kinds["proved"] += result != "same"
            kinds[_kind(got)] += 1
        # at (2, 3) a claim two steps apart is scanned, and some fail there
        assert kinds["fails_with_evidence"] > 0 and kinds["holds_up_to"] > 800 and kinds["proved"] > 0

    def test_equation_reads_one_left_element_per_direction(self, monkeypatch, free1, free2):
        """Both directions of \\x0.x0 = (\\x0.x0) (\\x0.x0) hold, each building
        its left evaluator only.  No guard of that evaluator can fire on one
        or two free atoms, so neither direction asks for a group of its left
        side or takes an element of it.  Under a ceiling low enough that a
        guard could fire, each takes the first element of its left side, as
        before."""
        ranks, taken = [], []
        init, groups, ordered = Evaluator.__init__, Evaluator._abstraction, Evaluator.ordered

        def counted_init(self, pair, k):
            ranks.append(k)
            init(self, pair, k)

        def counted_groups(self, t, env, trim, bound=None):
            for group in groups(self, t, env, trim, bound):
                taken.append("group")
                yield group

        def counted_ordered(self, t, env, trim, bound=None):
            for e in ordered(self, t, env, trim, bound):
                taken.append(t)
                yield e

        monkeypatch.setattr(Evaluator, "__init__", counted_init)
        monkeypatch.setattr(Evaluator, "ordered", counted_ordered)
        lhs, rhs = parse("\\x0.x0"), parse("(\\x0.x0) (\\x0.x0)")
        for p, ceiling in ((free1, 50), (free2, 20_000)):
            with monkeypatch.context() as patched:
                patched.setattr(Evaluator, "_abstraction", counted_groups)
                ranks.clear(), taken.clear()
                assert [v.kind for v in check_equation(lhs, rhs, p)] == ["holds_up_to"] * 2
                assert ranks == [2, 2] and taken == [], p
            with monkeypatch.context() as patched:
                patched.setattr(pairs, "DEFAULT_CEILING", ceiling)
                ranks.clear(), taken.clear()
                assert [v.kind for v in check_equation(lhs, rhs, p)] == ["holds_up_to"] * 2
                assert ranks == [2, 2] and taken == [lhs, rhs], p

    def test_search_decides_the_relation_once(self, monkeypatch):
        """A search over 14 components asks the relation at every component
        it checks, and decides it at the first."""
        checked = []
        real = minmodel.check_inequation

        def recording(lhs, rhs, p, *bounds):
            checked.append(p)
            return real(lhs, rhs, p, *bounds)

        monkeypatch.setattr(minmodel, "check_inequation", recording)
        approximation._related.cache_clear()
        m = parse("\\x0.x0 x0")
        assert search_counterexample(m, App(IDENTITY, m), 13) is None
        info = approximation._related.cache_info()
        assert len(checked) > 1 and (info.misses, info.hits) == (1, len(checked) - 1)

    def test_holds_where_the_full_scan_refuses(self, capsys, pair_file, free1):
        """(\\a.a a) (\\a.a) reduces to \\a.a in two steps, so the claim holds on
        the free atom, in the library and on the command line, where the
        full scan's right side refuses its level-2 abstraction."""
        lhs, rhs = parse("\\a.a"), parse("(\\a.a a) (\\a.a)")
        assert check_inequation(lhs, rhs, free1).kind == "holds_up_to"
        with pytest.raises(ApproximationInfeasible) as refused:
            check_inequation_by_full_scan(lhs, rhs, free1)
        assert str(refused.value) == "abstraction over level 2 needs 2^25·25 keys, ceiling is 1000000"
        assert main(["--json", "check", "--pair", pair_file(free1), "\\a.a <= (\\a.a a) (\\a.a)"]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "holds_up_to"

    def test_three_steps_pass_the_slack(self):
        """(\\a.a) (\\a.a a) (\\a b.b) reduces to \\b.b in three steps, one more
        than kN - kM, so the claim is scanned, and refuted on component 2."""
        found = search_counterexample(parse("\\b.b"), parse("(\\a.a) (\\a.a a) (\\a b.b)"), 2)
        assert found is not None and found[0] == 2 and found[1].failed

    def test_reduct_walk_stops_when_no_reduct_is_left(self, free1):
        """\\x.x has no reduct, so a walk from it stops at once whatever the
        slack; it ran one empty round per step, for seconds at 10^8 steps."""
        redex = parse("(\\x.x) (\\y.y)")
        start = time.perf_counter()
        assert not approximation._reaches(IDENTITY, redex, 10**8, pairs.DEFAULT_CEILING)
        assert check_inequation(IDENTITY, redex, free1, 0, 10**8).kind == "holds_up_to"
        assert time.perf_counter() - start < 1

    def test_reduct_walk_is_stack_safe_and_charged_to_the_ceiling(self, monkeypatch):
        """A 2,001-application spine of identities is two steps from the
        spine two applications shorter, at the default recursion limit; the
        nodes the walk rebuilds (about 4,000) are charged to the ceiling,
        and past it the claim is left to the scan.  The 1,200-binder chain
        holds no redex, so no reduct of it is built."""
        assert sys.getrecursionlimit() <= 1000
        spines = [IDENTITY]
        for _ in range(2001):
            spines.append(App(spines[-1], IDENTITY))
        assert approximation._beta_related(spines[-1], spines[-3], 2)
        assert not approximation._beta_related(spines[-1], spines[-4], 2)
        assert not approximation._beta_related(godel_decode((3**1200 - 1) // 2), IDENTITY, 2)
        monkeypatch.setattr(pairs, "DEFAULT_CEILING", 3000)
        assert not approximation._beta_related(spines[-1], spines[-3], 2)


class TestMemoDiscipline:
    """contains memoizes only applications and enumerate all but variables:
    a variable is looked up, and membership in an abstraction inverts the
    coding from the evaluator's inverse table, with no memo entry.  Each
    bypass is the equality the memo used to cache."""

    def test_contains_matches_enumeration(self):
        """contains(t, e) is membership of e in enumerate(t), for every
        element up to the rank bound, at top level and under a redex, where
        the variable is bound to a LazyValue of t, and for a free variable
        bound to every element up to the bound, alone and as an argument.
        Omega, alone and applied, takes the self-application collapse."""
        cases = [(p, k) for p in ONE_ATOM_PAIRS + _seeded_pairs(8, 2, 2) for k in (0, 1, 2)]
        wrappers = [
            lambda t: t,
            lambda t: App(Abs("x", Var("x")), t),
            lambda t: App(Abs("x", Abs("y", Var("x"))), t),
            lambda t: App(t, Var("z")),
        ]
        terms = [Var("z")] + [wrap(t) for t in closed_terms_up_to(5) for wrap in wrappers]
        terms += [OMEGA, App(OMEGA, Var("z")), App(parse("\\x.x x"), Var("z"))]
        checked = 0
        for p, k in cases:
            universe = elements_up_to(p, k)
            env = {"z": frozenset(universe)}
            queried, enumerated = Evaluator(p, k), Evaluator(p, k)
            for term in terms:
                want = enumerated.enumerate(term, env, k)
                got = frozenset(e for e in universe if queried.contains(term, env, e))
                assert got == want, (term, p, k)
                checked += len(universe)
        assert checked > 200_000

    def test_set_level_membership_matches_per_element_rule(self):
        """A variable bound to an explicit set is enumerated as the set itself
        and tested against an argument set by inclusion.  PerElement asks
        every element alone instead; the two agree on enumerate and contains
        for terms applied to a variable, applying one, and under a redex
        whose variable is bound to a LazyValue, which is asked element by
        element in both."""

        class PerElement(Evaluator):
            def _holds_all(self, t, env, args):
                return all(self.contains(t, env, x) for x in args)

            def enumerate(self, t, env, trim):
                value = env.get(t.name) if isinstance(t, Var) else None
                if isinstance(value, frozenset):
                    return frozenset(e for e in value if e.rank <= min(trim, self.k))
                return super().enumerate(t, env, trim)

        rng = Random(16)
        wrappers = [
            lambda t: t,
            lambda t: App(t, Var("z")),
            lambda t: App(Var("z"), t),
            lambda t: App(Abs("x", App(t, Var("x"))), App(Var("z"), Var("z"))),
        ]
        terms = [wrap(t) for t in closed_terms_up_to(5) for wrap in wrappers]
        checked = lazy_bound = 0
        for p in ONE_ATOM_PAIRS + _seeded_pairs(8, 2, 2):
            for k in (0, 1, 2):
                universe = elements_up_to(p, k)
                values = [frozenset(universe), frozenset(), frozenset(e for e in universe if rng.random() < 0.5)]
                # every element below rank k, and a sample of the 2,048 of rank 2 on two atoms
                top = [e for e in universe if e.rank == k]
                probes = [e for e in universe if e.rank < k] + rng.sample(top, min(len(top), 40))
                fast, slow = Evaluator(p, k), PerElement(p, k)  # memo keys hold z's value
                for value in values:
                    env = {"z": value}
                    for term in terms:
                        for trim in range(k + 1):
                            assert fast.enumerate(term, env, trim) == slow.enumerate(term, env, trim), (term, p, k)
                        for e in probes:
                            assert fast.contains(term, env, e) == slow.contains(term, env, e), (term, p, k, e)
                        checked += len(probes)
                lazy_bound += len(fast._lazy_cache)
        assert checked > 15_000 and lazy_bound > 0

    def test_memo_holds_only_applications(self, monkeypatch):
        """After a check on two atoms, every contains entry is an
        application's and no enumerate entry is a variable's.  No entry of
        either memo is a redex other than Omega, at rank >= 1: every query
        follows its term through its head first (Evaluator._head)."""
        made = []

        class Recorded(Evaluator):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(approximation, "Evaluator", Recorded)
        p = _seeded_pairs(8, 2, 1)[0]
        for lhs, rhs in [("\\x y.x y", "\\x.x"), ("\\x.x", "(\\y.y) (\\w.w)"), ("\\x.x x", "\\x.(\\y.y) x")]:
            check_inequation(parse(lhs), parse(rhs), p)
        contained, enumerated = set(), set()  # term kinds: Var, Abs or App
        for ev in made:
            contained |= {type(key[0]) for key in ev._contains_memo}
            enumerated |= {type(key[0]) for key in ev._enum_memo}
        assert contained == {App}
        assert enumerated and Var not in enumerated
        redexes = [
            key[0]
            for ev in made
            if ev.k >= 1
            for key in itertools.chain(ev._contains_memo, ev._enum_memo)
            if isinstance(key[0], App) and isinstance(key[0].fun, Abs) and not key[0].omega
        ]
        assert redexes == []

    def test_lazy_variable_read_at_the_trim_asked_for(self, free1):
        """(\\x y.x) (\\z.z) at rank 3 binds x lazily to \\z.z at rank 2,
        and the abstraction \\y.x asks its body at trim 1 for each argument
        set: \\z.z is enumerated at trim 1 only, not at its value's trim."""
        ev = Evaluator(free1, 3)
        ev.enumerate(parse("(\\x y.x) (\\z.z)"), {}, 3)
        identity = parse("\\z.z")
        assert [key[-1] for key in ev._enum_memo if key[0] is identity] == [1]

    def test_inverse_table_matches_coding_preimage(self):
        for p in ONE_ATOM_PAIRS + _seeded_pairs(8, 2, 3) + _seeded_pairs(10, 3, 2):
            ev = Evaluator(p, 1)
            assert set(ev.inverse) == set(p.coding.values())
            assert Evaluator(p, 2).coded_results is ev.coded_results  # built once per pair
            for e in elements_up_to(p, 1):
                assert ev.preimage(e) == coding_preimage(p, e), (p, e)

    def test_sorted_level_built_once_per_pair(self, monkeypatch, free2):
        """The sort_key-ordered level is kept in pair.derived
        (completion.sorted_level): a second evaluator over the pair reads it
        back after two closed-form counts, its key guard's and the kept
        level's, and the guard still reads the ceiling on every call."""
        level = Evaluator(free2, 2)._level(1)
        assert list(level) == sorted(elements_up_to(free2, 1), key=CompletionElement.sort_key)
        counts = []
        count = completion.count_up_to

        def counted(p, k):
            counts.append(k)
            return count(p, k)

        monkeypatch.setattr(approximation, "count_up_to", counted)
        monkeypatch.setattr(completion, "count_up_to", counted)
        assert Evaluator(free2, 2)._level(1) is level and counts == [1, 1]
        monkeypatch.setattr(pairs, "DEFAULT_CEILING", 100)
        with pytest.raises(ApproximationInfeasible):
            Evaluator(free2, 2)._level(1)

    def test_three_atom_abstraction_still_refuses(self):
        with pytest.raises(ApproximationInfeasible) as refused:
            check_inequation(IDENTITY, IDENTITY, PartialPair({0, 1, 2}))
        assert str(refused.value) == "abstraction over level 1 needs 2^27·27 keys, ceiling is 1000000"


class TestEvaluatorLifetime:
    def test_no_evaluator_outlives_its_call(self):
        """An evaluator is in no reference cycle, its lazy values included:
        with the garbage collector off, none outlives the public call that
        built it."""

        def live():
            return sum(isinstance(o, Evaluator) for o in gc.get_objects())

        pair = PartialPair({0, 1}, {(frozenset({0}), 1): 0})
        lhs = parse("(\\x.x) (\\y.y y)")  # a redex: its argument is bound lazily
        gc.collect()
        gc.disable()
        try:
            before = live()
            verdict = check_inequation(lhs, parse("\\z.z"), pair)
            assert verdict.failed and live() == before
            assert member(lhs, pair, verdict.witness, 2).found and live() == before
            extract_witness_subpair(lhs, pair, verdict.witness, verdict.member_rank)
            assert live() == before
        finally:
            gc.enable()


class TestOrbitInvariance:
    def test_automorphisms_fix_approximations_setwise(self, free2):
        p_sym = PartialPair({0, 1}, {(frozenset({0}), 0): 0, (frozenset({1}), 1): 1})
        for p in (free2, p_sym):
            for theta in automorphisms(p):
                lifted = lift_morphism(theta)
                for t in (IDENTITY, TRUE, FALSE, OMEGA):
                    for k in range(3):
                        s = approx_interpret(t, p, k=k)
                        assert frozenset(map(lifted, s)) == s


class TestFailurePersistence:
    def test_witness_survives_between_subpair_and_restriction(self, p1):
        verdict = check_inequation(TRUE, FALSE, p1, 2, 4)
        w = verdict.witness_subpair
        rk = restrict(p1, verdict.member_rank)
        target = rk.atom_of[verdict.witness]
        rng = Random(44)
        ambient = rk.pair
        extras = [key for key in ambient.coding if key not in w.coding]
        for _ in range(20):
            chosen = [key for key in extras if rng.random() < 0.4]
            grown = w
            for key in chosen:
                args, alpha = key
                v = ambient.coding[key]
                grown = union(
                    grown, PartialPair(args | {alpha, v}, {key: v})
                )
            assert is_subpair(w, grown) and is_subpair(grown, ambient)
            # membership on the left persists in every intermediate pair
            assert target in interpret(TRUE, grown, Environment())
            # and the element is still missing on the right at the recorded bound
            assert not Evaluator(p1, verdict.rhs_bound).contains(FALSE, {}, verdict.witness)


class TestBetaCompatibility:
    def test_slack_absorbs_reduction(self, free1):
        pairs = [
            ("I I", "I"),
            ("(\\x.x x) I", "I"),
            ("T I I", "I"),
            ("\\a.T a a", "\\a.a"),
            ("\\a b.T a b", "T"),
            ("\\a b.F a b", "F"),
        ]
        for lhs_text, rhs_text in pairs:
            lhs, rhs = parse(lhs_text), parse(rhs_text)
            for k in range(3):
                start = approx_interpret(lhs, free1, k=k)
                ok = False
                for slack in range(4):
                    ev = Evaluator(free1, k + slack)
                    if all(ev.contains(rhs, {}, e) for e in start):
                        ok = True
                        break
                assert ok, (lhs_text, rhs_text, k)
