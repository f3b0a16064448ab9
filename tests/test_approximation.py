import gc
from collections import Counter
from random import Random

import pytest

from gml import approximation, completion
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
from gml.terms import FALSE, IDENTITY, OMEGA, TRUE, Abs, App, Var, parse
from oracles import (
    abstraction_by_membership,
    check_inequation_by_full_scan,
    closed_terms_up_to,
    random_pair,
    random_term,
    restriction_witness,
    supporting_keys_by_enumeration,
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

    def test_given_evaluator_must_match_pair_and_rank(self, free1):
        e = pair_of([base(0)], base(0))  # found at rank 1, the probe the evaluator answers
        assert member(IDENTITY, free1, e, 1, evaluator=Evaluator(free1, 1)).found
        for wrong in (Evaluator(free1, 2), Evaluator(PartialPair({0}), 1)):
            with pytest.raises(ValueError):
                member(IDENTITY, free1, e, 1, evaluator=wrong)

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
        # numbering first: restriction_atom fills the entry the evaluator then reads
        fresh = PartialPair({0})
        assert restriction_atom(fresh, rank2) == want
        assert builds == {0: 1, 1: 2, 2: 1}
        level = approximation.Evaluator(fresh, 2)._level(1)
        assert set(level) == set(fresh.derived[("elements_up_to", 1)])
        assert builds == {0: 1, 1: 2, 2: 1}


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


def _outcome(run):
    """run()'s value, or the type and message of the refusal it raises."""
    try:
        return run()
    except CeilingExceeded as exc:
        return type(exc), str(exc)


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
        a seeded sample, which keeps the test to seconds."""
        terms = closed_terms_up_to(8)
        small = closed_terms_up_to(6)
        sample = small + Random(81).sample(terms[len(small):], 40)
        cases = [(p, k, terms) for p in ONE_ATOM_PAIRS for k in (0, 1, 2)]
        cases += [(p, k, sample if k == 2 else terms) for p in _seeded_pairs(8, 2, 2) for k in (0, 1, 2)]
        count = 0
        for p, k, pool in cases:
            for t in pool:
                got = _outcome(lambda: list(Evaluator(p, k).ordered(t, {}, k)))
                want = _outcome(
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
            forward = _outcome(lambda: check_inequation(lhs, rhs, p).to_json(p))
            assert forward == _outcome(lambda: check_inequation_by_full_scan(lhs, rhs, p).to_json(p)), (lhs, rhs, p)
            got = _outcome(lambda: [v.to_json(p) for v in check_equation(lhs, rhs, p, 1, 3)])
            want = _outcome(
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
                got = _outcome(lambda: check_inequation(t, IDENTITY, p))
                assert got == _outcome(lambda: check_inequation_by_full_scan(t, IDENTITY, p)), (t, p)
                assert got[0] is ApproximationInfeasible, (t, p)
        rhs = parse("(\\x.x x) (\\y.y)")
        free2 = PartialPair({0, 1})
        got = _outcome(lambda: check_inequation(IDENTITY, rhs, free2))
        assert got == _outcome(lambda: check_inequation_by_full_scan(IDENTITY, rhs, free2))
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


class TestMemoDiscipline:
    """contains memoizes only applications and enumerate all but variables:
    a variable is looked up, and membership in an abstraction inverts the
    coding from the evaluator's inverse table, with no memo entry.  Each
    bypass is the equality the memo used to cache."""

    def test_contains_matches_enumeration(self):
        """contains(t, e) is membership of e in enumerate(t), for every
        element up to the rank bound, at top level and under a redex, where
        the variable is bound to a LazyValue of t, and for a free variable
        bound to every element up to the bound, alone and as an argument."""
        cases = [(p, k) for p in ONE_ATOM_PAIRS + _seeded_pairs(8, 2, 2) for k in (0, 1, 2)]
        wrappers = [
            lambda t: t,
            lambda t: App(Abs("x", Var("x")), t),
            lambda t: App(Abs("x", Abs("y", Var("x"))), t),
            lambda t: App(t, Var("z")),
        ]
        terms = [Var("z")] + [wrap(t) for t in closed_terms_up_to(5) for wrap in wrappers]
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
        application's and no enumerate entry is a variable's."""
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

    def test_inverse_table_matches_coding_preimage(self):
        for p in ONE_ATOM_PAIRS + _seeded_pairs(8, 2, 3) + _seeded_pairs(10, 3, 2):
            ev = Evaluator(p, 1)
            assert set(ev.inverse) == set(p.coding.values())
            for e in elements_up_to(p, 1):
                assert ev.preimage(e) == coding_preimage(p, e), (p, e)

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
