from random import Random

import pytest

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
from gml.completion import (
    base,
    lift_automorphism,
    pair_of,
    restrict,
    restriction_atom,
)
from gml.pairs import PartialPair, automorphisms, is_subpair, union, validate
from gml.semantics import Environment, interpret
from gml.terms import FALSE, IDENTITY, OMEGA, TRUE, Var, parse
from oracles import closed_terms_up_to, random_pair, restriction_witness


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


class TestOrbitInvariance:
    def test_automorphisms_fix_approximations_setwise(self, free2):
        p_sym = PartialPair({0, 1}, {(frozenset({0}), 0): 0, (frozenset({1}), 1): 1})
        for p in (free2, p_sym):
            for theta in automorphisms(p):
                lifted = lift_automorphism(p, theta)
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
