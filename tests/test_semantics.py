import json
from random import Random

import pytest

from gml.approximation import check_inequation
from gml.pairs import PartialPair, automorphisms, is_subpair
from gml.semantics import Environment, interpret, omega_characterization
from gml.terms import IDENTITY, OMEGA, Var, parse
from oracles import (
    closed_terms_up_to,
    cycles_left_by,
    naive_interpret,
    random_env,
    random_pair,
    random_subpair,
)


class TestEnvironment:
    def test_default_empty(self):
        assert Environment().get("x") == frozenset()

    def test_bind_is_persistent(self):
        env = Environment()
        bound = env.bind("x", {1, 2})
        assert env.get("x") == frozenset()
        assert bound.get("x") == {1, 2}

    def test_file_roundtrip(self, p1, tmp_path):
        env = Environment({"x": {0}})
        doc = env.to_json(p1)
        assert doc == {"env": [{"var": "x", "atoms": ["0"]}]}
        path = tmp_path / "env.json"
        path.write_text(json.dumps(doc))
        assert Environment.load(str(path), p1) == env

    def test_unknown_fields_rejected(self, p1):
        with pytest.raises(ValueError):
            Environment.from_json({"env": [{"var": "x", "atoms": [], "junk": 1}]}, p1)


class TestInterpret:
    def test_variable_empty_env(self, p1):
        assert interpret(Var("x"), p1) == frozenset()

    def test_identity_in_coded_singleton(self, p1):
        assert interpret(IDENTITY, p1) == {0}

    def test_omega_in_coded_singleton(self, p1):
        assert interpret(OMEGA, p1) == {0}

    def test_redex_interpreted_as_is(self, p1):
        # no normalization happens first; the clauses run on the raw tree
        assert interpret(parse("(\\x.x) I"), p1) == naive_interpret(
            parse("(\\x.x) I"), p1, {}
        )

    def test_env_atom_outside_carrier(self, p1):
        with pytest.raises(ValueError):
            interpret(Var("x"), p1, Environment({"x": {7}}))

    def test_result_inside_carrier(self):
        rng = Random(21)
        for _ in range(150):
            p = random_pair(rng)
            env = Environment(random_env(rng, p))
            for t in (IDENTITY, OMEGA, parse("\\x.x a")):
                assert interpret(t, p, env) <= p.atoms

    def test_oracle_equivalence_small(self):
        rng = Random(22)
        terms = closed_terms_up_to(5)
        for _ in range(25):
            p = random_pair(rng, max_atoms=2, max_entries=2)
            for t in terms:
                assert interpret(t, p) == naive_interpret(t, p, {})

    def test_open_term_oracle_equivalence(self):
        rng = Random(23)
        for _ in range(80):
            p = random_pair(rng, max_atoms=2, max_entries=2)
            env = random_env(rng, p)
            for text in ("a", "\\x.a x", "a b", "\\x.x (a b)"):
                t = parse(text)
                assert interpret(t, p, Environment(env)) == naive_interpret(t, p, env)

    def test_monotone_in_subpair_and_env(self):
        rng = Random(24)
        terms = [parse(s) for s in ("I", "T", "\\x.x x", "\\x.a x", "(\\x.x) a")]
        for _ in range(150):
            b = random_pair(rng)
            a = random_subpair(rng, b)
            sigma = random_env(rng, b)
            rho = {
                name: frozenset(x for x in values if x in a.atoms and rng.random() < 0.8)
                for name, values in sigma.items()
            }
            for t in terms:
                small = interpret(t, a, Environment(rho))
                big = interpret(t, b, Environment(sigma))
                assert small <= big

    def test_automorphism_preservation(self):
        rng = Random(25)
        terms = [parse(s) for s in ("I", "T", "F", "\\x.x x")]
        for _ in range(60):
            p = random_pair(rng)
            env = random_env(rng, p)
            for theta in automorphisms(p):
                moved = Environment({n: theta.apply_set(v) for n, v in env.items()})
                for t in terms:
                    lhs = theta.apply_set(interpret(t, p, Environment(env)))
                    assert lhs == interpret(t, p, moved)


class TestOmegaCharacterization:
    def test_coded_singleton(self, p1):
        assert omega_characterization(p1) == {0}

    def test_empty_coding(self, free2):
        assert omega_characterization(free2) == frozenset()

    def test_agrees_with_interpretation(self):
        rng = Random(26)
        for _ in range(100):
            p = random_pair(rng, max_atoms=3, max_entries=3)
            assert omega_characterization(p) == interpret(OMEGA, p)


def test_subpair_fixture_sanity(p1, free1):
    assert is_subpair(free1, p1)
    assert not is_subpair(p1, PartialPair(()))


class TestLifetime:
    def test_no_reference_cycle_outlives_the_checker(self):
        """interpret leaves no reference cycle when it returns, so neither it
        nor a certificate re-checked by it leaves work for the collector."""
        pair = PartialPair({0, 1}, {(frozenset({0}), 1): 0})
        lhs, rhs = parse("(\\x.x) (\\y.y y)"), parse("\\z.z")
        assert cycles_left_by(lambda: interpret(lhs, pair)) == []
        assert cycles_left_by(lambda: check_inequation(lhs, rhs, pair)) == []
