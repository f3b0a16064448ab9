import itertools
import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gml.completion import base, generate_subgraphmodel
from gml.minmodel import PRIME_CODED, relocate
from gml.pairs import (
    CeilingExceeded,
    Morphism,
    PairConflictError,
    PartialPair,
    automorphisms,
    is_subpair,
    orbits,
    union,
    validate,
)
from oracles import all_pairs, closure_pair_by_key_scan, cycles_left_by, isomorphisms, random_pair, random_subpair


class TestValidate:
    def test_single_entry_ok(self, p1):
        assert validate(p1).ok

    def test_injectivity_violation(self):
        p = PartialPair({0}, [(((0,), 0), 0), (((), 0), 0)])
        report = validate(p)
        assert not report.ok
        assert any("injectivity" in v for v in report.violations)

    def test_unknown_atom_violation(self):
        p = PartialPair({0}, {(frozenset({5}), 0): 0})
        report = validate(p)
        assert not report.ok
        assert any("outside the carrier" in v for v in report.violations)

    def test_report_lists_every_bad_key(self):
        p = PartialPair(
            {0, 1},
            {
                (frozenset({0}), 0): 0,
                (frozenset({1}), 1): 0,
                (frozenset(), 0): 5,
            },
        )
        report = validate(p)
        assert len(report.violations) == 2


class TestSubpair:
    def test_reflexive(self, p1):
        assert is_subpair(p1, p1)

    def test_empty_below_everything(self, p1):
        assert is_subpair(PartialPair(()), p1)

    def test_coding_must_extend(self, p1, free1):
        assert not is_subpair(p1, free1)
        assert is_subpair(free1, p1)

    def test_infinite_larger_side(self, p1):
        """The prime-coded pair is asked membership and lookups only."""
        assert is_subpair(relocate(3), PRIME_CODED)
        assert not is_subpair(p1, PRIME_CODED)  # atom 0 lies in no component

    def test_partial_order_properties(self):
        rng = Random(11)
        for _ in range(200):
            c = random_pair(rng)
            b = random_subpair(rng, c)
            a = random_subpair(rng, b)
            assert is_subpair(a, b) and is_subpair(b, c)
            assert is_subpair(a, c)  # transitivity
            if is_subpair(b, a):
                assert a == b  # antisymmetry

    def test_union_is_least_upper_bound(self):
        rng = Random(12)
        for _ in range(200):
            c = random_pair(rng)
            a = random_subpair(rng, c)
            b = random_subpair(rng, c)
            merged = union(a, b)
            assert is_subpair(a, merged) and is_subpair(b, merged)
            assert is_subpair(merged, c)


class TestUnion:
    def test_idempotent(self, p1):
        assert union(p1, p1) == p1

    def test_disjoint_codings_preserved(self):
        a = PartialPair({0}, {(frozenset({0}), 0): 0})
        b = PartialPair({1}, {(frozenset({1}), 1): 1})
        merged = union(a, b)
        assert merged.atoms == {0, 1}
        assert len(merged.coding) == 2

    def test_conflicting_key_raises(self):
        a = PartialPair({0, 1}, {(frozenset({0}), 0): 1})
        b = PartialPair({0, 1, 2}, {(frozenset({0}), 0): 2})
        with pytest.raises(PairConflictError):
            union(a, b)

    def test_injectivity_conflict_raises(self):
        a = PartialPair({0, 1}, {(frozenset({0}), 0): 1})
        b = PartialPair({0, 1}, {(frozenset({1}), 0): 1})
        with pytest.raises(PairConflictError):
            union(a, b)


class TestAutomorphisms:
    def test_free_pair_full_symmetric_group(self, free2):
        auts = automorphisms(free2)
        assert len(auts) == 2
        mappings = {tuple(sorted(m.mapping.items())) for m in auts}
        assert ((0, 0), (1, 1)) in mappings
        assert ((0, 1), (1, 0)) in mappings

    def test_coded_singleton_identity_only(self, p1):
        auts = automorphisms(p1)
        assert len(auts) == 1
        assert auts[0].mapping == {0: 0}

    def test_coded_triple_blocks_swap(self):
        p = PartialPair({0, 1}, {(frozenset({0}), 0): 0})
        auts = automorphisms(p)
        assert [m.mapping for m in auts] == [{0: 0, 1: 1}]

    def test_group_laws(self):
        rng = Random(3)
        for _ in range(40):
            p = random_pair(rng, max_atoms=3, max_entries=3)
            auts = automorphisms(p)
            table = {tuple(sorted(m.mapping.items())) for m in auts}
            assert tuple(sorted({a: a for a in p.atoms}.items())) in table
            for m, n in itertools.product(auts, repeat=2):
                assert tuple(sorted(m.compose(n).mapping.items())) in table
            for m in auts:
                assert tuple(sorted(m.inverse().mapping.items())) in table

    def test_size_bound(self):
        with pytest.raises(CeilingExceeded):
            automorphisms(PartialPair(range(9)))

    def test_eight_atoms_pass_the_bound(self):
        assert len(automorphisms(PartialPair(range(8), {(frozenset(), 0): 0}))) == 7 * 6 * 5 * 4 * 3 * 2

    def test_matches_checked_isomorphisms_in_order(self):
        """Exactly the permutations of the sorted carrier that are
        isomorphisms, in itertools.permutations order: over every pair of at
        most 3 atoms and 2 entries, and over seeded pairs of up to 5 atoms
        whose codings need not be injective."""
        rng = Random(21)
        pairs = all_pairs(3, 2)
        for _ in range(150):
            n = rng.randint(1, 5)
            keys = [
                (frozenset(a), r) for m in range(n + 1) for a in itertools.combinations(range(n), m) for r in range(n)
            ]
            chosen = rng.sample(keys, rng.randint(1, min(len(keys), 4)))
            pairs.append(PartialPair(range(n), {key: rng.randrange(n) for key in chosen}))
        assert sum(not validate(p).ok for p in pairs) > 30
        assert sum(len(automorphisms(p)) > 1 for p in pairs if len(p.atoms) > 3) > 10
        for p in pairs:
            assert [m.mapping for m in automorphisms(p)] == [m.mapping for m in isomorphisms(p, p)], p

    def test_leaves_no_reference_cycle(self):
        p = PartialPair(range(4), {(frozenset({0}), 1): 2, (frozenset(), 3): 3})
        assert cycles_left_by(lambda: automorphisms(p)) == []

    def test_every_automorphism_checks(self):
        rng = Random(4)
        for _ in range(30):
            p = random_pair(rng, max_atoms=3, max_entries=3)
            for m in automorphisms(p):
                assert m.check() and m.is_isomorphism()


class TestOrbits:
    def test_free_pair_single_orbit(self, free2):
        assert orbits(free2) == [frozenset({0, 1})]

    def test_coded_pair_separates(self):
        p = PartialPair({0, 1}, {(frozenset({0}), 0): 0})
        assert orbits(p) == [frozenset({0}), frozenset({1})]

    def test_singleton(self, free1):
        assert orbits(free1) == [frozenset({0})]

    def test_partition_bound(self):
        rng = Random(5)
        for _ in range(40):
            p = random_pair(rng, max_atoms=3, max_entries=2)
            parts = orbits(p)
            assert sum(len(q) for q in parts) == len(p.atoms)
            assert len(parts) <= max(1, len(p.atoms)) or not p.atoms


class TestMorphism:
    def test_check_detects_broken_map(self, p1, free1):
        assert not Morphism(p1, free1, {0: 0}).check()
        assert Morphism(free1, p1, {0: 0}).check()

    def test_check_into_infinite_target(self):
        comp = relocate(3)
        assert Morphism(comp, PRIME_CODED, {x: x for x in comp.atoms}).check()
        assert not Morphism(comp, PRIME_CODED, {x: x + 1 for x in comp.atoms}).check()

    def test_stray_coding_atom_is_no_morphism(self):
        """A coded key naming an atom outside the carrier has no image, so
        check answers False instead of raising: no permutation is an
        automorphism, and every atom keeps an orbit of its own."""
        stray = PartialPair({0}, {(frozenset({1}), 0): 0})
        assert not Morphism(stray, stray, {0: 0}).check()
        assert not Morphism(stray, stray, {0: 0}).is_isomorphism()
        assert automorphisms(stray) == []
        assert orbits(stray) == [frozenset({0})]
        for coding in ({(frozenset(), 2): 0}, {(frozenset(), 0): 2}):  # stray result, stray value
            p = PartialPair({0, 1}, coding)
            assert automorphisms(p) == []
            assert orbits(p) == [frozenset({0}), frozenset({1})]

    def test_compose_and_inverse(self, free2):
        swap = Morphism(free2, free2, {0: 1, 1: 0})
        assert swap.is_isomorphism()
        assert swap.compose(swap).mapping == {0: 0, 1: 1}


class TestGenerateSubgraphmodel:
    """Closure under a completion's total coding (gml.completion)."""

    def test_empty_seed_saturates(self, p1):
        result = generate_subgraphmodel(p1, [], 3)
        assert result.saturated
        assert result.pair == PartialPair(())

    def test_total_coding_grows_every_round(self, free1):
        sizes = []
        for budget in (0, 1, 2):
            result = generate_subgraphmodel(free1, [base(0)], budget)
            sizes.append(len(result.elements))
            assert not result.saturated
        assert sizes[0] < sizes[1] < sizes[2]

    def test_size_guard_refuses_before_the_round(self, free1):
        # 1, 3 and then 25 elements, whose 2^25·25 keys exceed the ceiling
        with pytest.raises(CeilingExceeded, match="closure stage has 25 elements"):
            generate_subgraphmodel(free1, [base(0)], 3)

    def test_induced_pair_validates(self, p1):
        result = generate_subgraphmodel(p1, [base(0)], 1)
        assert validate(result.pair).ok

    def test_matches_key_scan_oracle(self, p1):
        """The completions of 20 seeded pairs from one and from two base
        atoms, p1 and the prime-coded pair.  The scan is exponential in the
        closure size, so a second round runs only from a first round of at
        most 2 elements."""
        cases = [(p1, [base(0)], 2), (PRIME_CODED, [base(5)], 2)]
        for p in map(random_pair, map(Random, range(20))):
            for width in (1, 2):
                seed = [base(x) for x in sorted(p.atoms)[:width]]
                cases.append((p, seed, 2 if len(generate_subgraphmodel(p, seed, 1).elements) <= 2 else 1))
        assert sum(budget == 2 for _, seed, budget in cases if seed) > 2
        for p, seed, budget in cases:
            result = generate_subgraphmodel(p, seed, budget)
            assert result.pair == closure_pair_by_key_scan(p, result.elements)


class TestFileFormat:
    def test_roundtrip(self, p1, tmp_path):
        doc = p1.to_json()
        assert doc == {
            "atoms": ["0"],
            "coding": [{"args": ["0"], "res": "0", "val": "0"}],
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        loaded = PartialPair.load(str(path))
        assert validate(loaded).ok
        assert loaded.to_json() == doc

    def test_labels_resolve(self):
        doc = {"atoms": ["a0", "a1"], "coding": [{"args": ["a0"], "res": "a1", "val": "a0"}]}
        p = PartialPair.from_json(doc)
        assert p.atoms == {0, 1}
        assert p.coding == {(frozenset({0}), 1): 0}
        assert p.label(0) == "a0"

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            PartialPair.from_json({"atoms": [], "coding": [], "extra": 1})
        with pytest.raises(ValueError):
            PartialPair.from_json({"atoms": ["a"], "coding": [{"args": [], "res": "a", "val": "a", "x": 1}]})

    def test_duplicate_args_rejected(self):
        with pytest.raises(ValueError):
            PartialPair.from_json(
                {"atoms": ["a"], "coding": [{"args": ["a", "a"], "res": "a", "val": "a"}]}
            )


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=60)
def test_pair_hash_consistency(seed):
    rng = Random(seed)
    p = random_pair(rng)
    q = PartialPair(p.atoms, dict(p.coding), labels={0: "zero"})
    assert p == q and hash(p) == hash(q)


@given(st.integers(min_value=0, max_value=2**20))
@settings(max_examples=60)
def test_union_laws(seed):
    rng = Random(seed)
    c = random_pair(rng)
    a, b = random_subpair(rng, c), random_subpair(rng, c)
    assert union(a, b) == union(b, a)
    assert union(a, union(b, c)) == union(union(a, b), c)
    assert union(a, a) == a
