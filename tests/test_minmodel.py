import itertools
from random import Random

import pytest

from gml.completion import (
    CeilingExceeded,
    CompletionCoding,
    PairElement,
    apply_coding,
    base,
    elements_up_to,
    pair_of,
)
from gml.minmodel import (
    PRIME_CODED,
    _rank_coding,
    _unrank_coding,
    component_of,
    element_code,
    element_decode,
    encode_pair,
    enumerate_pair,
    is_in_P,
    kth_prime,
    pair_count_for_size,
    prime_index,
    relocate,
    relocation_morphism,
    restriction_property_check,
    search_counterexample,
)
from gml.pairs import PartialPair, generate_subgraphmodel, validate
from gml.terms import FALSE, IDENTITY, OMEGA, TRUE, parse

from oracles import codings_in_order


class TestPrimes:
    def test_first_primes(self):
        assert [kth_prime(k) for k in range(1, 9)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_prime_index(self):
        assert prime_index(2) == 1
        assert prime_index(13) == 6
        assert prime_index(9) is None
        assert prime_index(1) is None

    def test_ten_thousandth_prime(self):
        assert kth_prime(10_000) == 104_729

    def test_millionth_prime_is_the_last(self):
        assert prime_index(15_485_863) == 10**6
        assert kth_prime(10**6) == 15_485_863
        with pytest.raises(CeilingExceeded):
            kth_prime(10**6 + 1)
        with pytest.raises(CeilingExceeded):
            prime_index(15_485_867)  # the next prime


class TestNumeration:
    def test_zero_is_empty_pair(self):
        assert enumerate_pair(0) == PartialPair(())

    def test_first_block(self):
        assert enumerate_pair(1) == PartialPair({0})
        assert enumerate_pair(2) == PartialPair({0}, {(frozenset(), 0): 0})
        assert enumerate_pair(3) == PartialPair({0}, {(frozenset({0}), 0): 0})

    def test_roundtrip(self):
        for k in range(501):
            assert encode_pair(enumerate_pair(k)) == k

    def test_all_enumerated_pairs_validate(self):
        for k in range(301):
            assert validate(enumerate_pair(k)).ok

    def test_bijectivity_no_duplicates(self):
        seen = set()
        for k in range(301):
            p = enumerate_pair(k)
            assert p not in seen
            seen.add(p)

    def test_agrees_with_reference_generator(self):
        for carrier in ((), (0,), (0, 1), (0, 1, 2), (0, 2, 3)):
            count = 0
            for j, coding in enumerate(codings_in_order(carrier)):
                assert _unrank_coding(carrier, j) == coding
                assert _rank_coding(carrier, coding) == j
                count += 1
            assert count == pair_count_for_size(len(carrier))
            with pytest.raises(ValueError):
                _unrank_coding(carrier, count)

    def test_agrees_with_reference_generator_four_atoms(self):
        carrier = (0, 1, 2, 3)
        for j, coding in zip(range(3000), codings_in_order(carrier)):
            assert _unrank_coding(carrier, j) == coding
            assert _rank_coding(carrier, coding) == j

    def test_roundtrip_far_indices(self):
        for k in (10**8, 10**12, 10**20):
            assert encode_pair(enumerate_pair(k)) == k

    @pytest.mark.parametrize(
        "pair",
        [
            PartialPair({0, 1}, {(frozenset(), 0): 0, (frozenset({1}), 0): 0}),
            PartialPair({0, 1}, {(frozenset(), 0): 2}),
            PartialPair({0, 1}, {(frozenset({0, 2}), 1): 1}),
            PartialPair({0}, {(frozenset(), 0): 0, (frozenset({0}), 0): 0}),
            PartialPair({-1, 0}),
        ],
        ids=["not-injective", "value-outside", "args-outside", "too-many-entries", "negative-atom"],
    )
    def test_invalid_pairs_rejected(self, pair):
        with pytest.raises(ValueError):
            encode_pair(pair)

    def test_encode_arbitrary_carrier(self):
        for p in (
            PartialPair({5}, {(frozenset({5}), 5): 5}),
            PartialPair({1, 3}),
            PartialPair({0, 2}, {(frozenset({0, 2}), 2): 0}),
            PartialPair({7}, {(frozenset(), 7): 7}),
        ):
            assert enumerate_pair(encode_pair(p)) == p


class TestRelocate:
    def test_empty_component(self):
        assert relocate(0) == PartialPair(())

    def test_coded_singleton_lands_on_prime_five(self):
        source = PartialPair({0}, {(frozenset({0}), 0): 0})
        k = encode_pair(source)
        assert kth_prime(k) == 5
        assert relocate(k) == PartialPair({5}, {(frozenset({5}), 5): 5})

    def test_isomorphism_verified(self):
        for k in range(40):
            m = relocation_morphism(k)
            assert m.source == enumerate_pair(k)
            assert m.target == relocate(k)
            assert m.is_isomorphism() or not m.source.atoms

    def test_carriers_pairwise_disjoint(self):
        carriers = [frozenset(relocate(k).atoms) for k in range(51)]
        for a, b in itertools.combinations(carriers, 2):
            assert not (a & b)

    def test_relocated_pairs_validate(self):
        for k in range(60):
            assert validate(relocate(k)).ok


class TestCarrierMembership:
    def test_one_is_out(self):
        assert not is_in_P(1)

    def test_exponent_must_hit_carrier(self):
        # component 4 is ({1}, {}); 7**1 encodes atom 0, which it lacks
        assert enumerate_pair(4) == PartialPair({1})
        assert not is_in_P(7)
        assert is_in_P(49)

    def test_brute_force_agreement(self):
        members = set()
        k = 1
        while kth_prime(k) <= 10_000:
            members |= {a for a in relocate(k).atoms if a <= 10_000}
            k += 1
        for n in range(1, 10_001):
            assert is_in_P(n) == (n in members), n

    def test_component_of(self):
        assert component_of(2) == 1
        assert component_of(5) == 3
        with pytest.raises(ValueError):
            component_of(1)
        with pytest.raises(ValueError):
            component_of(6)


class TestUniversalCoding:
    def test_coded_key_collapses(self):
        a5 = base(5)
        assert apply_coding(PRIME_CODED, {a5}, a5) == a5

    def test_uncoded_key_pairs(self):
        a5 = base(5)
        assert apply_coding(PRIME_CODED, frozenset(), a5) == pair_of(frozenset(), a5)

    def test_mixed_components_never_collapse(self):
        out = apply_coding(PRIME_CODED, {base(2)}, base(5))
        assert isinstance(out, PairElement)

    def test_agrees_with_component_completion(self):
        handle = CompletionCoding(PRIME_CODED)
        for k in (1, 2, 3, 5):
            comp = relocate(k)
            assert handle.extends(comp)
            universe = elements_up_to(comp, 1)
            for m in range(3):
                for args in itertools.combinations(universe, m):
                    for res in universe:
                        through_completion = apply_coding(comp, frozenset(args), res)
                        directly = apply_coding(PRIME_CODED, frozenset(args), res)
                        assert through_completion is directly

    def test_injectivity_sampled(self):
        rng = Random(51)
        atoms = [base(n) for n in (2, 3, 5, 49, 121)]
        pool = list(atoms)
        for _ in range(200):
            args = frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
            res = rng.choice(pool)
            pool.append(apply_coding(PRIME_CODED, args, res))
        seen = {}
        keys = []
        for _ in range(10_000):
            args = frozenset(rng.sample(pool, rng.randint(0, 3)))
            res = rng.choice(pool)
            keys.append((args, res))
        for key in keys:
            value = apply_coding(PRIME_CODED, *key)
            assert seen.setdefault(value, key) == key

    def test_handle_rejects_foreign_atoms(self):
        with pytest.raises(ValueError):
            CompletionCoding(PRIME_CODED).atom(6)


class TestElementCodec:
    def test_roundtrip_sampled(self):
        # set codes are bitmasks over member codes, so sampling stays shallow:
        # one nesting level keeps codes within ordinary bignum range
        rng = Random(52)
        atoms = [base(n) for n in (2, 3, 5, 49)]
        codes = {}
        for _ in range(10_000):
            if rng.random() < 0.3:
                e = rng.choice(atoms)
            else:
                args = frozenset(rng.sample(atoms, rng.randint(0, 3)))
                e = pair_of(args, rng.choice(atoms))
            code = element_code(e)
            assert element_decode(code) == e
            assert codes.setdefault(code, e) == e
        distinct = {element_code(e) for e in codes.values()}
        assert len(distinct) == len(set(codes.values()))

    def test_atom_codes_even(self):
        assert element_code(base(2)) == 4
        assert element_decode(4) == base(2)
        with pytest.raises(ValueError):
            element_decode(12)  # 6 is not in the carrier


class TestSearch:
    def test_true_false_found_at_small_component(self):
        found = search_counterexample(TRUE, FALSE, 50, 2, 4)
        assert found is not None
        k, verdict = found
        assert k <= 5
        assert verdict.kind == "fails_with_evidence"
        assert verdict.member_rank <= 2

    def test_same_term_never_fails(self):
        assert search_counterexample(IDENTITY, IDENTITY, 15, 2, 4) is None

    def test_non_extensionality_found(self):
        found = search_counterexample(IDENTITY, parse("\\x y.x y"), 50, 2, 4)
        assert found is not None
        assert found[1].kind == "fails_with_evidence"

    def test_open_terms_rejected(self):
        with pytest.raises(ValueError):
            search_counterexample(parse("x"), IDENTITY, 5)


class TestRestrictionProperty:
    def test_identity_small(self):
        assert restriction_property_check(IDENTITY, 1, 1)

    def test_omega_bounded(self):
        for k in (1, 2, 3):
            assert restriction_property_check(OMEGA, k, 3)

    def test_two_component_truncation(self):
        assert restriction_property_check(TRUE, 3, 2, indices=(1, 3))

    def test_standard_terms_five_components(self):
        for q in (IDENTITY, TRUE, FALSE, OMEGA):
            for k in range(1, 6):
                assert restriction_property_check(q, k, 2)


def test_canonical_morphism_embeds_components():
    from gml.completion import canonical_morphism

    handle = CompletionCoding(PRIME_CODED)
    for k in (1, 3, 5):
        comp = relocate(k)
        for e in elements_up_to(comp, 2 if len(comp.atoms) == 1 else 1):
            assert canonical_morphism(comp, handle, e) is e


def test_closure_over_universal_coding():
    handle = CompletionCoding(PRIME_CODED)
    result = generate_subgraphmodel(
        handle, [base(2)], 1, sort_key=lambda e: e.sort_key()
    )
    assert not result.saturated
    assert len(result.elements) == 3
    assert validate(result.pair).ok
