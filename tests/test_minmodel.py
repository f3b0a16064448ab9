import itertools
from collections import Counter
from random import Random

import pytest

from gml import minmodel
from gml.cli import main
from gml.completion import (
    CeilingExceeded,
    PairElement,
    apply_coding,
    base,
    element_str,
    element_valid,
    elements_up_to,
    generate_subgraphmodel,
    lift_morphism,
    pair_of,
    parse_element,
)
from gml.minmodel import (
    PRIME_CODED,
    _rank_coding,
    _unrank_coding,
    class_representative,
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
from gml.pairs import Morphism, PartialPair, is_subpair, validate
from gml.terms import FALSE, IDENTITY, OMEGA, TRUE, parse, print_term

from oracles import (
    closed_terms_up_to,
    codings_in_order,
    isomorphism,
    least_isomorphic_index,
    search_by_full_scan,
)


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
        for k in range(301):
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

    def test_element_validity_by_lookup(self):
        assert element_valid(PRIME_CODED, pair_of({base(2)}, base(5)))
        assert not element_valid(PRIME_CODED, pair_of({base(5)}, base(5)))  # a coded key
        assert not element_valid(PRIME_CODED, pair_of({base(6)}, base(5)))  # 6 is no atom

    def test_agrees_with_component_completion(self):
        for k in (1, 2, 3, 5):
            comp = relocate(k)
            assert is_subpair(comp, PRIME_CODED)
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

    def test_element_text_round_trips(self):
        """Big-model elements print with their atoms as numbers and parse
        back through the pair's lookups, coded keys collapsing to atoms."""
        assert parse_element("({},3)", PRIME_CODED) is base(3)
        assert parse_element("({({5},5)},({},5))", PRIME_CODED) is pair_of([base(5)], pair_of([], base(5)))
        rng = Random(53)
        pool = [base(n) for n in (2, 3, 5, 49, 121)]
        for _ in range(200):
            args = rng.sample(pool, rng.randint(0, min(3, len(pool))))
            pool.append(apply_coding(PRIME_CODED, args, rng.choice(pool)))
        assert sum(isinstance(e, PairElement) for e in pool) > 100
        for e in pool:
            text = element_str(e, PRIME_CODED)
            assert text == element_str(e)
            assert parse_element(text, PRIME_CODED) is e

    def test_lift_rejects_foreign_atoms(self):
        with pytest.raises(ValueError):  # 6 is no prime power
            lift_morphism(Morphism(PartialPair({0}), PRIME_CODED, {0: 6}))


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


def _checked_components(monkeypatch, refuse: frozenset = frozenset()) -> list[int]:
    """Patch the search's inequation check to record the index of every
    component it is asked about, refusing those in `refuse`."""
    checked = []
    real = minmodel.check_inequation

    def recording(lhs, rhs, p, *bounds):
        k = encode_pair(p)
        checked.append(k)
        if k in refuse:
            raise CeilingExceeded("refused by the test")
        return real(lhs, rhs, p, *bounds)

    monkeypatch.setattr(minmodel, "check_inequation", recording)
    return checked


class TestIsomorphClasses:
    def test_representatives_below_the_three_atom_block(self):
        repeats = [k for k in range(229) if class_representative(enumerate_pair(k)) != k]
        assert 229 - len(repeats) == 45
        assert [k for k in repeats if k <= 60] == [4, 5, 6, 10, 11, *range(16, 20), 22, 23, *range(38, 50)]

    def test_representatives_on_three_atoms(self):
        count = sum(class_representative(enumerate_pair(k)) == k for k in range(229, 14_102))
        assert count == 2_373

    def test_agrees_with_least_isomorphic_index(self):
        for k in [*range(229), *Random(3).sample(range(229, 700), 40)]:
            assert class_representative(enumerate_pair(k)) == least_isomorphic_index(k)

    def test_invariant_under_relabelling(self):
        rng = Random(5)
        for k in rng.sample(range(14_102, 14_102 + 10**6), 30):
            p = enumerate_pair(k)
            image = rng.sample(range(9), len(p.atoms))
            move = dict(zip(sorted(p.atoms), image))
            q = PartialPair(
                image,
                {(frozenset(move[x] for x in a), move[r]): move[v] for (a, r), v in p.coding.items()},
            )
            assert class_representative(q) == class_representative(p) <= k

    def test_skipped_components_are_isomorphic_to_a_checked_one(self, monkeypatch):
        checked = _checked_components(monkeypatch)
        assert search_counterexample(IDENTITY, IDENTITY, 228) is None
        assert checked == [k for k in range(229) if class_representative(enumerate_pair(k)) == k]
        for k in sorted(set(range(229)) - set(checked)):
            rep = class_representative(enumerate_pair(k))
            assert rep < k and rep in checked
            m = isomorphism(enumerate_pair(k), enumerate_pair(rep))
            assert m is not None and m.is_isomorphism()

    def test_repeat_blocks_are_not_unranked(self, monkeypatch):
        carriers = Counter()
        real = minmodel._unrank_coding

        def counting(carrier, j):
            carriers[carrier] += 1
            return real(carrier, j)

        monkeypatch.setattr(minmodel, "_unrank_coding", counting)
        assert search_counterexample(IDENTITY, IDENTITY, 228) is None
        assert carriers == {(): 1, (0,): 3, (0, 1): 73}

    def test_refused_representative_leaves_its_class_to_be_checked(self, monkeypatch, caplog):
        members = [k for k in range(229) if class_representative(enumerate_pair(k)) == 13]
        assert len(members) == 6
        checked = _checked_components(monkeypatch, refuse=frozenset({13}))
        assert search_counterexample(IDENTITY, IDENTITY, 228) is None
        reps = {k for k in range(229) if class_representative(enumerate_pair(k)) == k}
        assert checked == sorted(reps | set(members))
        assert "component 13 skipped: refused by the test" in caplog.text
        # a claim that first fails at 13: the next member of its class answers
        lhs, rhs = parse("\\a b c.c"), parse("\\a b c d.d")
        got = search_counterexample(lhs, rhs, 228)
        want = search_by_full_scan(lhs, rhs, 228)
        assert got[0] == want[0] == members[1]
        assert got[1].to_json(enumerate_pair(got[0])) == want[1].to_json(enumerate_pair(want[0]))

    def test_refused_block_is_checked_as_before(self, monkeypatch):
        checked = _checked_components(monkeypatch)
        assert search_counterexample(IDENTITY, IDENTITY, 229 + 20) is None
        assert checked[-21:] == list(range(229, 250))  # 3-atom checks refuse at kM=2


def _seeded_searches(n: int, seed: int) -> list[tuple[str, str]]:
    """(index bound, claim) pairs: bounds up to 228, the last 2-atom index."""
    rng = Random(seed)
    terms = [print_term(t) for t in closed_terms_up_to(5)]
    return [
        (str(rng.randint(0, 228)), f"{rng.choice(terms)} {rng.choice(('<=', '='))} {rng.choice(terms)}")
        for _ in range(n)
    ]


@pytest.mark.parametrize("max_index, claim", _seeded_searches(60, seed=11))
def test_search_matches_full_scan(max_index, claim, monkeypatch, capsys):
    def run(search):
        returned = []

        def recording(*args):
            found = search(*args)
            returned.append(None if found is None else (found[0], found[1].to_json(enumerate_pair(found[0]))))
            return found

        monkeypatch.setattr(minmodel, "search_counterexample", recording)
        code = main(["--json", "minmodel", "search", "--max-index", max_index, claim])
        captured = capsys.readouterr()
        return returned, code, captured.out, captured.err.splitlines()

    got, code, out, err = run(search_counterexample)
    want, want_code, want_out, want_err = run(search_by_full_scan)
    assert got == want
    assert (code, out) == (want_code, want_out)
    assert set(err) <= set(want_err)


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
    for k in (1, 3, 5):
        comp = relocate(k)
        embed = lift_morphism(Morphism(comp, PRIME_CODED, {x: x for x in comp.atoms}))
        for e in elements_up_to(comp, 2 if len(comp.atoms) == 1 else 1):
            assert embed(e) is e


def test_closure_over_universal_coding():
    result = generate_subgraphmodel(PRIME_CODED, [base(2)], 1)
    assert not result.saturated
    assert len(result.elements) == 3
    assert validate(result.pair).ok
