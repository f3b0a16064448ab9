import itertools
import time
from random import Random

import pytest

from gml import completion, pairs
from gml.completion import (
    CeilingExceeded,
    apply_coding,
    base,
    coding_preimage,
    count_up_to,
    element_str,
    element_valid,
    elements_up_to,
    generate_subgraphmodel,
    lift_morphism,
    pair_of,
    parse_element,
    rank,
    restrict,
    restriction_atom,
)
from gml.approximation import check_inequation
from gml.pairs import Morphism, PartialPair, automorphisms, is_subpair, union, validate
from gml.terms import parse
from oracles import all_pairs, cycles_left_by, naive_levels, random_pair


def as_tuple(e):
    """Completion elements as the oracle's raw-tuple shape."""
    if hasattr(e, "atom"):
        return ("b", e.atom)
    return ("p", frozenset(map(as_tuple, e.args)), as_tuple(e.res))


class TestRank:
    def test_base_is_rank_zero(self):
        assert rank(base(0)) == 0

    def test_pair_of_empty_args(self):
        assert rank(pair_of([], base(0))) == 1

    def test_nesting(self):
        inner = pair_of([], base(0))
        assert rank(pair_of([inner], base(0))) == 2

    def test_rank_matches_level_membership(self, free1):
        for k in range(3):
            level = set(elements_up_to(free1, k))
            for e in level:
                assert rank(e) <= k
                assert (rank(e) == k) == (k == 0 or e not in set(elements_up_to(free1, k - 1)))


class TestApplyCoding:
    def test_coded_key_collapses(self, p1):
        assert apply_coding(p1, [base(0)], base(0)) is base(0)

    def test_uncoded_key_stays_pair(self, p1):
        e = apply_coding(p1, [], base(0))
        assert e is pair_of([], base(0))

    def test_injective_on_low_ranks(self, p1, free1):
        # exhaustive over every key built from rank <= 1 material
        for p in (p1, free1):
            universe = elements_up_to(p, 1)
            seen = {}
            for m in range(len(universe) + 1):
                for args in itertools.combinations(universe, m):
                    for res in universe:
                        value = apply_coding(p, frozenset(args), res)
                        key = (frozenset(args), res)
                        assert seen.setdefault(value, key) == key

    def test_injective_sampled_rank_two(self, p1):
        universe = elements_up_to(p1, 2)
        seen = {}
        for m in range(3):
            for args in itertools.combinations(universe, m):
                for res in universe:
                    value = apply_coding(p1, frozenset(args), res)
                    key = (frozenset(args), res)
                    assert seen.setdefault(value, key) == key

    def test_preimage_inverts(self, p1):
        for args, res in [((base(0),), base(0)), ((), base(0))]:
            value = apply_coding(p1, args, res)
            assert coding_preimage(p1, value) == (frozenset(args), res)
        assert coding_preimage(PartialPair({0}), base(0)) is None


class TestElementsUpTo:
    def test_counts_and_closures_stop_at_a_fixed_point(self):
        """On the empty pair every level is empty, so counting a level,
        listing it, closing the empty seed and checking an inclusion over it
        stop once a round adds nothing: at 10^7 rounds they ran for seconds
        each, one round per rank."""
        empty = PartialPair(())
        start = time.perf_counter()
        assert count_up_to(empty, 10**7) == 0 and elements_up_to(empty, 10**7) == ()
        closure = generate_subgraphmodel(empty, (), 10**7)
        assert closure.saturated and closure.elements == ()
        assert check_inequation(parse("\\x.x"), parse("\\x y.y"), empty, 10**6, 10**6).kind == "holds_up_to"
        assert time.perf_counter() - start < 1

    def test_free_singleton_levels(self, free1):
        assert len(elements_up_to(free1, 1)) == 3
        assert len(elements_up_to(free1, 2)) == 25

    def test_coded_singleton_level_one(self, p1):
        elems = elements_up_to(p1, 1)
        assert len(elems) == 2
        assert set(elems) == {base(0), pair_of([], base(0))}

    def test_matches_naive_oracle(self):
        rng = Random(31)
        for _ in range(25):
            p = random_pair(rng, max_atoms=2, max_entries=2)
            for k in range(3):
                ours = {as_tuple(e) for e in elements_up_to(p, k)}
                assert ours == naive_levels(p, k)

    def test_levels_nested(self, p1):
        for k in range(3):
            assert set(elements_up_to(p1, k)) <= set(elements_up_to(p1, k + 1))

    def test_ceiling(self, free2):
        with pytest.raises(CeilingExceeded):
            elements_up_to(free2, 3)

    def test_count_matches_the_built_levels(self, p1):
        rng = Random(32)
        stray = PartialPair({0}, {(frozenset({5}), 5): 0})  # invalid: its one key never arises
        for p in [p1, stray] + [random_pair(rng, max_atoms=2, max_entries=2) for _ in range(20)]:
            for k in range(3 if len(p.atoms) == 1 else 2):
                assert count_up_to(p, k) == len(elements_up_to(p, k))

    def test_refuses_before_building_any_level(self, p1, free2, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("a level was built")

        monkeypatch.setattr(completion, "apply_coding", unbuilt)
        with pytest.raises(CeilingExceeded) as refused:
            elements_up_to(free2, 3)
        assert str(refused.value) == "level 3 would hold 2^10242·10242+2 elements, ceiling is 1000000"
        monkeypatch.setattr(pairs, "DEFAULT_CEILING", 5)
        with pytest.raises(CeilingExceeded) as refused:
            count_up_to(p1, 2)
        assert str(refused.value) == "level 2 would hold 2^2·2 elements, ceiling is 5"

    def test_kept_level_counted_once_per_call(self, monkeypatch):
        """levels_up_to builds a level once per pair and counts it once per
        call: through elements_up_to's guard when it builds the level, by
        itself when the level is kept, reading the ceiling each time."""
        counts = []
        count = completion.count_up_to

        def counted(p, k):
            counts.append(k)
            return count(p, k)

        monkeypatch.setattr(completion, "count_up_to", counted)
        p = PartialPair({0, 1})
        level = completion.levels_up_to(p, 1)
        assert counts == [1] and len(level) == 10
        assert completion.levels_up_to(p, 1) is level and counts == [1, 1]
        monkeypatch.setattr(pairs, "DEFAULT_CEILING", 5)
        with pytest.raises(CeilingExceeded):
            completion.levels_up_to(p, 1)

    def test_validity(self, p1):
        for e in elements_up_to(p1, 2):
            assert element_valid(p1, e)
        assert not element_valid(p1, pair_of([base(0)], base(0)))
        assert not element_valid(p1, base(7))


class TestRestriction:
    def test_rank_zero_is_the_pair_itself(self, p1, free2):
        for p in (p1, free2):
            assert restrict(p, 0).pair == p

    def test_chain_in_subpair_order(self, p1, free1):
        for p in (p1, free1):
            for k in range(2):
                assert is_subpair(restrict(p, k).pair, restrict(p, k + 1).pair)

    def test_random_restrictions_validate(self):
        rng = Random(32)
        for _ in range(50):
            p = random_pair(rng, max_atoms=2, max_entries=2)
            for k in range(3):
                assert validate(restrict(p, k).pair).ok

    def test_atom_ids_stable_across_ranks(self, free1):
        r1, r2 = restrict(free1, 1), restrict(free1, 2)
        for e in r1.elements:
            assert r1.atom_of[e] == r2.atom_of[e]

    def test_labels_use_element_syntax(self, free1):
        r = restrict(free1, 1)
        labels = {r.pair.label(r.atom_of[e]) for e in r.elements}
        assert labels == {"0", "({},0)", "({0},0)"}


class TestLevelsAreClosures:
    """E_k is the carrier closed k times under the coding, and the rank-k
    restriction is the pair induced on E_k."""

    CASES = [(p, k) for p in all_pairs(2, 2) for k in range(3 if len(p.atoms) == 1 else 2)]

    def test_level_is_the_closure_of_the_carrier(self):
        for p, k in self.CASES:
            closure = generate_subgraphmodel(p, map(base, p.atoms), k)
            assert set(elements_up_to(p, k)) == set(closure.elements), (p, k)

    def test_restriction_keeps_the_coding_and_adds_pair_keys(self):
        for p, k in self.CASES:
            r = restrict(p, k)
            keys = {
                (r.to_atoms(e.args), r.atom_of[e.res]): r.atom_of[e]
                for e in r.elements
                if not hasattr(e, "atom")
            }
            assert r.pair.coding == {**p.coding, **keys}, (p, k)


class TestRestrictionAtom:
    def test_matches_restriction_numbering(self):
        one_atom = [PartialPair({0})] + [
            PartialPair({0}, {(frozenset(args), 0): 0}) for args in ((), (0,))
        ]
        two_atom = [
            PartialPair({0, 1}),
            PartialPair({0, 1}, {(frozenset({0}), 0): 1}),
            PartialPair({0, 1}, {(frozenset({0}), 0): 0, (frozenset({1}), 1): 1}),
        ]
        for p in one_atom + two_atom:
            r = restrict(p, 2)
            for e in r.elements:
                assert restriction_atom(p, e) == r.atom_of[e], (p, element_str(e))

    def test_random_pairs_up_to_rank_two(self):
        rng = Random(33)
        for _ in range(20):
            p = random_pair(rng, max_atoms=2, max_entries=3)
            r = restrict(p, 2)
            for e in r.elements:
                assert restriction_atom(p, e) == r.atom_of[e], (p, element_str(e))

    def test_builds_only_lower_levels(self, monkeypatch):
        free3 = PartialPair({0, 1, 2})
        inner = pair_of([base(0)], base(0))
        # level 2 of a free 3-atom pair would hold 3.6e9 elements
        monkeypatch.setattr(pairs, "DEFAULT_CEILING", 100)
        assert restriction_atom(free3, pair_of([inner], inner)) > restriction_atom(free3, inner)


def canonical(a: PartialPair, b: PartialPair):
    """The canonical morphism from the completion of a into that of b, which
    extends it: the identity on atoms, lifted."""
    return lift_morphism(Morphism(a, b, {x: x for x in a.atoms}))


class TestCanonicalMorphism:
    def test_fixes_rank_zero(self, p1):
        bigger = union(p1, PartialPair({0, 1}))
        assert canonical(p1, bigger)(base(0)) is base(0)

    def test_unfolds_one_step(self, p1):
        bigger = union(p1, PartialPair({0, 1}))
        e = pair_of([], base(0))
        assert canonical(p1, bigger)(e) is apply_coding(bigger, [], base(0))

    def test_extension_precondition(self, p1):
        with pytest.raises(ValueError):
            canonical(p1, PartialPair({0}))

    def test_morphism_law_at_low_rank(self):
        rng = Random(33)
        for _ in range(20):
            small = random_pair(rng, max_atoms=2, max_entries=1)
            extra = PartialPair(small.atoms | {max(small.atoms, default=-1) + 1})
            big = union(small, extra)
            universe = elements_up_to(small, 1)
            f = canonical(small, big)
            for m in range(2):
                for args in itertools.combinations(universe, m):
                    for res in universe:
                        lhs = f(apply_coding(small, frozenset(args), res))
                        rhs = apply_coding(big, frozenset(f(a) for a in args), f(res))
                        assert lhs is rhs

    def test_into_own_completion_is_identity(self, p1):
        f = canonical(p1, p1)
        for e in elements_up_to(p1, 2):
            assert f(e) is e


class TestLiftAutomorphism:
    def test_swap_lifts_rank_preserving(self, free2):
        swap = next(m for m in automorphisms(free2) if m.mapping[0] == 1)
        lifted = lift_morphism(swap)
        e = pair_of([base(0)], base(1))
        image = lifted(e)
        assert image is pair_of([base(1)], base(0))
        assert rank(image) == rank(e)


class TestElementSyntax:
    def test_print_examples(self):
        assert element_str(base(0)) == "0"
        assert element_str(pair_of([], base(0))) == "({},0)"
        assert element_str(pair_of([base(0), pair_of([], base(0))], base(1))) == "({0,({},0)},1)"

    def test_args_print_in_structural_order(self):
        e = pair_of([pair_of([], base(0)), base(1), base(0)], base(0))
        assert element_str(e) == "({0,1,({},0)},0)"

    def test_parse_roundtrip(self, free1):
        for e in elements_up_to(free1, 2):
            assert parse_element(element_str(e, free1), free1) is e

    def test_parse_with_labels(self):
        p = PartialPair({0, 1}, labels={0: "a0", 1: "a1"})
        e = parse_element("({a0},a1)", p)
        assert e is pair_of([base(0)], base(1))

    def test_parse_collapses_coded_keys(self, p1):
        assert parse_element("({0},0)", p1) is base(0)

    def test_parse_errors(self, free1):
        for bad in ("", "({0},", "({0}0)", "({0},0))", "zz"):
            with pytest.raises(ValueError):
                parse_element(bad, free1)

    def test_parse_leaves_no_reference_cycle(self, p1):
        """The parser's recursive reader is freed when it returns."""
        p = PartialPair({0, 1}, {(frozenset({0}), 1): 0})
        assert cycles_left_by(lambda: parse_element("({0,({0},1)},1)", p)) == []
        assert cycles_left_by(lambda: parse_element("({({0},0)},0)", p1)) == []


def test_structural_order_total():
    rng = Random(34)
    p = PartialPair({0, 1})
    universe = list(elements_up_to(p, 1))
    keys = [e.sort_key() for e in universe]
    assert len(set(keys)) == len(keys)
    ordered = sorted(universe, key=lambda e: e.sort_key())
    assert ordered[0] is base(0)
