import copy
import gc
import pickle
import sys
import threading
from bisect import bisect_right
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gml import terms
from gml.terms import (
    _cantor_pair,
    _closed_under,
    Abs,
    App,
    IDENTITY,
    OMEGA,
    ParseError,
    ReductionStatus,
    TRUE,
    Var,
    alpha_eq,
    closed_term_texts,
    enumerate_closed_terms,
    free_vars,
    godel_decode,
    godel_encode,
    ident_of_nat,
    is_closed,
    nat_of_ident,
    normalize,
    one_step_reducts,
    parse,
    print_term,
    size,
)
from oracles import (
    closed_codes_by_filter,
    closed_terms_by_filter,
    closed_terms_by_scan,
    cycles_left_by,
    decode_nameless,
    named_by_rescan,
    print_by_cases,
    random_term,
)

DEEP_CHAIN = (3**1200 - 1) // 2  # 1,200 binders around the innermost one's variable

_names = st.sampled_from(["a", "b", "x", "x_1", "Y0"])
TERMS = st.recursive(
    _names.map(Var),
    lambda sub: st.one_of(st.builds(Abs, _names, sub), st.builds(App, sub, sub)),
    max_leaves=40,
)


class TestParse:
    def test_identity(self):
        assert parse("\\x.x") == Abs("x", Var("x"))

    def test_omega_via_selfapp(self):
        assert alpha_eq(parse("(\\x.x x)(\\x.x x)"), OMEGA)

    def test_open_term(self):
        assert parse("\\x.y x") == Abs("x", App(Var("y"), Var("x")))
        assert free_vars(parse("\\x.y x")) == {"y"}

    def test_aliases_expand_free_occurrences(self):
        assert alpha_eq(parse("I"), IDENTITY)
        assert alpha_eq(parse("T"), TRUE)
        assert alpha_eq(parse("Omega"), OMEGA)
        # a bound occurrence is an ordinary variable
        assert parse("\\I.I") == Abs("I", Var("I"))

    def test_multi_binder_sugar(self):
        assert parse("\\x y.x") == Abs("x", Abs("y", Var("x")))

    def test_application_left_associates(self):
        assert parse("a b c") == App(App(Var("a"), Var("b")), Var("c"))

    def test_body_extends_right(self):
        assert parse("\\x.x x") == Abs("x", App(Var("x"), Var("x")))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("\\x.")
        assert err.value.position == 3
        with pytest.raises(ParseError):
            parse("(a b")
        with pytest.raises(ParseError):
            parse("a $ b")

    def test_print_parse_roundtrip_corpus(self):
        rng = Random(20240817)
        for _ in range(10_000):
            t = random_term(rng, 30)
            assert alpha_eq(parse(print_term(t)), t)


class TestAlphaEq:
    def test_renaming(self):
        assert alpha_eq(parse("\\x.x"), parse("\\y.y"))

    def test_true_false_differ(self):
        assert not alpha_eq(parse("\\x y.x"), parse("\\x y.y"))

    def test_free_names_fixed(self):
        assert alpha_eq(parse("\\x.x z"), parse("\\y.y z"))
        assert not alpha_eq(parse("\\x.x z"), parse("\\y.y w"))


class TestNormalize:
    def test_identity_application(self):
        out = normalize(parse("I I"), 10)
        assert out.status is ReductionStatus.NORMAL_FORM
        assert alpha_eq(out.term, IDENTITY)
        assert out.steps == 1

    def test_omega_exhausts_budget(self):
        out = normalize(OMEGA, 10)
        assert out.status is ReductionStatus.BUDGET_EXCEEDED
        assert out.steps == 10
        assert alpha_eq(out.term, OMEGA)

    def test_k_reduction(self):
        out = normalize(parse("T a b"), 10)
        assert out.status is ReductionStatus.NORMAL_FORM
        assert out.term == Var("a")
        assert out.steps == 2

    def test_budget_zero(self):
        assert normalize(Var("x"), 0).status is ReductionStatus.NORMAL_FORM
        assert normalize(OMEGA, 0).status is ReductionStatus.BUDGET_EXCEEDED

    def test_normal_form_has_no_redex(self):
        rng = Random(7)
        for _ in range(300):
            t = random_term(rng, 12)
            out = normalize(t, 40)
            if out.status is ReductionStatus.NORMAL_FORM:
                assert not one_step_reducts(out.term)

    def test_confluence_on_one_step_reducts(self):
        rng = Random(99)
        checked = 0
        for _ in range(400):
            t = random_term(rng, 14)
            base = normalize(t, 60)
            if base.status is not ReductionStatus.NORMAL_FORM:
                continue
            for reduct in one_step_reducts(t):
                other = normalize(reduct, 60)
                if other.status is ReductionStatus.NORMAL_FORM:
                    checked += 1
                    assert alpha_eq(base.term, other.term)
        assert checked > 50

    def test_capture_avoidance(self):
        # (\x.\y.x) y  must not capture the free y
        out = normalize(App(TRUE, Var("y")), 10)
        assert out.status is ReductionStatus.NORMAL_FORM
        binder = out.term.binder
        assert binder != "y"
        assert out.term.body == Var("y")


class TestGodelCodec:
    def test_roundtrip_first_thousand(self):
        for n in range(1000):
            assert godel_encode(godel_decode(n)) == n

    def test_decode_names_binders_as_the_rescan_does(self):
        for n in range(20000):
            assert godel_decode(n) == named_by_rescan(decode_nameless(n)), n

    def test_decode_refuses_negative_codes(self):
        with pytest.raises(ValueError):
            godel_decode(-1)

    def test_deep_binder_chains_round_trip(self):
        n = DEEP_CHAIN
        term = godel_decode(n)
        t, binders = term, []
        while isinstance(t, Abs):
            binders.append(t.binder)
            t = t.body
        assert len(binders) == 1200 and t == Var(binders[-1])
        assert godel_encode(term) == n
        assert is_closed(term)
        assert size(term) == 1201
        assert alpha_eq(term, godel_decode(n))
        # the same chain around the variable one binder further out
        assert not alpha_eq(term, godel_decode(3**1201 + n))
        # a named chain whose body applies a free variable to the outermost binder
        named = App(Var("free"), Var("x0"))
        for i in reversed(range(1200)):
            named = Abs(f"x{i}", named)
        code = godel_encode(named)
        assert godel_encode(godel_decode(code)) == code
        assert free_vars(named) == {"free"}
        assert alpha_eq(godel_decode(code), named) and size(named) == 1203

    def test_decode_zero_is_first_variable(self):
        assert godel_decode(0) == Var("a")
        assert godel_decode(1) == Abs("a", Var("a"))

    def test_encode_injective_on_first_terms(self):
        seen = {}
        for n in range(1000):
            t = godel_decode(n)
            code = godel_encode(t)
            assert code not in seen
            seen[code] = t

    def test_decode_encode_alpha_identity(self):
        rng = Random(5)
        for _ in range(500):
            t = random_term(rng, 16)
            assert alpha_eq(godel_decode(godel_encode(t)), t)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=150)
    def test_decode_total(self, n):
        assert godel_encode(godel_decode(n)) == n

    def test_identifier_enumeration(self):
        assert ident_of_nat(0) == "a"
        assert ident_of_nat(25) == "z"
        assert ident_of_nat(26) == "A"
        assert ident_of_nat(52) == "aa"
        for n in range(2000):
            assert nat_of_ident(ident_of_nat(n)) == n


class TestEnumerateClosed:
    def test_limit_zero(self):
        assert enumerate_closed_terms(0) == []

    def test_all_closed(self):
        for t in enumerate_closed_terms(150):
            assert not free_vars(t)

    def test_prefix_stability(self):
        long = enumerate_closed_terms(120)
        assert enumerate_closed_terms(60) == long[:60]

    def test_distinct(self):
        terms = enumerate_closed_terms(100)
        codes = {godel_encode(t) for t in terms}
        assert len(codes) == 100

    def test_matches_decode_then_filter(self):
        ours, theirs = enumerate_closed_terms(3000), closed_terms_by_filter(3000)
        assert ours == theirs
        assert [print_term(t) for t in ours] == [print_term(t) for t in theirs]
        codes = [godel_encode(t) for t in ours]
        assert all(a < b for a, b in zip(codes, codes[1:]))

    def test_listings_share_subterms(self):
        terms = enumerate_closed_terms(400)
        apps = [t for t in terms if isinstance(t, App)]
        by_value = {}
        for t in apps:
            for part in (t.fun, t.arg):
                assert by_value.setdefault(part, part) is part

    def test_no_reference_cycle_outlives_a_listing_or_a_decode(self):
        """The listings and the decoder recurse through module-level
        functions, not closures that hold themselves, so what they build is
        freed as they return."""
        assert cycles_left_by(lambda: closed_term_texts(400)) == []
        assert cycles_left_by(lambda: enumerate_closed_terms(400)) == []
        assert cycles_left_by(lambda: godel_decode(DEEP_CHAIN)) == []
        assert cycles_left_by(lambda: godel_decode(3 * _cantor_pair(10**20, 10**20) + 2)) == []


def _closed_codes(bound: int) -> list[int]:
    """The codes <= bound that the listings' recursion generates, with
    constructors that build nothing."""
    return [code for code, _ in _closed_under(bound, str, _nothing, _nothing)]


def _nothing(*parts) -> None:
    return None


@pytest.fixture(scope="module")
def scan_20000():
    """The first 20,000 closed terms by a scan of all codes, and their texts."""
    reference = closed_terms_by_scan(20000)
    return reference, [print_by_cases(t) for t in reference]


class TestClosedCodes:
    def test_codes_are_the_filtered_codes_under_every_bound(self):
        filtered = closed_codes_by_filter(3000)
        for b in range(3001):
            assert _closed_codes(b) == filtered[: bisect_right(filtered, b)], b

    def test_listings_match_the_scan_up_to_sixty(self):
        reference = [print_by_cases(t) for t in closed_terms_by_scan(60)]
        for n in range(61):
            assert closed_term_texts(n) == reference[:n], n
            assert [print_term(t) for t in enumerate_closed_terms(n)] == reference[:n], n

    @pytest.mark.parametrize("n", [400, 1000, 5000])
    def test_listings_match_the_scan(self, n):
        reference, terms = closed_terms_by_scan(n), enumerate_closed_terms(n)
        assert terms == reference
        texts = [print_by_cases(t) for t in reference]
        assert closed_term_texts(n) == texts
        assert [print_term(t) for t in terms] == texts

    def test_long_listing_matches_the_scan(self, scan_20000):
        assert closed_term_texts(20000) == scan_20000[1]

    def test_every_listing_is_a_prefix_of_the_scan(self, scan_20000):
        """Each limit sizes its own first bound, so each listing is checked
        on its own: every limit up to 600, across the change of fitted law at
        400 terms, and 50 seeded limits up to 20,000."""
        reference, texts = scan_20000
        rng = Random(29)
        for n in [*range(601), *sorted(rng.sample(range(601, 20001), 50))]:
            assert closed_term_texts(n) == texts[:n], n
            assert enumerate_closed_terms(n) == reference[:n], n

    def test_one_pass_holds_the_limit(self, monkeypatch):
        """The first bound holds the limit, so the recursion runs once: at
        every limit up to 400 (the sizes of the numeration workload's
        listings) and at 1,000, 20,000 and 100,000 terms."""
        bounds = []

        def recorded(bound, *constructors):
            bounds.append(bound)
            return _closed_under(bound, *constructors)

        monkeypatch.setattr(terms, "_closed_under", recorded)
        for n in [*range(401), 1000, 20000, 100000]:
            bounds.clear()
            texts = closed_term_texts(n)
            assert len(texts) == n and len(bounds) == 1, (n, bounds)
        assert texts[-1] == print_term(godel_decode(_closed_codes(bounds[0])[n - 1]))

    def test_a_short_first_bound_costs_one_more_pass(self, monkeypatch):
        """Should the first bound hold too few codes, the second is sized
        from the count it held: two passes, and the same listing."""
        bounds = []

        def short_first(bound, *constructors):
            bounds.append(bound)
            return _closed_under(bound // 4 if len(bounds) == 1 else bound, *constructors)

        for n in (1000, 20000, 100000):
            expected = closed_term_texts(n)
            monkeypatch.setattr(terms, "_closed_under", short_first)
            bounds.clear()
            texts = closed_term_texts(n)
            monkeypatch.undo()
            assert texts == expected and len(bounds) == 2, (n, bounds)


class TestPrintFromCodes:
    @pytest.mark.parametrize("n", [0, 1, 3000])
    def test_texts_print_the_listed_terms(self, n):
        assert closed_term_texts(n) == [print_term(t) for t in enumerate_closed_terms(n)]

    def test_negative_limit_refused(self):
        with pytest.raises(ValueError):
            closed_term_texts(-1)
        with pytest.raises(ValueError):
            enumerate_closed_terms(-1)

    def test_printer_matches_reference_on_listed_terms(self):
        for t in enumerate_closed_terms(3000):
            assert print_term(t) == print_by_cases(t)

    def test_printer_matches_reference_on_deep_chain(self):
        term = godel_decode(DEEP_CHAIN)
        assert print_term(term) == print_by_cases(term)
        assert print_term(App(term, term)) == print_by_cases(App(term, term))

    @given(TERMS)
    @settings(max_examples=300)
    def test_printer_matches_reference(self, t):
        assert print_term(t) == print_by_cases(t)


def _rebuilt(t):
    """A structural copy of t made through the constructors."""
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, Abs):
        return Abs(t.binder, _rebuilt(t.body))
    return App(_rebuilt(t.fun), _rebuilt(t.arg))


def _shape(t) -> tuple:
    if isinstance(t, Var):
        return ("v", t.name)
    if isinstance(t, Abs):
        return ("l", t.binder, _shape(t.body))
    return ("a", _shape(t.fun), _shape(t.arg))


def _free_by_recursion(t) -> set:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Abs):
        return _free_by_recursion(t.body) - {t.binder}
    return _free_by_recursion(t.fun) | _free_by_recursion(t.arg)


def _subterms(t):
    yield t
    if isinstance(t, Abs):
        yield from _subterms(t.body)
    elif isinstance(t, App):
        yield from _subterms(t.fun)
        yield from _subterms(t.arg)


class TestInterning:
    """Terms are hash-consed: structurally equal terms are one object,
    whichever way they were built, and == is identity."""

    def test_equal_terms_are_one_object(self):
        for seed in range(300):
            t = random_term(Random(seed), 14)
            assert random_term(Random(seed), 14) is t
            assert _rebuilt(t) is t
            assert parse(print_term(t)) is t
        for t in enumerate_closed_terms(400):
            assert godel_decode(godel_encode(t)) is t
        assert parse("\\x.x") is IDENTITY and parse("(\\x.x x) (\\x.x x)") is OMEGA

    def test_identity_agrees_with_structure(self):
        pool = [s for seed in range(150) for s in _subterms(random_term(Random(seed), 9, names=("a", "b")))]
        for a in pool[:400]:
            for b in pool[:400]:
                assert (a is b) == (a == b) == (_shape(a) == _shape(b))
        assert len({hash(t) for t in pool}) == len({_shape(t) for t in pool})

    def test_free_names_and_omega_are_read_off_the_node(self):
        for seed in range(300):
            for t in _subterms(random_term(Random(seed), 16)):
                want = _free_by_recursion(t)
                assert t.free == free_vars(t) == frozenset(want)
                assert is_closed(t) == (not want)
                if isinstance(t, App):
                    assert t.omega == alpha_eq(t, OMEGA)
        assert parse("(\\a.a a) (\\b.b b)").omega
        assert not parse("(\\a.a a) (\\b.b a)").omega
        assert not parse("(\\a.a a) (\\b.b b) I").omega

    def test_copies_are_the_interned_term(self):
        for t in (IDENTITY, OMEGA, parse("\\x.x y (\\z.z)")):
            assert copy.copy(t) is t and copy.deepcopy(t) is t
            assert pickle.loads(pickle.dumps(t)) is t

    def test_terms_are_immutable(self):
        with pytest.raises(AttributeError):
            IDENTITY.binder = "y"
        with pytest.raises(AttributeError):
            del OMEGA.fun

    def test_intern_table_shrinks_once_terms_are_dropped(self):
        gc.collect()
        before = len(terms._TERMS)
        made = [App(Abs(f"p{i}", Var(f"q{i}")), Var(f"q{i}")) for i in range(500)]
        assert len(terms._TERMS) == before + 3 * 500  # q_i, \p_i.q_i and the application
        del made
        assert len(terms._TERMS) == before

    def test_threads_share_one_object_per_term(self):
        """Threads that build and drop the same terms concurrently, with a
        short switch interval, still get one object per structure, and the
        table holds no entry for a dropped term afterwards."""
        gc.collect()
        before = len(terms._TERMS)
        kept: list = [None] * 6
        start = threading.Barrier(len(kept), timeout=60)

        def made(i: int):
            return App(Abs(f"t{i}", App(Var(f"t{i}"), Var("shared"))), Var(f"u{i % 7}"))

        def build(slot: int) -> None:
            start.wait()
            for _ in range(10):
                for i in range(300):
                    made(i)  # dropped at once, so the next thread to build it misses too
            kept[slot] = [made(i) for i in range(300)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(slot,)) for slot in range(len(kept))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(a is b for built in kept[1:] for a, b in zip(kept[0], built))
        del kept
        gc.collect()
        assert len(terms._TERMS) == before

    def test_deep_chain_hashes_and_compares(self):
        """1,200 binders at the default recursion limit: nothing walks the
        chain, since hash and == are identity and the node holds its free
        names."""
        assert sys.getrecursionlimit() <= 1000
        term = godel_decode(DEEP_CHAIN)
        again = godel_decode(DEEP_CHAIN)
        assert again is term and again == term and hash(again) == hash(term)
        assert term in {again} and term != godel_decode(3**1201 + DEEP_CHAIN)
        assert is_closed(term) and alpha_eq(term, again)


def test_size_counts_nodes():
    assert size(Var("x")) == 1
    assert size(IDENTITY) == 2
    assert size(OMEGA) == 9


class TestAlphaLaws:
    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=100)
    def test_reflexive(self, seed):
        t = random_term(Random(seed), 12)
        assert alpha_eq(t, t)

    @given(st.integers(min_value=0, max_value=2**30), st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=100)
    def test_symmetric(self, s1, s2):
        a = random_term(Random(s1), 10)
        b = random_term(Random(s2), 10)
        assert alpha_eq(a, b) == alpha_eq(b, a)

    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=60)
    def test_codec_respects_alpha(self, seed):
        t = random_term(Random(seed), 12)
        assert godel_encode(t) == godel_encode(godel_decode(godel_encode(t)))
