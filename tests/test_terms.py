from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gml.terms import (
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
from oracles import closed_terms_by_filter, decode_nameless, named_by_rescan, print_by_cases, random_term

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
        # a named chain whose body applies a free variable to the outermost binder
        named = App(Var("free"), Var("x0"))
        for i in reversed(range(1200)):
            named = Abs(f"x{i}", named)
        code = godel_encode(named)
        assert godel_encode(godel_decode(code)) == code
        assert free_vars(named) == {"free"}

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
