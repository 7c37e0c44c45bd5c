"""Parser and pretty-printer: grammar, precedence, round-trip, fuzzing."""

import random
import time
from fractions import Fraction

import pytest

from intdiffop import (
    HMon,
    I1Element,
    InElement,
    IntMon,
    MatUnit,
    PolyXn,
    format_operator,
    format_poly,
    from_i1,
    gen_x,
    generators,
    parse_operator,
    parse_poly,
    project_modulo_prime,
    tensor,
    to_i1,
)
from intdiffop.errors import (
    IndexOutOfRange,
    IntDiffOpError,
    LimitExceeded,
    NegativeExponent,
    OperatorSyntaxError,
)

from intdiffop import sparse
from intdiffop.i1 import MAX_DEGREE, _x_power
from intdiffop.sparse import Sparse

from conftest import rand_i1, rand_in

D, INT, H, X = generators()


class TestParseOperator:
    def test_d_int(self):
        assert parse_operator("d1*int1", 1) == InElement.from_scalar(1, 1)

    def test_x_is_int_h(self):
        assert parse_operator("x1", 1) == from_i1(I1Element.from_mono(IntMon(1, 1)))

    def test_literal_combination(self):
        a = parse_operator("H1^2 + 3/2*e1[0,0]", 1)
        assert a == from_i1(
            I1Element({HMon(2): 1, MatUnit(0, 0): Fraction(3, 2)})
        )

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_operator("x3", 2)

    def test_negative_exponent(self):
        with pytest.raises(NegativeExponent):
            parse_operator("d1^-1", 1)

    def test_unicode_aliases(self):
        assert parse_operator("∂1*∫1", 1) == parse_operator("d1*int1", 1)

    def test_parentheses(self):
        assert parse_operator("(d1 + 1)^2", 1) == parse_operator(
            "d1^2 + 2*d1 + 1", 1
        )

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(OperatorSyntaxError):
            parse_operator("2 H1", 1)

    def test_missing_index_rejected(self):
        with pytest.raises(OperatorSyntaxError):
            parse_operator("d*int1", 1)

    def test_error_position(self):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator("d1 + *", 1)
        assert exc.value.pos == 5


    @pytest.mark.parametrize("text,pos", [
        ("x1^²", 3),  # a digit that int() rejects
        ("x1 + ½", 5),
        ("d1 ; d1", 3),
    ])
    def test_any_other_character_is_an_error_at_its_position(self, text, pos):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator(text, 1)
        assert exc.value.pos == pos

    @pytest.mark.parametrize("text,pos", [
        ("d1 + " + "7" * 5000, 5),
        ("d1 + " + "7" * 5000 + "/2", 5),
        ("d1 + 2/" + "7" * 5000, 5),
        ("d1^" + "7" * 5000, 3),
    ], ids=["integer", "numerator", "denominator", "exponent"])
    def test_over_long_literal_is_an_error_at_its_position(self, text, pos):
        # int() refuses more digits than sys.get_int_max_str_digits()
        with pytest.raises(OperatorSyntaxError, match="digits in literal") as exc:
            parse_operator(text, 1)
        assert exc.value.pos == pos

    def test_other_decimal_digits_are_literals(self):
        assert parse_operator("٣*d1", 1) == parse_operator("3*d1", 1)

    @pytest.mark.parametrize("text,message", [
        ("d1 * ) $", "unexpected character '$' (at position 7)"),
        ("d1 * ) 1/0", "zero denominator in literal (at position 7)"),
    ])
    def test_lexical_error_before_an_earlier_syntax_error(self, text, message):
        # the whole text is tokenized before any of it is parsed
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator(text, 1)
        assert str(exc.value) == message

    @pytest.mark.parametrize("parse,text", [(parse_operator, "d1 +"), (parse_poly, "x1 +")])
    def test_bad_count_before_a_syntax_error(self, parse, text):
        with pytest.raises(ValueError, match="n must be >= 1") as exc:
            parse(text, 0)
        assert not isinstance(exc.value, OperatorSyntaxError)


class TestPowersOfX:
    def test_closed_form_is_the_i1_power(self):
        for k in range(61):
            want, got = Sparse.__pow__(X, k).terms, _x_power(k)
            assert list(got.items()) == list(want.items())
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]

    @pytest.mark.parametrize("limit", [1, 2, 5, 9, 100, 1000, None])
    def test_refusals_match_binary_powering(self, limit, monkeypatch):
        # x^a has a terms, as has the a-th power of the stand-in for x;
        # None keeps MAX_POWER_PAIRS
        if limit:
            monkeypatch.setattr(sparse, "MAX_POWER_PAIRS", limit)
        accepted = []
        for k in range(2100):
            try:
                _XTerms({1: 1}) ** k
            except LimitExceeded as exc:
                with pytest.raises(LimitExceeded) as got:
                    _x_power(k)
                assert str(got.value) == str(exc)
            else:
                accepted.append(k)
        if not limit:
            # the rows of every accepted power take seconds; test the edges
            assert accepted == list(range(385))
            # powering x^k multiplies words of at most 2k letters, so the
            # pair limit refuses x^k before the letter limit could
            assert 2 * accepted[-1] <= MAX_DEGREE
            accepted = [0, 1, 2, 127, 128, 255, 256, 383, 384]
        for k in accepted:
            assert len(_x_power(k)) == max(k, 1)

    def test_large_power_is_fast(self):
        # x^384 is the last power the squaring accepts; test_cli times x^385
        for k in (300, 384):
            start = time.perf_counter()
            a = parse_operator(f"x1^{k}", 1)
            assert time.perf_counter() - start < 0.1
            assert list(a.terms) == [(IntMon(k, j),) for j in range(1, k + 1)]

    @pytest.mark.parametrize("power,n,k,c", [
        (lambda: parse_operator("(x1)^300"), 1, 300, 1),
        (lambda: parse_operator("(-x1)^200"), 1, 200, 1),
        (lambda: parse_operator("(2*x1)^200"), 1, 200, 2**200),
        (lambda: from_i1(X**300), 1, 300, 1),
        (lambda: gen_x(2, 1) ** 300, 2, 300, 1),
    ])
    def test_every_spelling_takes_the_closed_form(self, power, n, k, c):
        # binary powering took seconds for each of these
        start = time.perf_counter()
        a = power()
        assert time.perf_counter() - start < 0.1
        assert a == parse_operator(f"x1^{k}", n).scale(c)

    @pytest.mark.parametrize("n,text,same", [
        (2, "x1^33*x2^300", None),  # x1^33 ends the fold; x2^300 is left to _evaluate
        (1, "(d1 + 1)*x1^300", "d1*x1^300 + x1^300"),
        (1, "(d1 + 1)*-x1^200", "-d1*x1^200 - x1^200"),
    ])
    def test_powers_left_by_the_fold_are_fast(self, n, text, same):
        start = time.perf_counter()
        a = parse_operator(text, n)
        assert time.perf_counter() - start < 1
        if same:
            assert a == parse_operator(same, n)
        else:
            assert len(a.terms) == 33 * 300


class _XTerms(Sparse):
    """A stand-in for x whose a-th power has the a terms 1..a."""

    __slots__ = ()

    def _unit_key(self):
        return 0

    def __mul__(self, other):
        a = max(self.terms) + max(other.terms)
        return self._new(dict.fromkeys(range(1, a + 1), 1) or {0: 1})


class TestPrecedence:
    def test_power_over_scalar(self):
        # 2*H1^2 is 2*(H1^2), not (2*H1)^2
        assert parse_operator("2*H1^2", 1) == from_i1(I1Element({HMon(2): 2}))

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_operator("-H1^2", 1) == from_i1(I1Element({HMon(2): -1}))

    def test_product_before_sum(self):
        assert parse_operator("d1*int1 + 1", 1) == InElement.from_scalar(1, 2)


class TestParsePoly:
    def test_two_variables(self):
        p = parse_poly("x1^2*x2 - 1/2", 2)
        assert p == PolyXn(2, {(2, 1): 1, (0, 0): Fraction(-1, 2)})

    def test_zero(self):
        assert parse_poly("0", 1).is_zero()

    def test_collection(self):
        assert parse_poly("x1 + x1", 1) == PolyXn.monomial(1, (1,), 2)

    def test_operator_generators_rejected(self):
        with pytest.raises(OperatorSyntaxError):
            parse_poly("d1", 1)

    def test_operator_generator_position(self):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_poly("x1 + d1", 1)
        assert exc.value.pos == 5

    def test_zero_variables(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            PolyXn(0)


class TestFormat:
    def test_one_minus_e(self):
        assert format_operator(from_i1(1 - I1Element.from_mono(MatUnit(0, 0)))) == (
            "1 - e1[0,0]"
        )

    def test_int_poly_order(self):
        a = from_i1(I1Element({IntMon(2, 1): 1, IntMon(2, 0): -1}))
        assert format_operator(a) == "int1^2*(H1 - 1)"

    def test_zero(self):
        assert format_operator(InElement.zero(1)) == "0"

    def test_mixed_kinds_print_in_key_order(self):
        # a is the first factor and c = d2 - 2*e2[1,0] the second
        a = to_i1(parse_operator("d1^2 + H1*d1 + H1 + int1 + int1*H1^2 + e1[0,1]", 1))
        c = to_i1(parse_operator("d1 - 2*e1[1,0]", 1))
        assert format_operator(tensor([a, c])) == (
            "d1^2*d2 - 2*d1^2*e2[1,0] + H1*d1*d2 - 2*H1*d1*e2[1,0] + H1*d2"
            " - 2*H1*e2[1,0] + int1*d2 - 2*int1*e2[1,0] + int1*H1^2*d2"
            " - 2*int1*H1^2*e2[1,0] + e1[0,1]*d2 - 2*e1[0,1]*e2[1,0]"
        )
        assert format_operator(project_modulo_prime(tensor([a, c]), [1])) == (
            "2*D1^-1*d2 - 4*D1^-1*e2[1,0] - 2*H1*D1^-1*d2 + 4*H1*D1^-1*e2[1,0]"
            " + H1^2*D1^-1*d2 - 2*H1^2*D1^-1*e2[1,0] + H1*d2 - 2*H1*e2[1,0]"
            " + H1*D1*d2 - 2*H1*D1*e2[1,0] + D1^2*d2 - 2*D1^2*e2[1,0]"
        )

    def test_poly_format(self):
        assert format_poly(PolyXn(2, {(2, 1): 3, (0, 0): Fraction(-1, 2)})) == (
            "3*x1^2*x2 - 1/2"
        )


class TestRoundTrip:
    def test_n1(self):
        rng = random.Random(81)
        for _ in range(500):
            a = from_i1(rand_i1(rng, terms=4))
            assert parse_operator(format_operator(a), 1) == a

    @pytest.mark.parametrize("n", [2, 3])
    def test_n2(self, n):
        rng = random.Random(82)
        for _ in range(500):
            a = rand_in(rng, n, terms=3)
            assert parse_operator(format_operator(a), n) == a

    def test_canonical_products_multiply_no_elements(self, monkeypatch):
        # canonical text at n = 3, as the benchmark's CLI commands read it, is
        # a sum of products of a literal and generator powers; each product
        # folds into one word per factor without an element product
        rng = random.Random(84)
        elements = [rand_in(rng, 3, terms=4, jmax=3, imax=3, emax=3) for _ in range(200)]
        calls = []
        mul = InElement.__mul__
        monkeypatch.setattr(InElement, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        for a in elements:
            assert parse_operator(format_operator(a), 3) == a
        assert calls == []

    def test_poly_round_trip(self):
        rng = random.Random(83)
        for _ in range(200):
            p = PolyXn(
                2,
                {
                    (rng.randint(0, 3), rng.randint(0, 3)): Fraction(
                        rng.randint(-5, 5) or 1, rng.randint(1, 4)
                    )
                    for _ in range(rng.randint(1, 4))
                },
            )
            assert parse_poly(format_poly(p), 2) == p


class TestFuzz:
    TOKENS = [
        "d1", "int1", "H1", "x1", "e1[0,1]", "e2", "1", "3/2", "+", "-", "*",
        "^", "(", ")", "[", "]", ",", "2", "d", "/", "q",
    ]

    def test_no_crashes(self):
        rng = random.Random(84)
        for _ in range(2000):
            src = " ".join(
                rng.choice(self.TOKENS) for _ in range(rng.randint(1, 8))
            )
            try:
                parse_operator(src, 2)
            except IntDiffOpError:
                pass  # every declared error class derives from the base
