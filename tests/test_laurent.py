"""Skew Laurent arithmetic and Euclidean division over the rational-function
coefficient field."""

import random
from fractions import Fraction

import pytest

from intdiffop import (
    B1Element,
    CalB1Element,
    PolyH,
    RatFunc,
    generators,
    left_divide,
    length,
    project_B1,
    right_divide,
)
from intdiffop.errors import DivisionByZero

from conftest import calb1_coefficients, is_exact, rand_calb1, rand_calb1_nonzero, rand_i1, rand_ratfunc

H = PolyH.monomial(1)
D, INT, _, _ = generators()


def cal(coeffs):
    return CalB1Element(coeffs)


class TestText:
    @pytest.mark.parametrize("b,text", [
        (B1Element({1: Fraction(1, 2)}), "(1/2)*D"),
        (B1Element({1: H * Fraction(1, 2)}), "(1/2*H1)*D"),
        (B1Element({-2: -H, 0: -1}), "-1 - H1*D^-2"),
        (CalB1Element({2: -RatFunc(1, H)}), "-(1/H1)*D^2"),
        # a bracketed coefficient with a negative leading term keeps the signs
        # of its other terms; D^0 terms join the sum unbracketed
        (B1Element({1: -2 * H - 1}), "-(2*H1 + 1)*D"),
        (B1Element({2: -H * H + H - 1}), "-(H1^2 - H1 + 1)*D^2"),
        (B1Element({1: H, 0: -2 * H - 1, -1: -3 * H + 2}), "H1*D - 2*H1 - 1 - (3*H1 - 2)*D^-1"),
        (CalB1Element({1: RatFunc(-H - 1, H + 3), -1: RatFunc(-H, H + 3)}),
         "((-H1 - 1)/(H1 + 3))*D - (H1/(H1 + 3))*D^-1"),
    ])
    def test_to_text(self, b, text):
        assert b.to_text("D", "H1") == text

    def test_repr(self):
        b = B1Element({1: H * Fraction(1, 2), 0: -2 * H - 1, -2: -H + 3})
        assert repr(b) == "B1Element((1/2*H)*D - 2*H - 1 - (H - 3)*D^-2)"
        c = CalB1Element({1: RatFunc(-H - 1, H + 3), 0: Fraction(2, 3), -1: RatFunc(-H, H + 3)})
        assert repr(c) == "CalB1Element(((-H - 1)/(H + 3))*D + 2/3 - (H/(H + 3))*D^-1)"


class TestMul:
    def test_d_h(self):
        assert cal({1: 1}) * cal({0: H}) == cal({1: H + 1})

    def test_laurent_inverse(self):
        assert cal({1: 1}) * cal({-1: 1}) == 1

    def test_hd_squared(self):
        lhs = cal({1: H}) * cal({1: H})
        assert lhs == cal({2: H * (H + 1)})
        # cross-check against the operator product modulo the compact ideal
        d, _, h, _ = generators()
        hd = project_B1(h * d)
        assert hd * hd == B1Element({2: H * (H + 1)})
        assert project_B1((h * d) * (h * d)) == hd * hd

    def test_associativity_randomized(self):
        rng = random.Random(71)
        for _ in range(100):
            a, b, c = (rand_calb1(rng, 2, 1) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_distributivity_randomized(self):
        rng = random.Random(72)
        for _ in range(100):
            a, b, c = (rand_calb1(rng, 2, 1) for _ in range(3))
            assert a * (b + c) == a * b + a * c

    def test_integral_version_matches(self):
        # B1 with polynomial coefficients embeds in the rational version
        rng = random.Random(73)
        for _ in range(100):
            a, b = rand_i1(rng), rand_i1(rng)
            pa, pb = project_B1(a), project_B1(b)
            assert (pa * pb).to_calb1() == pa.to_calb1() * pb.to_calb1()


class TestLength:
    def test_single_term(self):
        assert length(cal({3: 1})) == 0

    def test_span(self):
        assert length(cal({0: H, 1: 1})) == 1

    def test_zero(self):
        assert length(cal({})) is None


class TestRightDivide:
    def test_exact_power(self):
        q, r = right_divide(cal({2: 1}), cal({1: 1}))
        assert q == cal({1: 1}) and r.is_zero()

    def test_linear_remainder(self):
        q, r = right_divide(cal({1: 1, 0: H}), cal({1: 1, 0: 1}))
        assert q == 1
        assert r == cal({0: H - 1})

    def test_exact_with_coefficient(self):
        q, r = right_divide(cal({2: H}), cal({1: 1}))
        assert q == cal({1: H}) and r.is_zero()

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            right_divide(cal({0: 1}), cal({}))

    def test_reconstruction_randomized(self):
        rng = random.Random(74)
        for _ in range(250):
            b = rand_calb1(rng)
            c = rand_calb1_nonzero(rng)
            q, r = right_divide(b, c)
            assert q * c + r == b
            assert r.is_zero() or length(r) < length(c)


class TestLeftDivide:
    def test_exact_power(self):
        q, r = left_divide(cal({2: 1}), cal({1: 1}))
        assert q == cal({1: 1}) and r.is_zero()

    def test_unit_divisor(self):
        rng = random.Random(75)
        for _ in range(20):
            b = rand_calb1(rng)
            q, r = left_divide(b, cal({0: 1}))
            assert q == b and r.is_zero()

    def test_dh_by_h(self):
        b = cal({1: 1}) * cal({0: H})
        q, r = left_divide(b, cal({0: H}))
        assert cal({0: H}) * q + r == b
        assert r.is_zero() or length(r) == 0

    def test_reconstruction_randomized(self):
        rng = random.Random(76)
        for _ in range(250):
            b = rand_calb1(rng)
            c = rand_calb1_nonzero(rng)
            q, r = left_divide(b, c)
            assert c * q + r == b
            assert r.is_zero() or length(r) < length(c)


def reference_right_divide(b: CalB1Element, c: CalB1Element):
    """Right division whose every step subtracts all of mu D^s * c, the top
    term included."""
    q, r = {}, b
    dc = c.top_degree()
    inv = c.terms[dc].inverse()
    while r and length(r) >= length(c):
        dr = r.top_degree()
        mu = q[dr - dc] = r.terms[dr] * inv.shift(dr - dc)
        r = r - r._new({dr - dc: mu}) * c
    return CalB1Element(q), r


def reference_left_divide(b: CalB1Element, c: CalB1Element):
    """Left division whose every step subtracts all of c * mu D^s."""
    q, r = {}, b
    dc = c.top_degree()
    inv = c.terms[dc].inverse()
    while r and length(r) >= length(c):
        dr = r.top_degree()
        mu = q[dr - dc] = (r.terms[dr] * inv).shift(-dc)
        r = r - c * r._new({dr - dc: mu})
    return CalB1Element(q), r


def reference_pairs():
    """320 seeded (dividend, nonzero divisor) pairs, forty of each kind."""
    rng = random.Random(79)
    pairs = []
    for i in range(320):
        kind = i % 8
        if kind == 0:  # a divisor of length 0 at any degree
            c = cal({rng.randint(-3, 3): rand_ratfunc(rng)})
        elif kind == 1:  # a divisor with a gap in its support
            c = cal({-1: rand_ratfunc(rng), 2: rand_ratfunc(rng)})
        else:
            c = rand_calb1_nonzero(rng, 2)
        if kind in (2, 3):  # exact quotients: r = 0
            b = rand_calb1_nonzero(rng, 2)
            b = b * c if kind == 2 else c * b
        elif kind == 4:  # b shorter than c
            c = cal({-2: rand_ratfunc(rng), 1: rand_ratfunc(rng)})
            b = cal({rng.randint(-2, 2): rand_ratfunc(rng), 0: rand_ratfunc(rng)})
        else:
            b = rand_calb1(rng, 4)
        pairs.append((b, c))
    return pairs


class TestAgainstTheReference:
    """The steps that skip the cancelling top term give the same q and r as
    the steps that subtract it."""

    @pytest.mark.parametrize("divide,reference", [
        (right_divide, reference_right_divide), (left_divide, reference_left_divide)])
    def test_quotient_and_remainder(self, divide, reference):
        exact = short = 0
        for b, c in reference_pairs():
            (q, r), (q0, r0) = divide(b, c), reference(b, c)
            assert (q.terms, r.terms) == (q0.terms, r0.terms)
            exact += r.is_zero() and not b.is_zero()
            short += q.is_zero() and not b.is_zero()
        assert exact >= 40 and short >= 40

    def test_built_coefficients_are_ints_or_proper_fractions(self):
        for b, c in reference_pairs():
            for x in (b, c, *right_divide(b, c), *left_divide(b, c)):
                assert all(map(is_exact, calb1_coefficients(x)))


class TestOneInversePerDivision:
    """tau^s(1/gamma) = 1/tau^s(gamma), so a division inverts the divisor's
    top coefficient once, however many steps it takes."""

    @pytest.mark.parametrize("divide", [right_divide, left_divide])
    def test_inverse_calls(self, divide, monkeypatch):
        rng = random.Random(78)
        pairs = [(rand_calb1(rng, 4, 2), rand_calb1_nonzero(rng, 1, 2)) for _ in range(30)]
        calls = []
        inverse = RatFunc.inverse
        monkeypatch.setattr(RatFunc, "inverse", lambda f: calls.append(f) or inverse(f))
        steps = 0
        for b, c in pairs:
            calls.clear()
            q, r = divide(b, c)
            assert calls == [c.terms[c.top_degree()]]
            steps += len(q.terms)
        assert steps >= 60


class TestProjectionHomomorphism:
    def test_randomized(self):
        rng = random.Random(77)
        for _ in range(150):
            a, b = rand_i1(rng), rand_i1(rng)
            assert project_B1(a * b) == project_B1(a) * project_B1(b)
