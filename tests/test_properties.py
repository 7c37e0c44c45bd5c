"""Property tests: the field identities of RatFunc and the skew Euclidean
division, over inputs drawn by hypothesis.

Every test runs a fixed, derandomized set of examples, so the suite stays
reproducible and takes under two seconds.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from intdiffop import CalB1Element, PolyH, RatFunc, left_divide, length, right_divide  # noqa: E402

FIXED = settings(derandomize=True, deadline=None, max_examples=20)

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw, max_degree=3):
    return PolyH(dict(enumerate(draw(st.lists(coeffs, max_size=max_degree + 1)))))


@st.composite
def ratfuncs(draw, max_degree=3):
    return RatFunc(draw(polys(max_degree)), draw(polys(max_degree).filter(bool)))


@st.composite
def skew(draw, max_span):
    lo = draw(st.integers(-2, 1))
    span = draw(st.integers(0, max_span))
    return CalB1Element({d: draw(ratfuncs(2)) for d in range(lo, lo + span + 1)})


@FIXED
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@FIXED
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@FIXED
@given(ratfuncs(), ratfuncs())
def test_sum_difference_and_quotient_round_trips(a, b):
    assert (a + b) - b == a
    assume(not b.is_zero())
    assert a / b * b == a


@FIXED
@given(ratfuncs(), ratfuncs(), polys())
def test_agreement_with_the_normaliser(a, b, p):
    n1, d1, n2, d2 = a.num, a.den, b.num, b.den
    assert a + b == RatFunc(n1 * d2 + n2 * d1, d1 * d2)
    assert a - b == RatFunc(n1 * d2 - n2 * d1, d1 * d2)
    assert a * b == RatFunc(n1 * n2, d1 * d2)
    # a + p has the denominator of a, so this sum takes the equal-denominator case
    c = a + p
    assert c.den == d1
    assert a + c == RatFunc(n1 + c.num, d1)
    for r in (a + b, a * b, a + c):
        assert r.den.leading_coeff() == 1
        assert r.num.gcd(r.den) == 1 or r.is_zero()


@FIXED
@given(skew(3), skew(2).filter(bool))
def test_right_division(b, c):
    q, r = right_divide(b, c)
    assert b == q * c + r
    assert r.is_zero() or length(r) < length(c)


@FIXED
@given(skew(3), skew(2).filter(bool))
def test_left_division(b, c):
    q, r = left_divide(b, c)
    assert b == c * q + r
    assert r.is_zero() or length(r) < length(c)

