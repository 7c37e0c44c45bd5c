"""Binary powers: x**k is the k-fold product and costs
popcount(k) + bit_length(k) - 1 products (no squaring after the last bit).
A one-term power takes the closed form of x^k or its factor's I1 power and
must give what binary powering gives.  Every `**` refuses a power past the
coefficient budget before any product, with the parser's message."""

import time
from fractions import Fraction
from functools import reduce

import pytest

from intdiffop import (
    DiffMon,
    HMon,
    I1Element,
    InElement,
    IntMon,
    MatUnit,
    PolyH,
    PolyXn,
    RatFunc,
    generators,
    parse_operator,
    parse_poly,
    project_modulo_prime,
)
from intdiffop import sparse
from intdiffop.errors import LimitExceeded
from intdiffop.laurent import B1Element, CalB1Element
from intdiffop.sparse import MAX_POWER_BITS, Sparse

D, INT, H, X = generators()
HP = PolyH.monomial(1)

BASES = {
    "I1Element": (D + 2 * INT - H + X + I1Element.from_mono(MatUnit(1, 0)), I1Element.from_scalar(1)),
    "InElement": (parse_operator("d1 + int2 - H1*x2 + 1/2*e1[0,1]", 2), InElement.one(2)),
    "PolyH": (PolyH({0: 1, 1: Fraction(-1, 2), 2: 3}), PolyH.const(1)),
    "PolyXn": (parse_poly("x1 - 2/3*x2^2 + 1", 2), PolyXn.one(2)),
    "CalB1Element": (
        CalB1Element({-1: HP, 0: Fraction(2, 3), 1: RatFunc(PolyH.const(1), HP + 1)}),
        CalB1Element({0: 1}),
    ),
}


@pytest.mark.parametrize("name", BASES)
def test_power_is_the_repeated_product(name):
    x, one = BASES[name]
    for k in range(10):
        assert x**k == reduce(lambda acc, _: acc * x, range(k), one), k


@pytest.mark.parametrize("name", BASES)
def test_power_makes_popcount_plus_bit_length_minus_one_products(name, monkeypatch):
    x, _ = BASES[name]
    cls = type(x)
    mul = cls.__mul__
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    for k in range(10):
        calls.clear()
        x**k
        assert len(calls) == (bin(k).count("1") + k.bit_length() - 1 if k else 0), k


@pytest.mark.parametrize("name", BASES)
def test_power_refuses_a_product_beyond_the_pair_limit(name, monkeypatch):
    x, _ = BASES[name]
    t, t2 = len(x.terms), len((x * x).terms)
    assert t2 > t
    # x**2 pairs t by t terms, and x**3 then pairs t by t2 > t
    monkeypatch.setattr(sparse, "MAX_POWER_PAIRS", t * t)
    assert x**2 == x * x
    want = f"product of {t * t2} term pairs, beyond the limit {t * t}"
    with pytest.raises(LimitExceeded, match=want):
        x**3


def test_products_in_parsed_text_share_the_pair_limit(monkeypatch):
    s = "(d1 + int1 + H1)"
    t2 = len(parse_operator(f"{s}^2").terms)
    # the chain pairs 1 by 3, 3 by 3, then t2 by 3 terms
    monkeypatch.setattr(sparse, "MAX_POWER_PAIRS", 9)
    assert parse_operator(f"{s}*{s}") == parse_operator(f"{s}^2")
    with pytest.raises(LimitExceeded, match=f"product of {3 * t2} term pairs, beyond the limit 9"):
        parse_operator(f"{s}*{s}*{s}")


# one-term operands (coefficient, word), and the exponents beyond k = 0..13
# at which binary powering refuses them: d^1001 and d^1024 pass the letter
# limit, as do e[500,501]^2 and (d^999)^2
ONE_TERM = [
    (1, DiffMon(0, 1), (1001, 1024)), (1, IntMon(1, 0), ()), (1, HMon(1), ()),
    (1, IntMon(1, 1), ()), (-1, IntMon(1, 1), ()), (Fraction(3, 2), IntMon(1, 1), ()),
    (1, MatUnit(0, 0), ()), (1, MatUnit(1, 2), ()), (1, MatUnit(500, 501), ()),
    (1, DiffMon(0, 999), ()),
]


def _power_outcome(power, b, k):
    """The modes and terms in their order with each coefficient's type, or
    the class and message of the error."""
    try:
        a = power(b, k)
    except (LimitExceeded, ValueError) as exc:
        return type(exc), str(exc)
    return a.modes, [(m, v, type(v)) for m, v in a.terms.items()]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_term_powers_are_binary_powering(n):
    # at each factor i, in full mode and with every factor in quotient mode,
    # where the matrix units are projected away
    for i in range(n):
        for c, word, refused in ONE_TERM:
            a = InElement(n, {(HMon(0),) * i + (word,) + (HMon(0),) * (n - 1 - i): c})
            for b in (a, project_modulo_prime(a, range(1, n + 1))):
                for k in [-1, *range(14), *refused]:
                    assert _power_outcome(pow, b, k) == _power_outcome(Sparse.__pow__, b, k), (word, k)


def test_x_power_refusal_is_the_pair_limit():
    # binary powering of x would square for seconds before refusing x^385:
    # the 129 terms of x^129 against the 256 of x^256 (test_parser checks
    # the closed form's refusals against binary powering)
    for b in (X, -X, Fraction(3, 2) * X, parse_operator("x2", 3)):
        start = time.perf_counter()
        with pytest.raises(LimitExceeded, match="^a product of 33024 term pairs, beyond the limit 32768$"):
            b**385
        assert time.perf_counter() - start < 0.1


# bases whose largest coefficient 3 gives one bit per power: every `**`
# refuses a power beyond MAX_POWER_BITS before any product, as parsed text is
BUDGET_TEXTS = ["3*d1 + int2", "3*d1", "3"]
BUDGET = {
    **{f"InElement {t}": parse_operator(t, 2) for t in BUDGET_TEXTS},
    **{f"InElement quotient {t}": project_modulo_prime(parse_operator(t, 2), [1, 2])
       for t in BUDGET_TEXTS},
    "I1Element x": 3 * X,
    "I1Element": 3 * D + INT,
    "PolyH": PolyH({0: 3, 1: 1}),
    "PolyXn": parse_poly("3*x1 + x2", 2),
}


@pytest.mark.parametrize("name", BUDGET)
def test_power_refuses_the_coefficient_budget_at_once(name):
    for k in (MAX_POWER_BITS + 1, 10**8):
        start = time.perf_counter()
        with pytest.raises(LimitExceeded) as exc:
            BUDGET[name] ** k
        assert time.perf_counter() - start < 0.1
        assert str(exc.value) == f"a power with {k}-bit coefficients, beyond the limit {MAX_POWER_BITS}"


@pytest.mark.parametrize("text", BUDGET_TEXTS)
def test_the_parser_refuses_with_the_elements_message(text):
    k = 10**8
    with pytest.raises(LimitExceeded) as parsed:
        parse_operator(f"({text})^{k}", 2)
    with pytest.raises(LimitExceeded) as element:
        parse_operator(text, 2) ** k
    assert str(parsed.value) == str(element.value)


def test_the_budget_comes_before_the_pair_checks():
    # x^k with k past the pair limit and a 1-bit coefficient: the budget is
    # the first refusal, as in parsed text
    for b in (3 * X, parse_operator("3*x1", 1)):
        with pytest.raises(LimitExceeded, match="-bit coefficients"):
            b ** (MAX_POWER_BITS + 1)
        with pytest.raises(LimitExceeded, match="term pairs"):
            b ** 385


@pytest.mark.parametrize("minus_one", [
    I1Element.from_scalar(-1), InElement.from_scalar(2, -1), PolyH.const(-1), PolyXn.one(2).scale(-1),
    project_modulo_prime(InElement.from_scalar(2, -1), [1]),
])
def test_unit_scalar_powers_stay_allowed(minus_one):
    # coefficients of one bit length do not grow, whatever the exponent
    for k in (10**11, 10**11 + 1):
        assert minus_one ** k == (-1) ** k


# powers whose cost no pair count sees: coefficients inside polynomials and
# rational functions, and H- and D-degrees that grow with k.  Each is refused
# before its first product: the coefficient budget first, then MAX_DEGREE on
# k times the largest term size (|D-degree| plus the H-degrees of the
# coefficient's numerator and denominator)
B1, CALB1 = B1Element, CalB1Element
DEGREE_REFUSALS = [
    (B1({1: PolyH.const(3)}), 10**7, "a power with 10000000-bit coefficients, beyond the limit 65536"),
    (CALB1({0: RatFunc(PolyH.const(1), 3 * HP + 1)}), 10**5,
     "a power with 100000-bit coefficients, beyond the limit 65536"),
    (B1({1: 3 * HP}), 10**5, "a power with 100000-bit coefficients, beyond the limit 65536"),
    (CALB1({1: RatFunc(PolyH.const(3), HP)}), 2000, "a power of total degree 4000, beyond the limit 1000"),
    (B1({1: HP}), 1000, "a power of total degree 2000, beyond the limit 1000"),
    (B1({-2: PolyH.const(3)}), 501, "a power of total degree 1002, beyond the limit 1000"),
    (B1({1: HP}), 10**6, "a power of total degree 2000000, beyond the limit 1000"),
    (HP, 1001, "a power of total degree 1001, beyond the limit 1000"),
    (HP, 4_000_000, "a power of total degree 4000000, beyond the limit 1000"),
    (HP, 10**8, "a power of total degree 100000000, beyond the limit 1000"),
    (HP + 1, 1001, "a power of total degree 1001, beyond the limit 1000"),
    (HP + 1, 600, "a product of 66049 term pairs, beyond the limit 32768"),
]


@pytest.mark.parametrize("base,k,message", DEGREE_REFUSALS)
def test_polynomial_and_skew_powers_are_refused_at_once(base, k, message):
    start = time.perf_counter()
    with pytest.raises(LimitExceeded) as exc:
        base**k
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == message


def test_polynomial_and_skew_powers_at_the_degree_bound():
    # (H D)^k = H(H+1)...(H+k-1) D^k, and k = 500 has 1000 letters
    rising = reduce(lambda acc, i: acc * (HP + i), range(500), PolyH.const(1))
    assert B1({1: HP}) ** 500 == B1({500: rising})
    assert B1({-2: PolyH.const(3)}) ** 500 == B1({-1000: PolyH.const(3**500)})
    assert HP**1000 == PolyH.monomial(1000)
    for unit in (B1({0: -1}), CALB1({0: -1}), CALB1({0: RatFunc(PolyH.const(-1))})):
        for k in (10**11, 10**11 + 1):
            assert unit**k == (-1) ** k
