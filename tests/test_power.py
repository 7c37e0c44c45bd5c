"""Binary powers: x**k is the k-fold product and costs
popcount(k) + bit_length(k) - 1 products (no squaring after the last bit)."""

from fractions import Fraction
from functools import reduce

import pytest

from intdiffop import (
    I1Element,
    InElement,
    MatUnit,
    PolyH,
    PolyXn,
    RatFunc,
    generators,
    parse_operator,
    parse_poly,
)
from intdiffop.laurent import CalB1Element

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
