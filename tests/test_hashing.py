"""Objects that compare equal hash equal: scalars as their Fraction value."""

from fractions import Fraction

import pytest

from intdiffop import I1Element, InElement, PolyH, PolyX, PolyXn, RatFunc
from intdiffop.laurent import B1Element, CalB1Element

SCALARS = {
    "PolyH": PolyH.const,
    "RatFunc": RatFunc.const,
    "PolyX": lambda v: PolyX({0: v}),
    "PolyXn": lambda v: PolyXn(2, {(0, 0): v}),
    "I1Element": I1Element.from_scalar,
    "InElement": lambda v: InElement.from_scalar(2, v),
    "InElement-quotient": lambda v: InElement.from_scalar(2, v, ("I", "B")),
    "B1Element": lambda v: B1Element({0: v}),
    "CalB1Element": lambda v: CalB1Element({0: v}),
}


@pytest.mark.parametrize("v", [0, 1, Fraction(2, 3)], ids=str)
@pytest.mark.parametrize("name", SCALARS)
def test_scalar_hashes_as_its_value(name, v):
    x = SCALARS[name](v)
    assert x == v
    assert hash(x) == hash(v)
    assert len({x, v}) == 1


@pytest.mark.parametrize("c", [0, 1, Fraction(2, 3)], ids=str)
@pytest.mark.parametrize("name", SCALARS)
def test_scalar_products_commute(name, c):
    x = SCALARS[name](Fraction(-3, 5))
    assert c * x == x * c == c * Fraction(-3, 5)


def test_ratfunc_over_one_hashes_as_its_numerator():
    p = PolyH({0: 1, 2: Fraction(-1, 3)})
    assert RatFunc(p) == p
    assert hash(RatFunc(p)) == hash(p)
    assert len({RatFunc(p), p}) == 1
