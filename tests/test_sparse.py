"""The term-map contract every element type inherits from `Sparse`: one
constructor that coerces coefficients, drops zeros and adds up equal keys,
and a `coeffs` that is a copy."""

from decimal import Decimal
from fractions import Fraction

import pytest

from intdiffop import DiffMon, HMon, I1Element, InElement, IntMon, MatUnit, PolyH, PolyX, PolyXn
from intdiffop.laurent import B1Element, CalB1Element
from intdiffop.polyh import H, RatFunc
from intdiffop.sparse import _rat

# name -> (constructor from a term map or pairs, a term map, a key not in it)
ELEMENTS = {
    "PolyH": (PolyH, {0: 1, 2: Fraction(-1, 3)}, 5),
    "PolyX": (PolyX, {0: 1, 2: Fraction(-1, 3)}, 5),
    "PolyXn": (lambda t: PolyXn(2, t), {(0, 1): 2, (3, 0): Fraction(1, 2)}, (5, 5)),
    "I1Element": (I1Element, {HMon(1): 2, MatUnit(0, 1): Fraction(-1, 2)}, DiffMon(0, 5)),
    "InElement": (
        lambda t: InElement(2, t),
        {(HMon(0), HMon(1)): 3, (MatUnit(1, 0), DiffMon(2, 1)): -1},
        (HMon(5), HMon(5)),
    ),
    "InElement-quotient": (
        lambda t: InElement(2, t, ("I", "B")),
        {(HMon(0), DiffMon(2, 1)): 3, (MatUnit(1, 0), IntMon(1, 0)): -1},
        (HMon(5), DiffMon(5, 5)),
    ),
    "B1Element": (B1Element, {1: 2, -1: H}, 5),
    "CalB1Element": (CalB1Element, {1: RatFunc(1, H), 0: H + 1}, 5),
}


@pytest.fixture(params=ELEMENTS, ids=str)
def case(request):
    return ELEMENTS[request.param]


def test_zero_coefficients_are_dropped(case):
    make, terms, spare = case
    x = make({**terms, spare: 0})
    assert x.terms.keys() == terms.keys()
    assert x == make(terms)


def test_pairs_with_equal_keys_add_up(case):
    make, terms, spare = case
    k, v = next(iter(terms.items()))
    pairs = [*terms.items(), (spare, v), (k, v), (spare, -v)]
    assert make(pairs) == make({**terms, k: v + v})


def test_polyh_pairs_cancel():
    assert PolyH([(1, 2), (1, -2), (0, 3)]) == PolyH.const(3)


def test_scalar_operands_keep_the_context(case):
    make, terms, _ = case
    x = make(terms)
    for y, expected in ((x + 0, x), (0 - x, -x)):
        assert type(y) is type(x)
        assert getattr(y, "n", None) == getattr(x, "n", None)
        assert getattr(y, "modes", None) == getattr(x, "modes", None)
        assert y == expected


def test_coeffs_is_a_copy(case):
    make, terms, spare = case
    x = make(terms)
    h = hash(x)
    c = x.coeffs
    c[spare] = next(iter(c.values()))
    assert x == make(terms) and hash(x) == h
    x.coeffs.clear()
    assert x == make(terms) and hash(x) == h


def test_float_coefficients_are_refused(case):
    # Fraction(0.1) would be the binary expansion of 0.1, not 1/10
    make, terms, spare = case
    with pytest.raises(TypeError, match="not float"):
        make({**terms, spare: 0.1})
    with pytest.raises(TypeError, match="not float"):
        make(terms).scale(0.5)


def test_integral_values_are_stored_as_int():
    assert _rat(Fraction(4, 2)) == 2 and type(_rat(Fraction(4, 2))) is int
    assert type(_rat(True)) is int and _rat(Fraction(1, 3)) == Fraction(1, 3)
    for v in (0.5, 2.0, Decimal(2)):
        with pytest.raises(TypeError):
            _rat(v)


@pytest.mark.parametrize("name", [n for n in ELEMENTS if "B1" not in n])
def test_int_and_fraction_coefficients_agree(name):
    # integral coefficients are stored as int; the same element over the
    # equal Fractions compares, hashes and prints the same
    make, terms, _ = ELEMENTS[name]
    for x in (make(terms), make(terms)._scalar(3)):
        assert any(type(v) is int for v in x.terms.values())
        y = x._new({k: Fraction(v) for k, v in x.terms.items()})
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
