"""The one sparse core behind every element type of the engine.

Polynomials in H and in x, elements of the one- and n-variable algebras and
skew Laurent polynomials are all finite sums: a map from basis keys to
nonzero coefficients.  `Sparse` holds that map in `terms` and is the only
owner of its invariant: every coefficient passes the one `_coerce` hook (by
default an exact rational: an `int` when integral, else a `Fraction`), the
new coefficients of sums, differences and scalings too, no zero coefficient
is stored, and equal keys add up.  An `int` and an equal `Fraction`
compare, hash and print alike, so the two may mix.  It holds the only
constructor loop, scalar embedding, `coeffs` copy and scalar `__rmul__`, the
only linear operations, equality, hashing and `Type(text)` repr, the only
entry of products and the only powers.  A product by a rational scales, one
by a foreign type is NotImplemented, `_check` guards the context, and the
subclass's `_product` returns a raw term map that the core coerces once,
with `_integral`.  Before the first product a power refuses a base whose
coefficients would pass MAX_POWER_BITS, counted through polynomial and
rational-function coefficients, then one whose terms would pass MAX_DEGREE
letters; then a subclass's `_closed_power` may answer, and otherwise each
product of binary powering refuses more than MAX_POWER_PAIRS term pairs.  A
subclass supplies the key of 1 (`_unit_key`), its `to_text` and its
`_product`, optionally its own `_coerce`, `_term_size` and `_closed_power`;
a subclass whose elements carry context, such as a factor count, also
supplies `_new`, `_check` and `_context`, and sets that context before
calling `Sparse.__init__`.  `PolyH` keeps its own `*`, whose product by 1
returns the other operand itself.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LimitExceeded

# `**` and the products of parsed text refuse, with LimitExceeded, any product
# that pairs more terms than this.  The powers of the test suite and the
# benchmark pair at most 2,401; the fifth squaring of d1 + int1 + H1 would
# pair 160,801.
MAX_POWER_PAIRS = 1 << 15

# `**` refuses, with LimitExceeded and before any product, a power c^k whose
# coefficients would pass this many bits: k * floor(log2 c) for c the largest
# numerator or denominator of the rationals in the base's coefficients.
MAX_POWER_BITS = 1 << 16

# A monomial product of the one-variable algebra whose two factors hold more
# than this many letters in total is refused with LimitExceeded: int^k and
# d^k count k, H^j counts j and e[s,t] = int^s e[0,0] d^t counts s + t.  It
# bounds the terms one product emits and the size of their coefficients.
# The largest monomial product of the test suite and the benchmark has 40
# letters.  `**` of a polynomial in H or of a skew Laurent polynomial refuses,
# before any product, a power k whose k times the largest term size passes it:
# H^j counts j, D^d counts |d| and num/den counts the degrees of both.
MAX_DEGREE = 1000


def _rat(v) -> int | Fraction:
    """v as an int when integral, else as a Fraction; only int and Fraction
    are exact, so a float is refused."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise TypeError(f"coefficient must be an int or a Fraction, not {type(v).__name__}")


def _integral(out: dict) -> dict:
    """out, with each integral Fraction value replaced in place by its int.
    A product coerces its result map once, not each monomial pair."""
    for k, v in out.items():
        if type(v) is Fraction and v.denominator == 1:
            out[k] = v.numerator
    return out


def _acc(out: dict, key, c):
    """out[key] += c, keeping no zero coefficients."""
    v = out.get(key)
    v = c if v is None else v + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


class Sparse:
    """Key -> nonzero coefficient map; immutable by convention."""

    __slots__ = ("terms",)

    _coerce = staticmethod(_rat)

    def __init__(self, terms=None):
        """From a map or from (key, coefficient) pairs."""
        out = {}
        if terms:
            coerce = self._coerce
            for k, v in terms.items() if isinstance(terms, dict) else terms:
                _acc(out, k, coerce(v))
        self.terms = out

    def _scalar(self, v) -> "Sparse":
        """The element v*1 in the context of self."""
        v = self._coerce(v)
        return self._new({self._unit_key(): v} if v else {})

    def _unit_key(self):
        """The key of the basis element 1."""
        raise NotImplementedError

    def _new(self, terms: dict) -> "Sparse":
        """An element with self's context over already normalised terms."""
        r = object.__new__(type(self))
        r.terms = terms
        return r

    def _check(self, other: "Sparse"):
        """Raise if other lives in a different context than self."""

    def _context(self) -> tuple:
        """What besides the terms tells elements of this type apart."""
        return ()

    def _term_size(self) -> int:
        """The letters of the largest term, which `**` multiplies by the
        exponent against MAX_DEGREE; 0 for a type whose products count
        their own letters or have none to count."""
        return 0

    def _operand(self, other):
        """other as an element of self's context, or None for a foreign type."""
        if isinstance(other, (int, Fraction)):
            return self._scalar(other)
        if type(other) is not type(self):
            return None
        self._check(other)
        return other

    @property
    def coeffs(self) -> dict:
        """A copy of the term map."""
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar(other)
        elif type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms and self._context() == other._context()

    def __hash__(self):
        # a scalar equals its Fraction value, so it hashes as that value
        unit = self._unit_key()
        if self.terms.keys() <= {unit}:
            return hash(self.terms.get(unit, 0))
        return hash((self._context(), frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        coerce = self._coerce
        for k, v in other.terms.items():
            w = out.get(k)
            w = v if w is None else coerce(w + v)
            if w:
                out[k] = w
            else:
                del out[k]
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scalar(other) - self
        return NotImplemented

    def scale(self, c) -> "Sparse":
        """c * self for a rational c."""
        c = _rat(c)
        if not c:
            return self._new({})
        coerce = self._coerce
        return self._new({k: coerce(c * v) for k, v in self.terms.items()})

    def _product(self, other: "Sparse") -> dict:
        """The raw term map of self * other, for other of self's type and
        context; `__mul__` coerces it once."""
        raise NotImplementedError

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self._new(_integral(self._product(other)))

    def __rmul__(self, other):
        # rationals are central, so c * self = self * c
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def _closed_power(self, k: int):
        """self ** k in closed form, asked after the budget checks, or None
        for binary powering."""
        return None

    def __pow__(self, k: int):
        # binary powering that stops squaring after the last bit: **k makes
        # popcount(k) + bit_length(k) - 1 products
        if k < 0:
            raise ValueError("negative power")
        _check_power_bits(self.terms, k)
        if (letters := k * self._term_size()) > MAX_DEGREE:
            raise LimitExceeded(f"a power of total degree {letters}, beyond the limit {MAX_DEGREE}")
        if (closed := self._closed_power(k)) is not None:
            return closed
        result = self._scalar(1)
        base = self
        while k:
            if k & 1:
                result = _bounded_product(result, base)
            k >>= 1
            if k:
                base = _bounded_product(base, base)
        return result

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"


def _rationals(terms: dict):
    """The ints and Fractions of a term map, read through the coefficients
    of polynomial coefficients and of both parts of rational functions."""
    for v in terms.values():
        if isinstance(v, (int, Fraction)):
            yield v
        elif isinstance(v, Sparse):
            yield from _rationals(v.terms)
        else:  # a rational function num/den
            yield from _rationals(v.num.terms)
            yield from _rationals(v.den.terms)


def _check_power_bits(terms: dict, k: int):
    """Refuse the k-th power of a term map whose rationals would grow
    beyond MAX_POWER_BITS bits."""
    c = max((max(abs(v.numerator), v.denominator) for v in _rationals(terms)), default=1)
    if (bits := k * (c.bit_length() - 1)) > MAX_POWER_BITS:
        raise LimitExceeded(
            f"a power with {bits}-bit coefficients, beyond the limit {MAX_POWER_BITS}")


def _check_pairs(pairs: int):
    """Refuse a product of more than MAX_POWER_PAIRS term pairs."""
    if pairs > MAX_POWER_PAIRS:
        raise LimitExceeded(
            f"a product of {pairs} term pairs, beyond the limit {MAX_POWER_PAIRS}")


def _bounded_product(a: Sparse, b: Sparse) -> Sparse:
    """a * b, refused before it starts beyond MAX_POWER_PAIRS term pairs."""
    _check_pairs(len(a.terms) * len(b.terms))
    return a * b
