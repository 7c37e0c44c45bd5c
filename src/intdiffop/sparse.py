"""The one sparse core behind every element type of the engine.

Polynomials in H and in x, elements of the one- and n-variable algebras and
skew Laurent polynomials are all finite sums: a map from basis keys to
nonzero coefficients.  `Sparse` holds that map in `terms` and is the only
owner of its invariant: every coefficient passes the one `_coerce` hook (by
default an exact rational: an `int` when integral, else a `Fraction`), the
new coefficients of sums, differences and scalings too, no zero coefficient
is stored, and equal keys add up.  A product rule that accumulates raw
values coerces its result map once, with `_integral`.  An `int` and an equal
`Fraction` compare, hash and print alike, so the two may mix.  It holds the
only constructor loop, scalar embedding, `coeffs` copy and scalar
`__rmul__`, and the only linear operations, equality, hashing and powers,
which refuse a product beyond MAX_POWER_PAIRS.  A subclass supplies the key
of 1 (`_unit_key`), optionally its own `_coerce`, and, where it has one, its
product rule; a subclass whose elements carry context, such as a factor
count, also supplies `_new`, `_check` and `_context`, and sets that context
before calling `Sparse.__init__`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LimitExceeded

# `**` and the products of parsed text refuse, with LimitExceeded, any product
# that pairs more terms than this.  The powers of the test suite and the
# benchmark pair at most 2,401; the fifth squaring of d1 + int1 + H1 would
# pair 160,801.
MAX_POWER_PAIRS = 1 << 15


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
        out = dict(self.terms)
        coerce = self._coerce
        for k, v in other.terms.items():
            w = out.get(k)
            w = -v if w is None else coerce(w - v)
            if w:
                out[k] = w
            else:
                del out[k]
        return self._new(out)

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

    def __rmul__(self, other):
        # rationals are central, so c * self = self * c
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        # binary powering that stops squaring after the last bit: **k makes
        # popcount(k) + bit_length(k) - 1 products
        if k < 0:
            raise ValueError("negative power")
        result = self._scalar(1)
        base = self
        while k:
            if k & 1:
                result = _bounded_product(result, base)
            k >>= 1
            if k:
                base = _bounded_product(base, base)
        return result


def _bounded_product(a: Sparse, b: Sparse) -> Sparse:
    """a * b, refused before it starts beyond MAX_POWER_PAIRS term pairs."""
    if (pairs := len(a.terms) * len(b.terms)) > MAX_POWER_PAIRS:
        raise LimitExceeded(
            f"a product of {pairs} term pairs, beyond the limit {MAX_POWER_PAIRS}")
    return a * b
