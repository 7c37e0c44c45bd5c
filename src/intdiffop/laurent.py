"""Skew Laurent polynomial arithmetic over K[H] and K(H).

Elements are sparse maps Laurent-degree -> coefficient, representing
sum alpha_d(H) * D^d with the commutation rule D^d * alpha(H) = alpha(H+d) * D^d.
Coefficients are PolyH (integral version) or RatFunc (field version); over
K(H) the algebra is a noncommutative Euclidean domain with the length
function and left/right division with remainder.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero
from .polyh import PolyH, RatFunc, join_terms, power_text
from .sparse import Sparse, _acc


class _Skew(Sparse):
    """Shared core: sparse degree -> coefficient map; no zero coefficients."""

    __slots__ = ()

    def _unit_key(self):
        return 0

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational is central and shift-invariant: scale each coefficient
            return self.scale(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        out = {}
        for d, a in self.terms.items():
            for e, b in other.terms.items():
                _acc(out, d + e, a * b.shift(d))
        return self._new(out)

    def top_degree(self):
        return max(self.terms) if self.terms else None

    def to_text(self, dvar: str = "D", hvar: str = "H") -> str:
        segs = []
        for d in sorted(self.terms, reverse=True):
            body = self.terms[d].to_text(hvar)
            sign = -1 if body.startswith("-") else 1
            body = body.removeprefix("-")
            factors = power_text(dvar, d)
            if factors and body != "1":
                # a coefficient that is a sum or a quotient is bracketed
                if "+" in body or "-" in body or "/" in body:
                    body = f"({body})"
                factors.insert(0, body)
            segs.append((sign, "*".join(factors) or body))
        return join_terms(segs)

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"


class B1Element(_Skew):
    """Skew Laurent polynomial with K[H] coefficients."""

    @staticmethod
    def _coerce(v):
        if isinstance(v, PolyH):
            return v
        return PolyH.const(v)

    def to_calb1(self) -> "CalB1Element":
        """Embedding into the K(H) version; commutes with multiplication."""
        return CalB1Element({d: RatFunc(p) for d, p in self.terms.items()})


class CalB1Element(_Skew):
    """Skew Laurent polynomial with K(H) coefficients."""

    @staticmethod
    def _coerce(v):
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, PolyH):
            return RatFunc(v)
        return RatFunc.const(v)


def length(b):
    """Top degree minus bottom degree of the support; None for zero."""
    if b.is_zero():
        return None
    return b.top_degree() - min(b.terms)


def right_divide(b: CalB1Element, c: CalB1Element):
    """b = q*c + r with r = 0 or length(r) < length(c).

    Greedy elimination of the top degree; each step strictly shrinks the
    length of the remainder, so termination is immediate.
    """
    if c.is_zero():
        raise DivisionByZero("division by zero in the skew Laurent algebra")
    q = {}
    r = b
    lc = length(c)
    dc = c.top_degree()
    # one inverse of the top coefficient gamma of c: tau is an automorphism,
    # so tau^s(1/gamma) = 1/tau^s(gamma)
    inv = c.terms[dc].inverse()
    while r and length(r) >= lc:
        dr = r.top_degree()
        shift = dr - dc
        mu = q[shift] = r.terms[dr] * inv.shift(shift)
        r = r - r._new({shift: mu}) * c
    return CalB1Element(q), r


def left_divide(b: CalB1Element, c: CalB1Element):
    """b = c*q + r with r = 0 or length(r) < length(c)."""
    if c.is_zero():
        raise DivisionByZero("division by zero in the skew Laurent algebra")
    q = {}
    r = b
    lc = length(c)
    dc = c.top_degree()
    inv = c.terms[dc].inverse()
    while r and length(r) >= lc:
        dr = r.top_degree()
        shift = dr - dc
        # c * mu D^shift has top coefficient gamma * tau^dc(mu), gamma the
        # top coefficient of c
        mu = q[shift] = (r.terms[dr] * inv).shift(-dc)
        r = r - c * r._new({shift: mu})
    return CalB1Element(q), r
