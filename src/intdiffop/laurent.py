"""Skew Laurent polynomial arithmetic over K[H] and K(H).

Elements are sparse maps Laurent-degree -> coefficient, representing
sum alpha_d(H) * D^d with the commutation rule D^d * alpha(H) = alpha(H+d) * D^d.
Coefficients are PolyH (integral version) or RatFunc (field version); over
K(H) the algebra is a noncommutative Euclidean domain for the length
function, and one division loop serves both sides.  A power refuses, before
its first product, an exponent k whose k times the largest term size passes
MAX_DEGREE letters: alpha(H) D^d counts |d| plus the H-degrees of alpha's
numerator and denominator.
"""

from __future__ import annotations

from .errors import DivisionByZero
from .polyh import PolyH, RatFunc, join_terms, power_text
from .sparse import Sparse, _acc


class _Skew(Sparse):
    """Shared core: sparse degree -> coefficient map; no zero coefficients."""

    __slots__ = ()

    def _unit_key(self):
        return 0

    def _product(self, other: "_Skew") -> dict:
        out = {}
        for d, a in self.terms.items():
            for e, b in other.terms.items():
                _acc(out, d + e, a * b.shift(d))
        return out

    # bench/tracing.py patches it through the class's own __dict__, where an
    # inherited method is not found (tests/test_trace_points.py)
    __mul__ = Sparse.__mul__

    def _term_size(self) -> int:
        # alpha(H) D^d counts |d| and the letters of alpha
        return max((abs(d) + c._term_size() for d, c in self.terms.items()), default=0)

    def top_degree(self):
        return max(self.terms) if self.terms else None

    def to_text(self, dvar: str = "D", hvar: str = "H") -> str:
        segs = []
        for d, c in sorted(self.terms.items(), reverse=True):
            body = c.to_text(hvar)
            sign = -1 if body.startswith("-") else 1
            factors = power_text(dvar, d)
            # -c is bracketed after the sign; terms at D^0 join the sum as they are
            body = (-c).to_text(hvar) if sign < 0 and factors else body.removeprefix("-")
            if factors and body != "1":
                # a coefficient that is a sum or a quotient is bracketed
                if "+" in body or "-" in body or "/" in body:
                    body = f"({body})"
                factors.insert(0, body)
            segs.append((sign, "*".join(factors) or body))
        return join_terms(segs)


class B1Element(_Skew):
    """Skew Laurent polynomial with K[H] coefficients."""

    @staticmethod
    def _coerce(v):
        return v if isinstance(v, PolyH) else PolyH.const(v)

    def to_calb1(self) -> "CalB1Element":
        """Embedding into the K(H) version; commutes with multiplication."""
        return CalB1Element(self.terms)


class CalB1Element(_Skew):
    """Skew Laurent polynomial with K(H) coefficients."""

    @staticmethod
    def _coerce(v):
        return v if isinstance(v, RatFunc) else RatFunc(v)


def length(b):
    """Top degree minus bottom degree of the support; None for zero."""
    if b.is_zero():
        return None
    return b.top_degree() - min(b.terms)


def _divide(b: CalB1Element, c: CalB1Element, left: bool):
    """b = c*q + r (left) or b = q*c + r (right), r = 0 or length(r) < length(c).

    Each step takes the mu D^s for which c * mu D^s (left) or mu D^s * c
    (right) has the remainder's top term; for gamma the top coefficient of
    c, c * mu D^s has gamma * tau^dc(mu) on top.  That term cancels, so the
    step drops it and subtracts only the tail of c (c minus its top term)
    times mu D^s.  gamma is inverted once: tau^s(1/gamma) = 1/tau^s(gamma).
    """
    if c.is_zero():
        raise DivisionByZero("division by zero in the skew Laurent algebra")
    lc, dc = length(c), c.top_degree()
    tail = dict(c.terms)
    inv = tail.pop(dc).inverse()
    tail = c._new(tail)
    q = {}
    r = b
    while r and length(r) >= lc:
        rest = dict(r.terms)
        dr = max(rest)
        s = dr - dc
        top = rest.pop(dr)
        mu = q[s] = (top * inv).shift(-dc) if left else top * inv.shift(s)
        step = r._new({s: mu})
        r = r._new(rest) - (tail * step if left else step * tail)
    return CalB1Element(q), r


def right_divide(b: CalB1Element, c: CalB1Element):
    """b = q*c + r with r = 0 or length(r) < length(c)."""
    return _divide(b, c, left=False)


def left_divide(b: CalB1Element, c: CalB1Element):
    """b = c*q + r with r = 0 or length(r) < length(c)."""
    return _divide(b, c, left=True)
