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
from .polyh import PolyH, RatFunc


class _Skew:
    """Shared core: sparse degree -> coefficient map; no zero coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for d, v in coeffs.items():
                v = self._coerce(v)
                if v:
                    c[int(d)] = v
        self.coeffs = c

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self)({0: other})
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a scalar equals its constant coefficient, so it hashes as that value
        if self.coeffs.keys() <= {0}:
            return hash(self.coeffs.get(0, 0))
        return hash((type(self).__name__, frozenset(self.coeffs.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self)({0: other})
        out = dict(self.coeffs)
        for d, v in other.coeffs.items():
            w = out.get(d)
            w = v if w is None else w + v
            if w:
                out[d] = w
            elif d in out:
                del out[d]
        return type(self)(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({d: -v for d, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self)({0: other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = type(self)({0: other})
        if not isinstance(other, type(self)):
            return NotImplemented
        out = {}
        for d, a in self.coeffs.items():
            for e, b in other.coeffs.items():
                v = a * b.shift(d)
                if v:
                    k = d + e
                    w = out.get(k)
                    w = v if w is None else w + v
                    if w:
                        out[k] = w
                    elif k in out:
                        del out[k]
        return type(self)(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self)({0: other}) * self
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power; use an explicit D^-1 coefficient")
        result = type(self)({0: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def top_degree(self):
        return max(self.coeffs) if self.coeffs else None

    def bottom_degree(self):
        return min(self.coeffs) if self.coeffs else None

    def to_text(self, dvar: str = "D", hvar: str = "H") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs, reverse=True):
            v = self.coeffs[d]
            body = v.to_text(hvar)
            neg = body.startswith("-")
            if neg:
                body = body[1:]
            if d != 0:
                dv = dvar if d == 1 else f"{dvar}^{d}"
                if body == "1":
                    body = dv
                else:
                    if "+" in body or "-" in body or "/" in body:
                        body = f"({body})"
                    body = f"{body}*{dv}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

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
        return CalB1Element({d: RatFunc(p) for d, p in self.coeffs.items()})


class CalB1Element(_Skew):
    """Skew Laurent polynomial with K(H) coefficients."""

    @staticmethod
    def _coerce(v):
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, PolyH):
            return RatFunc(v)
        return RatFunc.const(v)

    @classmethod
    def d_power(cls, d: int, coeff=1) -> "CalB1Element":
        return cls({d: coeff})


def b1_mul(a, b):
    return a * b


def length(b):
    """Top degree minus bottom degree of the support; None for zero."""
    if b.is_zero():
        return None
    return b.top_degree() - b.bottom_degree()


def right_divide(b: CalB1Element, c: CalB1Element):
    """b = q*c + r with r = 0 or length(r) < length(c).

    Greedy elimination of the top degree; each step strictly shrinks the
    length of the remainder, so termination is immediate.
    """
    if c.is_zero():
        raise DivisionByZero("division by zero in the skew Laurent algebra")
    q = CalB1Element()
    r = b
    lc = length(c)
    dc = c.top_degree()
    gamma = c.coeffs[dc]
    while not r.is_zero() and length(r) >= lc:
        dr = r.top_degree()
        shift = dr - dc
        mu = r.coeffs[dr] * gamma.shift(shift).inverse()
        mono = CalB1Element({shift: mu})
        q = q + mono
        r = r - mono * c
    return q, r


def left_divide(b: CalB1Element, c: CalB1Element):
    """b = c*q + r with r = 0 or length(r) < length(c)."""
    if c.is_zero():
        raise DivisionByZero("division by zero in the skew Laurent algebra")
    q = CalB1Element()
    r = b
    lc = length(c)
    dc = c.top_degree()
    gamma = c.coeffs[dc]
    while not r.is_zero() and length(r) >= lc:
        dr = r.top_degree()
        shift = dr - dc
        # c * mu D^shift has top coefficient gamma * tau^dc(mu)
        mu = (r.coeffs[dr] * gamma.inverse()).shift(-dc)
        mono = CalB1Element({shift: mu})
        q = q + mono
        r = r - c * mono
    return q, r
