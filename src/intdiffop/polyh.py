"""Exact univariate polynomials and rational functions in H over the rationals.

Polynomials store exact rational coefficients (`int` or `fractions.Fraction`)
sparsely by degree; there is no floating point anywhere in the engine, and
the shift automorphism tau (H -> H+1) is a first-class operation.  `PolyH`
keeps its own `*` beside the sparse core's, because its product by a
constant is a scaling and by 1 returns the other operand itself.  Products,
shifts and the gcd clear denominators and run on forms (a, n, d): a
primitive integer list a in Python ints over a content kept as a pair of
ints n/d, which multiply as ints; the cofactors p/g and q/g are exact
quotients of primitive integer lists.  Each result is scaled by its content
once, integer first: every entry is multiplied by n and divided by d in
ints, and a Fraction is built only for a value that is not integral, so an
integral value is an int.  Rational functions stay reduced by cancelling
crosswise in products and by Henrici's rule in sums, where equal
denominators d take only gcd(n1 + n2, d), so only small gcds are ever taken,
and only a sum makes its gcd monic.  A product or a sum reads each part of
its operands once as a form, runs its gcds, products and sum on forms, and
scales each part of its result once.  An inverse is the swapped pair
den/num, scaled once to a monic denominator with no gcd of its own, and a
quotient is the product by the inverse.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd as igcd, lcm

from .errors import DivisionByZero, LimitExceeded, ZeroPolynomial
from .sparse import Sparse, _acc


# ---------------------------------------------------------------- text rules
# Every printer of the engine builds its text from these helpers.

def power_text(var: str, e: int) -> list:
    """The factors of var^e: none for e = 0, `var` for e = 1, else `var^e`."""
    if e == 0:
        return []
    return [var] if e == 1 else [f"{var}^{e}"]


def term_text(coeff, factors) -> tuple:
    """(sign, body) for the rational coeff times the product of factors."""
    sign = 1 if coeff >= 0 else -1
    coeff = abs(coeff)
    if factors and coeff == 1:
        return sign, "*".join(factors)
    try:
        return sign, "*".join([str(coeff), *factors])
    except ValueError:  # the interpreter's limit on int -> str conversion
        limit = sys.get_int_max_str_digits()
        raise LimitExceeded(f"a coefficient of over {limit} digits to print") from None


def poly_terms(p: dict, var: str) -> list:
    """(sign, body) pairs of the polynomial degree -> coefficient p in var,
    highest degree first."""
    return [term_text(p[d], power_text(var, d)) for d in sorted(p, reverse=True)]


def join_terms(segments) -> str:
    """The signed sum of (sign, body) pairs, e.g. `a - b + c`; "0" when empty."""
    out = []
    for sign, body in segments:
        if not out:
            out.append(body if sign > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(out) or "0"


# ---------------------------------------------------- integer coefficient lists
# Dense lists of Python ints, highest degree first; [] is the zero polynomial.
# A form (a, n, d) is n/d times the primitive list a, as `_primitive` makes it.

def _primitive(terms: dict):
    """(a, n, d): the rational term map as the content n/d times the integer
    list a, whose coefficients are coprime, highest degree first; n and d
    are coprime positive ints.  ([], 0, 1) for the zero map."""
    if not terms:
        return [], 0, 1
    den = 1
    for v in terms.values():
        den = lcm(den, v.denominator)
    top = max(terms)
    out = [0] * (top + 1)
    g = 0
    for d, v in terms.items():
        c = out[top - d] = v.numerator * (den // v.denominator)
        g = igcd(g, c)
    return (out if g == 1 else [c // g for c in out]), g, den


def _prem(a: list, b: list) -> list:
    """The primitive part of a pseudo-remainder of a by b, for nonzero a and
    b with len(a) >= len(b); [] when b divides a.

    Each step clears the leading entry as m*r - c*H^k*b with m, c the
    cofactors of lc(b) and that entry over their gcd.  The entries below the
    window of b take the factor m only when the sweep reaches them, so a step
    costs len(b) whatever the length of a."""
    r = list(a)
    lb, n = b[0], len(b)
    owed = 1
    for i in range(len(r) - n + 1):
        r[i + n - 1] *= owed
        c = r[i]
        if c:
            g = igcd(c, lb)
            c, m = c // g, lb // g
            for k in range(1, n):
                r[i + k] = m * r[i + k] - c * b[k]
            owed *= m
    r = r[len(r) - n + 1:]
    g = 0
    for c in r:
        g = igcd(g, c)
    for i, c in enumerate(r):
        if c:
            return [x // g for x in r[i:]]
    return []


def _prs(a: list, b: list) -> list:
    """A primitive gcd of the primitive integer lists a and b, up to sign;
    [] when both are zero.  The primitive remainder sequence (Collins, JACM
    14(1), 1967; Brown & Traub, JACM 18(4), 1971)."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _prem(a, b)
    return a


def _exquo(a: list, b: list) -> list:
    """a / b for integer lists with b dividing a in Z[H].

    Each quotient entry is an exact integer division by lc(b).  Entry i of
    the quotient reads only the first i + 1 entries of a, so the last
    len(b) - 1 entries are never read: they cancel."""
    n = len(a) - len(b) + 1
    q = a[:n]
    lb, m = b[0], len(b)
    for i in range(n):
        c = q[i] = q[i] // lb
        if c:
            for k in range(1, min(m, n - i)):
                q[i + k] -= c * b[k]
    return q


def _conv(a: list, b: list) -> list:
    """The product of integer lists a and b, both in the same degree order."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _mul_forms(p, q):
    """The product of the forms p and q: one convolution, the contents
    multiplied and reduced; an operand list [1] gives the other list."""
    (a, n, d), (b, m, e) = p, q
    n, d = n * m, d * e
    g = igcd(n, d)
    return (b if a == [1] else a if b == [1] else _conv(a, b)), n // g, d // g


def _add_forms(p, q):
    """The sum of the forms p and q: the contents cross-multiplied, the lists
    added aligned at the low end, the leading zeros stripped and the
    primitive part taken once; ([], 0, 1) for a zero sum."""
    (a, n, d), (b, m, e) = p, q
    if len(a) < len(b):
        a, n, d, b, m, e = b, m, e, a, n, d
    u, v = n * e, m * d
    out = [u * x for x in a]
    for i, y in enumerate(b, len(a) - len(b)):
        out[i] += v * y
    g = igcd(*out)
    if not g:
        return [], 0, 1
    i = next(i for i, x in enumerate(out) if x)
    h = igcd(g, d * e)
    return [x // g for x in out[i:]], g // h, d * e // h


def _scaled(a: list, n: int, d: int) -> dict:
    """The term map of n/d times the integer list a, for ints n and d != 0,
    in Python ints: each product with n stays an int when d divides it, and
    only the rest become Fractions.  n/d need not be in lowest terms."""
    top = len(a) - 1
    if d == 1:
        return {top - i: n * c for i, c in enumerate(a) if c}
    out = {}
    for i, c in enumerate(a):
        if c:
            v = n * c
            out[top - i] = v // d if v % d == 0 else Fraction(v, d)
    return out


class PolyH(Sparse):
    """Sparse polynomial in H with rational coefficients.

    Immutable; zero coefficients are never stored.  The degree of the zero
    polynomial is None.
    """

    __slots__ = ()

    @classmethod
    def const(cls, v) -> "PolyH":
        return cls({0: v})

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> "PolyH":
        return cls({degree: coeff})

    def _unit_key(self):
        return 0

    def degree(self):
        """Degree, or None for the zero polynomial."""
        return max(self.terms) if self.terms else None

    def _term_size(self) -> int:
        # H^j counts j letters
        return max(self.terms, default=0)

    def leading_coeff(self) -> Fraction:
        """The top coefficient as a Fraction, so that 1 / lc stays exact."""
        if not self.terms:
            return Fraction(0)
        return Fraction(self.terms[max(self.terms)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        # a product by a constant is a scaling, and by 1 the other operand
        if len(self.terms) == 1 and 0 in self.terms:
            return other if self.terms[0] == 1 else other.scale(self.terms[0])
        if len(other.terms) == 1 and 0 in other.terms:
            return self if other.terms[0] == 1 else self.scale(other.terms[0])
        # one product of the forms, scaled once
        return self._new(_scaled(*_mul_forms(_primitive(self.terms), _primitive(other.terms))))

    __rmul__ = __mul__

    def shift(self, k: int) -> "PolyH":
        """Apply tau^k: result(H) = self(H + k)."""
        if k == 0 or not self.terms:
            return self
        # Taylor shift by Horner, out <- out*(H + k) + x, in Python ints;
        # tau^k is an automorphism of Z[H], so the content is unchanged
        a, n, d = _primitive(self.terms)
        out = []
        for x in a:
            out.append(x)
            for i in range(len(out) - 1, 0, -1):
                out[i] += k * out[i - 1]
        return self._new(_scaled(out, n, d))

    def __call__(self, v):
        """Exact Horner evaluation at a rational point."""
        acc = 0
        for d in range(max(self.terms, default=0), -1, -1):
            acc = acc * v + self.terms.get(d, 0)
        return acc

    def _polynomial(self, other) -> "PolyH":
        """other as a polynomial of self's type, a rational as a constant;
        TypeError for a foreign type."""
        p = self._operand(other)
        if p is None:
            raise TypeError(f"expected a polynomial or a rational, not {type(other).__name__}")
        return p

    def divmod(self, other):
        """Euclidean division by a nonzero polynomial or rational.  One
        descending sweep over the dividend's term map writes each quotient
        coefficient once; the sweep divides by a Fraction, so q and r pass
        the constructor's coercion once at the end."""
        other = self._polynomial(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        r = dict(self.terms)
        tail = dict(other.terms)
        db = max(tail)
        lc = Fraction(tail.pop(db))
        q = {}
        for d in range(max(r, default=db - 1), db - 1, -1):
            c = r.pop(d, None)
            if c is not None:
                c = q[d - db] = c / lc
                for e, v in tail.items():
                    _acc(r, e + d - db, -c * v)
        return type(self)(q), type(self)(r)

    def gcd(self, other) -> "PolyH":
        """The monic greatest common divisor with a polynomial or a rational;
        zero when both are zero.  The remainder sequence runs on integer
        primitive parts; only its last remainder is made monic, as Fractions."""
        other = self._polynomial(other)
        g = _prs(_primitive(self.terms)[0], _primitive(other.terms)[0])
        return self._new(_scaled(g, 1, g[0]) if g else {})

    def to_text(self, var: str = "H") -> str:
        """Canonical printing in descending degree, e.g. `2*H^2 - 1/3`."""
        return join_terms(poly_terms(self.terms, var))


H = PolyH.monomial(1)
ONE = PolyH.const(1)


def nonneg_shifted_roots(p: PolyH):
    """The set {i in N : p(i+1) = 0}, found by an exact integer root search.

    Raises ZeroPolynomial for p = 0 (every index would qualify).
    """
    if p.is_zero():
        raise ZeroPolynomial("kernel of right multiplication by 0 is everything")
    c = _primitive(p.terms)[0]
    # Cauchy's bound: every root has absolute value below 1 + max|a_i|/|a_n|
    bound = 1 + -(-max(map(abs, c[1:]), default=0) // abs(c[0]))
    roots = set()
    for a, b in _monotone_runs(c, 1, bound):
        x = a - 1 if not _value(c, a) else _crossing(c, a, b)
        if x is not None and not _value(c, x + 1):
            roots.add(x)
    return roots


def _value(a: list, x: int) -> int:
    """The integer list a evaluated at the integer x (Horner)."""
    acc = 0
    for c in a:
        acc = acc * x + c
    return acc


def _monotone_runs(a: list, lo: int, hi: int) -> list:
    """Integer intervals (s, t), in order and covering lo..hi, on each of
    which the integer list a is monotone on the reals.  The cuts are the sign
    changes of the derivative, found by the same search one degree down."""
    if len(a) <= 2:
        return [(lo, hi)]
    top = len(a) - 1
    da = [c * (top - i) for i, c in enumerate(a[:-1])]
    runs = []
    for s, t in _monotone_runs(da, lo, hi):
        x = _crossing(da, s, t)
        runs += [(s, t)] if x is None else [(s, x), (x + 1, t)]
    return runs


def _crossing(a: list, s: int, t: int):
    """For a monotone on the reals over [s, t]: the x in s..t-1 with a(x)
    of the sign of a(s) and a(x + 1) not, by bisection; None when a(s) = 0
    or there is no such x."""
    first = _value(a, s)
    if not first or first * _value(a, t) > 0:
        return None
    while t - s > 1:
        m = (s + t) // 2
        if first * _value(a, m) > 0:
            s = m
        else:
            t = m
    return s


def _cofactors(p, q):
    """(G, p/g, q/g) for g = gcd(p, q) of the nonzero forms p and q, with G
    the primitive integer list of g, [1] for g = 1; no gcd is taken when
    either is a constant.

    With p = (n/d)*a and q = (m/e)*b, G = gcd(a, b) divides each of a and b
    exactly in Z[H] (Gauss's lemma), so p/g is the form of the integer
    quotient a/G over the content n*lc(G)/d, and likewise for q."""
    (a, n, d), (b, m, e) = p, q
    if len(a) > 1 and len(b) > 1:
        g = _prs(a, b)
        if len(g) > 1:
            lc = ([1], g[0], 1)  # the constant lc(G) as a form
            return g, _mul_forms(lc, (_exquo(a, g), n, d)), _mul_forms(lc, (_exquo(b, g), m, e))
    return [1], p, q


class RatFunc:
    """Rational function num/den over Q with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        """num/1 divided by den: the product by den's inverse reduces it and
        leaves den monic, and a zero den raises DivisionByZero.
        A num or den that is not a PolyH is a constant by PolyH.const, which
        refuses all but an int or a Fraction with TypeError."""
        self.num, self.den = num if isinstance(num, PolyH) else PolyH.const(num), ONE
        if den is not None:
            r = self / (den if isinstance(den, PolyH) else PolyH.const(den))
            self.num, self.den = r.num, r.den

    @classmethod
    def const(cls, v) -> "RatFunc":
        return cls(PolyH.const(v))

    @staticmethod
    def _reduced(num: PolyH, den: PolyH) -> "RatFunc":
        """num/den for a coprime pair, as given: no gcd and no scaling."""
        r = object.__new__(RatFunc)
        r.num, r.den = num, den
        return r

    @staticmethod
    def _of_forms(num, den) -> "RatFunc":
        """The coprime pair of the forms num and den, each scaled once."""
        return RatFunc._reduced(ONE._new(_scaled(*num)), ONE._new(_scaled(*den)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _term_size(self) -> int:
        return self.num._term_size() + self.den._term_size()

    def __bool__(self):
        return bool(self.num)

    @staticmethod
    def _operand(other):
        """other as a RatFunc, or None for a foreign type."""
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, PolyH)):
            return RatFunc(other)
        return None

    def __eq__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # num/1 equals the polynomial num, so it hashes as num
        if self.den == ONE:
            return hash(self.num)
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        n1, n2 = _primitive(self.num.terms), _primitive(other.num.terms)
        if self.den == other.den:
            # equal denominators d: only gcd(n1 + n2, d) can divide both
            e, g, t = ([1], 1, 1), _primitive(self.den.terms), _add_forms(n1, n2)
        else:
            # Henrici's sum (Knuth, TAOCP vol. 2, §4.5.1): with d1 = g*e1
            # and d2 = g*e2 for g = gcd(d1, d2), only gcd(t, g) can divide
            # both t = n1*e2 + n2*e1 and e1*e2*g
            g, e1, e2 = _cofactors(_primitive(self.den.terms), _primitive(other.den.terms))
            e, g = _mul_forms(e1, e2), (g, 1, g[0])
            t = _add_forms(_mul_forms(n1, e2), _mul_forms(n2, e1))
        if not t[0]:
            return RatFunc(0)
        _, t, g = _cofactors(t, g)
        return RatFunc._of_forms(t, _mul_forms(e, g))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._reduced(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scales the numerator of a reduced pair
            return RatFunc._reduced(self.num.scale(other), self.den) if other else RatFunc(0)
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatFunc(0)
        # crosswise cancellation (Knuth, TAOCP vol. 2, §4.5.1): n1/d1 and
        # n2/d2 are coprime pairs, so after gcd(n1, d2) and gcd(n2, d1) are
        # divided out nothing is left to cancel; quotients by monic gcds keep
        # their leading coefficients, so den is monic when d1 and d2 are
        n1, d1 = _primitive(self.num.terms), _primitive(self.den.terms)
        n2, d2 = _primitive(other.num.terms), _primitive(other.den.terms)
        _, n1, d2 = _cofactors(n1, d2)
        _, n2, d1 = _cofactors(n2, d1)
        return RatFunc._of_forms(_mul_forms(n1, n2), _mul_forms(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        """The swapped pair den/num, with both parts scaled once so that its
        den is monic."""
        if self.num.is_zero():
            raise DivisionByZero("inverse of the zero rational function")
        if (inv := 1 / self.num.leading_coeff()) == 1:
            return RatFunc._reduced(self.den, self.num)
        return RatFunc._reduced(self.den.scale(inv), self.num.scale(inv))

    def __truediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other / self

    def shift(self, k: int) -> "RatFunc":
        # tau^k is a ring automorphism that keeps degrees and leading
        # coefficients, so the shifted pair stays coprime with a monic den
        return RatFunc._reduced(self.num.shift(k), self.den.shift(k))

    def to_text(self, var: str = "H") -> str:
        if self.den == ONE:
            return self.num.to_text(var)
        # a part of several terms is bracketed
        return "/".join(f"({p.to_text(var)})" if len(p.terms) > 1 else p.to_text(var)
                        for p in (self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.to_text()})"
