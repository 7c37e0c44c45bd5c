"""Exact univariate polynomials and rational functions in H over the rationals.

Polynomials store exact rational coefficients (`int` or `fractions.Fraction`)
sparsely by degree; there is no floating point anywhere in the engine, and
the shift automorphism tau (H -> H+1) is a first-class operation.  Products,
shifts and the gcd clear denominators and run on primitive integer lists in
Python ints, and so do the cofactors p/g and q/g: each is an exact quotient
of primitive integer lists.  Each result is scaled back by its content once,
integer first: every entry is multiplied by the content's numerator and
divided by its denominator in ints, and a Fraction is built only for a value
that is not integral, so an integral coefficient is always an int.
Rational functions stay reduced by cancelling crosswise in products and by
Henrici's rule in sums, where equal denominators d take only gcd(n1 + n2, d),
so only small gcds are ever taken.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as igcd, lcm

from .errors import DivisionByZero, ZeroPolynomial
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
    if not factors:
        return sign, str(coeff)
    if coeff == 1:
        return sign, "*".join(factors)
    return sign, "*".join([str(coeff), *factors])


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

def _primitive(terms: dict):
    """(a, c): the rational term map as its content c > 0 times the integer
    list a, whose coefficients are coprime, highest degree first; ([], 0)
    for the zero map."""
    if not terms:
        return [], Fraction(0)
    den = 1
    for v in terms.values():
        den = lcm(den, v.denominator)
    top = max(terms)
    out = [0] * (top + 1)
    g = 0
    for d, v in terms.items():
        c = out[top - d] = v.numerator * (den // v.denominator)
        g = igcd(g, c)
    return (out if g == 1 else [c // g for c in out]), Fraction(g, den)


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


def _scaled(a: list, s: Fraction) -> dict:
    """The term map of s times the integer list a, in Python ints: each
    product with the numerator of s stays an int when the denominator of s
    divides it, and only the rest become Fractions."""
    top = len(a) - 1
    n, d = s.numerator, s.denominator
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
        # one convolution of the primitive integer lists, scaled once by the
        # product of the contents
        a, c = _primitive(self.terms)
        b, e = _primitive(other.terms)
        out = [0] * (len(a) + len(b) - 1)
        nonzero = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero:
                    out[i + j] += x * y
        return self._new(_scaled(out, c * e))

    __rmul__ = __mul__

    def shift(self, k: int) -> "PolyH":
        """Apply tau^k: result(H) = self(H + k)."""
        if k == 0 or not self.terms:
            return self
        # Taylor shift by Horner, out <- out*(H + k) + x, in Python ints;
        # tau^k is an automorphism of Z[H], so the content is unchanged
        a, c = _primitive(self.terms)
        out = []
        for x in a:
            out.append(x)
            for i in range(len(out) - 1, 0, -1):
                out[i] += k * out[i - 1]
        return self._new(_scaled(out, c))

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
        return self._new(_scaled(g, Fraction(1, g[0])) if g else {})

    def to_text(self, var: str = "H") -> str:
        """Canonical printing in descending degree, e.g. `2*H^2 - 1/3`."""
        return join_terms(poly_terms(self.terms, var))

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"


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


def _cofactors(p: PolyH, q: PolyH):
    """(g, p/g, q/g) for the monic g = gcd(p, q) of nonzero p and q; no gcd
    is taken when either is a constant.

    With p = c*a and q = e*b for primitive integer lists a and b, the
    primitive gcd G of a and b divides each of them exactly in Z[H] (Gauss's
    lemma), so p/g = c * lc(G) * (a/G), and likewise for q: two integer
    quotients, each turned into Fractions once."""
    if p.degree() and q.degree():
        a, c = _primitive(p.terms)
        b, e = _primitive(q.terms)
        g = _prs(a, b)
        if len(g) > 1:
            lc = g[0]
            return (p._new(_scaled(g, Fraction(1, lc))),
                    p._new(_scaled(_exquo(a, g), c * lc)),
                    q._new(_scaled(_exquo(b, g), e * lc)))
    return ONE, p, q


class RatFunc:
    """Rational function num/den over Q with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = PolyH.const(num)
        if den is None:  # num/1 is already reduced, with a monic denominator
            self.num, self.den = num, ONE
            return
        if isinstance(den, (int, Fraction)):
            den = PolyH.const(den)
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = PolyH(), ONE
            return
        _, num, den = _cofactors(num, den)
        inv = 1 / den.leading_coeff()
        if inv != 1:
            num, den = num.scale(inv), den.scale(inv)
        self.num, self.den = num, den

    @classmethod
    def const(cls, v) -> "RatFunc":
        return cls(PolyH.const(v))

    @staticmethod
    def _reduced(num: PolyH, den: PolyH) -> "RatFunc":
        """num/den for a coprime pair whose den is monic, without normalising."""
        r = object.__new__(RatFunc)
        r.num, r.den = num, den
        return r

    def is_zero(self) -> bool:
        return self.num.is_zero()

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
        if self.den == other.den:
            # equal denominators d: only gcd(n1 + n2, d) can divide both
            e1 = None
            g, t = self.den, self.num + other.num
        else:
            # Henrici's sum (Knuth, TAOCP vol. 2, §4.5.1): with d1 = g*e1
            # and d2 = g*e2 for g = gcd(d1, d2), only gcd(t, g) can divide
            # both t = n1*e2 + n2*e1 and e1*e2*g
            g, e1, e2 = _cofactors(self.den, other.den)
            t = self.num * e2 + other.num * e1
        if t.is_zero():
            return RatFunc(t)
        _, t, g = _cofactors(t, g)
        return RatFunc._reduced(t, g if e1 is None else e1 * e2 * g)

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
        # n2/d2 are reduced, so after gcd(n1, d2) and gcd(n2, d1) are divided
        # out nothing is left to cancel; the quotients of monic denominators
        # by monic gcds are monic, and so is their product
        _, n1, d2 = _cofactors(self.num, other.den)
        _, n2, d1 = _cofactors(other.num, self.den)
        return RatFunc._reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise DivisionByZero("inverse of the zero rational function")
        inv = 1 / self.num.leading_coeff()
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
        return other * self.inverse()

    def shift(self, k: int) -> "RatFunc":
        # tau^k is a ring automorphism that keeps degrees and leading
        # coefficients, so the shifted pair stays coprime with a monic den
        return RatFunc._reduced(self.num.shift(k), self.den.shift(k))

    def to_text(self, var: str = "H") -> str:
        if self.den == ONE:
            return self.num.to_text(var)
        n = self.num.to_text(var)
        d = self.den.to_text(var)
        if len(self.num.terms) > 1:
            n = f"({n})"
        if len(self.den.terms) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"RatFunc({self.to_text()})"
