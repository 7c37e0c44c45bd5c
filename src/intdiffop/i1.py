"""Canonical-form arithmetic for polynomial integro-differential operators
in one variable.

Basis monomials are int tuples whose natural order is the printed order of
Eq. (4): (0, k, j) is the word of degree k times H^j, that is H^j d^-k for
k < 0, H^j for k = 0 and int^k H^j for k > 0, and (1, s, t) is the matrix
unit e[s,t].  An element is a sparse rational combination of these and the
representation *is* the canonical form: two elements are equal iff their term
maps coincide.

Reduction conventions: polynomial coefficients sit to the LEFT of d-powers and
to the RIGHT of int-powers; the boundary cases e[i,-1] = e[-1,j] = 0 are forced
by e[0,0]*int = 0 and d*e[0,0] = 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from .errors import ZeroPolynomial
from .laurent import B1Element
from .polyh import PolyH, nonneg_shifted_roots
from .sparse import Sparse, _acc


def DiffMon(j: int, i: int) -> tuple:
    """H^j d^i with i >= 1."""
    return (0, -i, j)


def HMon(j: int) -> tuple:
    """H^j."""
    return (0, 0, j)


def IntMon(i: int, j: int) -> tuple:
    """int^i H^j with i >= 1."""
    return (0, i, j)


def MatUnit(s: int, t: int) -> tuple:
    """Matrix unit e[s,t]."""
    return (1, s, t)


_UNIT = HMon(0)


def mono_degree(m) -> int:
    """Degree in the Z-grading: deg d = -1, deg int = +1, deg e[s,t] = s - t."""
    tag, u, v = m
    return u - v if tag else u


def mono_involution(m):
    tag, u, v = m
    return (1, v, u) if tag else (0, -u, v)


def _word(k: int, j: int):
    """The word (0, k, j) as (a, p, b), meaning int^a * p(H) * d^b."""
    return max(k, 0), PolyH.monomial(j), max(-k, 0)


def _emit_word(a: int, p: PolyH, b: int, out: dict):
    """Accumulate int^a p(H) d^b with a*b = 0 into a term dict."""
    for j, c in p.terms.items():
        _acc(out, (0, a - b, j), c)


def _midword(a: int, p: PolyH, b: int, out: dict):
    """Reduce the general word int^a p(H) d^b to canonical terms.

    Uses int^m d^m = 1 - e[0,0] - ... - e[m-1,m-1] with m = min(a, b); the
    surviving pure side carries the shifted polynomial.
    """
    if p.is_zero():
        return
    m = min(a, b)
    if m == 0:
        _emit_word(a, p, b, out)
        return
    # int^a p(H) d^b = p(H-a) int^a d^b
    _emit_word(a - m, p.shift(-m), b - m, out)
    for t in range(m):
        _acc(out, MatUnit(t + a - m, t + b - m), -p(t + 1 - m))


def _mono_reduce(m1, m2, out: dict):
    """Accumulate m1 * m2 in canonical form into `out` (no memo)."""
    (tag1, k1, j1), (tag2, k2, j2) = m1, m2
    if not (tag1 or tag2):
        a1, p1, b1 = _word(k1, j1)
        a2, p2, b2 = _word(k2, j2)
        if b1 >= a2:
            d = b1 - a2
            _midword(a1, p1 * p2.shift(d), d + b2, out)
        else:
            u = a2 - b1
            _midword(a1 + u, p1.shift(u) * p2, b2, out)
    elif not tag1:
        # word * e[s,t] with (s, t) = (k2, j2)
        a, p, b = _word(k1, j1)
        if k2 >= b:
            _acc(out, MatUnit(k2 - b + a, j2), p(k2 - b + 1))
    elif not tag2:
        # e[s,t] * word with (s, t) = (k1, j1)
        a, p, b = _word(k2, j2)
        if j1 >= a:
            _acc(out, MatUnit(k1, j1 - a + b), p(j1 - a + 1))
    elif j1 == k2:
        _acc(out, MatUnit(k1, j2), Fraction(1))


# Products of monomial pairs repeat heavily inside element products, so they
# are memoised.  The memo holds at most _MONO_PRODUCTS_BOUND entries and is
# emptied when full; monomials it holds are interned in _MONOS (emptied with
# it) and integral coefficients are stored as int, to keep entries small.
# With exponents up to 3 a full memo stays under 2 MB.
_MONO_PRODUCTS_BOUND = 1 << 11
_MONO_PRODUCTS: dict = {}
_MONOS: dict = {}


def _mono_product(m1, m2) -> tuple:
    """m1 * m2 in canonical form as a tuple of (monomial, coefficient) pairs."""
    prod = _MONO_PRODUCTS.get((m1, m2))
    if prod is None:
        out = {}
        _mono_reduce(m1, m2, out)
        if len(_MONO_PRODUCTS) >= _MONO_PRODUCTS_BOUND:
            _MONO_PRODUCTS.clear()
            _MONOS.clear()
        intern = _MONOS.setdefault
        prod = tuple(
            (intern(m, m), c.numerator if c.denominator == 1 else c)
            for m, c in out.items()
        )
        _MONO_PRODUCTS[intern(m1, m1), intern(m2, m2)] = prod
    return prod


def _mono_mul_into(m1, m2, out: dict, scale: Fraction | int):
    """Accumulate scale * (m1 * m2) in canonical form into `out`."""
    get = out.get
    for mon, c in _mono_product(m1, m2):
        c = scale if c == 1 else scale * c  # most coefficients are 1
        v = get(mon)
        v = c if v is None else v + c
        if v:
            out[mon] = v
        else:
            out.pop(mon, None)


def mono_mul(m1, m2) -> "I1Element":
    out = {}
    _mono_mul_into(m1, m2, out, Fraction(1))
    return I1Element(out)


class I1Element(Sparse):
    """Sparse canonical-form element; immutable by convention."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "I1Element":
        return cls()

    @classmethod
    def from_scalar(cls, v) -> "I1Element":
        return cls({_UNIT: v})

    @classmethod
    def from_mono(cls, m, coeff=1) -> "I1Element":
        return cls({m: coeff})

    def _unit_key(self):
        return _UNIT

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, I1Element):
            return NotImplemented
        out = {}
        for m1, v1 in self.terms.items():
            for m2, v2 in other.terms.items():
                _mono_mul_into(m1, m2, out, v1 * v2)
        return self._new(out)

    __pow__ = Sparse.__pow__

    def involution(self) -> "I1Element":
        return self._new({mono_involution(m): v for m, v in self.terms.items()})

    def grade_component(self, d: int) -> "I1Element":
        return self._new({m: v for m, v in self.terms.items() if mono_degree(m) == d})

    def degrees(self):
        return sorted({mono_degree(m) for m in self.terms})

    def is_in_F(self) -> bool:
        return all(m[0] for m in self.terms)

    def __repr__(self):
        from .opparser import format_operator
        from .tensor import from_i1

        return f"I1Element({format_operator(from_i1(self))})"


def generators():
    """(d, int, H, x) with x = int*H."""
    partial = I1Element.from_mono(DiffMon(0, 1))
    integ = I1Element.from_mono(IntMon(1, 0))
    h = I1Element.from_mono(HMon(1))
    x = I1Element.from_mono(IntMon(1, 1))
    return partial, integ, h, x


def idempotent_sum(n: int) -> I1Element:
    """e[0,0] + ... + e[n-1,n-1]."""
    return I1Element({MatUnit(k, k): Fraction(1) for k in range(n)})


def decompose_lemma21(a: I1Element, n: int):
    """Split a = u*d^n + c with u = a*int^n and c = a*(e[0,0]+...+e[n-1,n-1]).

    c lies in F with all column indices < n, and u*d^n annihilates the
    idempotent, so the sum is direct.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    integ_n = I1Element.from_mono(IntMon(n, 0))
    u = a * integ_n
    c = a * idempotent_sum(n)
    return u, c


def ker_right_mult_poly(alpha: PolyH):
    """Column indices i with e[j,i]*alpha(H) = 0, i.e. alpha(i+1) = 0."""
    if alpha.is_zero():
        raise ZeroPolynomial("right multiplication by the zero polynomial")
    return nonneg_shifted_roots(alpha)


def from_polyh(p: PolyH) -> I1Element:
    """The element p(H)."""
    return I1Element({HMon(j): c for j, c in p.terms.items()})


class PolyX(PolyH):
    """Polynomial in x, the module the algebra acts on: a PolyH printed in x."""

    __slots__ = ()

    def to_text(self, var: str = "x") -> str:
        return PolyH.to_text(self, var)


def _mono_apply(m, s: int) -> dict:
    """Action of a basis monomial on x^s as {new degree: coefficient}; empty
    when the monomial kills x^s."""
    tag, k, j = m
    if tag:
        # e[k,j] maps x^j to (j!/k!) x^k
        return {k: Fraction(factorial(j), factorial(k))} if s == j else {}
    ns = s + k
    if ns < 0:
        return {}
    # d^-k and int^k both map x^s to (s!/ns!) x^ns; H^j, which multiplies x^r
    # by (r+1)^j, acts after d^-k and before int^k
    c = Fraction(perm(s, -k)) if k <= 0 else Fraction(1, perm(ns, k))
    return {ns: c * Fraction(min(s, ns) + 1) ** j}


def apply(a: I1Element, p: PolyX) -> PolyX:
    """Action of a on K[x]: d differentiates, int integrates, H = d x."""
    out = {}
    for m, v in a.terms.items():
        for s, c in p.terms.items():
            for ns, fc in _mono_apply(m, s).items():
                _acc(out, ns, fc * v * c)
    return PolyX(out)


def matrix_of(a: I1Element, n: int):
    """(n+1)x(n+1) matrix of the action on span{1, x, ..., x^n}.

    Column s holds the coefficients of a(x^s) truncated to degree <= n.
    """
    mat = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for s in range(n + 1):
        img = apply(a, PolyX.monomial(s))
        for d, v in img.terms.items():
            if d <= n:
                mat[d][s] = v
    return mat


def faithful_bound(a: I1Element) -> int:
    """Truncation size at which matrix_of is faithful on a's support.

    All K[H]-coefficients act polynomially in the basis degree, so agreement
    on this many sample points forces equality by interpolation.
    """
    s_max = t_max = j_max = i_max = 0
    for tag, u, v in a.terms:
        if tag:
            s_max, t_max = max(s_max, u), max(t_max, v)
        else:
            i_max, j_max = max(i_max, abs(u)), max(j_max, v)
    return s_max + t_max + j_max + i_max + 1


def quotient_terms(m) -> tuple:
    """The quotient map d -> D, int -> D^-1 on one basis monomial, as
    (D-power, H-degree, coefficient) triples; matrix units map to 0."""
    tag, k, j = m
    if tag:
        return ()
    if k <= 0:
        return ((-k, j, 1),)
    # int^k H^j = D^-k H^j, commuted by the skew rule
    return tuple((B1Element.monomial(-k, 0) * B1Element.monomial(0, j)).monomials())


def project_B1(a: I1Element):
    """Quotient map onto the skew Laurent algebra: d -> d, int -> d^-1.

    Kills exactly the matrix-unit terms; the kernel is F.
    """
    coeffs = {}
    for m, v in a.terms.items():
        for d, j, c in quotient_terms(m):
            p = coeffs.setdefault(d, {})
            p[j] = p.get(j, 0) + c * v
    return B1Element({d: PolyH(p) for d, p in coeffs.items()})
