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

Monomial products are closed forms over Python ints, with no memo; every
monomial they emit is interned, so results share one tuple per monomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from .errors import LimitExceeded
from .laurent import B1Element
from .polyh import PolyH, nonneg_shifted_roots
from .sparse import Sparse, _acc, _integral


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


def _binomial_row(c: int, j: int) -> list:
    """The integer coefficients of (H + c)^j, lowest degree first."""
    return [comb(j, i) * c ** (j - i) for i in range(j + 1)]


# A monomial product whose two factors hold more than this many letters in
# total is refused with LimitExceeded: int^k and d^k count k, H^j counts j
# and e[s,t] = int^s e[0,0] d^t counts s + t.  It bounds the terms one product
# emits and the size of their coefficients.  The largest monomial product of
# the test suite and the benchmark has 40 letters.
MAX_DEGREE = 1000

# Every monomial a product emits is interned here, so that results share one
# tuple per distinct basis monomial.
_MONOS: dict = {}


def _emit(out: dict, key: tuple, c):
    """out[key] += c, keeping no zero coefficients; a new key is interned."""
    v = out.get(key)
    if v is None:
        out[_MONOS.setdefault(key, key)] = c
    elif v := v + c:
        out[key] = v
    else:
        del out[key]


def _mono_mul_into(m1, m2, out: dict, scale: Fraction | int):
    """Accumulate scale * (m1 * m2) in canonical form into `out`.

    For two words int^a H^j d^b (a*b = 0), d^b1 int^a2 cancels to int^x or
    d^y, and each H^j moving through it is shifted, so the product is
    int^A (H+x)^j1 (H+y)^j2 d^B.  Then int^m d^m = 1 - e[0,0] - ... -
    e[m-1,m-1] with m = min(A, B) leaves the word of degree k1 + k2 times
    p(H) = (H+x-m)^j1 (H+y-m)^j2, and e[t+A-m, t+B-m] times -p(t+1) for
    t < m.  A word against e[s,t] is one power of the index H meets.
    """
    (tag1, k1, j1), (tag2, k2, j2) = m1, m2
    if (letters := abs(k1) + abs(k2) + j1 + j2) > MAX_DEGREE:
        raise LimitExceeded(
            f"a monomial product of total degree {letters}, beyond the limit {MAX_DEGREE}")
    if not (tag1 or tag2):
        z = max(k2, 0) + min(k1, 0)  # a2 - b1
        x, y = max(z, 0), max(-z, 0)
        a, b = max(k1, 0) + x, y - min(k2, 0)  # A and B
        m = min(a, b)
        u, v = x - m, y - m
        if not (u or v):
            _emit(out, (0, k1 + k2, j1 + j2), scale)
            return
        p = [0] * (j1 + j2 + 1)
        row = _binomial_row(v, j2)
        for i, c in enumerate(_binomial_row(u, j1)):
            if c:
                for i2, c2 in enumerate(row, i):
                    p[i2] += c * c2
        for i, c in enumerate(p):
            if c:
                _emit(out, (0, k1 + k2, i), scale * c)
        for t in range(m):
            c = (t + 1 + u) ** j1 * (t + 1 + v) ** j2
            if c:
                _emit(out, (1, t + a - m, t + b - m), -scale * c)
    elif not tag1:
        # d^b e[s,t] = e[s-b,t] when s >= b, and H meets the row index
        s = k2 + min(k1, 0)
        if s >= 0:
            _emit(out, (1, k1 + k2, j2), scale * (s + 1) ** j1)
    elif not tag2:
        # e[s,t] int^a = e[s,t-a] when t >= a, and H meets the column index
        t = j1 - max(k2, 0)
        if t >= 0:
            _emit(out, (1, k1, j1 - k2), scale * (t + 1) ** j2)
    elif j1 == k2:
        _emit(out, (1, k1, j2), scale)


def mono_mul(m1, m2) -> "I1Element":
    out = {}
    _mono_mul_into(m1, m2, out, 1)
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
        return self._new(_integral(out))

    # bench/tracing.py patches it by name per class (tests/test_trace_points.py)
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
    """Column indices i with e[j,i]*alpha(H) = 0, i.e. alpha(i+1) = 0;
    ZeroPolynomial for alpha = 0."""
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
        return ((-k, j, 1),)  # H^j d^-k is H^j D^-k
    # int^k H^j is D^-k H^j = (H-k)^j D^-k
    return tuple((-k, i, c) for i, c in enumerate(_binomial_row(-k, j)) if c)


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
