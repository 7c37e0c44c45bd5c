"""Canonical-form arithmetic for polynomial integro-differential operators
in one variable.

Basis monomials are H^j d^i (i >= 1), H^j, int^i H^j (i >= 1) and the matrix
units e[s,t].  An element is a sparse rational combination of these and the
representation *is* the canonical form: two elements are equal iff their term
maps coincide.

Reduction conventions: polynomial coefficients sit to the LEFT of d-powers and
to the RIGHT of int-powers; the boundary cases e[i,-1] = e[-1,j] = 0 are forced
by e[0,0]*int = 0 and d*e[0,0] = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ZeroPolynomial
from .laurent import B1Element
from .polyh import PolyH, nonneg_shifted_roots
from .sparse import Sparse


@dataclass(frozen=True, slots=True)
class DiffMon:
    """H^j d^i with i >= 1."""

    j: int
    i: int


@dataclass(frozen=True, slots=True)
class HMon:
    """H^j."""

    j: int


@dataclass(frozen=True, slots=True)
class IntMon:
    """int^i H^j with i >= 1."""

    i: int
    j: int


@dataclass(frozen=True, slots=True)
class MatUnit:
    """Matrix unit e[s,t]."""

    s: int
    t: int


I1Monomial = (DiffMon, HMon, IntMon, MatUnit)
_UNIT = HMon(0)


def mono_degree(m) -> int:
    """Degree in the Z-grading: deg d = -1, deg int = +1, deg e[s,t] = s - t."""
    if isinstance(m, DiffMon):
        return -m.i
    if isinstance(m, HMon):
        return 0
    if isinstance(m, IntMon):
        return m.i
    return m.s - m.t


def mono_involution(m):
    if isinstance(m, DiffMon):
        return IntMon(m.i, m.j)
    if isinstance(m, IntMon):
        return DiffMon(m.j, m.i)
    if isinstance(m, MatUnit):
        return MatUnit(m.t, m.s)
    return m


def _word(m):
    """Word form (a, p, b) meaning int^a * p(H) * d^b, or None for e-units."""
    if isinstance(m, DiffMon):
        return 0, PolyH.monomial(m.j), m.i
    if isinstance(m, HMon):
        return 0, PolyH.monomial(m.j), 0
    if isinstance(m, IntMon):
        return m.i, PolyH.monomial(m.j), 0
    return None


def _acc(out: dict, mon, c):
    """out[mon] += c, keeping no zero coefficients."""
    v = out.get(mon)
    v = c if v is None else v + c
    if v:
        out[mon] = v
    else:
        out.pop(mon, None)


def _emit_word(a: int, p: PolyH, b: int, out: dict):
    """Accumulate int^a p(H) d^b with a*b = 0 into a term dict."""
    for j, c in p.coeffs.items():
        if a > 0:
            mon = IntMon(a, j)
        elif b > 0:
            mon = DiffMon(j, b)
        else:
            mon = HMon(j)
        _acc(out, mon, c)


def _emit_unit(s: int, t: int, out: dict, c: Fraction):
    if c:
        _acc(out, MatUnit(s, t), c)


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
    if a > b:
        _emit_word(a - b, p.shift(-b), 0, out)
    elif b > a:
        _emit_word(0, p.shift(-a), b - a, out)
    else:
        _emit_word(0, p.shift(-a), 0, out)
    for t in range(m):
        _emit_unit(t + a - m, t + b - m, out, -p(t + 1 - m))


def _mono_reduce(m1, m2, out: dict):
    """Accumulate m1 * m2 in canonical form into `out` (no memo)."""
    w1, w2 = _word(m1), _word(m2)
    if w1 is not None and w2 is not None:
        a1, p1, b1 = w1
        a2, p2, b2 = w2
        if b1 >= a2:
            d = b1 - a2
            _midword(a1, p1 * p2.shift(d), d + b2, out)
        else:
            u = a2 - b1
            _midword(a1 + u, p1.shift(u) * p2, b2, out)
    elif w1 is not None:
        # word * e[s,t]
        a, p, b = w1
        s, t = m2.s, m2.t
        if s >= b:
            _emit_unit(s - b + a, t, out, p(s - b + 1))
    elif w2 is not None:
        # e[s,t] * word
        s, t = m1.s, m1.t
        a, p, b = w2
        if t >= a:
            _emit_unit(s, t - a + b, out, p(t - a + 1))
    elif m1.t == m2.s:
        _emit_unit(m1.s, m2.t, out, Fraction(1))


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


def _mono_sort_key(m):
    """Eq. (4) print/order key: d-part (high order first), H-part, int-part,
    matrix part."""
    if isinstance(m, DiffMon):
        return (0, -m.i, m.j)
    if isinstance(m, HMon):
        return (1, m.j, 0)
    if isinstance(m, IntMon):
        return (2, m.i, m.j)
    return (3, m.s, m.t)


class I1Element(Sparse):
    """Sparse canonical-form element; immutable by convention."""

    __slots__ = ()

    def __init__(self, terms=None):
        t = {}
        if terms:
            for m, v in terms.items():
                v = v if isinstance(v, Fraction) else Fraction(v)
                if v:
                    t[m] = v
        self.terms = t

    @classmethod
    def zero(cls) -> "I1Element":
        return cls()

    @classmethod
    def from_scalar(cls, v) -> "I1Element":
        return cls({HMon(0): Fraction(v)})

    @classmethod
    def from_mono(cls, m, coeff=1) -> "I1Element":
        return cls({m: Fraction(coeff)})

    def _scalar(self, v) -> "I1Element":
        return I1Element.from_scalar(v)

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

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __pow__ = Sparse.__pow__

    def involution(self) -> "I1Element":
        return self._new({mono_involution(m): v for m, v in self.terms.items()})

    def grade_component(self, d: int) -> "I1Element":
        return self._new({m: v for m, v in self.terms.items() if mono_degree(m) == d})

    def degrees(self):
        return sorted({mono_degree(m) for m in self.terms})

    def is_in_F(self) -> bool:
        return all(isinstance(m, MatUnit) for m in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_sort_key(kv[0]))

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
    return I1Element({HMon(j): c for j, c in p.coeffs.items()})


class PolyX(PolyH):
    """Polynomial in x, the module the algebra acts on: a PolyH printed in x."""

    __slots__ = ()

    def to_text(self, var: str = "x") -> str:
        return PolyH.to_text(self, var)


def _mono_apply(m, s: int):
    """Action of a basis monomial on x^s: (coefficient, new degree) or None."""
    if isinstance(m, DiffMon):
        if s < m.i:
            return None
        c = Fraction(1)
        for k in range(m.i):
            c *= s - k
        ns = s - m.i
        return c * Fraction(ns + 1) ** m.j, ns
    if isinstance(m, HMon):
        return Fraction(s + 1) ** m.j, s
    if isinstance(m, IntMon):
        c = Fraction(s + 1) ** m.j
        for k in range(1, m.i + 1):
            c /= s + k
        return c, s + m.i
    if s != m.t:
        return None
    return Fraction(factorial(m.t), factorial(m.s)), m.s


def apply(a: I1Element, p: PolyX) -> PolyX:
    """Action of a on K[x]: d differentiates, int integrates, H = d x."""
    out = {}
    for m, v in a.terms.items():
        for s, c in p.coeffs.items():
            hit = _mono_apply(m, s)
            if hit is None:
                continue
            coeff, ns = hit
            coeff = coeff * v * c
            if coeff:
                out[ns] = out.get(ns, Fraction(0)) + coeff
                if not out[ns]:
                    del out[ns]
    return PolyX(out)


def matrix_of(a: I1Element, n: int):
    """(n+1)x(n+1) matrix of the action on span{1, x, ..., x^n}.

    Column s holds the coefficients of a(x^s) truncated to degree <= n.
    """
    mat = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for s in range(n + 1):
        img = apply(a, PolyX.monomial(s))
        for d, v in img.coeffs.items():
            if d <= n:
                mat[d][s] = v
    return mat


def faithful_bound(a: I1Element) -> int:
    """Truncation size at which matrix_of is faithful on a's support.

    All K[H]-coefficients act polynomially in the basis degree, so agreement
    on this many sample points forces equality by interpolation.
    """
    s_max = t_max = j_max = i_max = 0
    for m in a.terms:
        if isinstance(m, DiffMon):
            j_max = max(j_max, m.j)
            i_max = max(i_max, m.i)
        elif isinstance(m, HMon):
            j_max = max(j_max, m.j)
        elif isinstance(m, IntMon):
            j_max = max(j_max, m.j)
            i_max = max(i_max, m.i)
        else:
            s_max = max(s_max, m.s)
            t_max = max(t_max, m.t)
    return s_max + t_max + j_max + i_max + 1


def quotient_terms(m) -> tuple:
    """The quotient map d -> D, int -> D^-1 on one basis monomial, as
    (D-power, H-degree, coefficient) triples; matrix units map to 0."""
    if isinstance(m, MatUnit):
        return ()
    if isinstance(m, DiffMon):
        return ((m.i, m.j, 1),)
    if isinstance(m, HMon):
        return ((0, m.j, 1),)
    # int^i H^j = D^-i H^j, commuted by the skew rule
    return tuple((B1Element.monomial(-m.i, 0) * B1Element.monomial(0, m.j)).monomials())


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
