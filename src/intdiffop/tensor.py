"""Tensor arithmetic over n factors, including mixed quotient algebras.

An element is a sparse rational combination of n-tuples of basis monomials of
the one-variable algebra.  Each factor is either in full mode or in quotient
mode.  A quotient-mode factor lives in B1 = I1/F, where F is the ideal spanned
by the matrix units, so the words of I1 (int^k H^j, H^j and H^j d^k) are a
basis of it and its product is the I1 product with the matrix units dropped.
It prints on the monomials H^j D^d of the skew Laurent algebra `B1Element`
(d -> D, int -> D^-1).  The involution and the grading of I1 keep F, so they
act on both modes key by key.  Quotients by sums of the height-one primes are
realized by flipping factors into quotient mode.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, EmptyFactorList, LimitExceeded, ModeMismatch
from .i1 import (
    DiffMon,
    HMon,
    I1Element,
    IntMon,
    MatUnit,
    _UNIT,
    _mono_apply,
    _mono_mul_into,
    mono_degree,
    mono_involution,
    quotient_terms,
)
from .lattice import IdealAntichain, ideal_includes
from .sparse import Sparse, _acc, _integral

MODE_FULL = "I"
MODE_QUOT = "B"

# A product, a tensor product or an action is refused once the terms it holds
# plus the expansion of one monomial pair would pass this, checked once per
# factor of each pair.  Each factor's product is bounded by i1.MAX_DEGREE, and
# this keeps n factors from multiplying that bound.  The test suite and the
# benchmark reach 4,319.
MAX_TERMS = 1 << 15


def _b1_mul_into(m1: tuple, m2: tuple, out: dict):
    """Accumulate m1 * m2 in B1 into `out`, which holds no matrix units: the
    I1 product of two words with its matrix-unit terms, which lie in F,
    dropped."""
    _mono_mul_into(m1, m2, out, 1)
    for m in [m for m in out if m[0]]:
        del out[m]


def _expand_into(out: dict, factor_maps, c):
    """Accumulate c times the tensor product of the per-factor maps
    (monomial -> coefficient) into `out`; an empty map makes it zero.
    Refuses to let `out` and the expansion grow beyond MAX_TERMS terms."""
    partial = [((), c)]
    for fk in factor_maps:
        if not fk:
            return
        if len(out) + len(partial) * len(fk) > MAX_TERMS:
            raise LimitExceeded(f"a product of more than {MAX_TERMS} terms")
        partial = [
            (pref + (m,), v if fc == 1 else v * fc)
            for pref, v in partial
            for m, fc in fk.items()
        ]
    for tup, v in partial:
        _acc(out, tup, v)


# bench/tracing.py patches it by name (tests/test_trace_points.py)
def _factor_mul(m1, m2, mode) -> dict:
    out = {}
    if mode == MODE_QUOT:
        _b1_mul_into(m1, m2, out)
    else:
        _mono_mul_into(m1, m2, out, 1)
    return out


class InElement(Sparse):
    """Element over n tensor factors with per-factor mode flags."""

    __slots__ = ("n", "modes")

    def __init__(self, n: int, terms=None, modes=None):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.modes = tuple(modes) if modes is not None else (MODE_FULL,) * n
        if len(self.modes) != n:
            raise DimensionMismatch("mode vector length != n")
        super().__init__(terms)

    @classmethod
    def zero(cls, n: int, modes=None) -> "InElement":
        return cls(n, None, modes)

    @classmethod
    def one(cls, n: int, modes=None) -> "InElement":
        return cls(n, {(_UNIT,) * n: 1}, modes)

    @classmethod
    def from_scalar(cls, n: int, v, modes=None) -> "InElement":
        return cls.one(n, modes).scale(v)

    def _unit_key(self):
        return (_UNIT,) * self.n

    def _new(self, terms: dict) -> "InElement":
        r = object.__new__(InElement)
        r.n, r.modes, r.terms = self.n, self.modes, terms
        return r

    def _check(self, other: "InElement"):
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} factors vs {other.n}")
        if self.modes != other.modes:
            raise ModeMismatch(f"{self.modes} vs {other.modes}")

    def _context(self) -> tuple:
        return self.n, self.modes

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, InElement):
            return NotImplemented
        self._check(other)
        out, modes = {}, self.modes
        for t1, v1 in self.terms.items():
            for t2, v2 in other.terms.items():
                _expand_into(out, map(_factor_mul, t1, t2, modes), v1 * v2)
        return self._new(_integral(out))

    # bench/tracing.py patches it by name per class (tests/test_trace_points.py)
    __pow__ = Sparse.__pow__

    def involution(self) -> "InElement":
        return self._new({tuple(map(mono_involution, tup)): v for tup, v in self.terms.items()})

    def grade_component(self, d: int) -> "InElement":
        return self._new({
            tup: v for tup, v in self.terms.items() if sum(map(mono_degree, tup)) == d
        })

    def sorted_terms(self):
        """The terms in printed order, with each quotient-mode factor written
        on the pairs (d, j) = H^j D^d; keys are distinct, so no coefficients
        are compared."""
        if MODE_QUOT not in self.modes:
            return sorted(self.terms.items())
        out = {}
        for tup, v in self.terms.items():
            _expand_into(out, (
                {(d, j): c for d, j, c in quotient_terms(m)} if mode == MODE_QUOT else {m: 1}
                for m, mode in zip(tup, self.modes)
            ), v)
        return sorted(out.items())

    def __repr__(self):
        from .opparser import format_operator

        modes = f"modes={self.modes}, " if MODE_QUOT in self.modes else ""
        return f"InElement({modes}{format_operator(self)})"


def tensor(factors) -> InElement:
    """Tensor product of full-mode one-variable elements."""
    factors = list(factors)
    if not factors:
        raise EmptyFactorList("tensor of zero factors")
    if not all(isinstance(f, I1Element) for f in factors):
        raise ModeMismatch("tensor factors must be full-mode elements")
    out = {}
    _expand_into(out, (f.terms for f in factors), Fraction(1))
    return InElement(len(factors), out)


def from_i1(a: I1Element) -> InElement:
    return tensor([a])


def to_i1(a: InElement) -> I1Element:
    if a.n != 1 or a.modes != (MODE_FULL,):
        raise ModeMismatch("only n = 1 full-mode elements embed back")
    return I1Element({tup[0]: v for tup, v in a.terms.items()})


def gen_partial(n: int, i: int) -> InElement:
    return _gen(n, i, DiffMon(0, 1))

def gen_integ(n: int, i: int) -> InElement:
    return _gen(n, i, IntMon(1, 0))

def gen_h(n: int, i: int) -> InElement:
    return _gen(n, i, HMon(1))

def gen_x(n: int, i: int) -> InElement:
    return _gen(n, i, IntMon(1, 1))

def gen_e(n: int, i: int, s: int, t: int) -> InElement:
    return _gen(n, i, MatUnit(s, t))


def _gen(n: int, i: int, mon) -> InElement:
    if not 1 <= i <= n:
        raise DimensionMismatch(f"factor index {i} outside 1..{n}")
    tup = tuple(mon if k == i - 1 else _UNIT for k in range(n))
    return InElement(n, {tup: Fraction(1)})


class PolyXn(Sparse):
    """Sparse polynomial in x_1..x_n, multidegree -> rational coefficient."""

    __slots__ = ("n",)

    def __init__(self, n: int, coeffs=None):
        self.n = n
        super().__init__(coeffs)

    @classmethod
    def one(cls, n: int) -> "PolyXn":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def monomial(cls, n: int, deg, coeff=1) -> "PolyXn":
        return cls(n, {tuple(deg): coeff})

    def _unit_key(self):
        return (0,) * self.n

    def _new(self, terms: dict) -> "PolyXn":
        r = object.__new__(PolyXn)
        r.n, r.terms = self.n, terms
        return r

    def _check(self, other: "PolyXn"):
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} variables vs {other.n}")

    def _context(self) -> tuple:
        return (self.n,)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, PolyXn):
            return NotImplemented
        self._check(other)
        out = {}
        for d1, v1 in self.terms.items():
            for d2, v2 in other.terms.items():
                _acc(out, tuple(a + b for a, b in zip(d1, d2)), v1 * v2)
        return self._new(out)

    def __repr__(self):
        from .opparser import format_poly

        return f"PolyXn(n={self.n}, {format_poly(self)})"


def apply_n(a: InElement, p: PolyXn) -> PolyXn:
    """Factorwise action on K[x_1..x_n]; factor i acts on variable x_i."""
    if any(m == MODE_QUOT for m in a.modes):
        raise ModeMismatch("quotient-mode factors do not act on polynomials")
    if a.n != p.n:
        raise DimensionMismatch(f"{a.n} factors vs {p.n} variables")
    out = {}
    for tup, v in a.terms.items():
        for deg, c in p.terms.items():
            _expand_into(out, map(_mono_apply, tup, deg), v * c)
    return p._new(_integral(out))


def project_modulo_prime(a: InElement, index_set) -> InElement:
    """Quotient by the sum of the height-one primes at the given factors.

    Terms with a matrix unit in one of those factors lie in the kernel and
    die; the others keep their keys, and the factors switch to quotient mode.
    Multiplicative: project(ab) = project(a) * project(b).
    """
    idx = {i - 1 for i in index_set}
    for i in idx:
        if not 0 <= i < a.n:
            raise DimensionMismatch(f"factor index {i + 1} outside 1..{a.n}")
    modes = tuple(MODE_QUOT if k in idx else m for k, m in enumerate(a.modes))
    out = {tup: v for tup, v in a.terms.items() if not any(tup[k][0] for k in idx)}
    return InElement(a.n, out, modes)


def ideal_membership(a: InElement, antichain) -> bool:
    """True iff a lies in the ideal of the antichain.

    The ideals are spanned by support tuples, and a tuple generates the ideal
    of the Boolean function with bit k set iff factor k is not a matrix unit,
    so membership is lattice inclusion of those functions.
    """
    if any(m == MODE_QUOT for m in a.modes):
        raise ModeMismatch("membership is defined for full-mode elements")
    masks = (sum(1 << k for k, m in enumerate(tup) if not m[0]) for tup in a.terms)
    return ideal_includes(IdealAntichain(a.n, masks), antichain)
