"""Tensor arithmetic over n factors, including mixed quotient algebras.

An element is a sparse rational combination of n-tuples of factor monomials.
Each factor is either in full mode (basis monomials of the one-variable
algebra) or in quotient mode (the monomials H^j D^d, as pairs (d, j), of the
skew Laurent algebra `B1Element`, whose rule D^k p(H) = p(H+k) D^k they
multiply by).
Quotients by sums of the height-one primes are realized by flipping factors
into quotient mode.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, EmptyFactorList, ModeMismatch
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
from .laurent import B1Element
from .sparse import Sparse, _acc

MODE_FULL = "I"
MODE_QUOT = "B"


def _b1_monos(triples) -> dict:
    """{(d, j): c} from (d, j, c) triples with distinct (d, j)."""
    return {(d, j): c for d, j, c in triples}


def _b1_mul_into(m1: tuple, m2: tuple, out: dict):
    """Accumulate m1 * m2 into `out`, multiplied as `B1Element`s."""
    p = B1Element.monomial(*m1) * B1Element.monomial(*m2)
    for d, j, c in p.monomials():
        _acc(out, (d, j), c)


def _expand_into(out: dict, factor_maps, c):
    """Accumulate c times the tensor product of the per-factor maps
    (monomial -> coefficient) into `out`; an empty map makes it zero."""
    partial = [((), c)]
    for fk in factor_maps:
        if not fk:
            return
        partial = [
            (pref + (m,), v if fc == 1 else v * fc)
            for pref, v in partial
            for m, fc in fk.items()
        ]
    for tup, v in partial:
        _acc(out, tup, v)


def _unit(modes) -> tuple:
    """The basis tuple of the identity element."""
    return tuple((0, 0) if m == MODE_QUOT else _UNIT for m in modes)


def _factor_mul(m1, m2, mode) -> dict:
    out = {}
    if mode == MODE_QUOT:
        _b1_mul_into(m1, m2, out)
    else:
        # an int scale keeps the memo's int coefficients: no Fraction product
        _mono_mul_into(m1, m2, out, 1)
    return out


def _factor_involution(m, mode) -> dict:
    if mode == MODE_QUOT:
        # (H^j D^d)* = D^-d H^j
        d, j = m
        b = B1Element.monomial(-d, 0) * B1Element.monomial(0, j)
        return _b1_monos(b.monomials())
    return {mono_involution(m): 1}


def _factor_projection(m, flip: bool) -> dict:
    return _b1_monos(quotient_terms(m)) if flip else {m: 1}


def _factor_degree(m, mode) -> int:
    if mode == MODE_QUOT:
        # D has grading degree -1 (the integration D^-1 has degree +1)
        return -m[0]
    return mono_degree(m)


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
        modes = tuple(modes) if modes is not None else (MODE_FULL,) * n
        return cls(n, {_unit(modes): 1}, modes)

    @classmethod
    def from_scalar(cls, n: int, v, modes=None) -> "InElement":
        return cls.one(n, modes).scale(v)

    def _unit_key(self):
        return _unit(self.modes)

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
        return self._new(out)

    __pow__ = Sparse.__pow__

    def involution(self) -> "InElement":
        out = {}
        for tup, v in self.terms.items():
            _expand_into(out, map(_factor_involution, tup, self.modes), v)
        return self._new(out)

    def grade_component(self, d: int) -> "InElement":
        out = {
            tup: v
            for tup, v in self.terms.items()
            if sum(_factor_degree(m, mo) for m, mo in zip(tup, self.modes)) == d
        }
        return self._new(out)

    def sorted_terms(self):
        """The terms in printed order; keys are distinct, so no coefficients
        are compared."""
        return sorted(self.terms.items())

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
    return p._new(out)


def project_modulo_prime(a: InElement, index_set) -> InElement:
    """Quotient by the sum of the height-one primes at the given factors.

    Matrix-unit terms in those factors die; surviving monomials switch to
    quotient mode.  Multiplicative: project(ab) = project(a) * project(b).
    """
    idx = {i - 1 for i in index_set}
    for i in idx:
        if not 0 <= i < a.n:
            raise DimensionMismatch(f"factor index {i + 1} outside 1..{a.n}")
    flips = [k in idx and m == MODE_FULL for k, m in enumerate(a.modes)]
    modes = tuple(MODE_QUOT if f else m for f, m in zip(flips, a.modes))
    out = {}
    for tup, v in a.terms.items():
        _expand_into(out, map(_factor_projection, tup, flips), v)
    return InElement(a.n, out, modes)


def ideal_membership(a: InElement, antichain) -> bool:
    """True iff every support tuple is compatible with some generator.

    A tuple is f-compatible when each factor with f(i) = 0 is a matrix unit.
    """
    if any(m == MODE_QUOT for m in a.modes):
        raise ModeMismatch("membership is defined for full-mode elements")
    if a.n != antichain.n:
        raise DimensionMismatch(f"{a.n} factors vs antichain over {antichain.n}")
    for tup in a.terms:
        ok = False
        for mask in antichain.masks:
            if all(
                (mask >> k) & 1 or tup[k][0] for k in range(a.n)
            ):
                ok = True
                break
        if not ok:
            return False
    return True
