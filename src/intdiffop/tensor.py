"""Tensor arithmetic over n factors, including mixed quotient algebras.

An element is a sparse rational combination of n-tuples of basis monomials of
the one-variable algebra.  Each factor is either in full mode or in quotient
mode.  A quotient-mode factor lives in B1 = I1/F, where F is the ideal spanned
by the matrix units, so the words of I1 (int^k H^j, H^j and H^j d^k) are a
basis of it and its product is the I1 product with the matrix units dropped.
It prints on the monomials H^j D^d of the skew Laurent algebra `B1Element`
(d -> D, int -> D^-1).  The involution and the grading of I1 keep F, so they
act on both modes key by key.  Quotients by sums of the height-one primes are
realized by flipping factors into quotient mode.  A power of one monomial is an I1 power.
Elements print themselves: one full-mode factor as its I1 element does, any
other element term by term, and the polynomials in x_1..x_n they act on too.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, EmptyFactorList, LimitExceeded, ModeMismatch
from .i1 import (
    GEN_MONOS,
    I1Element,
    MatUnit,
    _UNIT,
    _mono_apply,
    _mono_mul_into,
    mono_degree,
    mono_involution,
    quotient_terms,
    word_text,
)
from .lattice import IdealAntichain, ideal_includes
from .polyh import join_terms, power_text, term_text
from .sparse import Sparse, _acc, _integral

MODE_FULL = "I"
MODE_QUOT = "B"

# A product, a tensor product or an action is refused once the terms it holds
# plus the expansion of one monomial pair would pass this, checked once per
# factor of each pair.  Each factor's product is bounded by i1.MAX_DEGREE, and
# this keeps n factors from multiplying that bound.  The test suite and the
# benchmark reach 4,319.
MAX_TERMS = 1 << 15

# Every key of an element over n factors is an n-tuple, so an element's size
# and a product's cost grow faster than n; the constructors of elements and of
# polynomials over n variables refuse a larger n before any key is built.  No
# test or workload uses more than 64 factors.
MAX_FACTORS = 64


def _factor_count(n: int) -> int:
    """n, refused unless it lies in 1..MAX_FACTORS."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_FACTORS:
        raise LimitExceeded(f"{n} factors, beyond the limit {MAX_FACTORS}")
    return n


def _b1_mul_into(m1: tuple, m2: tuple, out: dict):
    """Accumulate m1 * m2 in B1 into `out`, which holds no matrix units: the
    I1 product of two words with its matrix-unit terms, which lie in F,
    dropped."""
    _mono_mul_into(m1, m2, out, 1)
    for m in [m for m in out if m[0]]:
        del out[m]


def _expand_into(out: dict, factor_maps, c) -> dict:
    """Accumulate c times the tensor product of the per-factor maps
    (monomial -> coefficient) into `out` and return it; an empty map makes it
    zero.  Refuses to let `out` and the expansion grow beyond MAX_TERMS."""
    partial = [((), c)]
    for fk in factor_maps:
        if not fk:
            return out
        if len(out) + len(partial) * len(fk) > MAX_TERMS:
            raise LimitExceeded(f"a product of more than {MAX_TERMS} terms")
        partial = [
            (pref + (m,), v if fc == 1 else v * fc)
            for pref, v in partial
            for m, fc in fk.items()
        ]
    for tup, v in partial:
        _acc(out, tup, v)
    return out


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
        self.n = _factor_count(n)
        self.modes = tuple(modes) if modes is not None else (MODE_FULL,) * n
        if len(self.modes) != n:
            raise DimensionMismatch("mode vector length != n")
        if not {*self.modes} <= {MODE_FULL, MODE_QUOT}:
            raise ValueError(f"factor modes must be {MODE_FULL!r} or {MODE_QUOT!r}: {self.modes}")
        super().__init__(terms)
        if any(len(tup) != n for tup in self.terms):
            raise DimensionMismatch("term key length != n")

    @classmethod
    def zero(cls, n: int, modes=None) -> "InElement":
        return cls(n, None, modes)

    @classmethod
    def one(cls, n: int, modes=None) -> "InElement":
        # n is checked before a key of n factors is built
        return cls(n, None, modes)._scalar(1)

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

    def _product(self, other: "InElement") -> dict:
        out, modes = {}, self.modes
        for t1, v1 in self.terms.items():
            for t2, v2 in other.terms.items():
                _expand_into(out, map(_factor_mul, t1, t2, modes), v1 * v2)
        return out

    def _closed_power(self, k: int):
        """One term c*w, w the only monomial other than 1, is the I1 power
        (c*w)**k put back at w's factor.  Both modes agree on it: words on one
        side of degree 0 multiply with m = min(A, B) = 0 in _mono_mul_into, so
        no matrix unit arises."""
        if len(self.terms) == 1:
            ((tup, c),) = self.terms.items()
            if len(at := [i for i, m in enumerate(tup) if m != _UNIT]) == 1:
                i = at[0]
                p = I1Element({tup[i]: c}) ** k
                return self._new({(*tup[:i], m, *tup[i + 1:]): v for m, v in p.terms.items()})
        return None

    # bench/tracing.py patches these through the class's own __dict__, where
    # an inherited method is not found (tests/test_trace_points.py)
    __mul__ = Sparse.__mul__
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

    def to_text(self) -> str:
        """Canonical text; parse_operator(a.to_text(), a.n) = a in full mode."""
        if self.n == 1 and self.modes == (MODE_FULL,):
            return to_i1(self).to_text()
        return join_terms(
            term_text(v, [
                f for i, (m, mode) in enumerate(zip(tup, self.modes), 1)
                for f in (word_text(m, i) if mode == MODE_FULL else _pair_text(m, i))
            ])
            for tup, v in self.sorted_terms()
        )

    def __repr__(self):
        modes = f"modes={self.modes}, " if MODE_QUOT in self.modes else ""
        return f"InElement({modes}{self.to_text()})"


def _pair_text(pair: tuple, i: int) -> list:
    """The factors that print the pair (d, j) = H^j D^d at factor i."""
    d, j = pair
    return power_text(f"H{i}", j) + power_text(f"D{i}", d)


def tensor(factors) -> InElement:
    """Tensor product of full-mode one-variable elements."""
    factors = list(factors)
    if not factors:
        raise EmptyFactorList("tensor of zero factors")
    if not all(isinstance(f, I1Element) for f in factors):
        raise ModeMismatch("tensor factors must be full-mode elements")
    return InElement(len(factors), _expand_into({}, (f.terms for f in factors), Fraction(1)))


def from_i1(a: I1Element) -> InElement:
    return tensor([a])


def to_i1(a: InElement) -> I1Element:
    if a.n != 1 or a.modes != (MODE_FULL,):
        raise ModeMismatch("only n = 1 full-mode elements embed back")
    return I1Element({tup[0]: v for tup, v in a.terms.items()})


def gen_partial(n: int, i: int) -> InElement:
    return _gen(n, i, GEN_MONOS["d"])

def gen_integ(n: int, i: int) -> InElement:
    return _gen(n, i, GEN_MONOS["int"])

def gen_h(n: int, i: int) -> InElement:
    return _gen(n, i, GEN_MONOS["H"])

def gen_x(n: int, i: int) -> InElement:
    return _gen(n, i, GEN_MONOS["x"])

def gen_e(n: int, i: int, s: int, t: int) -> InElement:
    return _gen(n, i, MatUnit(s, t))


def _gen(n: int, i: int, mon) -> InElement:
    if not 1 <= i <= n:
        raise DimensionMismatch(f"factor index {i} outside 1..{n}")
    # n is checked before a key of n factors is built
    return InElement(n)._new({(_UNIT,) * (i - 1) + (mon,) + (_UNIT,) * (n - i): 1})


class PolyXn(Sparse):
    """Sparse polynomial in x_1..x_n, multidegree -> rational coefficient."""

    __slots__ = ("n",)

    def __init__(self, n: int, coeffs=None):
        self.n = _factor_count(n)
        super().__init__(coeffs)
        if any(len(deg) != n for deg in self.terms):
            raise DimensionMismatch("term key length != n")

    @classmethod
    def one(cls, n: int) -> "PolyXn":
        return cls(n)._scalar(1)

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

    def _product(self, other: "PolyXn") -> dict:
        out = {}
        for d1, v1 in self.terms.items():
            for d2, v2 in other.terms.items():
                _acc(out, tuple(a + b for a, b in zip(d1, d2)), v1 * v2)
        return out

    def to_text(self) -> str:
        """Canonical text, highest total degree first."""
        return join_terms(
            term_text(v, [f for i, e in enumerate(deg, 1) for f in power_text(f"x{i}", e)])
            for deg, v in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        )

    def __repr__(self):
        return f"PolyXn(n={self.n}, {self.to_text()})"


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
